"""Command-line front end: solve, benchmark and verify subcommands.

Exit codes: 0 success, 1 failed verify property, 2 input error, 3 solver
failure.  All output is deterministic for a fixed seed (benchmark timing is
off by default for exactly this reason; opt in with --timing wall).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time

import numpy as np

from . import _lapack
from .instances import (
    InstanceFormatError,
    SplitMix64,
    emit_report,
    load_instance,
    random_instance,
)
from .ipm import SolverConfig, SolverError, short_step_solve
from .oracle import solve_lp
from .verify import DEFAULT_SEED, run_suites

__all__ = ["main"]

_CSV_HEADER = "d,n,trial,iterations,predicted_bound,value,oracle_value,seconds"

# largest instance (n**d entries) the benchmark command will generate
_MAX_BENCHMARK_ENTRIES = 1_000_000

# the variables by which a user chooses the BLAS thread count.  Without
# them a command runs BLAS on one thread: the solver's matrices are small,
# and on a 2-core Xeon at eps 1e-4 a V 8x8x8 solve took 0.51 s with the
# default threads against 0.23-0.40 s with one, U 32x32 0.29-0.34 s against
# 0.18-0.22 s.  Setting a variable from here would come too late: OpenBLAS
# reads them when numpy loads it.
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="totipm",
        description="Interior point solver for dense multi-marginal optimal transport",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one instance file")
    solve.add_argument("instance", help="path to a JSON instance")
    solve.add_argument("--epsilon", type=float, default=1e-6, help="target precision")
    solve.add_argument("--trace", action="store_true", help="include the iteration trace")
    solve.add_argument("--oracle", action="store_true", help="also run the simplex oracle")
    solve.add_argument("--out", help="write the report here instead of stdout")

    bench = sub.add_parser("benchmark", help="iteration-count scaling table")
    bench.add_argument("--d", type=int, default=2, help="number of modes")
    bench.add_argument(
        "--sizes", type=int, nargs="+", default=[4, 8, 16],
        help=f"mode sizes n, with n**d at most {_MAX_BENCHMARK_ENTRIES}",
    )
    bench.add_argument("--epsilon", type=float, default=1e-4)
    bench.add_argument("--seed", type=int, default=DEFAULT_SEED)
    bench.add_argument("--trials", type=int, default=3, help="instances per size")
    bench.add_argument(
        "--marginals", choices=("uniform", "random"), default="uniform",
        help="marginal style for generated instances",
    )
    bench.add_argument("--oracle", action="store_true", help="fill the oracle_value column")
    bench.add_argument(
        "--timing", choices=("none", "wall"), default="none",
        help="fill the seconds column (makes output nondeterministic)",
    )
    bench.add_argument("--out", help="write the CSV here instead of stdout")

    ver = sub.add_parser("verify", help="run the built-in property suites")
    ver.add_argument(
        "--suite", choices=("all", "oracle", "barrier", "nullspace"), default="all",
    )
    ver.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ver.add_argument(
        "--instances", nargs="*", default=(),
        help="extra instance files checked against the oracle",
    )
    return parser


def _write_out(text: str, out_path) -> int:
    """Write ``text`` to ``out_path``, or stdout without one; returns the
    exit code, 2 when the file cannot be written."""
    if not out_path:
        sys.stdout.write(text)
        return 0
    try:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _solve_command(args) -> int:
    try:
        problem = load_instance(args.instance)
    except (InstanceFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        config = SolverConfig(epsilon=args.epsilon)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = short_step_solve(problem, config)
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    oracle_value = None
    if args.oracle:
        oracle_value = solve_lp(problem).value
        print(
            f"|value - oracle_value| = {abs(report.value - oracle_value)!r}",
            file=sys.stderr,
        )
    return _write_out(
        emit_report(report, oracle_value=oracle_value, include_trace=args.trace),
        args.out,
    )


def _benchmark_command(args) -> int:
    if args.d < 1:
        print("error: --d must be at least 1", file=sys.stderr)
        return 2
    if args.trials < 0:
        print("error: --trials must be nonnegative", file=sys.stderr)
        return 2
    if any(n < 2 for n in args.sizes):
        print("error: all sizes must be at least 2", file=sys.stderr)
        return 2
    if any(math.prod((n,) * args.d) > _MAX_BENCHMARK_ENTRIES for n in args.sizes):
        print(f"error: n**d must be at most {_MAX_BENCHMARK_ENTRIES}", file=sys.stderr)
        return 2
    try:
        config = SolverConfig(epsilon=args.epsilon)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # all instances are drawn from one stream before any solve starts, so the
    # table is a pure function of (d, sizes, trials, marginals, seed)
    rng = SplitMix64(args.seed)
    jobs = []
    for n in args.sizes:
        for trial in range(args.trials):
            jobs.append((n, trial, random_instance((n,) * args.d, "U", rng, args.marginals)))

    results = []
    try:
        for n, trial, problem in jobs:
            started = time.perf_counter()
            report = short_step_solve(problem, config)
            elapsed = time.perf_counter() - started
            oracle_value = solve_lp(problem).value if args.oracle else None
            results.append((n, trial, report, oracle_value, elapsed))
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3

    lines = [_CSV_HEADER]
    per_size = {}
    for n, trial, report, oracle_value, elapsed in results:
        per_size.setdefault(n, []).append(report.iterations)
        oracle_field = "" if oracle_value is None else repr(float(oracle_value))
        seconds_field = "" if args.timing == "none" else f"{elapsed:.6f}"
        lines.append(
            f"{args.d},{n},{trial},{report.iterations},{report.predicted_bound!r},"
            f"{report.value!r},{oracle_field},{seconds_field}"
        )
    if len(per_size) >= 2:
        sizes = sorted(per_size)
        mean_iters = [float(np.mean(per_size[n])) for n in sizes]
        slope = float(np.polyfit(np.log(sizes), np.log(mean_iters), 1)[0])
        lines.append(f"# loglog_slope d={args.d}: {slope!r}")
    return _write_out("\n".join(lines) + "\n", args.out)


def _verify_command(args) -> int:
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2
    names = ("oracle", "barrier", "nullspace") if args.suite == "all" else (args.suite,)
    rows = run_suites(names, seed=args.seed, instance_paths=tuple(args.instances))
    failed = 0
    for suite, name, ok, detail in rows:
        mark = "PASS" if ok else "FAIL"
        if not ok:
            failed += 1
        print(f"[{mark}] {suite}: {name} ({detail})")
    print(f"{len(rows) - failed}/{len(rows)} checks passed")
    return 1 if failed else 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if not any(name in os.environ for name in _THREAD_VARIABLES):
        _lapack.set_blas_threads(1)
    if args.command == "solve":
        return _solve_command(args)
    if args.command == "benchmark":
        return _benchmark_command(args)
    return _verify_command(args)


if __name__ == "__main__":
    sys.exit(main())
