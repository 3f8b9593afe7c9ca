"""Command-line front end: solve, benchmark and verify subcommands.

Exit codes: 0 success, 1 failed verify property, 2 input error, 3 solver
failure.  The commands raise; ``main`` alone maps the exception to its exit
code and one stderr line.  A SolverError (from the interior point solver or
the simplex oracle) or a LinAlgError exits 3 with ``solver failure: ...``;
an InstanceFormatError, an OSError (a file that cannot be read or written)
or a rejected argument exits 2 with ``error: ...``.  Any other exception is
a defect and keeps its traceback.  All output is deterministic for a fixed
seed (benchmark timing is off by default for exactly this reason; opt in
with --timing wall).
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
from .verify import DEFAULT_SEED, SUITES, run_suites

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


class _ArgumentError(ValueError):
    """A rejected command-line argument."""


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
        "--suite", choices=("all", *SUITES), default="all",
    )
    ver.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ver.add_argument(
        "--instances", nargs="*", default=(),
        help="extra instance files checked against the oracle",
    )
    return parser


def _write_out(text: str, out_path) -> None:
    """Write ``text`` to ``out_path``, or stdout without one."""
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _config(epsilon: float) -> SolverConfig:
    # SolverConfig's own check, raised as an argument error: a ValueError
    # from inside a command is a defect, not bad input
    try:
        return SolverConfig(epsilon=epsilon)
    except ValueError as exc:
        raise _ArgumentError(str(exc)) from exc


def _solve_command(args) -> int:
    problem = load_instance(args.instance)
    report = short_step_solve(problem, _config(args.epsilon))
    oracle_value = None
    if args.oracle:
        oracle_value = solve_lp(problem).value
        print(
            f"|value - oracle_value| = {abs(report.value - oracle_value)!r}",
            file=sys.stderr,
        )
    _write_out(
        emit_report(report, oracle_value=oracle_value, include_trace=args.trace),
        args.out,
    )
    return 0


def _benchmark_command(args) -> int:
    if args.d < 1:
        raise _ArgumentError("--d must be at least 1")
    if args.trials < 0:
        raise _ArgumentError("--trials must be nonnegative")
    if any(n < 2 for n in args.sizes):
        raise _ArgumentError("all sizes must be at least 2")
    if len(set(args.sizes)) < len(args.sizes):
        # rows are keyed and grouped by (d, n, trial)
        raise _ArgumentError("--sizes must not repeat a size")
    if any(math.prod((n,) * args.d) > _MAX_BENCHMARK_ENTRIES for n in args.sizes):
        raise _ArgumentError(f"n**d must be at most {_MAX_BENCHMARK_ENTRIES}")
    config = _config(args.epsilon)

    # all instances are drawn from one stream before any solve starts, so the
    # table is a pure function of (d, sizes, trials, marginals, seed)
    rng = SplitMix64(args.seed)
    jobs = []
    for n in args.sizes:
        for trial in range(args.trials):
            jobs.append((n, trial, random_instance((n,) * args.d, "U", rng, args.marginals)))

    lines = [_CSV_HEADER]
    per_size = {}
    for n, trial, problem in jobs:
        started = time.perf_counter()
        report = short_step_solve(problem, config)
        elapsed = time.perf_counter() - started
        per_size.setdefault(n, []).append(report.iterations)
        oracle_field = repr(float(solve_lp(problem).value)) if args.oracle else ""
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
    _write_out("\n".join(lines) + "\n", args.out)
    return 0


def _verify_command(args) -> int:
    if args.seed < 0:
        raise _ArgumentError("--seed must be nonnegative")
    names = tuple(SUITES) if args.suite == "all" else (args.suite,)
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
    try:
        if args.command == "solve":
            return _solve_command(args)
        if args.command == "benchmark":
            return _benchmark_command(args)
        return _verify_command(args)
    except (SolverError, np.linalg.LinAlgError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except (InstanceFormatError, OSError, _ArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
