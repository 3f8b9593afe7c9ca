"""Benchmark of certified solves: one workload per invocation.

    python3 perfbench/run.py --workload u2-dense --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports totipm from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
split.  The last line of stdout is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is the
environment block.  A readable table goes to stderr.  Exit code 0 means the
run completed, whether or not every solve was correct; 2 means it could not
run at all.

Everything runs in this one process with one BLAS thread, one solve at a
time (closed loop); see README.md in this directory for why.
"""

import os

# before numpy loads: with the default two BLAS threads on two cores the
# timings measure the scheduler more than the program
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in BLAS_THREAD_VARIABLES:
    os.environ[_name] = "1"

import argparse
import json
import platform
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

from workloads import WORKLOADS  # noqa: E402  (this directory is sys.path[0])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_vendor = "unknown"
    return {
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": blas_vendor,
        "git_commit": _git_commit(),
    }


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "totipm" / "__init__.py").is_file():
        print(f"error: no totipm package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness
    import totipm
    from totipm.ipm import SolverConfig

    if Path(totipm.__file__).resolve().parent != SRC / "totipm":
        print(f"error: imported totipm from {totipm.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    config = SolverConfig(epsilon=workload.epsilon)
    documents = workload.documents(args.seed)
    setup_s, parse_s = harness.measure_setup(documents, str(SRC))
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as workdir:
        cases = harness.make_cases(documents, workdir)
        if workload.path == "cli":
            path = harness.CliPath(config, os.path.join(workdir, "report.json"))
        else:
            path = harness.DirectPath(config)
        if args.trace:
            metrics = harness.traced_run(cases, config, path, parse_s)
        else:
            harness.timed_loop(cases, path, args.seconds)
            harness.check_cases(cases, config)
            metrics = harness.end_to_end(cases, setup_s)

    attempted, failed = harness.tally(cases)
    for case in cases:
        for failure in case.failures:
            print(f"FAIL {args.workload} {case.label}: {failure}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {attempted - failed}/{attempted} solves certified, "
          f"fail_frac = {failed / max(attempted, 1)!r}, "
          f"err_over_eps = {harness.err_over_eps(cases, workload.epsilon)!r}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value!r} {unit}", file=sys.stderr)

    print(json.dumps({"environment": environment()}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
