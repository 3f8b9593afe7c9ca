"""Timed and traced runs of one workload, and the checks on every solve.

An untraced run gives the end-to-end metrics.  A traced run gives the split
by layer: it times only the calls this file makes into the public functions
of ``totipm.instances``, ``polytope``, ``ipm`` and ``oracle`` (spans around
calls; nothing inside the program is instrumented), and reads phase and step
times from the ``observer`` hook of ``short_step_solve``.

Every solve is checked outside the timed region against HiGHS on the same LP.
A solve that raises, exits nonzero or fails a check counts as failed, and so
does every solve of an instance whose exact counts differ between repeats.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.optimize import linprog

import totipm.cli
from totipm.instances import emit_report, load_instance, parse_instance
from totipm.ipm import SolverConfig, newton_direction, short_step_solve
from totipm.oracle import solve_lp, to_lp
from totipm.polytope import ConstraintSystem, null_basis_matrix, null_space_dim, residual_norm

RESIDUAL_TOL = 1e-8
# cold set-ups per run; setup_s is their median
SETUP_REPEATS = 5
# calls per instance of each polytope layer in a traced run
LAYER_REPEATS = 3
# path points per workload at which newton_direction is timed
DIRECTION_SAMPLES = 40

_PROBE = Path(__file__).resolve().with_name("setup_probe.py")


@dataclass(frozen=True)
class Result:
    """What one solve reported, as far as the checks need it.  ``optimizer``
    is None on the CLI path, whose report does not carry the point."""

    value: float
    iterations: int
    gap_bound: float
    trace_rows: int
    max_decrement: float
    oracle_value: float | None = None
    optimizer: np.ndarray | None = None


@dataclass
class Case:
    """One instance of the workload and everything measured on it."""

    label: str
    problem: object
    file: str
    seconds: list = field(default_factory=list)
    attempts: int = 0
    results: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    reference: float | None = None


def result_from_report(report, oracle_value=None) -> Result:
    return Result(
        value=float(report.value),
        iterations=int(report.iterations),
        gap_bound=float(report.gap_bound),
        trace_rows=len(report.trace),
        max_decrement=max(float(row.decrement) for row in report.trace),
        oracle_value=oracle_value,
        optimizer=report.optimizer,
    )


def result_from_document(text: str) -> Result:
    doc = json.loads(text)
    return Result(
        value=float(doc["value"]),
        iterations=int(doc["iterations"]),
        gap_bound=float(doc["gap_bound"]),
        trace_rows=len(doc["trace"]),
        max_decrement=max(float(row[1]) for row in doc["trace"]),
        oracle_value=float(doc["oracle_value"]),
    )


def check_result(problem, result: Result, reference: float, epsilon: float, beta: float) -> list:
    """Failures of one solve against its certificate and the reference optimum."""
    failures = []
    if not result.gap_bound <= epsilon:
        failures.append(f"gap bound {result.gap_bound!r} > epsilon {epsilon!r}")
    if not abs(result.value - reference) <= epsilon:
        failures.append(f"|value - HiGHS| = {abs(result.value - reference)!r} > {epsilon!r}")
    if result.oracle_value is not None and not abs(result.value - result.oracle_value) <= epsilon:
        failures.append(
            f"|value - simplex| = {abs(result.value - result.oracle_value)!r} > {epsilon!r}"
        )
    if not result.max_decrement <= beta:
        failures.append(f"trace decrement {result.max_decrement!r} > beta {beta!r}")
    if result.optimizer is not None:
        res = residual_norm(problem, result.optimizer)
        if not res <= RESIDUAL_TOL:
            failures.append(f"residual {res!r} > {RESIDUAL_TOL!r}")
        low = float(np.min(result.optimizer))
        if not low > 0.0:
            failures.append(f"optimizer entry {low!r} is not positive")
    return failures


def check_repeats(results: list) -> list:
    """Exact-count guard: every solve of one instance takes the same steps."""
    counts = sorted({(r.iterations, r.trace_rows) for r in results})
    if len(counts) > 1:
        return [f"(iterations, trace rows) differ across repeats: {counts}"]
    return []


def reference_value(problem) -> tuple:
    """HiGHS optimum of the same LP and the seconds it took."""
    lp = to_lp(problem)
    started = time.perf_counter()
    res = linprog(lp.c, A_eq=lp.a, b_eq=lp.b, bounds=(0, None), method="highs")
    elapsed = time.perf_counter() - started
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return float(res.fun), elapsed


class DirectPath:
    """The library user: ``short_step_solve`` on a parsed problem."""

    def __init__(self, config: SolverConfig):
        self.config = config

    def call(self, case: Case):
        return short_step_solve(case.problem, self.config)

    def collect(self, case: Case, raw) -> Result:
        return result_from_report(raw)


class CliPath:
    """The command-line user: ``totipm solve FILE --oracle --trace --out``."""

    def __init__(self, config: SolverConfig, out_file: str):
        self.config = config
        self.out_file = out_file

    def call(self, case: Case):
        argv = ["solve", case.file, "--epsilon", repr(self.config.epsilon),
                "--oracle", "--trace", "--out", self.out_file]
        # the CLI reports |value - oracle_value| on stderr for every solve
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            return totipm.cli.main(argv), err

    def collect(self, case: Case, raw) -> Result:
        code, err = raw
        if code != 0:
            raise RuntimeError(f"totipm solve exited with code {code}: {err.getvalue().strip()}")
        with open(self.out_file, encoding="utf-8") as handle:
            return result_from_document(handle.read())


def make_cases(documents: list, workdir: str) -> list:
    cases = []
    for i, doc in enumerate(documents):
        path = os.path.join(workdir, f"instance-{i:02d}.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(doc)
        problem = parse_instance(doc)
        name = f"{problem.variant} {'x'.join(str(n) for n in problem.dims)}"
        cases.append(Case(label=name, problem=problem, file=path))
    return cases


def measure_setup(documents: list, src_dir: str) -> tuple:
    """Median (import + parse) and median parse seconds over cold set-ups,
    each in a fresh interpreter that imports totipm and parses every
    document of the workload."""
    payload = json.dumps(documents)
    totals, parses = [], []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(_PROBE), src_dir],
            input=payload, capture_output=True, text=True, check=True, timeout=120,
        )
        probe = json.loads(out.stdout.strip().splitlines()[-1])
        totals.append(probe["import_s"] + probe["parse_s"])
        parses.append(probe["parse_s"])
    return statistics.median(totals), statistics.median(parses)


def _fail_with_traceback(case: Case, what: str) -> None:
    case.failures.append(f"{what}: {traceback.format_exc().strip().splitlines()[-1]}")
    traceback.print_exc(file=sys.stderr)


def _attempt(case: Case, path) -> None:
    """One timed solve; the result is read back after the clock stops."""
    case.attempts += 1
    started = time.perf_counter()
    try:
        raw = path.call(case)
    except Exception:
        case.seconds.append(time.perf_counter() - started)
        _fail_with_traceback(case, "solve raised")
        return
    case.seconds.append(time.perf_counter() - started)
    try:
        case.results.append(path.collect(case, raw))
    except Exception as exc:
        case.failures.append(f"unreadable result: {exc!r}")


def timed_loop(cases: list, path, seconds: float) -> None:
    """Closed loop over the instances in order, one solve at a time, for
    about ``seconds``: every instance runs once, and after that a solve
    starts only if its previous duration still fits in the budget."""
    started = time.perf_counter()
    k = 0
    while True:
        case = cases[k % len(cases)]
        if k >= len(cases) and time.perf_counter() - started + case.seconds[-1] > seconds:
            break
        _attempt(case, path)
        k += 1


def check_cases(cases: list, config: SolverConfig) -> float:
    """Reference optimum and checks for every solve, outside the clock.
    The CLI report does not carry the optimizer, so an instance that only
    went through the CLI is solved once more in-process for the residual
    check; that solve must take the same steps.  Returns HiGHS seconds."""
    highs = 0.0
    for case in cases:
        try:
            case.reference, elapsed = reference_value(case.problem)
            if case.results and all(r.optimizer is None for r in case.results):
                case.results.append(result_from_report(short_step_solve(case.problem, config)))
        except Exception as exc:
            case.failures.append(f"check could not run: {exc!r}")
            continue
        highs += elapsed
        case.failures += check_repeats(case.results)
        for result in case.results:
            case.failures += check_result(case.problem, result, case.reference,
                                          config.epsilon, config.decrement_beta)
    return highs


def tally(cases: list) -> tuple:
    """(attempted, failed): every solve of an instance with a failure fails."""
    attempted = sum(c.attempts for c in cases)
    failed = sum(max(c.attempts, 1) for c in cases if c.failures)
    return attempted, failed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def err_over_eps(cases: list, epsilon: float) -> float:
    """Largest |value - HiGHS optimum| / epsilon over every checked solve."""
    return max((abs(r.value - c.reference) / epsilon
                for c in cases if c.reference is not None for r in c.results), default=0.0)


def end_to_end(cases: list, setup_s: float) -> dict:
    attempted, failed = tally(cases)
    wall = sum(statistics.median(c.seconds) for c in cases if c.seconds)
    steps = sum(c.results[0].iterations for c in cases if c.results)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "ms_per_step": (1000.0 * wall / steps if steps else 0.0, "ms"),
        "steps": (float(steps), "count"),
        "certified_frac": (1.0 - failed / max(attempted, 1), "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


class _Observer:
    """Observer for short_step_solve: a timestamp per trace row, the Phase I
    step count, and the iterate at every ``stride``-th row."""

    def __init__(self, stride: int):
        self.stride = stride
        self.stamps = []
        self.phase1_steps = None
        self.samples = []

    def __call__(self, state):
        self.stamps.append(time.perf_counter())
        if self.phase1_steps is None:
            self.phase1_steps = state.iteration
        if (len(self.stamps) - 1) % self.stride == 0:
            self.samples.append((state.eta, state.point.copy()))


@dataclass
class Layers:
    """Per-layer measurements of one traced run."""

    spans: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    step_ms: list = field(default_factory=list)
    direction_ms: list = field(default_factory=list)
    build_ms: list = field(default_factory=list)

    def span(self, name: str, seconds: float) -> None:
        self.spans[name] = self.spans.get(name, 0.0) + seconds

    def count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


def _timed(fn, *args, **kwargs):
    started = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - started


def _traced_solve(case: Case, config: SolverConfig, cli: bool, stride: int, layers: Layers):
    """One solve with spans around each public call its path makes.  The CLI
    path is re-enacted call by call: load, solve, simplex oracle, emit."""
    observer = _Observer(stride)
    started = time.perf_counter()
    problem = load_instance(case.file) if cli else case.problem
    solve_started = time.perf_counter()
    report = short_step_solve(problem, config, observer=observer)
    oracle_value = None
    if cli:
        simplex, elapsed = _timed(solve_lp, problem)
        layers.span("oracle.simplex_s", elapsed)
        oracle_value = simplex.value
        text, elapsed = _timed(emit_report, report, oracle_value=oracle_value, include_trace=True)
        layers.span("instances.emit_report_s", elapsed)
        with open(case.file + ".out", "w", encoding="utf-8") as handle:
            handle.write(text)
    wall = time.perf_counter() - started

    stamps = observer.stamps
    layers.span("ipm.phase1_s", stamps[0] - solve_started)
    layers.span("ipm.phase2_s", stamps[-1] - stamps[0])
    layers.count("ipm.phase1_steps", observer.phase1_steps)
    layers.count("ipm.phase2_steps", len(stamps) - 1)
    layers.step_ms += [1000.0 * (b - a) for a, b in zip(stamps, stamps[1:])]
    if observer.phase1_steps + len(stamps) - 1 != report.iterations:
        case.failures.append("observer rows do not add up to the reported iterations")
    return report, result_from_report(report, oracle_value), wall, observer.samples


def _repeated(fn, problem, count) -> tuple:
    """Median seconds of LAYER_REPEATS calls and the set of counts they gave."""
    times, counts = [], set()
    for _ in range(LAYER_REPEATS):
        out, elapsed = _timed(fn, problem)
        times.append(elapsed)
        counts.add(count(out))
    return statistics.median(times), counts


def _layer_calls(case: Case, report, cli: bool, layers: Layers) -> None:
    """The layer calls a dense solve does not make (simplex oracle, report
    emission), and ConstraintSystem and the null basis, repeated: their
    counts must repeat."""
    if not cli:
        _, elapsed = _timed(solve_lp, case.problem)
        layers.span("oracle.simplex_s", elapsed)
        _, elapsed = _timed(emit_report, report, include_trace=True)
        layers.span("instances.emit_report_s", elapsed)
    seconds, rows = _repeated(ConstraintSystem, case.problem, lambda system: system.n_rows)
    layers.span("polytope.constraint_system_s", seconds)
    seconds, dims = _repeated(null_basis_matrix, case.problem, lambda basis: basis.shape[1])
    layers.span("polytope.null_basis_s", seconds)
    dims.add(null_space_dim(case.problem))
    if len(rows) > 1 or len(dims) > 1:
        case.failures.append(f"polytope counts differ across repeats: rows {rows}, null dim {dims}")
    layers.count("polytope.rows", min(rows))
    layers.count("polytope.null_dim", min(dims))


def _direction_calls(case: Case, samples: list, layers: Layers) -> None:
    """newton_direction at sampled path points, next to the workspace build
    it includes (ConstraintSystem for U, null_basis_matrix for V)."""
    build = ConstraintSystem if case.problem.variant == "U" else null_basis_matrix
    for eta, point in samples:
        _, elapsed = _timed(build, case.problem)
        layers.build_ms.append(1000.0 * elapsed)
        _, elapsed = _timed(newton_direction, case.problem, point, eta)
        layers.direction_ms.append(1000.0 * elapsed)


def traced_run(cases: list, config: SolverConfig, path, parse_s: float) -> dict:
    """One untraced pass, one traced pass, then the layer calls that are not
    on the solve path.  Returns the per-layer metrics."""
    untraced = 0.0
    for case in cases:
        _attempt(case, path)
        untraced += case.seconds[-1]

    cli = isinstance(path, CliPath)
    total_rows = sum(c.results[0].trace_rows for c in cases if c.results)
    stride = max(1, total_rows // DIRECTION_SAMPLES)
    layers = Layers()
    traced = 0.0
    for case in cases:
        case.attempts += 1
        try:
            report, result, wall, samples = _traced_solve(case, config, cli, stride, layers)
            traced += wall
            case.results.append(result)
            _layer_calls(case, report, cli, layers)
            _direction_calls(case, samples, layers)
        except Exception:
            _fail_with_traceback(case, "traced run raised")
    metrics = per_layer(layers, parse_s, untraced, traced, check_cases(cases, config))
    metrics["check.err_over_eps"] = (err_over_eps(cases, config.epsilon), "ratio")
    return metrics


def _percentile(samples: list, q: float) -> float:
    return float(np.percentile(samples, q)) if samples else 0.0


def per_layer(layers: Layers, parse_s: float, untraced: float, traced: float, highs: float) -> dict:
    spans, counts = layers.spans, layers.counts
    phase1_steps = counts.get("ipm.phase1_steps", 0)
    steps = phase1_steps + counts.get("ipm.phase2_steps", 0)
    step_p50 = _percentile(layers.step_ms, 50)
    direction_p50 = _percentile(layers.direction_ms, 50)
    metrics = {"instances.parse_s": (parse_s, "s")}
    for name in ("instances.emit_report_s", "polytope.constraint_system_s", "polytope.null_basis_s"):
        metrics[name] = (spans.get(name, 0.0), "s")
    for name in ("polytope.rows", "polytope.null_dim"):
        metrics[name] = (float(counts.get(name, 0)), "count")
    for phase in ("ipm.phase1", "ipm.phase2"):
        metrics[phase + "_s"] = (spans.get(phase + "_s", 0.0), "s")
        metrics[phase + "_steps"] = (float(counts.get(phase + "_steps", 0)), "count")
    metrics.update({
        "ipm.step_ms_p50": (step_p50, "ms"),
        "ipm.step_ms_p99": (_percentile(layers.step_ms, 99), "ms"),
        "ipm.newton_direction_ms_p50": (direction_p50, "ms"),
        "ipm.factor_share": (
            (direction_p50 - _percentile(layers.build_ms, 50)) / step_p50 if step_p50 else 0.0, "ratio"),
        "ipm.phase1_share": (phase1_steps / steps if steps else 0.0, "ratio"),
        "oracle.simplex_s": (spans.get("oracle.simplex_s", 0.0), "s"),
        "ref.highs_s": (highs, "s"),
        "ref.ipm_over_highs": (untraced / highs if highs else 0.0, "ratio"),
        "trace.overhead_frac": (traced / untraced - 1.0 if untraced else 0.0, "ratio"),
    })
    return metrics
