"""Built-in property suites behind the ``verify`` subcommand.

Each property the solver rests on is measured by one function here, which
takes its instances, random generator and sample counts and returns the
worst-case numbers, and judged by one function next to it, which holds the
property's thresholds and turns the numbers into checks.  The suites call
both with small samples; acceptance criteria 1-9
(``tests/test_acceptance.py``) call the same two with their own streams,
seeds and sample counts, so each threshold is written once, here.

Three suites: "oracle" (interior point vs simplex agreement, duality
certificates, path integrity, vertex distance bands), "barrier" (complexity
identities, self-concordance sampling, pseudo-quadratic certificates), and
"nullspace" (null basis counts, ranks, kernels and mode sums).
Every check returns a (name, ok, detail) triple with deterministic detail
text, so a fixed seed gives byte-identical output across runs.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from . import barrier, oracle
from .instances import InstanceFormatError, SplitMix64, load_instance, random_instance
from .ipm import SolverConfig, SolverError, short_step_solve
from .polytope import (
    MarginalProblem,
    null_basis_matrix,
    null_space_dim,
    random_interior_point,
    residual_norm,
    start_point,
)

__all__ = [
    "SUITES", "oracle_suite", "barrier_suite", "nullspace_suite", "run_suites",
    # each property's measure, then its judge
    "path_audit", "worst_path", "path_checks",
    "orthant_complexity", "orthant_complexity_checks",
    "restricted_complexity", "restricted_complexity_checks",
    "self_concordance", "self_concordance_checks",
    "pseudo_quadratic_certificates", "pseudo_quadratic_checks",
    "vertex_band", "vertex_band_checks",
    "null_basis_structure", "null_basis_checks",
]

DEFAULT_SEED = 20240

PathAudit = namedtuple(
    "PathAudit",
    "count value_gap max_decrement max_residual min_entry max_gap_excess min_dual_slack duality_gap",
)
# how worst_path combines each field
_PATH_WORST = (sum, max, max, max, min, max, min, max)

NullBasisAudit = namedtuple("NullBasisAudit", "count dim rank kernel mode_sum")


def _tag(dims) -> str:
    return "x".join(str(n) for n in dims)


def path_audit(problems) -> PathAudit:
    """Worst case over the problems, solved at epsilon 1e-6, of |value -
    simplex| and, per trace row, of the decrement, residual, entry and gap
    excess <c, u> - theta / eta - simplex; and the simplex dual's smallest
    slack and its gap to the simplex value."""
    audits = []
    for problem in problems:
        theta = float(problem.size)
        rows = []

        def watch(state):
            rows.append((
                state.decrement,
                residual_norm(problem, state.point),
                float(state.point.min()),
                float(problem.cost.ravel() @ state.point.ravel()) - theta / state.eta,
            ))

        report = short_step_solve(problem, SolverConfig(epsilon=1e-6), observer=watch)
        lp = oracle.solve_lp(problem)
        decrements, residuals, entries, excesses = zip(*rows)
        audits.append(PathAudit(
            1, abs(report.value - lp.value), max(decrements), max(residuals),
            min(entries), max(excesses) - lp.value, oracle.min_dual_slack(problem, lp.dual),
            abs(oracle.dual_value(problem, lp.dual) - lp.value),
        ))
    return worst_path(audits)


def worst_path(audits) -> PathAudit:
    """The worst case over several path audits."""
    return PathAudit(*(worst(column) for worst, column in zip(_PATH_WORST, zip(*audits))))


def path_checks(name, audit: PathAudit) -> list:
    """The value, trace, feasibility and duality checks of a path audit."""
    return [
        (f"{name}:value", audit.value_gap <= 1e-6, f"|ipm - simplex| = {audit.value_gap!r}"),
        (f"{name}:trace",
         audit.max_decrement <= SolverConfig.decrement_beta and audit.max_gap_excess <= 1e-8,
         f"max decrement = {audit.max_decrement!r}, max gap excess = {audit.max_gap_excess!r}"),
        (f"{name}:feasibility", audit.max_residual <= 1e-8 and audit.min_entry > 0.0,
         f"max residual = {audit.max_residual!r}, min entry = {audit.min_entry!r}"),
        (f"{name}:duality", audit.min_dual_slack >= -1e-8 and audit.duality_gap <= 1e-8,
         f"min dual slack = {audit.min_dual_slack!r}, duality gap = {audit.duality_gap!r}"),
    ]


def orthant_complexity(sizes, rng, samples: int) -> float:
    """max |theta(u) - N| over ``samples`` points of [0.05, 10)^N per N in
    ``sizes``: the orthant barrier's complexity is the entry count."""
    worst = 0.0
    for n in sizes:
        for _ in range(samples):
            u = rng.uniform(0.05, 10.0, size=n)
            worst = max(worst, abs(barrier.complexity_value(u) - n))
    return worst


def orthant_complexity_checks(name, worst: float) -> list:
    return [(name, worst <= 1e-10, f"max |theta - N| = {worst!r}")]


def restricted_complexity(problems, rng, samples: int) -> float:
    """max theta(u) - N of the barrier restricted to the slice at
    ``samples`` random interior points of each problem."""
    worst = -math.inf
    for problem in problems:
        basis = null_basis_matrix(problem)
        for _ in range(samples):
            u = random_interior_point(problem, rng)
            worst = max(worst, barrier.complexity_value(u.ravel(), basis) - problem.size)
    return worst


def restricted_complexity_checks(name, excess: float) -> list:
    return [(name, excess <= 1e-8, f"max restricted value - N = {excess!r}")]


def self_concordance(rng, samples: int, single: int) -> tuple:
    """(min slack, max |slack|) of self-concordance along ``samples`` random
    directions and ``single`` single-coordinate ones, where it is tight."""
    # n = 1 is the equality case (its slack is pure rounding), so the generic
    # batch starts at n = 2; the single-coordinate ratios keep rounding small
    worst_slack = math.inf
    for _ in range(samples):
        n = int(rng.integers(2, 12))
        u = rng.uniform(0.05, 3.0, size=n)
        v = rng.normal(size=n)
        slack = barrier.self_concordance_slack(barrier.directional_forms(u, v))
        worst_slack = min(worst_slack, slack)
    worst_eq = 0.0
    for _ in range(single):
        n = int(rng.integers(1, 10))
        u = rng.uniform(0.2, 3.0, size=n)
        v = np.zeros(n)
        v[int(rng.integers(0, n))] = rng.uniform(0.1, 2.0) * (-1.0) ** int(rng.integers(0, 2))
        slack = barrier.self_concordance_slack(barrier.directional_forms(u, v))
        worst_eq = max(worst_eq, abs(slack))
    return worst_slack, worst_eq


def self_concordance_checks(name, measured: tuple) -> list:
    """The slack is nonnegative up to rounding, and rounding alone along
    single coordinates."""
    worst_slack, worst_eq = measured
    return [
        (name, worst_slack >= -1e-12, f"min slack = {worst_slack!r}"),
        (f"{name}-tight", worst_eq <= 1e-12, f"max |slack| = {worst_eq!r}"),
    ]


def pseudo_quadratic_certificates(rng, samples: int, dominated: int, rank_one: int) -> tuple:
    """(rank-deficient count, max |value - oracle|, dominated max, rank-one
    max |value - 1|) of y^T A^+ y: the oracle is max_u 2 y.u - u.A.u, and
    the value is at most 1 at A = y y^T + M M^T, exactly 1 at A = y y^T."""
    worst_gap = 0.0
    deficient = 0
    for _ in range(samples):
        n = int(rng.integers(2, 7))
        rank = int(rng.integers(1, n + 1))
        deficient += rank < n
        m = rng.normal(size=(n, rank))
        a = m @ m.T
        y = a @ rng.normal(size=n)
        value = barrier.pseudo_quadratic(a, y)
        u_star = np.linalg.lstsq(a, y, rcond=None)[0]
        reference = 2.0 * float(y @ u_star) - float(u_star @ a @ u_star)
        worst_gap = max(worst_gap, abs(value - reference))
    worst_cap = -math.inf
    for _ in range(dominated):
        n = int(rng.integers(2, 7))
        y = rng.normal(size=n)
        m = rng.normal(size=(n, int(rng.integers(1, n + 1))))
        worst_cap = max(worst_cap, barrier.pseudo_quadratic(np.outer(y, y) + m @ m.T, y))
    worst_unit = 0.0
    for _ in range(rank_one):
        n = int(rng.integers(2, 7))
        y = rng.normal(size=n)
        y *= rng.uniform(0.5, 3.0) / float(np.linalg.norm(y))
        worst_unit = max(worst_unit, abs(barrier.pseudo_quadratic(np.outer(y, y), y) - 1.0))
    return deficient, worst_gap, worst_cap, worst_unit


def pseudo_quadratic_checks(name, measured: tuple) -> list:
    _, gap, cap, unit = measured
    return [
        (f"{name}-oracle", gap <= 1e-6, f"max |value - oracle| = {gap!r}"),
        (f"{name}-cap", cap <= 1.0 + 1e-10, f"max value - 1 = {cap - 1.0!r}"),
        (f"{name}-unit", unit <= 1e-10, f"max |value - 1| = {unit!r}"),
    ]


def vertex_band(problems) -> tuple:
    """(min dist - floor, max dist - sqrt(2)), dist from the simplex vertex
    to the product tensor, floor = prod_k min_i p_k[i]."""
    worst_low, worst_high = math.inf, -math.inf
    for problem in problems:
        vertex = oracle.solve_lp(problem).x.reshape(problem.dims)
        dist = float(np.linalg.norm(start_point(problem) - vertex))
        floor = math.prod(float(p.min()) for p in problem.marginals)
        worst_low = min(worst_low, dist - floor)
        worst_high = max(worst_high, dist - math.sqrt(2.0))
    return worst_low, worst_high


def vertex_band_checks(name, measured: tuple) -> list:
    low, high = measured
    return [(name, low >= 0.0 and high <= 0.0,
             f"dist - floor = {low!r}, dist - sqrt(2) = {high!r}")]


def null_basis_structure(dims, variant: str) -> NullBasisAudit:
    """Null basis count, null_space_dim, rank, max |A e|, and for "V" the
    largest mode sum of an element (None for "U"), of the slice of shape
    ``dims`` (it does not depend on cost or marginals)."""
    uniform = tuple(np.full(n, 1.0 / n) for n in dims)
    problem = MarginalProblem(cost=np.zeros(dims), marginals=uniform, variant=variant)
    mat = null_basis_matrix(problem)
    basis = list(mat.T.reshape((-1,) + tuple(dims)))
    rank = int(np.linalg.matrix_rank(mat)) if mat.size else 0
    rows = problem.constraints.matrix
    kernel = max((float(np.abs(rows @ e.ravel()).max()) for e in basis), default=0.0)
    mode_sum = None if variant == "U" else max(
        (float(np.abs(e.sum(axis=k)).max()) for e in basis for k in range(len(dims))), default=0.0
    )
    return NullBasisAudit(len(basis), null_space_dim(problem), rank, kernel, mode_sum)


def null_basis_checks(dims, variant: str, audit: NullBasisAudit) -> list:
    """The basis has null_space_dim independent elements in the kernel of
    the rows, and under "V" every mode sum of an element is zero."""
    tag = _tag(dims)
    checks = [
        (f"basis-count-{variant}-{tag}", audit.count == audit.dim == audit.rank,
         f"count = {audit.count}, expected = {audit.dim}, rank = {audit.rank}"),
        (f"basis-kernel-{variant}-{tag}", audit.kernel <= 1e-12,
         f"max |A e| = {audit.kernel!r}"),
    ]
    if audit.mode_sum is not None:
        checks.append((f"basis-mode-sums-{tag}", audit.mode_sum <= 1e-12,
                       f"max |mode sum| = {audit.mode_sum!r}"))
    return checks


def oracle_suite(seed: int = DEFAULT_SEED, instance_paths=()) -> list:
    checks = []
    rng = SplitMix64(seed)
    layout = [(dims, "U") for dims in ((2, 2), (3, 3), (4, 3), (2, 2, 2), (3, 2, 2))]
    layout += [(dims, "V") for dims in ((2, 2), (3, 3), (2, 2, 2), (3, 2, 2))]
    for i, (dims, variant) in enumerate(layout):
        kind = "uniform" if i % 2 == 0 else "random"
        problem = random_instance(dims, variant, rng, kind)
        checks += path_checks(f"{variant}-{_tag(dims)}-{kind}", path_audit([problem]))

    for dims in [(3, 3), (2, 2, 2)]:
        for rep in range(3):
            band = vertex_band([random_instance(dims, "U", rng, "random")])
            checks += vertex_band_checks(f"vertex-band-{_tag(dims)}-{rep}", band)

    for path in instance_paths:
        name = f"instance-file:{path}"
        # an unreadable, malformed or unsolvable file fails its check; any
        # other exception is a defect and keeps its traceback
        try:
            checks += path_checks(name, path_audit([load_instance(path)]))
        except (InstanceFormatError, OSError, SolverError, np.linalg.LinAlgError) as exc:
            checks.append((name, False, f"{type(exc).__name__}: {exc}"))
    return checks


def barrier_suite(seed: int = DEFAULT_SEED) -> list:
    checks = []
    rng = np.random.default_rng(seed)

    for n in (4, 8, 27):
        checks += orthant_complexity_checks(f"complexity-exact-{n}", orthant_complexity((n,), rng, 20))

    for dims, variant in [((3, 3), "U"), ((2, 2, 2), "U"), ((2, 2, 2), "V")]:
        problem = random_instance(dims, variant, SplitMix64(seed + sum(dims)), "random")
        checks += restricted_complexity_checks(
            f"complexity-bound-{variant}-{_tag(dims)}", restricted_complexity([problem], rng, 20)
        )
    checks += self_concordance_checks("self-concordance", self_concordance(rng, 2000, 200))
    checks += pseudo_quadratic_checks("pseudo-quadratic", pseudo_quadratic_certificates(rng, 25, 25, 25))
    return checks


def nullspace_suite(seed: int = DEFAULT_SEED) -> list:
    """Null bases depend on the shape alone, so this suite draws nothing;
    it takes ``seed`` like the other suites and ignores it."""
    return [
        check
        for dims in [(2, 2), (3, 3), (4, 3), (2, 2, 2), (3, 2, 2), (3, 3, 3)]
        for variant in ("U", "V")
        for check in null_basis_checks(dims, variant, null_basis_structure(dims, variant))
    ]


SUITES = {
    "oracle": oracle_suite,
    "barrier": barrier_suite,
    "nullspace": nullspace_suite,
}


def run_suites(names, seed: int = DEFAULT_SEED, instance_paths=()) -> list:
    """Run the named suites in order; returns (suite, name, ok, detail) rows."""
    rows = []
    for suite_name in names:
        args = (seed, instance_paths) if suite_name == "oracle" else (seed,)
        rows += [(suite_name, *check) for check in SUITES[suite_name](*args)]
    return rows
