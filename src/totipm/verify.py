"""Built-in property suites behind the ``verify`` subcommand.

Each property the solver rests on is measured by one function here, which
takes its instances, random generator and sample counts and returns the
worst-case numbers without judging them.  The suites call these with small
samples; acceptance criteria 1-9 (``tests/test_acceptance.py``) call the
same functions with their own streams, seeds, sample counts and thresholds.

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
from .instances import SplitMix64, load_instance, random_instance
from .ipm import SolverConfig, short_step_solve
from .polytope import (
    MarginalProblem,
    null_basis_matrix,
    null_space_dim,
    random_interior_point,
    residual_norm,
    start_point,
)

__all__ = ["SUITES", "oracle_suite", "barrier_suite", "nullspace_suite", "run_suites"]

DEFAULT_SEED = 20240

PathAudit = namedtuple(
    "PathAudit",
    "count value_gap max_decrement max_residual min_entry max_gap_excess min_dual_slack duality_gap",
)
# how worst_path combines each field
_PATH_WORST = (sum, max, max, max, min, max, min, max)

NullBasisAudit = namedtuple("NullBasisAudit", "count expected dim rank kernel mode_sum")


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
        _, slack = oracle.dual_feasible(problem, lp.dual)
        audits.append(PathAudit(
            1, abs(report.value - lp.value), max(decrements), max(residuals),
            min(entries), max(excesses) - lp.value, slack,
            abs(oracle.dual_value(problem, lp.dual) - lp.value),
        ))
    return worst_path(audits)


def worst_path(audits) -> PathAudit:
    """The worst case over several path audits."""
    return PathAudit(*(worst(column) for worst, column in zip(_PATH_WORST, zip(*audits))))


def orthant_complexity(sizes, rng, samples: int) -> float:
    """max |theta(u) - N| over ``samples`` points of [0.05, 10)^N per N in
    ``sizes``: the orthant barrier's complexity is the entry count."""
    worst = 0.0
    for n in sizes:
        for _ in range(samples):
            u = rng.uniform(0.05, 10.0, size=n)
            worst = max(worst, abs(barrier.complexity_value(u) - n))
    return worst


def restricted_complexity(problems, rng, samples: int) -> tuple:
    """(points, max theta(u) - N) of the barrier restricted to the slice at
    ``samples`` random interior points of each problem."""
    worst = -math.inf
    for problem in problems:
        basis = null_basis_matrix(problem)
        for _ in range(samples):
            u = random_interior_point(problem, rng)
            worst = max(worst, barrier.complexity_value(u.ravel(), basis) - problem.size)
    return samples * len(problems), worst


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
        _, slack = barrier.check_self_concordance(barrier.directional_forms(u, v))
        worst_slack = min(worst_slack, slack)
    worst_eq = 0.0
    for _ in range(single):
        n = int(rng.integers(1, 10))
        u = rng.uniform(0.2, 3.0, size=n)
        v = np.zeros(n)
        v[int(rng.integers(0, n))] = rng.uniform(0.1, 2.0) * (-1.0) ** int(rng.integers(0, 2))
        _, slack = barrier.check_self_concordance(barrier.directional_forms(u, v))
        worst_eq = max(worst_eq, abs(slack))
    return worst_slack, worst_eq


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


def null_basis_structure(dims, variant: str) -> NullBasisAudit:
    """Null basis count, predicted count, null_space_dim, rank, max |A e|,
    and for "V" the largest mode sum of an element (None for "U"), of the
    slice of shape ``dims`` (it does not depend on cost or marginals)."""
    uniform = tuple(np.full(n, 1.0 / n) for n in dims)
    problem = MarginalProblem(cost=np.zeros(dims), marginals=uniform, variant=variant)
    mat = null_basis_matrix(problem)
    basis = list(mat.T.reshape((-1,) + tuple(dims)))
    if variant == "U":
        expected = math.prod(dims) - 1 - sum(n - 1 for n in dims)
    else:
        expected = math.prod(n - 1 for n in dims)
    rank = int(np.linalg.matrix_rank(mat)) if mat.size else 0
    rows = problem.constraints.matrix
    kernel = max((float(np.abs(rows @ e.ravel()).max()) for e in basis), default=0.0)
    mode_sum = None
    if variant == "V":
        mode_sum = max(
            (float(np.abs(e.sum(axis=k)).max()) for e in basis for k in range(len(dims))),
            default=0.0,
        )
    return NullBasisAudit(len(basis), expected, null_space_dim(problem), rank, kernel, mode_sum)


def _path_checks(name, problem) -> list:
    audit = path_audit([problem])
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


def oracle_suite(seed: int = DEFAULT_SEED, instance_paths=()) -> list:
    checks = []
    rng = SplitMix64(seed)
    layout = [
        ((2, 2), "U"),
        ((3, 3), "U"),
        ((4, 3), "U"),
        ((2, 2, 2), "U"),
        ((3, 2, 2), "U"),
        ((2, 2), "V"),
        ((3, 3), "V"),
        ((2, 2, 2), "V"),
        ((3, 2, 2), "V"),
    ]
    for i, (dims, variant) in enumerate(layout):
        kind = "uniform" if i % 2 == 0 else "random"
        problem = random_instance(dims, variant, rng, kind)
        checks += _path_checks(f"{variant}-{'x'.join(str(n) for n in dims)}-{kind}", problem)

    for dims in [(3, 3), (2, 2, 2)]:
        for rep in range(3):
            low, high = vertex_band([random_instance(dims, "U", rng, "random")])
            checks.append(
                (f"vertex-band-{'x'.join(str(n) for n in dims)}-{rep}",
                 low >= -1e-12 and high <= 1e-12,
                 f"dist - floor = {low!r}, dist - sqrt(2) = {high!r}")
            )

    for path in instance_paths:
        name = f"instance-file:{path}"
        try:
            checks += _path_checks(name, load_instance(path))
        except Exception as exc:
            checks.append((name, False, f"{type(exc).__name__}: {exc}"))
    return checks


def barrier_suite(seed: int = DEFAULT_SEED) -> list:
    checks = []
    rng = np.random.default_rng(seed)

    for n in (4, 8, 27):
        worst = orthant_complexity((n,), rng, 20)
        checks.append((f"complexity-exact-{n}", worst <= 1e-10, f"max |theta - N| = {worst!r}"))

    for dims, variant in [((3, 3), "U"), ((2, 2, 2), "U"), ((2, 2, 2), "V")]:
        problem = random_instance(dims, variant, SplitMix64(seed + sum(dims)), "random")
        _, excess = restricted_complexity([problem], rng, 20)
        checks.append(
            (f"complexity-bound-{variant}-{'x'.join(str(n) for n in dims)}",
             excess <= 1e-8, f"max restricted value - N = {excess!r}")
        )

    worst_slack, worst_eq = self_concordance(rng, 2000, 200)
    checks.append(("self-concordance", worst_slack >= -1e-12, f"min slack = {worst_slack!r}"))
    checks.append(("self-concordance-tight", worst_eq <= 1e-12, f"max |slack| = {worst_eq!r}"))

    _, gap, cap, unit = pseudo_quadratic_certificates(rng, 25, 25, 25)
    checks.append(("pseudo-quadratic-oracle", gap <= 1e-6, f"max |value - oracle| = {gap!r}"))
    checks.append(("pseudo-quadratic-cap", cap <= 1.0 + 1e-10, f"max value - 1 = {cap - 1.0!r}"))
    checks.append(("pseudo-quadratic-unit", unit <= 1e-10, f"max |value - 1| = {unit!r}"))
    return checks


def nullspace_suite(seed: int = DEFAULT_SEED) -> list:
    """Null bases depend on the shape alone, so this suite draws nothing;
    it takes ``seed`` like the other suites and ignores it."""
    checks = []
    shapes = [(2, 2), (3, 3), (4, 3), (2, 2, 2), (3, 2, 2), (3, 3, 3)]
    for dims in shapes:
        tag = "x".join(str(n) for n in dims)
        for variant in ("U", "V"):
            audit = null_basis_structure(dims, variant)
            checks.append(
                (f"basis-count-{variant}-{tag}",
                 audit.count == audit.expected == audit.dim == audit.rank,
                 f"count = {audit.count}, expected = {audit.expected}, rank = {audit.rank}")
            )
            checks.append(
                (f"basis-kernel-{variant}-{tag}", audit.kernel <= 1e-12,
                 f"max |A e| = {audit.kernel!r}")
            )
            if variant == "V":
                checks.append(
                    (f"basis-mode-sums-{tag}", audit.mode_sum <= 1e-12,
                     f"max |mode sum| = {audit.mode_sum!r}")
                )
    return checks


SUITES = {
    "oracle": oracle_suite,
    "barrier": barrier_suite,
    "nullspace": nullspace_suite,
}


def run_suites(names, seed: int = DEFAULT_SEED, instance_paths=()) -> list:
    """Run the named suites in order; returns (suite, name, ok, detail) rows."""
    rows = []
    for suite_name in names:
        runner = SUITES[suite_name]
        if suite_name == "oracle":
            results = runner(seed, instance_paths)
        else:
            results = runner(seed)
        rows.extend((suite_name, name, ok, detail) for name, ok, detail in results)
    return rows
