"""Built-in property suites behind the ``verify`` subcommand.

Three suites: "oracle" (interior point vs simplex agreement, duality
certificates, path integrity, vertex symmetry bounds), "barrier" (complexity
identities, self-concordance sampling, pseudo-quadratic certificates), and
"nullspace" (basis counts and orthogonality).  Every check returns a
(name, ok, detail) triple with deterministic detail text, so a fixed seed
gives byte-identical output across runs.
"""

from __future__ import annotations

import numpy as np

from . import barrier, oracle, polytope
from .instances import SplitMix64, load_instance, random_instance
from .ipm import SolverConfig, short_step_solve
from .polytope import (
    ConstraintSystem,
    MarginalProblem,
    centering_project,
    null_basis,
    null_basis_matrix,
    null_space_dim,
    random_interior_point,
    residual_norm,
    start_point,
    sym_lower_bound,
)
from .tensor import frobenius_norm, inner, marginal, mode_contract, outer

__all__ = ["SUITES", "oracle_suite", "barrier_suite", "nullspace_suite", "run_suites"]

DEFAULT_SEED = 20240


def _solve_and_compare(name, problem, checks):
    lp = oracle.solve_lp(problem)
    states = []
    report = short_step_solve(
        problem, SolverConfig(epsilon=1e-6), observer=states.append
    )
    diff = abs(report.value - lp.value)
    checks.append((f"{name}:value", diff <= 1e-6, f"|ipm - simplex| = {diff!r}"))

    worst_dec = max(row.decrement for row in report.trace)
    worst_gap = max(row.objective - lp.value - row.gap_bound for row in report.trace)
    worst_res = max(residual_norm(problem, s.point) for s in states)
    min_entry = min(float(s.point.min()) for s in states)
    checks.append(
        (f"{name}:trace", worst_dec <= 0.25 and worst_gap <= 1e-8,
         f"max decrement = {worst_dec!r}, max gap excess = {worst_gap!r}")
    )
    checks.append(
        (f"{name}:feasibility", worst_res <= 1e-8 and min_entry > 0.0,
         f"max residual = {worst_res!r}, min entry = {min_entry!r}")
    )

    if problem.variant == "U":
        cert = oracle.dual_certificate(problem, lp)
        ok_dual, slack = oracle.dual_feasible(problem, cert)
        gap = abs(oracle.dual_value(problem, cert) - lp.value)
        checks.append(
            (f"{name}:duality", ok_dual and gap <= 1e-8,
             f"min dual slack = {slack!r}, duality gap = {gap!r}")
        )
    return lp


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
        name = f"{variant}-{'x'.join(str(n) for n in dims)}-{kind}"
        _solve_and_compare(name, problem, checks)

    # vertices of the polytope keep the stated distance band around the
    # product tensor
    for dims in [(3, 3), (2, 2, 2)]:
        for rep in range(3):
            problem = random_instance(dims, "U", rng, "random")
            lp = oracle.solve_lp(problem)
            vertex = lp.x.reshape(dims)
            dist = frobenius_norm(start_point(problem) - vertex)
            lower = sym_lower_bound(problem) * np.sqrt(2.0)
            ok = lower - 1e-12 <= dist <= np.sqrt(2.0) + 1e-12
            checks.append(
                (f"vertex-band-{'x'.join(str(n) for n in dims)}-{rep}", ok,
                 f"{lower!r} <= {dist!r} <= {np.sqrt(2.0)!r}")
            )

    for path in instance_paths:
        name = f"instance-file:{path}"
        try:
            problem = load_instance(path)
            _solve_and_compare(name, problem, checks)
        except Exception as exc:
            checks.append((name, False, f"{type(exc).__name__}: {exc}"))
    return checks


def barrier_suite(seed: int = DEFAULT_SEED) -> list:
    checks = []
    rng = np.random.default_rng(seed)

    # complexity of the unrestricted barrier is exactly the entry count
    for n in (4, 8, 27):
        worst = 0.0
        for _ in range(20):
            u = rng.uniform(0.05, 3.0, size=n)
            worst = max(worst, abs(barrier.complexity_value(u) - n))
        checks.append((f"complexity-exact-{n}", worst <= 1e-10, f"max |theta - N| = {worst!r}"))

    # restriction to a feasible slice never pushes complexity above the count
    for dims, variant in [((3, 3), "U"), ((2, 2, 2), "U"), ((2, 2, 2), "V")]:
        problem = random_instance(dims, variant, SplitMix64(seed + sum(dims)), "random")
        basis = null_basis_matrix(problem)
        bound = float(problem.size)
        worst = -np.inf
        for _ in range(20):
            u = random_interior_point(problem, rng)
            worst = max(worst, barrier.complexity_value(u, basis))
        checks.append(
            (f"complexity-bound-{variant}-{'x'.join(str(n) for n in dims)}",
             worst <= bound + 1e-8, f"max restricted value = {worst!r} vs {bound!r}")
        )

    # sampled self-concordance slack stays nonnegative
    worst_slack = np.inf
    for _ in range(2000):
        n = int(rng.integers(2, 12))
        u = rng.uniform(0.05, 3.0, size=n)
        v = rng.normal(size=n)
        _, slack = barrier.check_self_concordance(barrier.directional_forms(u, v))
        worst_slack = min(worst_slack, slack)
    checks.append(("self-concordance", worst_slack >= -1e-12, f"min slack = {worst_slack!r}"))

    # equality along single-coordinate directions
    worst_eq = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 10))
        u = rng.uniform(0.05, 3.0, size=n)
        i = int(rng.integers(0, n))
        v = np.zeros(n)
        v[i] = rng.normal()
        _, slack = barrier.check_self_concordance(barrier.directional_forms(u, v))
        worst_eq = max(worst_eq, abs(slack))
    checks.append(("self-concordance-tight", worst_eq <= 1e-12, f"max |slack| = {worst_eq!r}"))

    # pseudo-quadratic against a least-squares solve, plus the unit cap
    worst_lstsq = 0.0
    worst_cap = -np.inf
    worst_unit = 0.0
    for rep in range(25):
        n = int(rng.integers(2, 8))
        rank = int(rng.integers(1, n + 1))
        m = rng.normal(size=(n, rank))
        a = m @ m.T
        y = a @ rng.normal(size=n)
        value = barrier.pseudo_quadratic(a, y)
        ref = float(y @ np.linalg.lstsq(a, y, rcond=None)[0])
        worst_lstsq = max(worst_lstsq, abs(value - ref))
        norm = np.sqrt(value)
        if norm > 0.0:
            scaled = y / norm
            capped = barrier.pseudo_quadratic(a, scaled)
            worst_cap = max(worst_cap, capped - 1.0)
            worst_unit = max(worst_unit, abs(barrier.pseudo_quadratic(np.outer(scaled, scaled), scaled) - 1.0))
    checks.append(("pseudo-quadratic-oracle", worst_lstsq <= 1e-6, f"max |eig - lstsq| = {worst_lstsq!r}"))
    checks.append(("pseudo-quadratic-cap", worst_cap <= 1e-10, f"max value - 1 = {worst_cap!r}"))
    checks.append(("pseudo-quadratic-unit", worst_unit <= 1e-10, f"max |value - 1| = {worst_unit!r}"))
    return checks


def nullspace_suite(seed: int = DEFAULT_SEED) -> list:
    checks = []
    shapes = [(2, 2), (3, 3), (4, 3), (2, 2, 2), (3, 2, 2), (3, 3, 3)]
    for dims in shapes:
        tag = "x".join(str(n) for n in dims)
        uniform = tuple(np.full(n, 1.0 / n) for n in dims)
        cost = np.zeros(dims)
        for variant in ("U", "V"):
            problem = MarginalProblem(cost=cost, marginals=uniform, variant=variant)
            basis = null_basis(problem)
            expected = null_space_dim(problem)
            mat = null_basis_matrix(problem)
            rank = int(np.linalg.matrix_rank(mat)) if mat.size else 0
            ok = len(basis) == expected and rank == expected
            checks.append(
                (f"basis-count-{variant}-{tag}", ok,
                 f"count = {len(basis)}, expected = {expected}, rank = {rank}")
            )
            system = ConstraintSystem(problem)
            worst = 0.0
            for element in basis:
                worst = max(worst, float(np.abs(system.matrix @ element.ravel()).max()))
            checks.append(
                (f"basis-kernel-{variant}-{tag}", worst <= 1e-12,
                 f"max |A e| = {worst!r}")
            )
            if variant == "V":
                worst_sum = 0.0
                for element in basis:
                    for k in range(len(dims)):
                        sums = mode_contract(element, k, np.ones(dims[k]))
                        worst_sum = max(worst_sum, float(np.abs(sums).max()))
                checks.append(
                    (f"basis-mode-sums-{tag}", worst_sum <= 1e-12,
                     f"max |mode sum| = {worst_sum!r}")
                )

    # the mean-subtraction projector lands in the mode-sum null space and is
    # idempotent
    rng = np.random.default_rng(seed)
    worst_proj = 0.0
    worst_idem = 0.0
    for dims in [(3, 3), (2, 3, 4)]:
        for _ in range(5):
            t = rng.normal(size=dims)
            proj = centering_project(t)
            for k in range(len(dims)):
                worst_proj = max(worst_proj, float(np.abs(proj.sum(axis=k)).max()))
            worst_idem = max(worst_idem, float(np.abs(centering_project(proj) - proj).max()))
    checks.append(("projector-range", worst_proj <= 1e-12, f"max |mode sum| = {worst_proj!r}"))
    checks.append(("projector-idempotent", worst_idem <= 1e-12, f"max drift = {worst_idem!r}"))
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
