"""Acceptance gate: one test per criterion, one [PASS]/[FAIL] line each.

The summary lines are collected in ``streams.criterion_lines`` and printed
after the run by conftest (pytest's capture would swallow them mid-test);
the same text is the assertion message on failure.  Criteria 1, 2 and 7
share two module-scoped solve batches.
"""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from streams import criterion_01_problems, criterion_02_problems, criterion_lines

import totipm.cli as cli
from totipm.barrier import (
    check_self_concordance,
    complexity_value,
    directional_forms,
    pseudo_quadratic,
)
from totipm.instances import SplitMix64, random_instance
from totipm.ipm import DEFAULT_C0, SolverConfig, predicted_iterations, short_step_solve
from totipm.oracle import solve_lp
from totipm.polytope import (
    MarginalProblem,
    null_basis,
    null_basis_matrix,
    null_space_dim,
    random_interior_point,
    residual_norm,
)
from totipm.tensor import frobenius_norm, inner, mode_contract, outer

SEED = 20240


def _criterion(number, label, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number:02d} {label}: {detail}"
    criterion_lines.append(line)
    assert ok, line


def _solve_with_audit(problem, epsilon=1e-6):
    """Solve one instance, recording worst-case per-row path statistics."""
    theta = float(problem.size)
    stats = {"dec": 0.0, "res": 0.0, "min": math.inf, "excess": -math.inf}

    def watch(state):
        stats["dec"] = max(stats["dec"], state.decrement)
        stats["res"] = max(stats["res"], residual_norm(problem, state.point))
        stats["min"] = min(stats["min"], float(state.point.min()))
        objective = float(inner(problem.cost, state.point))
        stats["excess"] = max(stats["excess"], objective - theta / state.eta)

    report = short_step_solve(problem, SolverConfig(epsilon=epsilon), observer=watch)
    oracle = solve_lp(problem)
    return SimpleNamespace(
        problem=problem,
        report=report,
        oracle_value=oracle.value,
        max_decrement=stats["dec"],
        max_residual=stats["res"],
        min_entry=stats["min"],
        max_gap_excess=stats["excess"] - oracle.value,
    )


@pytest.fixture(scope="module")
def u_batch():
    start = time.perf_counter()
    records = [_solve_with_audit(problem) for problem in criterion_01_problems(SEED)]
    return records, time.perf_counter() - start


@pytest.fixture(scope="module")
def v_batch():
    start = time.perf_counter()
    records = [_solve_with_audit(problem) for problem in criterion_02_problems(SEED + 1)]
    return records, time.perf_counter() - start


def test_criterion_01_u_variant_matches_simplex(u_batch):
    records, elapsed = u_batch
    worst = max(abs(r.report.value - r.oracle_value) for r in records)
    ok = len(records) == 50 and worst <= 1e-6 and elapsed < 60.0
    _criterion(
        1,
        "U-variant agrees with the simplex oracle",
        ok,
        f"50 instances, max |value - oracle| = {worst:.3e}, {elapsed:.1f}s",
    )


def test_criterion_02_v_variant_matches_simplex(v_batch):
    records, elapsed = v_batch
    worst = max(abs(r.report.value - r.oracle_value) for r in records)
    ok = len(records) == 20 and worst <= 1e-6
    _criterion(
        2,
        "V-variant agrees with the simplex oracle",
        ok,
        f"20 instances, max |value - oracle| = {worst:.3e}, {elapsed:.1f}s",
    )


def test_criterion_03_orthant_complexity_exact():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for n in (4, 8, 27):
        for _ in range(100):
            u = rng.uniform(0.05, 10.0, size=n)
            worst = max(worst, abs(complexity_value(u) - n))
    ok = worst <= 1e-10
    _criterion(
        3,
        "orthant barrier complexity equals the entry count",
        ok,
        f"N in (4, 8, 27), 100 points each, max |value - N| = {worst:.3e}",
    )


def test_criterion_04_restricted_complexity_bounded():
    rng = np.random.default_rng(SEED)
    gen = SplitMix64(SEED + 2)
    worst_excess = -math.inf
    points = 0
    for dims in ((3, 3), (2, 2, 2)):
        for variant in ("U", "V"):
            for kind in ("uniform", "random"):
                problem = random_instance(dims, variant, gen, kind)
                basis = null_basis_matrix(problem)
                for _ in range(100):
                    u = random_interior_point(problem, rng)
                    value = complexity_value(u.ravel(), basis)
                    worst_excess = max(worst_excess, value - problem.size)
                    points += 1
    ok = worst_excess <= 1e-8
    _criterion(
        4,
        "restricted complexity never exceeds the entry count",
        ok,
        f"{points} interior points, max value - bound = {worst_excess:.3e}",
    )


def test_criterion_05_self_concordance_sampled():
    rng = np.random.default_rng(SEED)
    worst_slack = math.inf
    # n = 1 is itself the equality case (slack is pure rounding of either
    # sign), so the generic batch starts at n = 2; the dedicated batch below
    # handles equality directions with ratio sizes that keep rounding small
    for _ in range(10_000):
        n = int(rng.integers(2, 12))
        u = rng.uniform(0.05, 3.0, size=n)
        v = rng.normal(size=n)
        _, slack = check_self_concordance(directional_forms(u, v))
        worst_slack = min(worst_slack, slack)
    worst_eq = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 10))
        u = rng.uniform(0.2, 3.0, size=n)
        v = np.zeros(n)
        v[int(rng.integers(0, n))] = rng.uniform(0.1, 2.0) * (-1.0) ** int(rng.integers(0, 2))
        _, slack = check_self_concordance(directional_forms(u, v))
        worst_eq = max(worst_eq, abs(slack))
    ok = worst_slack >= -1e-12 and worst_eq <= 1e-12
    _criterion(
        5,
        "self-concordance slack nonnegative, tight on single coordinates",
        ok,
        f"10^4 samples, min slack = {worst_slack:.3e}; 500 single-coordinate, max |slack| = {worst_eq:.3e}",
    )


def test_criterion_06_pseudo_quadratic_certificates():
    rng = np.random.default_rng(SEED)
    worst_gap = 0.0
    deficient = 0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        rank = int(rng.integers(1, n + 1))
        deficient += rank < n
        m = rng.normal(size=(n, rank))
        a = m @ m.T
        y = a @ rng.normal(size=n)
        value = pseudo_quadratic(a, y)
        u_star = np.linalg.lstsq(a, y, rcond=None)[0]
        reference = 2.0 * float(y @ u_star) - float(u_star @ a @ u_star)
        worst_gap = max(worst_gap, abs(value - reference))
    worst_cap = -math.inf
    for _ in range(30):
        n = int(rng.integers(2, 7))
        y = rng.normal(size=n)
        m = rng.normal(size=(n, int(rng.integers(1, n + 1))))
        worst_cap = max(worst_cap, pseudo_quadratic(np.outer(y, y) + m @ m.T, y))
    worst_unit = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 7))
        y = rng.normal(size=n)
        y *= rng.uniform(0.5, 3.0) / float(np.linalg.norm(y))
        worst_unit = max(worst_unit, abs(pseudo_quadratic(np.outer(y, y), y) - 1.0))
    ok = worst_gap <= 1e-6 and worst_cap <= 1.0 + 1e-10 and worst_unit <= 1e-10
    _criterion(
        6,
        "pseudoinverse quadratic matches the concave-maximum oracle",
        ok,
        f"100 PSD ({deficient} rank-deficient), max |value - oracle| = {worst_gap:.3e}; "
        f"dominated max = {worst_cap - 1.0:+.3e} vs 1; rank-one max |value - 1| = {worst_unit:.3e}",
    )


def test_criterion_07_path_integrity(u_batch, v_batch):
    records = u_batch[0] + v_batch[0]
    worst_dec = max(r.max_decrement for r in records)
    worst_res = max(r.max_residual for r in records)
    least = min(r.min_entry for r in records)
    worst_gap = max(r.max_gap_excess for r in records)
    ok = worst_dec <= 0.25 and worst_res <= 1e-8 and least > 0.0 and worst_gap <= 1e-8
    _criterion(
        7,
        "every trace row is proximal, feasible, positive, and gap-bounded",
        ok,
        f"70 traces: max decrement = {worst_dec:.3e}, max residual = {worst_res:.3e}, "
        f"min entry = {least:.3e}, max gap excess = {worst_gap:.3e}",
    )


def test_criterion_08_vertex_distance_band():
    gen = SplitMix64(SEED + 3)
    worst_low = math.inf
    worst_high = -math.inf
    for trial in range(20):
        dims = (3, 3) if trial % 2 == 0 else (2, 2, 2)
        kind = "uniform" if trial % 4 < 2 else "random"
        problem = random_instance(dims, "U", gen, kind)
        vertex = solve_lp(problem).x.reshape(dims)
        dist = frobenius_norm(outer(list(problem.marginals)) - vertex)
        floor = 1.0
        for p in problem.marginals:
            floor *= float(p.min())
        worst_low = min(worst_low, dist - floor)
        worst_high = max(worst_high, dist - math.sqrt(2.0))
    ok = worst_low >= 0.0 and worst_high <= 0.0
    _criterion(
        8,
        "simplex vertices stay inside the distance band",
        ok,
        f"20 vertices: min dist - floor = {worst_low:.3e}, max dist - sqrt(2) = {worst_high:.3e}",
    )


def test_criterion_09_null_basis_structure():
    shapes = [(2,), (3,), (2, 2), (3, 2), (3, 3), (2, 2, 2), (3, 2, 2), (3, 3, 2), (3, 3, 3)]
    count_ok = True
    worst_sum = 0.0
    for dims in shapes:
        marginals = tuple(np.full(n, 1.0 / n) for n in dims)
        cost = np.zeros(dims)
        u_problem = MarginalProblem(cost=cost, marginals=marginals, variant="U")
        v_problem = MarginalProblem(cost=cost, marginals=marginals, variant="V")
        size = int(np.prod(dims))
        u_expected = size - 1 - sum(n - 1 for n in dims)
        v_expected = int(np.prod([n - 1 for n in dims]))
        u_elems = null_basis(u_problem)
        v_elems = null_basis(v_problem)
        count_ok = count_ok and len(u_elems) == u_expected == null_space_dim(u_problem)
        count_ok = count_ok and len(v_elems) == v_expected == null_space_dim(v_problem)
        for elem in v_elems:
            for k, n in enumerate(dims):
                worst_sum = max(worst_sum, float(np.abs(mode_contract(elem, k, np.ones(n))).max()))
    ok = count_ok and worst_sum <= 1e-12
    _criterion(
        9,
        "null bases have the predicted counts and zero mode-sums",
        ok,
        f"{len(shapes)} shapes up to 3x3x3, counts {'match' if count_ok else 'differ'}, "
        f"max V mode-sum = {worst_sum:.3e}",
    )


def test_criterion_10_iteration_scaling():
    gen = SplitMix64(SEED + 4)
    sizes = (4, 8, 16, 24)
    counts = []
    within_bound = True
    start = time.perf_counter()
    for n in sizes:
        problem = random_instance((n, n), "U", gen, "uniform")
        report = short_step_solve(problem, SolverConfig(epsilon=1e-4))
        counts.append(report.iterations)
        within_bound = within_bound and report.iterations <= predicted_iterations(problem, 1e-4)
    elapsed = time.perf_counter() - start
    slope = float(np.polyfit(np.log(sizes), np.log(counts), 1)[0])
    ok = 0.8 <= slope <= 1.3 and within_bound and elapsed < 300.0
    _criterion(
        10,
        "iteration counts scale like the theory",
        ok,
        f"n = {sizes}, iterations = {tuple(counts)}, slope = {slope:.3f}, "
        f"bound (C0 = {DEFAULT_C0:g}) {'holds' if within_bound else 'violated'}, {elapsed:.1f}s",
    )


def test_criterion_11_deterministic_outputs(tmp_path, capsys):
    rc_first = cli.main(["verify"])
    first = capsys.readouterr().out
    rc_second = cli.main(["verify"])
    second = capsys.readouterr().out
    verify_same = rc_first == rc_second == 0 and first == second

    args = [
        "benchmark", "--sizes", "3", "4", "--trials", "2",
        "--epsilon", "1e-3", "--seed", "11", "--marginals", "random",
    ]
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    rc_a = cli.main(args + ["--out", str(path_a)])
    rc_b = cli.main(args + ["--out", str(path_b)])
    bench_same = rc_a == rc_b == 0 and path_a.read_bytes() == path_b.read_bytes()

    ok = verify_same and bench_same
    _criterion(
        11,
        "verify and benchmark are byte-identical under a fixed seed",
        ok,
        f"verify {'identical' if verify_same else 'differs'} "
        f"({len(first)} bytes), benchmark {'identical' if bench_same else 'differs'} "
        f"({path_a.stat().st_size} bytes)",
    )
