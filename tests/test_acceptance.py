"""Acceptance gate: one test per criterion, one [PASS]/[FAIL] line each.

The summary lines are collected in ``streams.criterion_lines`` and printed
after the run by conftest (pytest's capture would swallow them mid-test);
the same text is the assertion message on failure.  Criteria 1-9 measure
through the property functions behind ``totipm verify``; criteria 1, 2 and
7 share two module-scoped solve batches.
"""

import time

import numpy as np
import pytest

import streams

import totipm.cli as cli
import totipm.verify as verify
from totipm.instances import SplitMix64, random_instance
from totipm.ipm import DEFAULT_C0, SolverConfig, predicted_iterations, short_step_solve

SEED = 20240


def _criterion(number, label, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number:02d} {label}: {detail}"
    streams.criterion_lines.append(line)
    assert ok, line


@pytest.fixture(scope="module")
def u_batch():
    start = time.perf_counter()
    audit = verify.path_audit(streams.criterion_01_problems(SEED))
    return audit, time.perf_counter() - start


@pytest.fixture(scope="module")
def v_batch():
    start = time.perf_counter()
    audit = verify.path_audit(streams.criterion_02_problems(SEED + 1))
    return audit, time.perf_counter() - start


def test_criterion_01_u_variant_matches_simplex(u_batch):
    audit, elapsed = u_batch
    ok = audit.count == 50 and audit.value_gap <= 1e-6 and elapsed < 60.0
    _criterion(
        1,
        "U-variant agrees with the simplex oracle",
        ok,
        f"50 instances, max |value - oracle| = {audit.value_gap:.3e}, {elapsed:.1f}s",
    )


def test_criterion_02_v_variant_matches_simplex(v_batch):
    audit, elapsed = v_batch
    ok = audit.count == 20 and audit.value_gap <= 1e-6
    _criterion(
        2,
        "V-variant agrees with the simplex oracle",
        ok,
        f"20 instances, max |value - oracle| = {audit.value_gap:.3e}, {elapsed:.1f}s",
    )


def test_criterion_03_orthant_complexity_exact():
    worst = verify.orthant_complexity((4, 8, 27), np.random.default_rng(SEED), 100)
    _criterion(
        3,
        "orthant barrier complexity equals the entry count",
        worst <= 1e-10,
        f"N in (4, 8, 27), 100 points each, max |value - N| = {worst:.3e}",
    )


def test_criterion_04_restricted_complexity_bounded():
    points, worst_excess = verify.restricted_complexity(
        streams.criterion_04_problems(SEED + 2), np.random.default_rng(SEED), 100
    )
    _criterion(
        4,
        "restricted complexity never exceeds the entry count",
        worst_excess <= 1e-8,
        f"{points} interior points, max value - bound = {worst_excess:.3e}",
    )


def test_criterion_05_self_concordance_sampled():
    worst_slack, worst_eq = verify.self_concordance(np.random.default_rng(SEED), 10_000, 500)
    ok = worst_slack >= -1e-12 and worst_eq <= 1e-12
    _criterion(
        5,
        "self-concordance slack nonnegative, tight on single coordinates",
        ok,
        f"10^4 samples, min slack = {worst_slack:.3e}; 500 single-coordinate, max |slack| = {worst_eq:.3e}",
    )


def test_criterion_06_pseudo_quadratic_certificates():
    deficient, worst_gap, worst_cap, worst_unit = verify.pseudo_quadratic_certificates(
        np.random.default_rng(SEED), 100, 30, 20
    )
    ok = worst_gap <= 1e-6 and worst_cap <= 1.0 + 1e-10 and worst_unit <= 1e-10
    _criterion(
        6,
        "pseudoinverse quadratic matches the concave-maximum oracle",
        ok,
        f"100 PSD ({deficient} rank-deficient), max |value - oracle| = {worst_gap:.3e}; "
        f"dominated max = {worst_cap - 1.0:+.3e} vs 1; rank-one max |value - 1| = {worst_unit:.3e}",
    )


def test_criterion_07_path_integrity(u_batch, v_batch):
    a = verify.worst_path([u_batch[0], v_batch[0]])
    ok = a.max_decrement <= 0.25 and a.max_residual <= 1e-8 and a.min_entry > 0.0 and a.max_gap_excess <= 1e-8
    _criterion(
        7,
        "every trace row is proximal, feasible, positive, and gap-bounded",
        ok,
        f"70 traces: max decrement = {a.max_decrement:.3e}, max residual = {a.max_residual:.3e}, "
        f"min entry = {a.min_entry:.3e}, max gap excess = {a.max_gap_excess:.3e}",
    )


def test_criterion_08_vertex_distance_band():
    worst_low, worst_high = verify.vertex_band(streams.criterion_08_problems(SEED + 3))
    _criterion(
        8,
        "simplex vertices stay inside the distance band",
        worst_low >= 0.0 and worst_high <= 0.0,
        f"20 vertices: min dist - floor = {worst_low:.3e}, max dist - sqrt(2) = {worst_high:.3e}",
    )


def test_criterion_09_null_basis_structure():
    shapes = [(2,), (3,), (2, 2), (3, 2), (3, 3), (2, 2, 2), (3, 2, 2), (3, 3, 2), (3, 3, 3)]
    audits = [verify.null_basis_structure(dims, variant) for dims in shapes for variant in "UV"]
    count_ok = all(a.count == a.expected == a.dim for a in audits)
    worst_sum = max(a.mode_sum for a in audits if a.mode_sum is not None)
    _criterion(
        9,
        "null bases have the predicted counts and zero mode-sums",
        count_ok and worst_sum <= 1e-12,
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
