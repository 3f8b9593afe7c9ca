"""Acceptance gate: one test per criterion, one [PASS]/[FAIL] line each.

The summary lines are collected in ``streams.criterion_lines`` and printed
after the run by conftest (pytest's capture would swallow them mid-test);
the same text is the assertion message on failure.  Criteria 1-9 measure and
judge each property with the functions behind ``totipm verify``, so this
file holds only their samples (streams, seeds, sample counts, instance
counts and criterion 1's time budget) and no threshold of a property.
Criteria 1, 2 and 7 share two module-scoped solve batches.  Criterion 10
reads the table of ``totipm benchmark``.
"""

import csv
import time

import numpy as np
import pytest

import streams

import totipm.cli as cli
import totipm.verify as verify
from totipm.ipm import DEFAULT_C0

SEED = 20240


def _criterion(number, label, sample, checks):
    """Record one criterion, which passes when each of its (name, ok,
    detail) checks does.  The line gives the sample and every check's
    detail; past four checks, the count that pass and the failing ones."""
    failed = [f"{name} ({detail})" for name, ok, detail in checks if not ok]
    if len(checks) <= 4:
        details = [detail for _, _, detail in checks]
    else:
        details = [f"{len(checks) - len(failed)}/{len(checks)} checks pass", *failed]
    line = f"[{'FAIL' if failed else 'PASS'}] criterion {number:02d} {label}: " + "; ".join(
        [sample, *details]
    )
    streams.criterion_lines.append(line)
    assert not failed, line


def _count(audit, expected):
    return ("instances", audit.count == expected, f"{audit.count} of {expected} instances")


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
    value, *_ = verify.path_checks("U", audit)
    budget = ("budget", elapsed < 60.0, f"{elapsed:.1f}s of 60s")
    _criterion(1, "U-variant agrees with the simplex oracle", "d = 2 and 3",
               [_count(audit, 50), value, budget])


def test_criterion_02_v_variant_matches_simplex(v_batch):
    audit, elapsed = v_batch
    value, *_ = verify.path_checks("V", audit)
    _criterion(2, "V-variant agrees with the simplex oracle", f"d = 2 and 3, {elapsed:.1f}s",
               [_count(audit, 20), value])


def test_criterion_03_orthant_complexity_exact():
    worst = verify.orthant_complexity((4, 8, 27), np.random.default_rng(SEED), 100)
    _criterion(3, "orthant barrier complexity equals the entry count",
               "N in (4, 8, 27), 100 points each",
               verify.orthant_complexity_checks("complexity-exact", worst))


def test_criterion_04_restricted_complexity_bounded():
    problems = streams.criterion_04_problems(SEED + 2)
    excess = verify.restricted_complexity(problems, np.random.default_rng(SEED), 100)
    _criterion(4, "restricted complexity never exceeds the entry count",
               f"{100 * len(problems)} interior points",
               verify.restricted_complexity_checks("complexity-bound", excess))


def test_criterion_05_self_concordance_sampled():
    measured = verify.self_concordance(np.random.default_rng(SEED), 10_000, 500)
    _criterion(5, "self-concordance slack nonnegative, tight on single coordinates",
               "10^4 samples, 500 single-coordinate",
               verify.self_concordance_checks("self-concordance", measured))


def test_criterion_06_pseudo_quadratic_certificates():
    measured = verify.pseudo_quadratic_certificates(np.random.default_rng(SEED), 100, 30, 20)
    _criterion(6, "pseudoinverse quadratic matches the concave-maximum oracle",
               f"100 PSD ({measured[0]} rank-deficient), 30 dominated, 20 rank-one",
               verify.pseudo_quadratic_checks("pseudo-quadratic", measured))


def test_criterion_07_path_integrity(u_batch, v_batch):
    audit = verify.worst_path([u_batch[0], v_batch[0]])
    _, *rows = verify.path_checks("UV", audit)
    _criterion(7, "every trace row is proximal, feasible, positive, and gap-bounded, "
               "and the oracle dual certifies", "U and V batches", [_count(audit, 70), *rows])


def test_criterion_08_vertex_distance_band():
    band = verify.vertex_band(streams.criterion_08_problems(SEED + 3))
    _criterion(8, "simplex vertices stay inside the distance band", "20 vertices",
               verify.vertex_band_checks("vertex-band", band))


def test_criterion_09_null_basis_structure():
    shapes = [(2,), (3,), (2, 2), (3, 2), (3, 3), (2, 2, 2), (3, 2, 2), (3, 3, 2), (3, 3, 3)]
    checks = [
        check
        for dims in shapes
        for variant in "UV"
        for check in verify.null_basis_checks(dims, variant, verify.null_basis_structure(dims, variant))
    ]
    _criterion(9, "null bases have the predicted counts and ranks, lie in the kernel, "
               "and have zero mode-sums", f"{len(shapes)} shapes up to 3x3x3, U and V", checks)


def test_criterion_10_iteration_scaling(tmp_path):
    table = tmp_path / "scaling.csv"
    sizes = ("4", "8", "16", "24")
    start = time.perf_counter()
    rc = cli.main([
        "benchmark", "--sizes", *sizes, "--trials", "1", "--epsilon", "1e-4",
        "--seed", str(SEED + 4), "--out", str(table),
    ])
    elapsed = time.perf_counter() - start
    *lines, fit = table.read_text().splitlines()
    rows = list(csv.DictReader(lines))
    iterations = tuple(int(row["iterations"]) for row in rows)
    within_bound = all(int(row["iterations"]) <= float(row["predicted_bound"]) for row in rows)
    slope = float(fit.rpartition(": ")[2])
    _criterion(10, "iteration counts scale like the theory", f"n = ({', '.join(sizes)})", [
        ("benchmark", rc == 0, f"iterations = {iterations}"),
        ("slope", 0.8 <= slope <= 1.3, f"slope = {slope:.3f}"),
        ("bound", within_bound,
         f"bound (C0 = {DEFAULT_C0:g}) {'holds' if within_bound else 'violated'}"),
        ("budget", elapsed < 300.0, f"{elapsed:.1f}s"),
    ])


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

    _criterion(11, "verify and benchmark are byte-identical under a fixed seed", "two runs each", [
        ("verify", verify_same,
         f"verify {'identical' if verify_same else 'differs'} ({len(first)} bytes)"),
        ("benchmark", bench_same,
         f"benchmark {'identical' if bench_same else 'differs'} ({path_a.stat().st_size} bytes)"),
    ])
