"""Fast checks of the benchmark itself, on tiny instances.

    python3 -m pytest perfbench
"""

import dataclasses
import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import harness
import run
from totipm.instances import emit_instance, parse_instance
from totipm.ipm import SolverConfig
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "u2-dense": Workload("u2-dense", "", (((3, 3), "U"), ((4, 4), "U")), 1e-2, "solve", "alternate"),
    "v3-dense": Workload("v3-dense", "", (((2, 2, 2), "V"), ((2, 3, 2), "V")), 1e-2, "solve", "alternate"),
    "small-batch": Workload("small-batch", "", (((2, 3), "U"), ((2, 2, 2), "V")), 1e-3, "cli", "random"),
}


@pytest.fixture
def tiny(monkeypatch):
    for name, workload in TINY.items():
        monkeypatch.setitem(run.WORKLOADS, name, workload)
    monkeypatch.setattr(harness, "SETUP_REPEATS", 1)


def _run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = run.main(list(argv))
    return rc, out.getvalue().splitlines(), err.getvalue()


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_printed_with_its_unit(tiny, workload, trace):
    rc, lines, err = _run("--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", trace)
    assert rc == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
        assert name in err
    environment = json.loads(lines[-2])["environment"]
    assert environment["blas_threads"] == {name: "1" for name in run.BLAS_THREAD_VARIABLES}
    assert environment["nproc"] >= 1


def test_declared_workloads_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for entry in SPEC["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why


def _tiny_cases(tmp_path, workload="u2-dense"):
    return harness.make_cases(TINY[workload].documents(5), str(tmp_path))


class _Perturbed(harness.DirectPath):
    def __init__(self, config, **changes):
        super().__init__(config)
        self.changes = changes

    def collect(self, case, raw):
        return dataclasses.replace(super().collect(case, raw), **self.changes)


@pytest.mark.parametrize("changes", [{"value": 1e3}, {"gap_bound": 1.0}, {"max_decrement": 0.3}])
def test_bad_report_counts_as_failed(tmp_path, changes):
    config = SolverConfig(epsilon=1e-2)
    cases = _tiny_cases(tmp_path)
    harness.timed_loop(cases, _Perturbed(config, **changes), 0.0)
    harness.check_cases(cases, config)
    attempted, failed = harness.tally(cases)
    assert attempted == failed == len(cases)
    metrics = harness.end_to_end(cases, setup_s=1.0)
    assert metrics["certified_frac"][0] == 0.0


def test_honest_report_passes(tmp_path):
    config = SolverConfig(epsilon=1e-2)
    cases = _tiny_cases(tmp_path)
    harness.timed_loop(cases, harness.DirectPath(config), 0.0)
    harness.check_cases(cases, config)
    assert harness.tally(cases) == (len(cases), 0)
    assert 0.0 < harness.err_over_eps(cases, config.epsilon) <= 1.0


def test_step_counts_that_differ_across_repeats_fail(tmp_path):
    config = SolverConfig(epsilon=1e-2)
    cases = _tiny_cases(tmp_path)
    path = harness.DirectPath(config)
    for _ in range(2):
        for case in cases:
            harness._attempt(case, path)
    first = cases[0].results[0]
    cases[0].results[1] = dataclasses.replace(first, iterations=first.iterations + 1)
    harness.check_cases(cases, config)
    assert harness.tally(cases) == (4, 2)


def test_cli_report_is_checked_against_an_in_process_solve(tmp_path):
    config = SolverConfig(epsilon=1e-3)
    cases = _tiny_cases(tmp_path, "small-batch")
    harness.timed_loop(cases, harness.CliPath(config, str(tmp_path / "report.json")), 0.0)
    harness.check_cases(cases, config)
    assert harness.tally(cases) == (len(cases), 0)
    assert all(case.results[0].oracle_value is not None for case in cases)


def test_cli_nonzero_exit_counts_as_failed(tmp_path):
    config = SolverConfig(epsilon=1e-3)
    cases = _tiny_cases(tmp_path, "small-batch")
    Path(cases[0].file).write_text("{}")
    harness.timed_loop(cases, harness.CliPath(config, str(tmp_path / "report.json")), 0.0)
    harness.check_cases(cases, config)
    assert harness.tally(cases) == (len(cases), 1)
    assert "exited with code 2" in cases[0].failures[0]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_documents_are_reproducible_and_canonical(name):
    workload = WORKLOADS[name]
    docs = workload.documents(11)
    assert docs == workload.documents(11)
    other = workload.documents(12)
    assert len(other) == len(docs) and all(a != b for a, b in zip(docs, other))
    for doc, (dims, variant) in zip(docs, workload.shapes):
        problem = parse_instance(doc)
        assert problem.dims == dims and problem.variant == variant
        assert emit_instance(problem) == doc


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for source in Path(__file__).resolve().parent.glob("*.py"):
        shutil.copy(source, bench)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "u2-dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
