import json
import pathlib

import numpy as np
import pytest

import totipm.cli as cli
from totipm.instances import SplitMix64, emit_instance, random_instance
from totipm.ipm import SolverError
from totipm.polytope import MarginalProblem

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture
def matching_instance(tmp_path):
    problem = MarginalProblem(
        cost=np.array([[0.0, 1.0], [1.0, 0.0]]),
        marginals=(np.array([0.5, 0.5]), np.array([0.5, 0.5])),
    )
    path = tmp_path / "matching.json"
    path.write_text(emit_instance(problem), encoding="utf-8")
    return str(path)


class TestSolveCommand:
    def test_solves_to_tolerance(self, matching_instance, capsys):
        rc = cli.main(["solve", matching_instance, "--epsilon", "1e-6"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] <= 1e-6
        assert doc["gap_bound"] <= 1e-6
        assert "trace" not in doc

    def test_oracle_flag(self, matching_instance, capsys):
        rc = cli.main(["solve", matching_instance, "--oracle"])
        assert rc == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert abs(doc["value"] - doc["oracle_value"]) <= 1e-6
        assert "|value - oracle_value|" in captured.err

    def test_trace_flag(self, matching_instance, capsys):
        rc = cli.main(["solve", matching_instance, "--epsilon", "1e-2", "--trace"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        # one row after centering plus one per path step
        assert doc["iterations"] >= len(doc["trace"]) - 1
        assert all(len(row) == 4 for row in doc["trace"])
        assert doc["trace"][-1][3] == doc["gap_bound"]

    def test_out_file(self, matching_instance, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = cli.main(["solve", matching_instance, "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["value"] <= 1e-6

    def test_malformed_instance_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dims": [2, 2], "variant": "U", "cost": [0, 1, 2]}')
        rc = cli.main(["solve", str(bad)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "cost" in err or "marginals" in err

    @pytest.mark.parametrize("vector", [[1e308, 1e308], [1e308, 1e-308]])
    def test_marginal_normalizing_to_zero_exits_2(self, tmp_path, capsys, vector):
        bad = tmp_path / "bad.json"
        doc = {"dims": [2, 2], "variant": "U", "cost": [0, 1, 1, 0], "marginals": [vector, [0.5, 0.5]]}
        bad.write_text(json.dumps(doc))
        assert cli.main(["solve", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: instance field 'marginals'")
        assert "Traceback" not in err

    @pytest.mark.parametrize("low, rc", [(1e-200, 2), (1e-160, 2), (1e-140, 0)])
    def test_start_point_floor_exit_code(self, tmp_path, capsys, low, rc):
        # the start point's smallest entry is low**2: 0 at 1e-200 and the
        # subnormal 1e-320 at 1e-160 fall below the domain floor 1e-300
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"dims": [3, 3], "variant": "U", "cost": [0, 1, 2] * 3,
                                    "marginals": [[low, 0.5, 0.5]] * 2}))
        assert cli.main(["solve", str(path)]) == rc
        message = "error: instance field 'marginals': the product of the marginal minima is"
        assert capsys.readouterr().err.startswith(f"{message} {low**2!r}, below") == (rc == 2)

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe\x00")
        assert cli.main(["solve", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: instance field 'document': not valid UTF-8")
        assert "Traceback" not in err

    def test_missing_file_exits_2(self, capsys):
        assert cli.main(["solve", "/nonexistent/x.json"]) == 2

    @pytest.mark.parametrize(
        "document, field",
        [
            # an integer cost too large for a float
            ('{"dims": [2, 2], "variant": "U", "cost": [1' + "0" * 400
             + ', 0, 0, 0], "marginals": [[0.5, 0.5], [0.5, 0.5]]}', "cost"),
            # 2^64 entries, which wraps to 0 in int64
            ('{"dims": [4294967296, 4294967296], "variant": "U", "cost": [], '
             '"marginals": [[1.0], [1.0]]}', "cost"),
            # past Python's digit limit for int parsing
            ('{"dims": [' + "9" * 5000 + "]}", "document"),
            # nested deeper than the decoder recurses
            ("[" * 100_000 + "]" * 100_000, "document"),
            # more modes than numpy supports
            (json.dumps({"dims": [1] * 71 + [2], "variant": "U", "cost": [0, 1],
                         "marginals": [[1.0]] * 71 + [[0.5, 0.5]]}), "dims"),
        ],
        ids=["huge-integer", "overflowing-dims", "digit-limit", "deep-nesting", "too-many-modes"],
    )
    def test_unrepresentable_instance_exits_2(self, tmp_path, capsys, document, field):
        bad = tmp_path / "bad.json"
        bad.write_text(document)
        assert cli.main(["solve", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: instance field {field!r}")
        assert "Traceback" not in err

    def test_many_modes_solve(self, tmp_path, capsys):
        # 41 modes, 40 of size 1: the slice is one point, 200 entries
        problem = random_instance([1] * 40 + [200], "U", SplitMix64(7), marginals="random")
        path = tmp_path / "modes.json"
        path.write_text(emit_instance(problem), encoding="utf-8")
        assert cli.main(["solve", str(path), "--oracle"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["value"] - doc["oracle_value"]) <= 1e-6

    def test_unwritable_out_exits_2(self, matching_instance, tmp_path, capsys):
        out = tmp_path / "missing" / "report.json"
        assert cli.main(["solve", matching_instance, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_predicted_bound_never_negative(self, matching_instance, capsys):
        # eps 1e300 is past the point where the bound's log turns negative
        assert cli.main(["solve", matching_instance, "--epsilon", "1e300"]) == 0
        assert json.loads(capsys.readouterr().out)["predicted_bound"] == 0.0

    def test_bad_config_exits_2(self, matching_instance, capsys):
        assert cli.main(["solve", matching_instance, "--epsilon", "0"]) == 2
        assert "epsilon must be positive and finite" in capsys.readouterr().err

    def test_beta_is_not_an_option(self, matching_instance, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["solve", matching_instance, "--beta", "0.25"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --beta" in capsys.readouterr().err

    def test_nan_epsilon_exits_2(self, matching_instance, capsys):
        for epsilon in ("nan", "inf"):
            assert cli.main(["solve", matching_instance, "--epsilon", epsilon]) == 2
            assert "epsilon must be positive and finite" in capsys.readouterr().err

    def test_solver_failure_exits_3(self, matching_instance, capsys, monkeypatch):
        def boom(problem, config):
            raise SolverError("induced failure")

        monkeypatch.setattr(cli, "short_step_solve", boom)
        assert cli.main(["solve", matching_instance]) == 3
        assert "induced failure" in capsys.readouterr().err

    def test_overflowing_costs_exit_3(self, tmp_path, capsys):
        problem = MarginalProblem(
            cost=np.array([[1e200, 0.0], [0.0, 1e200]]),
            marginals=(np.array([0.5, 0.5]), np.array([0.5, 0.5])),
        )
        path = tmp_path / "overflow.json"
        path.write_text(emit_instance(problem), encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert cli.main(["solve", str(path)]) == 3
        assert "is not finite" in capsys.readouterr().err


class TestBenchmarkCommand:
    def test_header_and_rows(self, capsys):
        rc = cli.main(
            ["benchmark", "--sizes", "3", "4", "--trials", "2", "--epsilon", "1e-2"]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "d,n,trial,iterations,predicted_bound,value,oracle_value,seconds"
        assert len(lines) == 1 + 4 + 1
        assert lines[-1].startswith("# loglog_slope d=2:")
        for line in lines[1:-1]:
            d, n, trial, iters, pred, value, oracle_value, seconds = line.split(",")
            assert int(d) == 2
            assert int(n) in (3, 4)
            assert int(iters) <= float(pred)
            assert oracle_value == ""
            assert seconds == ""

    def test_trials_zero_header_only(self, capsys):
        rc = cli.main(["benchmark", "--sizes", "3", "4", "--trials", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out == "d,n,trial,iterations,predicted_bound,value,oracle_value,seconds\n"

    def test_oracle_column(self, capsys):
        rc = cli.main(
            ["benchmark", "--sizes", "3", "--trials", "1", "--epsilon", "1e-5", "--oracle"]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        _, _, _, _, _, value, oracle_value, _ = lines[1].split(",")
        assert abs(float(value) - float(oracle_value)) <= 1e-4

    def test_deterministic_output(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["benchmark", "--sizes", "3", "4", "--trials", "2", "--epsilon", "1e-3",
                "--seed", "7", "--marginals", "random"]
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_timing_column_filled(self, capsys):
        rc = cli.main(
            ["benchmark", "--sizes", "3", "--trials", "1", "--epsilon", "1e-2",
             "--timing", "wall"]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        seconds = lines[1].split(",")[-1]
        assert float(seconds) >= 0.0

    def test_rejects_small_sizes(self, capsys):
        assert cli.main(["benchmark", "--sizes", "1", "4"]) == 2

    def test_repeated_sizes_exit_2(self, monkeypatch, capsys):
        # two rows keyed d,n,trial = 2,3,0 would both go into size 3's group
        def refuse(*args, **kwargs):
            raise AssertionError("instance drawn")

        monkeypatch.setattr(cli, "random_instance", refuse)
        assert cli.main(["benchmark", "--d", "2", "--sizes", "3", "3", "--trials", "1"]) == 2
        assert capsys.readouterr().err == "error: --sizes must not repeat a size\n"

    @pytest.mark.parametrize(
        "argv",
        [["--sizes", "4294967296"], ["--sizes", "4", "1001"], ["--d", "3", "--sizes", "101"]],
    )
    def test_oversized_instance_exits_2(self, argv, monkeypatch, capsys):
        # n**d past the entry cap is refused before any instance is drawn;
        # 4294967296**2 wraps to 0 in int64
        def refuse(*args, **kwargs):
            raise AssertionError("instance drawn")

        monkeypatch.setattr(cli, "random_instance", refuse)
        assert cli.main(["benchmark", "--trials", "1"] + argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "table.csv"
        assert cli.main(["benchmark", "--trials", "0", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_nan_epsilon_exits_2(self, capsys):
        for epsilon in ("nan", "inf"):
            assert cli.main(["benchmark", "--sizes", "3", "--epsilon", epsilon]) == 2
            assert "epsilon must be positive and finite" in capsys.readouterr().err

    def test_bad_epsilon_exits_2_before_drawing(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("instance drawn")

        monkeypatch.setattr(cli, "random_instance", refuse)
        argv = ["benchmark", "--sizes", "1000", "--trials", "2", "--epsilon", "0"]
        assert cli.main(argv) == 2
        assert "epsilon must be positive and finite" in capsys.readouterr().err

    def test_solver_failure_exits_3(self, capsys, monkeypatch):
        def boom(problem, config):
            raise SolverError("induced failure")

        monkeypatch.setattr(cli, "short_step_solve", boom)
        assert cli.main(["benchmark", "--sizes", "3", "--trials", "1"]) == 3


class TestVerifyCommand:
    def test_nullspace_suite_passes(self, capsys):
        rc = cli.main(["verify", "--suite", "nullspace"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[FAIL]" not in out
        assert "checks passed" in out

    def test_injected_fault_names_suite(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text('{"dims": [2, 2], "variant": "U", "cost": [0.0], "marginals": [[0.5, 0.5], [0.5, 0.5]]}')
        rc = cli.main(["verify", "--suite", "oracle", "--instances", str(bad)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "[FAIL] oracle:" in out

    def test_negative_seed_exits_2(self, capsys):
        assert cli.main(["verify", "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: --seed must be nonnegative\n"

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["verify", "--suite", "bogus"])


class TestBlasThreads:
    def clear(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli._lapack, "set_blas_threads", calls.append)
        for name in cli._THREAD_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        return calls

    def test_one_thread_unless_asked(self, matching_instance, monkeypatch, capsys):
        calls = self.clear(monkeypatch)
        assert cli.main(["solve", matching_instance]) == 0
        assert calls == [1]

    @pytest.mark.parametrize("variable", cli._THREAD_VARIABLES)
    def test_a_set_variable_keeps_the_count(self, variable, matching_instance, monkeypatch, capsys):
        calls = self.clear(monkeypatch)
        monkeypatch.setenv(variable, "2")
        assert cli.main(["solve", matching_instance]) == 0
        assert calls == []


@pytest.mark.parametrize("command", ["solve", "benchmark"])
def test_readme_example_is_current(command, matching_instance, capsys):
    # the README block that starts with "$ totipm COMMAND" shows its stdout
    blocks = README.read_text(encoding="utf-8").split("```")[1::2]
    (block,) = [block for block in blocks if block.startswith(f"\n$ totipm {command} ")]
    _, line, stdout = block.split("\n", 2)
    argv = [matching_instance if arg == "matching.json" else arg for arg in line.split()[2:]]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == stdout
