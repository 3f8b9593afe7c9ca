"""Every failure inside a command exits through ``cli.main``'s one map:
a solver failure, the simplex oracle's included, exits 3 with one
``solver failure: ...`` line and no traceback, and a ValueError that no
input check raised is not taken for bad input."""

import numpy as np
import pytest

import totipm.cli as cli
import totipm.oracle as oracle
from totipm.instances import emit_instance
from totipm.polytope import MarginalProblem


@pytest.fixture
def matching_instance(tmp_path):
    problem = MarginalProblem(
        cost=np.array([[0.0, 1.0], [1.0, 0.0]]),
        marginals=(np.array([0.5, 0.5]), np.array([0.5, 0.5])),
    )
    path = tmp_path / "matching.json"
    path.write_text(emit_instance(problem), encoding="utf-8")
    return str(path)


def singular_basis(monkeypatch):
    monkeypatch.setattr(oracle, "dgetrf", lambda a: (a, np.zeros(a.shape[0], np.int32), 1))
    return "singular basis matrix"


def no_pivot_budget(monkeypatch):
    monkeypatch.setattr(oracle, "_MAX_PIVOTS_FACTOR", 0)
    return "simplex exceeded its pivot budget"


@pytest.mark.parametrize("fault", [singular_basis, no_pivot_budget])
@pytest.mark.parametrize("command", ["solve", "benchmark"])
def test_oracle_failure_exits_3(command, fault, matching_instance, monkeypatch, capsys):
    message = fault(monkeypatch)
    argv = (
        ["solve", matching_instance, "--oracle"]
        if command == "solve"
        else ["benchmark", "--sizes", "3", "--trials", "1", "--oracle"]
    )
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"solver failure: {message}")
    assert "Traceback" not in captured.err


def test_lin_alg_error_exits_3_not_2(matching_instance, monkeypatch, capsys):
    # LinAlgError is a ValueError, which alone would exit 2
    def singular(problem, config):
        raise np.linalg.LinAlgError("induced breakdown")

    monkeypatch.setattr(cli, "short_step_solve", singular)
    assert cli.main(["solve", matching_instance]) == 3
    assert capsys.readouterr().err == "solver failure: induced breakdown\n"


@pytest.mark.parametrize("command", ["solve", "benchmark"])
def test_value_error_inside_a_command_is_not_an_input_error(
    command, matching_instance, monkeypatch
):
    # only a rejected argument or instance exits 2; a ValueError raised while
    # solving is a defect and keeps its traceback
    def defect(problem, config):
        raise ValueError("induced defect")

    monkeypatch.setattr(cli, "short_step_solve", defect)
    argv = (
        ["solve", matching_instance]
        if command == "solve"
        else ["benchmark", "--sizes", "3", "--trials", "1"]
    )
    with pytest.raises(ValueError, match="induced defect"):
        cli.main(argv)
