"""The public surface: every ``__all__`` entry resolves, the package
itself re-exports only the solve path, and its submodules, the names of
``polytope`` and ``instances``, the solver's settings and the solve
command's options are fixed sets."""

import argparse
import dataclasses
import importlib
import pkgutil

import pytest

import totipm
from totipm import cli
from totipm.ipm import SolverConfig

PACKAGE_NAMES = {
    "MarginalProblem",
    "SolverConfig",
    "SolveReport",
    "SolverError",
    "NonConvergenceError",
    "StepSizeViolationError",
    "short_step_solve",
    "solve_lp",
    "InstanceFormatError",
    "SplitMix64",
    "parse_instance",
    "load_instance",
    "random_instance",
    "emit_report",
    "__version__",
}

SUBMODULES = {"_lapack", "barrier", "cli", "instances", "ipm", "oracle", "polytope", "verify"}

POLYTOPE_NAMES = [
    "MarginalProblem",
    "ConstraintSystem",
    "start_point",
    "residual_norm",
    "null_basis_matrix",
    "null_space_dim",
    "random_interior_point",
]

INSTANCES_NAMES = [
    "InstanceFormatError",
    "SplitMix64",
    "parse_instance",
    "load_instance",
    "emit_instance",
    "random_instance",
    "report_to_dict",
    "emit_report",
]

MODULES = ["totipm"] + [f"totipm.{m.name}" for m in pkgutil.iter_modules(totipm.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_binds_all(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    namespace = {}
    # a stale __all__ entry makes the star import raise AttributeError
    exec(f"from {name} import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(module.__all__)
    if name == "totipm":
        assert set(namespace) == PACKAGE_NAMES


def test_submodules():
    assert {m.name for m in pkgutil.iter_modules(totipm.__path__)} == SUBMODULES


@pytest.mark.parametrize(
    "name, names", [("polytope", POLYTOPE_NAMES), ("instances", INSTANCES_NAMES)]
)
def test_module_names(name, names):
    assert importlib.import_module(f"totipm.{name}").__all__ == names


def test_solver_config_fields():
    assert [f.name for f in dataclasses.fields(SolverConfig)] == ["epsilon"]
    assert SolverConfig().decrement_beta == 0.25


def test_solve_options():
    parser = cli._build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        option
        for action in commands.choices["solve"]._actions
        if action.dest != "help"
        for option in action.option_strings
    }
    assert options == {"--epsilon", "--trace", "--oracle", "--out"}
