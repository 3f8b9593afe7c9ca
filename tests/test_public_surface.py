"""The public surface: every ``__all__`` entry resolves, and the package
itself re-exports only the solve path."""

import importlib
import pkgutil

import pytest

import totipm

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
