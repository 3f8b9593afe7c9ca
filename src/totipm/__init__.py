"""Dense multi-marginal optimal transport by short-step path following.

The solver minimizes <C, U> over nonnegative d-mode tensors whose mode
marginals (variant "U") or mode sums (variant "V") are prescribed, following
the log-barrier central path with one Newton step per parameter increase.
A dense Bland-rule simplex serves as an independent ground-truth oracle.

The package re-exports the solve path; every other name is imported from
its submodule (``totipm.polytope``, ``totipm.barrier``, ``totipm.oracle``,
``totipm.verify`` and so on).
"""

from .instances import (
    InstanceFormatError,
    SplitMix64,
    emit_report,
    load_instance,
    parse_instance,
    random_instance,
)
from .ipm import (
    NonConvergenceError,
    SolveReport,
    SolverConfig,
    SolverError,
    StepSizeViolationError,
    short_step_solve,
)
from .oracle import solve_lp
from .polytope import MarginalProblem

__version__ = "0.1.0"

__all__ = [
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
]
