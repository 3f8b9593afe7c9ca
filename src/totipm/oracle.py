"""Independent LP oracle: a dense two-phase simplex with Bland's rule.

It solves a problem's transport LP only: a bounded polytope holding the
product of the marginals, with positive right-hand sides, so there is no
row flip and no infeasible or unbounded outcome.  Deliberately shares no
machinery with the interior point solver beyond the constraint assembly,
so agreement between the two is meaningful evidence.
The dual slack and value take multipliers of the same dense rows, for both
variants.
Clarity over speed: each pivot LU-factors the basis matrix afresh (LAPACK
getrf) and solves with that one factor (getrs) for the basic values, the
duals and the entering column only; the returned x and duals come from the
last pivot's factor.  Bland's rule (lowest eligible index for both the
entering and the leaving variable) guarantees termination without
anti-cycling perturbation.  Reduced costs are compared with the larger of
COST_TOL and _COST_ULPS units of rounding (machine epsilon) at max|c|: their
rounding grows with the largest cost, not with the cost differences, and
the duals' rounding put it at most 14 such units on integer costs scaled
by up to 1e12 and on costs shifted by up to 1e12.  Against a fixed 1e-9,
U 3x3x3 integer costs times 1e7 pivoted on rounding until the pivot budget
ran out; a cost offset of 1e12 leaves the tolerance near 0.06, below cost
differences of 1.  Below max|c| of about 17 600 the tolerance is COST_TOL
itself.  Every failure (the pivot budget, a singular basis, a ratio test
with no leaving column, mass left on the artificials after phase 1, an
artificial variable that cannot leave the basis) is rounding on this LP and
raises ``ipm.SolverError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._lapack import dgetrf, dgetrs
from .ipm import SolverError
from .polytope import MarginalProblem

__all__ = [
    "StandardFormLP",
    "SimplexResult",
    "to_lp",
    "solve_lp",
    "min_dual_slack",
    "dual_value",
]

# a reduced cost below minus the larger of COST_TOL and _COST_ULPS units of
# rounding at the largest cost means the column can still improve the
# objective
COST_TOL = 1e-9
_COST_ULPS = 256
# basic values within RATIO_TOL of zero count as zero in the ratio test; the
# transport right-hand sides are at most 1, so it needs no scale
RATIO_TOL = 1e-11

_MAX_PIVOTS_FACTOR = 50


@dataclass(frozen=True)
class StandardFormLP:
    """min c^T x subject to A x = b, x >= 0."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray


@dataclass(frozen=True)
class SimplexResult:
    value: float
    x: np.ndarray
    dual: np.ndarray


def to_lp(problem: MarginalProblem) -> StandardFormLP:
    system = problem.constraints
    return StandardFormLP(
        a=system.matrix,
        b=system.rhs,
        c=problem.cost.ravel().astype(np.float64),
    )


def _run_simplex(a, b, c, basis):
    """Bland pivots from ``basis`` until no column improves the objective.

    Returns the final basis, and the basic values and duals solved with the
    final basis's factor.
    """
    m, n = a.shape
    # reduced costs carry rounding at the scale of the largest cost
    rounding = np.finfo(np.float64).eps * float(np.abs(c).max())
    cost_tol = max(COST_TOL, _COST_ULPS * rounding)
    basis = basis.copy()
    for _ in range(_MAX_PIVOTS_FACTOR * (m + n) * max(m, 1)):
        lu, piv, info = dgetrf(a[:, basis])
        if info != 0:
            raise SolverError("singular basis matrix")
        xb, _ = dgetrs(lu, piv, b)
        y, _ = dgetrs(lu, piv, c[basis], trans=1)
        # Python floats: the loops below read them one at a time
        reduced = (c - a.T @ y).tolist()
        entering = next((j for j in range(n) if reduced[j] < -cost_tol), -1)
        if entering < 0:
            return basis, xb, y

        col, _ = dgetrs(lu, piv, a[:, entering])
        col, values = col.tolist(), xb.tolist()
        best_ratio = np.inf
        leaving_pos = -1
        for i in range(m):
            if col[i] > RATIO_TOL:
                ratio = max(values[i], 0.0) / col[i]
                if ratio < best_ratio - RATIO_TOL or (
                    ratio < best_ratio + RATIO_TOL
                    and (leaving_pos < 0 or basis[i] < basis[leaving_pos])
                ):
                    best_ratio = ratio
                    leaving_pos = i
        if leaving_pos < 0:
            # the transport polytope is bounded, so only rounding gets here
            raise SolverError("no column can leave the basis")
        basis[leaving_pos] = entering
    raise SolverError("simplex exceeded its pivot budget; Bland's rule should prevent this")


def solve_lp(problem: MarginalProblem) -> SimplexResult:
    """Two-phase dense simplex on the transport LP of ``problem``.  The dual
    vector satisfies A^T y <= c up to the reduced-cost tolerance."""
    lp = to_lp(problem)
    a, b, c = lp.a, lp.b, lp.c
    m, n = a.shape

    # phase 1: artificials with identity columns, minimise their sum
    a1 = np.hstack([a, np.eye(m)])
    c1 = np.concatenate([np.zeros(n), np.ones(m)])
    basis, xb, _ = _run_simplex(a1, b, c1, np.arange(n, n + m))
    if float(c1[basis] @ xb) > 1e-8:
        # the product of the marginals is feasible, so only rounding gets here
        raise SolverError("phase 1 left mass on the artificial variables")

    # drive any artificial still basic at zero level out of the basis; the
    # constraint rows are full rank, so a real replacement column exists
    for pos in range(m):
        if basis[pos] < n:
            continue
        binv_a = np.linalg.solve(a1[:, basis], a1[:, :n])
        replaced = False
        for j in range(n):
            if j not in basis and abs(binv_a[pos, j]) > 1e-9:
                basis[pos] = j
                replaced = True
                break
        if not replaced:
            raise SolverError(
                "could not drive an artificial variable out of the basis; "
                "the constraint rows are rank deficient"
            )

    # phase 2 over the original columns only
    basis, xb, y = _run_simplex(a, b, c, basis)
    x = np.zeros(n)
    x[basis] = xb
    return SimplexResult(value=float(c @ x), x=x, dual=y)


def min_dual_slack(problem: MarginalProblem, y) -> float:
    """The smallest entry of c - A^T y for row multipliers ``y`` of
    ``problem.constraints``: ``y`` is dual feasible where it is >= 0."""
    return float((problem.cost.ravel() - problem.constraints.matrix.T @ y).min())


def dual_value(problem: MarginalProblem, y) -> float:
    """b . y, the dual objective at row multipliers ``y``."""
    return float(problem.constraints.rhs @ y)
