"""Independent LP oracle: a dense two-phase simplex with Bland's rule.

Deliberately shares no machinery with the interior point solver beyond the
constraint assembly, so agreement between the two is meaningful evidence.
The dual checks take multipliers of the same dense rows, for both variants.
Clarity over speed: each pivot LU-factors the basis matrix afresh (LAPACK
getrf) and solves with that one factor (getrs) for the basic values, the
duals and the entering column only.  Bland's rule (lowest eligible index for
both the entering and the leaving variable) guarantees termination without
anti-cycling perturbation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._lapack import dgetrf, dgetrs
from .polytope import MarginalProblem

__all__ = [
    "StandardFormLP",
    "SimplexResult",
    "to_lp",
    "simplex_solve",
    "solve_lp",
    "dual_feasible",
    "dual_value",
]

# reduced cost below -COST_TOL means the column can still improve the objective
COST_TOL = 1e-9
# basic values within RATIO_TOL of zero count as zero in the ratio test
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
    status: str
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


def _pivot_once(a, b, c, basis):
    """One Bland pivot.  Returns "optimal", "unbounded" or "pivoted"."""
    m, n = a.shape
    lu, piv, info = dgetrf(a[:, basis])
    if info != 0:
        raise np.linalg.LinAlgError("singular basis matrix")
    xb, _ = dgetrs(lu, piv, b)
    y, _ = dgetrs(lu, piv, c[basis], trans=1)
    # Python floats: the loops below read them one at a time
    reduced = (c - a.T @ y).tolist()

    entering = -1
    for j in range(n):
        if reduced[j] < -COST_TOL:
            entering = j
            break
    if entering < 0:
        return "optimal", basis

    col, _ = dgetrs(lu, piv, a[:, entering])
    col, xb = col.tolist(), xb.tolist()
    best_ratio = np.inf
    leaving_pos = -1
    for i in range(m):
        if col[i] > RATIO_TOL:
            ratio = max(xb[i], 0.0) / col[i]
            if ratio < best_ratio - RATIO_TOL or (
                ratio < best_ratio + RATIO_TOL
                and (leaving_pos < 0 or basis[i] < basis[leaving_pos])
            ):
                best_ratio = ratio
                leaving_pos = i
    if leaving_pos < 0:
        return "unbounded", basis
    basis = basis.copy()
    basis[leaving_pos] = entering
    return "pivoted", basis


def _run_simplex(a, b, c, basis):
    m, n = a.shape
    limit = _MAX_PIVOTS_FACTOR * (m + n) * max(m, 1)
    for _ in range(limit):
        status, basis = _pivot_once(a, b, c, basis)
        if status != "pivoted":
            return status, basis
    raise RuntimeError("simplex exceeded its pivot budget; Bland's rule should prevent this")


def simplex_solve(lp: StandardFormLP) -> SimplexResult:
    """Two-phase dense simplex.  Status is "optimal", "infeasible" or
    "unbounded"; on "optimal" the dual vector satisfies A^T y <= c."""
    a = np.array(lp.a, dtype=np.float64)
    b = np.array(lp.b, dtype=np.float64)
    c = np.array(lp.c, dtype=np.float64)
    m, n = a.shape

    flip = b < 0.0
    a[flip] = -a[flip]
    b[flip] = -b[flip]

    # phase 1: artificials with identity columns, minimise their sum
    a1 = np.hstack([a, np.eye(m)])
    c1 = np.concatenate([np.zeros(n), np.ones(m)])
    basis = np.arange(n, n + m)
    status, basis = _run_simplex(a1, b, c1, basis)
    if status != "optimal":
        raise RuntimeError(f"phase 1 ended with status {status!r}")
    xb = np.linalg.solve(a1[:, basis], b)
    phase1_value = float(c1[basis] @ xb)
    if phase1_value > 1e-8:
        return SimplexResult(
            status="infeasible",
            value=np.inf,
            x=np.full(n, np.nan),
            dual=np.full(m, np.nan),
        )

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
            raise RuntimeError(
                "could not drive an artificial variable out of the basis; "
                "the constraint rows are rank deficient"
            )

    # phase 2 over the original columns only
    status, basis = _run_simplex(a, b, c, basis)
    x = np.zeros(n)
    xb = np.linalg.solve(a[:, basis], b)
    x[basis] = xb
    if status == "unbounded":
        return SimplexResult(
            status="unbounded",
            value=-np.inf,
            x=np.full(n, np.nan),
            dual=np.full(m, np.nan),
        )
    y = np.linalg.solve(a[:, basis].T, c[basis])
    y[flip] = -y[flip]
    return SimplexResult(
        status="optimal",
        value=float(c @ x),
        x=x,
        dual=y,
    )


def solve_lp(problem: MarginalProblem) -> SimplexResult:
    result = simplex_solve(to_lp(problem))
    if result.status != "optimal":
        raise RuntimeError(
            f"transport polytopes are bounded and nonempty, got {result.status!r}"
        )
    return result


def dual_feasible(problem: MarginalProblem, y, tol: float = 1e-8):
    """Check c - A^T y >= -tol everywhere for row multipliers ``y`` of
    ``problem.constraints``.  Returns ``(ok, min_slack)``."""
    slack = problem.cost.ravel() - problem.constraints.matrix.T @ y
    min_slack = float(slack.min())
    return min_slack >= -tol, min_slack


def dual_value(problem: MarginalProblem, y) -> float:
    """b . y, the dual objective at row multipliers ``y``."""
    return float(problem.constraints.rhs @ y)
