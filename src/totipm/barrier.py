"""Log-barrier calculus over the positive orthant, with verification hooks.

The barrier is sigma(u) = -sum_i log u_i on tensors with positive entries.
Its derivatives are coordinatewise (gradient -1/u, diagonal Hessian 1/u^2),
which the solver exploits; this module also provides the directional third
form, a self-concordance slack check, the Moore-Penrose pseudo-quadratic
y^T A^+ y used by complexity certificates, and the complexity value of the
barrier restricted to an affine slice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._lapack import dpotrf, dpotrs, dsyevr, dsyevr_lwork

__all__ = [
    "ConcordanceSample",
    "CertificateError",
    "directional_forms",
    "check_self_concordance",
    "pseudo_quadratic",
    "complexity_value",
]


class CertificateError(ValueError):
    """Raised when a certificate computation's preconditions fail: a
    non-symmetric or indefinite matrix, or a vector leaving the row space."""


@dataclass(frozen=True)
class ConcordanceSample:
    """Second and third directional derivatives of the barrier at a point
    along a direction, as used by the self-concordance inequality."""

    second: float
    third: float


def directional_forms(u, v) -> ConcordanceSample:
    """Second and third derivatives of t -> sigma(u + t v) at t = 0:
    sum v_i^2 / u_i^2 and -2 sum v_i^3 / u_i^3."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch: {u.shape} vs {v.shape}")
    if np.any(u <= 0.0):
        raise ValueError("barrier requires strictly positive entries")
    ratio = v / u
    return ConcordanceSample(
        second=float(np.sum(ratio**2)),
        third=float(-2.0 * np.sum(ratio**3)),
    )


def check_self_concordance(sample: ConcordanceSample):
    """Slack of |third| <= 2 second^{3/2} and whether it holds.

    Returns ``(ok, slack)`` with slack = bound - |third|; ok tolerates
    rounding down to -1e-12.  The log barrier satisfies the inequality, with
    equality along single-coordinate directions.
    """
    if sample.second < 0.0:
        raise ValueError("second directional derivative cannot be negative")
    slack = 2.0 * sample.second**1.5 - abs(sample.third)
    return slack >= -1e-12, float(slack)


def pseudo_quadratic(a, y) -> float:
    """y^T A^+ y for symmetric PSD ``a`` via an eigendecomposition.

    Eigenvalues at or below 1e-10 times the largest are treated as kernel;
    ``y`` must then be orthogonal to the kernel (within 1e-8, relative to
    ``max(norm(y), 1)``) or the quadratic is undefined and CertificateError
    is raised.  When A - y y^T is PSD the value is at most 1.  A nan or inf
    in either argument raises ValueError.
    """
    a = np.asarray(a, dtype=np.float64)
    y = np.asarray_chkfinite(y, dtype=np.float64).ravel()
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise CertificateError(f"expected a square matrix, got shape {a.shape}")
    if y.size != a.shape[0]:
        raise CertificateError(
            f"vector has length {y.size}, matrix has order {a.shape[0]}"
        )
    scale = max(1.0, float(np.abs(a).max()))
    if float(np.abs(a - a.T).max()) > 1e-10 * scale:
        raise CertificateError("matrix is not symmetric")
    # syevr as scipy.linalg.eigh calls it: a workspace below the queried
    # size changes the blocking, and so the rounding, above order 32
    work, iwork, _ = dsyevr_lwork(a.shape[0], lower=1)
    w, q, _, _, _ = dsyevr(np.asarray_chkfinite(a), compute_v=1, lower=1, lwork=int(work), liwork=iwork)
    if w[-1] <= 0.0:
        # A is (numerically) the zero matrix; only y = 0 stays in range
        if float(np.linalg.norm(y)) > 1e-8:
            raise CertificateError("vector lies outside the range of the matrix")
        return 0.0
    if w[0] < -1e-10 * w[-1]:
        raise CertificateError(f"matrix is not positive semidefinite (lambda_min={w[0]!r})")
    kernel = w <= 1e-10 * w[-1]
    z = q.T @ y
    if np.any(kernel):
        leak = float(np.linalg.norm(z[kernel]))
        if leak > 1e-8 * max(1.0, float(np.linalg.norm(y))):
            raise CertificateError(
                f"vector has component {leak!r} in the kernel of the matrix"
            )
    zr = z[~kernel]
    return float(np.sum(zr**2 / w[~kernel]))


def complexity_value(u, basis=None) -> float:
    """The Newton decrement squared of the barrier at its analytic-center
    scaling: grad^T H^{-1} grad.

    With ``basis`` None this is over the full orthant and equals the number
    of entries exactly.  With ``basis`` an N x t matrix whose columns span a
    subspace, the barrier is restricted to ``u + span(basis)`` and the value
    is g_t^T H_t^{-1} g_t for the restricted gradient and Hessian; it never
    exceeds the unrestricted value.
    """
    u = np.asarray(u, dtype=np.float64)
    if np.any(u <= 0.0):
        raise ValueError("barrier requires strictly positive entries")
    g = (-1.0 / u).ravel()
    d2 = (1.0 / u**2).ravel()
    if basis is None:
        return float(np.sum(g**2 / d2))
    b = np.asarray(basis, dtype=np.float64)
    if b.ndim != 2 or b.shape[0] != u.size:
        raise ValueError(
            f"basis must be {u.size} x t, got shape {b.shape}"
        )
    if b.shape[1] == 0:
        return 0.0
    gt = b.T @ g
    ht = (b * d2[:, None]).T @ b
    c, info = dpotrf(np.asarray_chkfinite(ht), clean=0)
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}-th leading minor of the array is not positive definite")
    x, _ = dpotrs(c, np.asarray_chkfinite(gt))
    return float(gt @ x)
