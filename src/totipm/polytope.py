"""Feasible sets of marginal-constrained transport tensors.

Two polytope variants over nonnegative d-mode tensors with prescribed
positive probability vectors p_1..p_d:

* variant ``"U"`` (marginal): the mode-k marginal, i.e. the contraction
  against all-ones on the other modes, equals p_k for every mode k;
* variant ``"V"`` (mode-sum): summing along mode k yields the outer
  product of the other marginals.

For d = 2 the variants coincide.  Both contain the product tensor
``outer(p_1, .., p_d)``, which is strictly positive and serves as the
interior starting point of the path-following solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .tensor import contract_all_but, frobenius_norm, inner, marginal, mode_contract, outer

__all__ = [
    "MarginalProblem",
    "ConstraintSystem",
    "start_point",
    "residual",
    "residual_norm",
    "MarginalOperator",
    "marginal_rhs",
    "null_basis",
    "null_basis_matrix",
    "null_space_dim",
    "sym_lower_bound",
    "feasible",
    "centering_project",
    "random_interior_point",
]

VARIANTS = ("U", "V")

# Marginal sums must match 1 this tightly at construction; forgiving
# normalisation belongs to the instance loader, not here.
_MARGINAL_SUM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class MarginalProblem:
    """A cost tensor, one positive probability vector per mode, and a variant."""

    cost: np.ndarray
    marginals: tuple
    variant: str = "U"

    def __post_init__(self):
        cost = np.ascontiguousarray(self.cost, dtype=np.float64)
        margs = tuple(np.ascontiguousarray(p, dtype=np.float64) for p in self.marginals)
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if cost.ndim != len(margs):
            raise ValueError(
                f"cost has {cost.ndim} modes but {len(margs)} marginals were given"
            )
        if not np.all(np.isfinite(cost)):
            bad = tuple(int(i) for i in np.argwhere(~np.isfinite(cost))[0])
            raise ValueError(
                f"cost entry {bad} is {float(cost[bad])!r}; every cost must be finite"
            )
        for k, p in enumerate(margs):
            if p.ndim != 1 or p.size != cost.shape[k]:
                raise ValueError(
                    f"marginal {k} has length {p.size}, expected {cost.shape[k]}"
                )
            # written so that NaN fails it too
            if not np.all(p > 0.0):
                raise ValueError(f"marginal {k} must be strictly positive")
            if abs(p.sum() - 1.0) > _MARGINAL_SUM_TOL:
                raise ValueError(f"marginal {k} sums to {p.sum()!r}, expected 1")
        cost.flags.writeable = False
        for p in margs:
            p.flags.writeable = False
        object.__setattr__(self, "cost", cost)
        object.__setattr__(self, "marginals", margs)

    @property
    def dims(self) -> tuple:
        return self.cost.shape

    @property
    def d(self) -> int:
        return self.cost.ndim

    @property
    def size(self) -> int:
        return self.cost.size


def _u_rows(dims) -> np.ndarray:
    """Reduced marginal rows: the first n_k - 1 rows of every mode, then one
    total-mass row.  Always full row rank (1 + sum(n_k - 1) rows)."""
    d = len(dims)
    size = int(np.prod(dims))
    rows = []
    for k, n in enumerate(dims):
        for r in range(n - 1):
            t = np.zeros(dims)
            idx = [slice(None)] * d
            idx[k] = r
            t[tuple(idx)] = 1.0
            rows.append(t.ravel())
    rows.append(np.ones(size))
    return np.array(rows)


def marginal_rhs(problem: MarginalProblem) -> np.ndarray:
    """Right-hand side b of the reduced "U" rows: p_k without its last entry
    for every mode, then the total mass 1."""
    parts = [p[:-1] for p in problem.marginals]
    parts.append([1.0])
    return np.concatenate(parts)


def _v_rows(problem: MarginalProblem):
    """Mode-sum rows, one per (mode k, multi-index of the other modes) in
    row-major order, keeping only the multi-indices whose entry on every
    mode before k avoids that mode's last value.

    The count, sum_k prod_{j<k}(n_j - 1) prod_{j>k} n_j, telescopes to
    prod(n_k) - prod(n_k - 1), the rank of all mode sums together, and the
    kept rows reach that rank (the tests check shapes up to four modes).
    """
    dims = problem.dims
    rows = []
    rhs = []
    for k in range(len(dims)):
        other = [p for j, p in enumerate(problem.marginals) if j != k]
        target = outer(other) if other else np.array(1.0)
        for j_idx in np.ndindex(*target.shape):
            if any(j_idx[j] == dims[j] - 1 for j in range(k)):
                continue
            t = np.zeros(dims)
            idx = list(j_idx[:k]) + [slice(None)] + list(j_idx[k:])
            t[tuple(idx)] = 1.0
            rows.append(t.ravel())
            rhs.append(float(target[j_idx]))
    return np.array(rows), np.array(rhs)


class ConstraintSystem:
    """Full-row-rank equality description ``A vec(X) = b`` of the affine slice.

    Variant "U" drops the last marginal row of every mode and appends a single
    total-mass row; the result has 1 + sum(n_k - 1) rows and full row rank for
    every d.  Variant "V" keeps the mode-sum rows chosen by an index rule (see
    _v_rows): prod(n_k) - prod(n_k - 1) rows, again of full row rank.

    ``apply``, ``adjoint`` and ``normal_matrix`` multiply by the dense rows,
    with the signatures of MarginalOperator's.
    """

    def __init__(self, problem: MarginalProblem):
        self.variant = problem.variant
        self.dims = problem.dims
        if problem.variant == "U":
            self.matrix = _u_rows(problem.dims)
            self.rhs = marginal_rhs(problem)
        else:
            self.matrix, self.rhs = _v_rows(problem)

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    def apply(self, x) -> np.ndarray:
        """A x for flat ``x`` of shape (N,) or (r, N)."""
        return x @ self.matrix.T

    def adjoint(self, y) -> np.ndarray:
        """A^T y, flat, for ``y`` of shape (m,) or (r, m)."""
        return y @ self.matrix

    def normal_matrix(self, w) -> np.ndarray:
        """A diag(w) A^T for flat weights ``w`` of shape (N,)."""
        return (self.matrix * w) @ self.matrix.T


def start_point(problem: MarginalProblem) -> np.ndarray:
    """The product tensor of the marginals: strictly positive and feasible
    for both variants."""
    return outer(problem.marginals)


def residual(problem: MarginalProblem, u) -> list:
    """Per-mode constraint residuals of ``u``.

    Variant "U": d vectors, mode-k marginal minus p_k.  Variant "V": d
    tensors, mode-k sum minus the outer product of the other marginals.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.shape != problem.dims:
        raise ValueError(f"expected shape {problem.dims}, got {u.shape}")
    out = []
    for k in range(problem.d):
        if problem.variant == "U":
            out.append(marginal(u, k) - problem.marginals[k])
        else:
            other = [p for j, p in enumerate(problem.marginals) if j != k]
            target = outer(other) if other else np.array(1.0)
            out.append(mode_contract(u, k, np.ones(problem.dims[k])) - target)
    return out


def residual_norm(problem: MarginalProblem, u) -> float:
    """Largest Frobenius norm among the per-mode residuals."""
    return max(frobenius_norm(r) for r in residual(problem, u))


class MarginalOperator:
    """The reduced "U" rows of ConstraintSystem, applied as tensor reductions.

    ``apply`` takes mode marginals and ``adjoint`` broadcasts multipliers
    back over the tensor, both on flat vectors with an optional leading
    batch axis.  ``normal_matrix`` assembles A diag(w) A^T, of order
    m = 1 + sum(n_k - 1), from the 1- and 2-mode marginals of w in O(d^2 N).
    No dense m x N matrix is formed.
    """

    def __init__(self, dims):
        dims = tuple(int(n) for n in dims)
        d = len(dims)
        self.dims = dims
        self.size = int(np.prod(dims))
        self.n_rows = 1 + sum(n - 1 for n in dims)
        # a multiplier vector padded with the implicit zero of every mode's
        # dropped last row: n_1 + .. + n_d slots, then the total
        starts = np.cumsum([0] + list(dims))
        self._padded_len = int(starts[-1]) + 1
        self._keep = np.concatenate(
            [np.arange(starts[k], starts[k + 1] - 1) for k in range(d)] + [[starts[-1]]]
        ).astype(np.intp)
        self._broadcast = [
            (slice(starts[k], starts[k + 1]), (-1,) + (1,) * k + (n,) + (1,) * (d - k - 1))
            for k, n in enumerate(dims)
        ]
        self._batched_dims = (-1,) + dims
        self._marginal_axes = [tuple(1 + j for j in range(d) if j != k) for k in range(d)]
        self._pairs = [(k, l) for k in range(d) for l in range(k + 1, d)]
        self._pair_axes = [tuple(j for j in range(d) if j not in kl) for kl in self._pairs]
        # normal_matrix gathers M from the concatenated marginals of w; where
        # each entry comes from is found once, from the marginals' positions
        parts = self._parts(np.zeros(dims))
        offsets = np.cumsum([0] + [part.size for part in parts])
        self._layout = self._layout_of(
            [offsets[i] + np.arange(part.size).reshape(part.shape) for i, part in enumerate(parts)]
        )

    def apply(self, x) -> np.ndarray:
        """A x for flat ``x`` of shape (N,) or (r, N)."""
        t = x.reshape(self._batched_dims)
        margs = [np.add.reduce(t, axis=axes) for axes in self._marginal_axes]
        margs.append(np.add.reduce(margs[0], axis=1, keepdims=True))
        out = np.concatenate(margs, axis=1)[:, self._keep]
        return out if x.ndim == 2 else out[0]

    def adjoint(self, y) -> np.ndarray:
        """A^T y, flat, for ``y`` of shape (m,) or (r, m): entry (i_1..i_d)
        is the total's multiplier plus sum_k y_k[i_k]."""
        rows = y if y.ndim == 2 else y[None]
        padded = np.zeros((rows.shape[0], self._padded_len))
        padded[:, self._keep] = rows
        (cut, shape), *rest = self._broadcast
        out = (padded[:, cut] + padded[:, -1:]).reshape(shape)
        for cut, shape in rest:
            out = out + padded[:, cut].reshape(shape)
        out = out.reshape(rows.shape[0], self.size)
        return out if y.ndim == 2 else out[0]

    def normal_matrix(self, w) -> np.ndarray:
        """A diag(w) A^T for flat weights ``w`` of shape (N,)."""
        # the appended 0 is entry -1, where _layout points for zero entries
        values = np.concatenate(self._parts(w.reshape(self.dims)) + [np.zeros(1)], axis=None)
        return values[self._layout]

    def _parts(self, t) -> list:
        """The 1-mode marginals of t, its total, then its 2-mode marginals."""
        d = len(self.dims)
        if d == 1:
            return [t, np.add.reduce(t, keepdims=True)]
        pairs = [np.add.reduce(t, axis=axes) for axes in self._pair_axes]
        margs = [np.add.reduce(pairs[0], axis=1), np.add.reduce(pairs[0], axis=0)]
        margs += [np.add.reduce(pairs[l - 1], axis=0) for l in range(2, d)]
        return margs + [np.add.reduce(margs[0], keepdims=True)] + pairs

    def _layout_of(self, parts) -> np.ndarray:
        """M with each entry replaced by the index it is copied from in
        ``parts`` (ordered as _parts returns them), -1 where M is 0.

        Block (k, l) is the 2-mode marginal on modes k and l without their
        dropped last rows, block (k, k) is diagonal with the mode-k
        marginal, and the total-mass row and column hold the marginals and
        the total.
        """
        dims = self.dims
        d = len(dims)
        margs, total, pairs = parts[:d], parts[d], parts[d + 1 :]
        starts = np.cumsum([0] + [n - 1 for n in dims])
        out = np.full((self.n_rows, self.n_rows), -1, dtype=np.intp)
        for k, n in enumerate(dims):
            rows = np.arange(starts[k], starts[k + 1])
            out[rows, rows] = margs[k][: n - 1]
            out[rows, -1] = margs[k][: n - 1]
            out[-1, rows] = margs[k][: n - 1]
        for (k, l), pair in zip(self._pairs, pairs):
            block = pair[: dims[k] - 1, : dims[l] - 1]
            out[starts[k] : starts[k + 1], starts[l] : starts[l + 1]] = block
            out[starts[l] : starts[l + 1], starts[k] : starts[k + 1]] = block.T
        out[-1, -1] = total[0]
        return out


def _difference_vectors(n: int) -> list:
    """e_i - e_{i+1} for i in range(n - 1)."""
    out = []
    for i in range(n - 1):
        g = np.zeros(n)
        g[i] = 1.0
        g[i + 1] = -1.0
        out.append(g)
    return out


def null_space_dim(problem: MarginalProblem) -> int:
    dims = problem.dims
    if problem.variant == "V":
        return int(np.prod([n - 1 for n in dims]))
    return int(np.prod(dims)) - 1 - sum(n - 1 for n in dims)


def null_basis(problem: MarginalProblem) -> list:
    """Linearly independent tensors spanning the homogeneous solution set.

    Variant "V" (any d): outer products of per-mode difference vectors,
    prod(n_k - 1) elements.  Variant "U", d = 2: the difference basis
    g_i h_j^T, (m-1)(n-1) elements.  Variant "U", d > 2: an orthonormal
    kernel basis of the reduced constraint matrix, computed numerically.
    """
    dims = problem.dims
    if problem.variant == "V":
        diffs = [_difference_vectors(n) for n in dims]
        basis = []
        for combo in np.ndindex(*[n - 1 for n in dims]):
            basis.append(outer([diffs[k][i] for k, i in enumerate(combo)]))
        return basis
    if problem.d == 1:
        return []
    if problem.d == 2:
        gs = _difference_vectors(dims[0])
        hs = _difference_vectors(dims[1])
        return [outer([g, h]) for g in gs for h in hs]
    a = ConstraintSystem(problem).matrix
    kernel = scipy.linalg.null_space(a)
    expected = null_space_dim(problem)
    if kernel.shape[1] != expected:
        raise RuntimeError(
            f"kernel dimension {kernel.shape[1]} does not match the forced "
            f"count {expected} for shape {dims}"
        )
    return [kernel[:, j].reshape(dims) for j in range(kernel.shape[1])]


def null_basis_matrix(problem: MarginalProblem) -> np.ndarray:
    """Basis elements flattened into the columns of an N x t matrix."""
    basis = null_basis(problem)
    if not basis:
        return np.zeros((problem.size, 0))
    return np.column_stack([e.ravel() for e in basis])


def sym_lower_bound(problem: MarginalProblem) -> float:
    """Lower bound prod_k(min_i p_k[i]) / sqrt(2) on the symmetry of the
    start point inside the feasible slice."""
    prod = 1.0
    for p in problem.marginals:
        prod *= float(p.min())
    return prod / np.sqrt(2.0)


def feasible(problem: MarginalProblem, u, tol: float) -> bool:
    """True iff all entries >= -tol and every residual norm is <= tol."""
    u = np.asarray(u, dtype=np.float64)
    if u.shape != problem.dims:
        raise ValueError(f"expected shape {problem.dims}, got {u.shape}")
    if float(u.min()) < -tol:
        return False
    return residual_norm(problem, u) <= tol


def centering_project(u) -> np.ndarray:
    """Orthogonal projection onto the variant-"V" null space: subtract the
    mean along every mode (the Kronecker product of per-mode centerings)."""
    out = np.asarray(u, dtype=np.float64).copy()
    for k in range(out.ndim):
        out -= out.mean(axis=k, keepdims=True)
    return out


def random_interior_point(problem: MarginalProblem, rng, scale: float = 0.9) -> np.ndarray:
    """A strictly positive feasible point: the start point plus a random
    null-space direction, scaled to keep a margin from the boundary."""
    if not 0.0 < scale < 1.0:
        raise ValueError("scale must lie in (0, 1)")
    x = start_point(problem).ravel()
    b = null_basis_matrix(problem)
    if b.shape[1] == 0:
        return x.reshape(problem.dims)
    direction = b @ rng.uniform(-1.0, 1.0, size=b.shape[1])
    neg = direction < 0.0
    if np.any(neg):
        alpha = float(np.min(x[neg] / -direction[neg]))
    else:
        alpha = 1.0
    step = scale * rng.uniform(0.0, 1.0) * alpha
    return (x + step * direction).reshape(problem.dims)
