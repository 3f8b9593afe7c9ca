"""Feasible sets of marginal-constrained transport tensors.

Two polytope variants over nonnegative d-mode tensors with prescribed
positive probability vectors p_1..p_d:

* variant ``"U"`` (marginal): the mode-k marginal, i.e. the contraction
  against all-ones on the other modes, equals p_k for every mode k;
* variant ``"V"`` (mode-sum): summing along mode k yields the outer
  product of the other marginals.

For d = 2 the variants coincide.  Both contain the product tensor, the
outer product of p_1, .., p_d, which is strictly positive and serves as the
interior starting point of the path-following solver.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MarginalProblem",
    "ConstraintSystem",
    "start_point",
    "residual_norm",
    "null_basis_matrix",
    "null_space_dim",
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

    @functools.cached_property
    def constraints(self) -> "ConstraintSystem":
        """The problem's ConstraintSystem, built on first use and shared by
        every Newton workspace of the problem and by the LP oracle, so its
        row table, dense rows and reduction tables are built once."""
        return ConstraintSystem(self)


# ConstraintSystem multiplies by its dense rows while m * N (rows times
# tensor entries) is at most this, and by reductions above it, where a few
# numpy calls per product no longer cost more than the flops they save.
# The operator calls of one Newton step (normal_matrix once, apply twice and
# adjoint three times on two right-hand sides), dense against reductions in
# us, one BLAS thread on a 2-core Xeon: U 16x16 (m*N = 7 936) 38/57, V 5x5x5
# (7 625) 59/79, U 8x8x8 (11 264) 45/143; V 6x6x5 (14 400) 117/114, U 20x20
# (15 600) 117/92, V 6x6x6 (19 656) 180/129, U 24x24 (27 072) 209/109.  U
# with three modes favours dense rows further up (9x9x9, 18 225: 84/156).
# The cut rests on these micro-timings alone: no benchmark workload lies
# between m*N = 2 368 (small-batch, V 4x4x4) and 19 656 (v3-dense, V 6x6x6).
_DENSE_CROSSOVER = 12_000


def _row_table(dims, variant) -> np.ndarray:
    """The (m, d) row table of ConstraintSystem: row r fixes mode j at
    index table[r, j], or leaves it free where that is -1."""
    d = len(dims)
    rows = []
    if variant == "U":
        for k, n in enumerate(dims):
            for i in range(n - 1):
                rows.append([-1] * k + [i] + [-1] * (d - k - 1))
        rows.append([-1] * d)
    else:
        for k in range(d):
            for j_idx in np.ndindex(*(dims[:k] + dims[k + 1 :])):
                if all(j_idx[j] < dims[j] - 1 for j in range(k)):
                    rows.append(list(j_idx[:k]) + [-1] + list(j_idx[k:]))
    return np.array(rows, dtype=np.intp)


_Sums = namedtuple("_Sums", ["axes", "kept", "index"])


def _sum_layout(dims, fixed, coords, shift=0) -> _Sums:
    """How to read entries off partial sums of a tensor: entry e is the sum
    over the modes j where ``fixed[j, e]`` is false, at ``coords[j, e]`` on
    the others (``coords`` may hold anything on the free modes).

    Each distinct set of kept modes among the entries is summed once,
    straight from the tensor: ``kept`` holds the sets, ``axes`` the axes
    each sums (moved by ``shift`` for a leading batch axis), and ``index``
    each entry's position in the flat concatenation of the sums.  Every
    table has one row per distinct set, so the layout does not grow with
    the number of modes.
    """
    d = len(dims)
    # one bit per kept mode: an ndarray has at most 64 modes
    codes = (np.uint64(1) << np.arange(d, dtype=np.uint64)) @ fixed
    sets, which = np.unique(codes, return_inverse=True)
    kept = [tuple(j for j in range(d) if int(code) >> j & 1) for code in sets]
    # per set: where its sum starts in the concatenation, and its row-major
    # strides (0 on the free modes)
    start = np.cumsum([0] + [math.prod(dims[j] for j in s) for s in kept[:-1]])
    strides = np.zeros((len(kept), d), dtype=np.intp)
    for row, s in zip(strides, kept):
        for j in s:
            row[j] = math.prod(dims[k] for k in s if k > j)
    index = start.take(which) + sum(c * s.take(which) for c, s in zip(coords, strides.T))
    axes = [tuple(j + shift for j in range(d) if j not in s) for s in kept]
    return _Sums(axes, kept, index)


def _partial_sums(t, sums: _Sums) -> list:
    """The sums of ``t`` that ``sums`` reads, in its order, each taken
    straight from ``t`` (``t`` itself where no axis is summed, since a sum
    over no axes would copy it)."""
    return [np.add.reduce(t, axis=axes) if axes else t for axes in sums.axes]


class ConstraintSystem:
    """Full-row-rank equality description ``A vec(X) = b`` of the affine
    slice, held as a row table.

    Row r of the (m, d) table ``pattern`` fixes mode j at index
    ``pattern[r, j]``, or leaves it free where that is -1: it sums the
    entries that agree with it on every fixed mode, and its right-hand side
    is the product of the p_j at the fixed indices.  Variant "U" keeps the
    first n_k - 1 marginal rows of every mode, then the total mass (no mode
    fixed): 1 + sum(n_k - 1) rows.  Variant "V" keeps, mode k by mode k,
    the sums along k (every other mode fixed) whose index on every earlier
    mode avoids that mode's last value, in row-major order.  Their count,
    sum_k prod_{j<k}(n_j - 1) prod_{j>k} n_j, telescopes to
    prod(n_k) - prod(n_k - 1), the rank of all mode sums together, and the
    kept rows reach it (the tests check shapes up to four modes).

    ``apply``, ``adjoint`` and ``normal_matrix`` act on flat vectors.  Up to
    _DENSE_CROSSOVER in m * N they multiply by the dense rows ``matrix``;
    above it they never form them: A x reads the rows off partial sums of
    x, A^T y spreads each multiplier over the entries its row sums, and
    entry (r, s) of A diag(w) A^T is the sum of w over the modes neither
    row fixes, at the indices they fix (0 where the two rows fix one mode
    at different indices).
    """

    def __init__(self, problem: MarginalProblem):
        self.dims = problem.dims
        self.pattern = _row_table(problem.dims, problem.variant)
        self.rhs = np.ones(len(self.pattern))
        for j, p in enumerate(problem.marginals):
            at = self.pattern[:, j]
            self.rhs = self.rhs * np.where(at >= 0, p[at], 1.0)
        # shared through MarginalProblem.constraints: nobody may write them
        self.pattern.flags.writeable = False
        self.rhs.flags.writeable = False
        self._dense = self.n_rows * problem.size <= _DENSE_CROSSOVER

    @property
    def n_rows(self) -> int:
        return len(self.pattern)

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """The dense m x N 0/1 rows."""
        modes = np.indices(self.dims).reshape(len(self.dims), 1, -1)
        table = self.pattern.T[:, :, None]
        rows = np.all((table < 0) | (table == modes), axis=0).astype(np.float64)
        rows.flags.writeable = False
        return rows

    @functools.cached_property
    def _row_sums(self) -> tuple:
        """The sums A x reads its rows off, and per kept-mode set the slice
        of those sums' concatenation and the broadcast shape A^T y spreads
        it with, smaller sets first so that fewer adds are full size."""
        table = self.pattern.T
        sums = _sum_layout(self.dims, table >= 0, table, shift=1)
        spread = []
        start = 0
        for kept in sums.kept:
            size = math.prod(self.dims[j] for j in kept)
            shape = (-1,) + tuple(n if j in kept else 1 for j, n in enumerate(self.dims))
            spread.append((slice(start, start + size), shape))
            start += size
        return sums, sorted(spread, key=lambda term: term[0].stop - term[0].start), start

    @functools.cached_property
    def _pair_sums(self) -> tuple:
        """The sums A diag(w) A^T is gathered from, and where each entry
        comes from: rows r and s read the modes either fixes, at the index
        one of them fixes there, or -1 (an appended 0) where they fix one
        mode at different indices."""
        left, right = self.pattern.T[:, :, None], self.pattern.T[:, None, :]
        both = np.maximum(left, right).reshape(len(self.dims), -1)
        sums = _sum_layout(self.dims, both >= 0, both)
        clash = np.any((np.minimum(left, right) >= 0) & (left != right), axis=0)
        return sums, np.where(clash, -1, sums.index.reshape(clash.shape))

    def apply(self, x) -> np.ndarray:
        """A x for flat ``x`` of shape (N,) or (r, N)."""
        if self._dense:
            return x @ self.matrix.T
        sums, _, _ = self._row_sums
        t = x.reshape((-1,) + self.dims)
        out = np.concatenate([s.reshape(len(t), -1) for s in _partial_sums(t, sums)], axis=1)
        out = out.take(sums.index, axis=1)
        return out if x.ndim == 2 else out[0]

    def adjoint(self, y) -> np.ndarray:
        """A^T y, flat, for ``y`` of shape (m,) or (r, m)."""
        if self._dense:
            return y @ self.matrix
        sums, ((cut, shape), *rest), size = self._row_sums
        rows = y.reshape(-1, self.n_rows)
        spread = np.zeros((len(rows), size))
        spread[:, sums.index] = rows
        out = spread[:, cut].reshape(shape)
        for cut, shape in rest:
            out = out + spread[:, cut].reshape(shape)
        if out.shape[1:] != self.dims:
            # one mode under variant V: its one row keeps no mode
            out = np.broadcast_to(out, (len(rows),) + self.dims)
        out = out.reshape(len(rows), -1)
        return out if y.ndim == 2 else out[0]

    def normal_matrix(self, w) -> np.ndarray:
        """A diag(w) A^T for flat weights ``w`` of shape (N,)."""
        if self._dense:
            return (self.matrix * w) @ self.matrix.T
        sums, index = self._pair_sums
        parts = _partial_sums(w.reshape(self.dims), sums)
        return np.concatenate(parts + [np.zeros(1)], axis=None).take(index)


def start_point(problem: MarginalProblem) -> np.ndarray:
    """The product tensor of the marginals: strictly positive and feasible
    for both variants."""
    return functools.reduce(np.multiply.outer, problem.marginals)


def residual_norm(problem: MarginalProblem, u) -> float:
    """Largest Frobenius norm among the per-mode constraint residuals of
    ``u``: the mode-k marginal minus p_k (variant "U"), or the sum along
    mode k minus the outer product of the other marginals (variant "V")."""
    u = np.asarray(u, dtype=np.float64)
    if u.shape != problem.dims:
        raise ValueError(f"expected shape {problem.dims}, got {u.shape}")
    norms = []
    for k, p in enumerate(problem.marginals):
        if problem.variant == "U":
            r = u.sum(axis=tuple(j for j in range(problem.d) if j != k)) - p
        else:
            others = problem.marginals[:k] + problem.marginals[k + 1 :]
            r = u.sum(axis=k) - functools.reduce(np.multiply.outer, others, np.array(1.0))
        norms.append(float(np.linalg.norm(r)))
    return max(norms)


def null_space_dim(problem: MarginalProblem) -> int:
    dims = problem.dims
    if problem.variant == "V":
        return int(np.prod([n - 1 for n in dims]))
    return int(np.prod(dims)) - 1 - sum(n - 1 for n in dims)


def null_basis_matrix(problem: MarginalProblem) -> np.ndarray:
    """Linearly independent tensors spanning the homogeneous solution set,
    flattened into the columns of an N x t matrix.

    Per mode, the all-ones vector and the differences e_i - e_{i+1} (the
    columns of D_k) form a basis of R^{n_k}, so the Kronecker product of
    the factors [1 | D_k] is a basis of R^N whose columns are outer
    products.  A difference vector sums to 0, so a column with a difference
    at mode k sums to 0 along k, and one with differences at two modes has
    zero marginals, since each marginal sums along one of them at least.
    Variant "V" keeps the columns with a difference at every mode, which is
    the Kronecker product of the D_k, prod(n_k - 1) columns; variant "U"
    keeps those with a difference at two or more modes, all but
    1 + sum(n_k - 1).
    """
    dims = problem.dims
    diffs = [np.eye(n, n - 1) - np.eye(n, n - 1, -1) for n in dims]
    fewest = problem.d if problem.variant == "V" else 2
    if fewest == problem.d:
        # the same columns, without the N x N product of the full factors
        return functools.reduce(np.kron, diffs)
    factors = [np.column_stack((np.ones(n), diff)) for n, diff in zip(dims, diffs)]
    full = functools.reduce(np.kron, factors)
    return full[:, (np.indices(dims) > 0).sum(axis=0).ravel() >= fewest]


def random_interior_point(problem: MarginalProblem, rng) -> np.ndarray:
    """A strictly positive feasible point: the start point plus a random
    null-space direction, at most 0.9 of the way to the boundary."""
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
    step = 0.9 * rng.uniform(0.0, 1.0) * alpha
    return (x + step * direction).reshape(problem.dims)
