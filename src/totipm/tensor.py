"""Dense d-mode tensors and the contractions the transport problems are built from.

A tensor throughout this package is a C-contiguous ``float64`` numpy array.
Row-major (C) order realises the flat-index convention

    flat = sum_k i_k * prod_{j > k} n_j

with the last index fastest.  Mode indices are 0-based everywhere in code;
the accompanying prose uses 1-based modes.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

__all__ = [
    "outer",
    "inner",
    "contract_all_but",
    "mode_contract",
    "marginal",
    "frobenius_norm",
]


def outer(vectors) -> np.ndarray:
    """Outer product tensor of d vectors: entry (i_1..i_d) = prod_k v_k[i_k]."""
    vecs = [np.asarray(v, dtype=np.float64) for v in vectors]
    if not vecs:
        raise ValueError("outer() requires at least one vector")
    for k, v in enumerate(vecs):
        if v.ndim != 1 or v.size == 0:
            raise ValueError(f"outer() argument {k} must be a nonempty vector")
    return reduce(np.multiply.outer, vecs)


def inner(a, b) -> float:
    """Entrywise (Hilbert-Schmidt) inner product of two equal-shape tensors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.dot(a.ravel(), b.ravel()))


def contract_all_but(u, mode: int, x) -> np.ndarray:
    """Contract ``u`` against ``x`` on every mode except ``mode``.

    ``x`` must have u's shape with ``mode`` removed.  Returns the vector

        y[i] = sum over the other indices of u[.., i at mode, ..] * x[..].

    With ``x`` all-ones this is the mode-``mode`` marginal of ``u``.
    """
    u = np.asarray(u, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    d = u.ndim
    if not 0 <= mode < d:
        raise ValueError(f"mode {mode} out of range for a {d}-mode tensor")
    expected = u.shape[:mode] + u.shape[mode + 1 :]
    if x.shape != expected:
        raise ValueError(f"expected contraction shape {expected}, got {x.shape}")
    other = [ax for ax in range(d) if ax != mode]
    return np.tensordot(u, x, axes=(other, list(range(x.ndim))))


def mode_contract(u, mode: int, x) -> np.ndarray:
    """Contract mode ``mode`` of ``u`` against the vector ``x``.

    Returns the (d-1)-mode tensor w[.., i_{k-1}, i_{k+1}, ..] =
    sum_{i_k} u[..] * x[i_k].
    """
    u = np.asarray(u, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    d = u.ndim
    if not 0 <= mode < d:
        raise ValueError(f"mode {mode} out of range for a {d}-mode tensor")
    if x.ndim != 1 or x.size != u.shape[mode]:
        raise ValueError(
            f"expected a vector of length {u.shape[mode]} for mode {mode}, "
            f"got shape {x.shape}"
        )
    return np.tensordot(u, x, axes=([mode], [0]))


def marginal(u, mode: int) -> np.ndarray:
    """Mode-``mode`` marginal: contraction against all-ones on the other modes."""
    u = np.asarray(u, dtype=np.float64)
    other = u.shape[:mode] + u.shape[mode + 1 :]
    return contract_all_but(u, mode, np.ones(other))


def frobenius_norm(u) -> float:
    """Euclidean norm of the flattened entries."""
    return float(np.linalg.norm(np.asarray(u, dtype=np.float64).ravel()))
