"""The LAPACK routines of the Newton solve, without importing scipy.linalg.

The solve needs Cholesky (potrf, potrs) and, in the QR tail, one triangular
solve (trtrs).  Importing scipy.linalg to reach them took 0.25-0.30 s, most
of a cold ``import totipm`` (numpy itself takes 0.10 s).  scipy's wheels
bundle OpenBLAS as ``scipy.libs/libscipy_openblas-*.so`` and export its
LAPACK with a ``scipy_`` prefix; scipy.linalg.lapack calls that same
library, so binding it with ctypes gives the same factors bit for bit.
importlib.util.find_spec locates scipy without importing it, opening the
library takes 2-3 ms, and the process maps it once, whichever of this
module and scipy opens it first.

Where the bundled library or its ``scipy_`` symbols are absent (conda or
MKL builds of scipy, scipy older than 1.13), the same routines come from
scipy.linalg.lapack, looked up once.  The choice is made once, at import,
from what is installed: ``Cholesky`` and ``solve_transposed`` name the
chosen pair.

numpy's own bundled OpenBLAS (ILP64, ``scipy_*64_`` symbols) is not used
for the solves: at m = 127 its potrs took 21.2 us against 14.1 us and its
potrf 68 us against 57 (one thread, 2-core Xeon).

Taking ``arr.ctypes.data`` costs 2.5 us, more than a whole potrs call
through scipy's wrappers at small m.  So a Cholesky object owns its
buffers and takes their addresses once, copies each argument into them (a
shape that does not match raises before any foreign call) and hands the
routines nothing else.  Even so a ctypes call costs more than scipy's
wrappers: one potrf and two potrs took 5.9 us against 3.2 us at m = 6, so
a step of the smallest problems (40-50 us) is 5-7% slower, while at m = 63
the difference is 1.4 us of a 130 us step.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import importlib.util
import os

import numpy as np

__all__ = [
    "OPENBLAS",
    "Cholesky",
    "solve_transposed",
    "OpenBLASCholesky",
    "ScipyCholesky",
    "openblas_solve_transposed",
    "scipy_solve_transposed",
    "scipy_routines",
    "set_blas_threads",
]

_SOLVE_SYMBOLS = ("scipy_dpotrf_", "scipy_dpotrs_", "scipy_dtrtrs_")


def _bundled(package: str, pattern: str, *symbols):
    """The library matching ``pattern`` in the ``<package>.libs`` directory
    beside ``package``, opened with ctypes, if it exports ``symbols``; else
    None.  Does not import ``package``."""
    spec = importlib.util.find_spec(package)
    if spec is None or spec.origin is None:
        return None
    libs = os.path.join(os.path.dirname(os.path.dirname(spec.origin)), f"{package}.libs")
    for path in sorted(glob.glob(os.path.join(libs, pattern))):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        if all(hasattr(library, symbol) for symbol in symbols):
            return library
    return None


def _find_openblas():
    """scipy's bundled OpenBLAS if it exports potrf, potrs and trtrs under
    the ``scipy_`` prefix, opened with ctypes; else None."""
    library = _bundled("scipy", "libscipy_openblas-*.so", *_SOLVE_SYMBOLS)
    if library is None:
        return None
    # Fortran calling convention: every argument by address, then the hidden
    # lengths of the character arguments
    p, size = ctypes.c_void_p, ctypes.c_size_t
    for name, argtypes in (
        ("scipy_dpotrf_", [p] * 5 + [size]),
        ("scipy_dpotrs_", [p] * 8 + [size]),
        ("scipy_dtrtrs_", [p] * 10 + [size] * 3),
    ):
        getattr(library, name).argtypes = argtypes
        getattr(library, name).restype = None
    return library


@functools.cache
def scipy_routines(*names):
    """scipy.linalg.lapack's float64 routines ``names``, looked up once per
    process; importing scipy.linalg is deferred to the first call."""
    import scipy.linalg.lapack

    return tuple(scipy.linalg.lapack.get_lapack_funcs(names, dtype=np.float64))


class OpenBLASCholesky:
    """potrf of an m x m symmetric matrix, and potrs with k right-hand
    sides, in the bundled OpenBLAS, on buffers this object owns.

    A symmetric C-order matrix read as Fortran is itself, and a C-order
    (k, m) array is the Fortran m x k right-hand side, so neither copy
    transposes."""

    def __init__(self, m: int, k: int):
        self.factor = np.zeros((m, m))
        self.rhs = np.zeros((k, m))
        self.info = ctypes.c_int(0)
        # the routines read these through the addresses below, so self keeps
        # them alive.  Plain c_void_p arguments convert fastest: a call
        # took 1.2 us with them, 1.6 us with byref
        self._scalars = (ctypes.c_char(b"L"), ctypes.c_int(m), ctypes.c_int(k), self.info)
        uplo, n, nrhs, info = (ctypes.c_void_p(ctypes.addressof(x)) for x in self._scalars)
        factor = ctypes.c_void_p(self.factor.ctypes.data)
        rhs = ctypes.c_void_p(self.rhs.ctypes.data)
        one = ctypes.c_size_t(1)
        self._potrf = (OPENBLAS.scipy_dpotrf_, (uplo, n, factor, n, info, one))
        self._potrs = (OPENBLAS.scipy_dpotrs_, (uplo, n, nrhs, factor, n, rhs, n, info, one))

    def potrf(self, a) -> bool:
        """Factor the symmetric ``a`` in place of the last factor; False
        when it is not (numerically) positive definite."""
        # np.copyto alone would broadcast a smaller array
        if a.shape != self.factor.shape:
            raise ValueError(f"expected shape {self.factor.shape}, got {a.shape}")
        np.copyto(self.factor, a)
        call, args = self._potrf
        call(*args)
        return self.info.value == 0

    def potrs(self, b) -> np.ndarray:
        """Solve with the last factor for the rows of ``b``, shape (k, m)."""
        if b.shape != self.rhs.shape:
            raise ValueError(f"expected shape {self.rhs.shape}, got {b.shape}")
        np.copyto(self.rhs, b)
        call, args = self._potrs
        call(*args)
        return self.rhs.copy()


class ScipyCholesky:
    """OpenBLASCholesky's calls through scipy.linalg.lapack, which
    allocates its own arrays."""

    def __init__(self, m: int, k: int):
        self._routines = scipy_routines("potrf", "potrs")
        self._factor = None

    def potrf(self, a) -> bool:
        self._factor, info = self._routines[0](a, lower=1, clean=0)
        return info == 0

    def potrs(self, b) -> np.ndarray:
        z, _ = self._routines[1](self._factor, b.T, lower=1)
        return z.T


def openblas_solve_transposed(r, b):
    """(x, info) with r^T x = b for the upper-triangular m x m ``r`` and a
    vector ``b``, by trtrs in the bundled OpenBLAS; info > 0 when the
    diagonal of ``r`` holds a zero."""
    # C-order r read as Fortran is r^T, lower triangular
    a = np.array(r, dtype=np.float64, order="C")
    x = np.array(b, dtype=np.float64)
    m = x.size
    if x.shape != (m,) or a.shape != (m, m):
        raise ValueError(f"expected an {m} x {m} matrix, got shape {a.shape}")
    n, nrhs, info = ctypes.c_int(m), ctypes.c_int(1), ctypes.c_int(0)
    lower, plain = ctypes.c_char(b"L"), ctypes.c_char(b"N")
    one = ctypes.c_size_t(1)
    OPENBLAS.scipy_dtrtrs_(
        ctypes.byref(lower), ctypes.byref(plain), ctypes.byref(plain),
        ctypes.byref(n), ctypes.byref(nrhs), a.ctypes.data, ctypes.byref(n),
        x.ctypes.data, ctypes.byref(n), ctypes.byref(info), one, one, one,
    )
    return x, info.value


def scipy_solve_transposed(r, b):
    """openblas_solve_transposed through scipy.linalg.lapack."""
    (trtrs,) = scipy_routines("trtrs")
    return trtrs(r, b, lower=0, trans=1)


def set_blas_threads(count: int) -> None:
    """Run scipy's bundled OpenBLAS, when bound, and numpy's, when its
    setter is found, on ``count`` threads."""
    setters = []
    if OPENBLAS is not None and hasattr(OPENBLAS, "scipy_openblas_set_num_threads"):
        setters.append(OPENBLAS.scipy_openblas_set_num_threads)
    numpy_blas = _bundled("numpy", "libscipy_openblas64_*.so", "scipy_openblas_set_num_threads64_")
    if numpy_blas is not None:
        setters.append(numpy_blas.scipy_openblas_set_num_threads64_)
    for setter in setters:
        setter.argtypes = [ctypes.c_int]
        setter.restype = None
        setter(count)


OPENBLAS = _find_openblas()
if OPENBLAS is None:
    Cholesky, solve_transposed = ScipyCholesky, scipy_solve_transposed
else:
    Cholesky, solve_transposed = OpenBLASCholesky, openblas_solve_transposed
