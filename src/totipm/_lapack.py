"""LAPACK routines without importing scipy.linalg, whose import took
0.25-0.30 s, most of a cold ``import totipm``.

scipy.linalg.lapack's float64 routines are the functions of scipy's f2py
extension module scipy.linalg._flapack, which imports only numpy.  This
module loads it from its file, found by importlib.util.find_spec without
importing scipy, in 6-7 ms.  The routines take scipy's own signatures (see
``help(scipy.linalg.lapack.dpotrf)``).  If scipy.linalg is loaded already,
its module serves; otherwise the loaded module leaves sys.modules again,
and a later import of scipy.linalg gets the same routines from CPython's
cache of extension modules.
"""

from __future__ import annotations

import ctypes
import glob
import importlib.machinery
import importlib.util
import os
import sys

__all__ = [
    "dpotrf",
    "dpotrs",
    "dtrtrs",
    "dgetrf",
    "dgetrs",
    "dsyevr",
    "dsyevr_lwork",
    "set_blas_threads",
]

_FLAPACK = "scipy.linalg._flapack"


def _load_flapack():
    """scipy.linalg._flapack, loaded from its file unless scipy.linalg
    already has it; scipy and scipy.linalg stay unimported."""
    if _FLAPACK in sys.modules:
        return sys.modules[_FLAPACK]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None or scipy.origin is None:
        raise ImportError("totipm needs scipy, and no scipy package was found")
    directory = os.path.join(os.path.dirname(scipy.origin), "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(directory, "_flapack" + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location(_FLAPACK, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            # loading registered it, without its parent packages
            sys.modules.pop(_FLAPACK, None)
            return module
    raise ImportError(f"no _flapack extension module in {directory}")


def _bundled(package: str, pattern: str, symbol: str):
    """The library matching ``pattern`` in the ``<package>.libs`` directory
    beside ``package``, opened with ctypes, if it exports ``symbol``; else
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
        if hasattr(library, symbol):
            return library
    return None


def set_blas_threads(count: int) -> None:
    """Run scipy's and numpy's bundled OpenBLAS, where their thread setters
    are found, on ``count`` threads; the setters are called through ctypes."""
    for package, pattern, name in (
        ("scipy", "libscipy_openblas-*.so", "scipy_openblas_set_num_threads"),
        ("numpy", "libscipy_openblas64_*.so", "scipy_openblas_set_num_threads64_"),
    ):
        library = _bundled(package, pattern, name)
        if library is not None:
            setter = getattr(library, name)
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            setter(count)


_flapack = _load_flapack()
dpotrf, dpotrs, dtrtrs = _flapack.dpotrf, _flapack.dpotrs, _flapack.dtrtrs
dgetrf, dgetrs = _flapack.dgetrf, _flapack.dgetrs
dsyevr, dsyevr_lwork = _flapack.dsyevr, _flapack.dsyevr_lwork
