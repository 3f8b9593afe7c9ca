"""The LAPACK binding: scipy's bundled OpenBLAS through ctypes, and the
scipy.linalg.lapack fallback that installs without it run."""

import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import totipm
from totipm import _lapack
from totipm.instances import SplitMix64, emit_instance, random_instance
from totipm.ipm import SolverConfig, short_step_solve
from totipm.polytope import MarginalProblem

# a fresh interpreter imports totipm from this source tree, and this module
PATH = os.pathsep.join((str(Path(totipm.__file__).resolve().parents[1]), str(Path(__file__).parent)))

# one U and one V solve, drawn from one stream
SOLVES = (((4, 4), "U"), ((3, 3, 3), "V"))

HIDE_SCIPY = """
import importlib.util
find_spec = importlib.util.find_spec
importlib.util.find_spec = lambda name, *rest: None if name == "scipy" else find_spec(name, *rest)
from totipm import _lapack
importlib.util.find_spec = find_spec
"""


def run_python(code):
    """Run ``code`` in a fresh interpreter and return what it prints as
    JSON."""
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=PATH),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def iterations():
    rng = SplitMix64(77)
    problems = [random_instance(dims, variant, rng, "random") for dims, variant in SOLVES]
    return [short_step_solve(p, SolverConfig(epsilon=1e-8)).iterations for p in problems]


def test_solve_path_loads_no_scipy(tmp_path):
    # importing the package or the CLI and solving without --oracle load no
    # scipy module (scipy.linalg took 0.25-0.30 s to import); --oracle
    # loads scipy.linalg for the simplex and reports the oracle's value
    instance = tmp_path / "matching.json"
    instance.write_text(
        emit_instance(
            MarginalProblem(
                cost=np.array([[0.0, 1.0], [1.0, 0.0]]),
                marginals=(np.array([0.5, 0.5]), np.array([0.5, 0.5])),
            )
        ),
        encoding="utf-8",
    )
    plain, oracle = tmp_path / "plain.json", tmp_path / "oracle.json"
    seen = run_python(
        "import json, sys\n"
        "def scipy(): return sorted(name for name in sys.modules if name.startswith('scipy'))\n"
        "seen = []\n"
        "import totipm\n"
        "seen.append(scipy())\n"
        "import totipm.cli\n"
        "seen.append(scipy())\n"
        f"seen.append(totipm.cli.main(['solve', {str(instance)!r}, '--out', {str(plain)!r}]))\n"
        "seen.append(scipy())\n"
        f"seen.append(totipm.cli.main(['solve', {str(instance)!r}, '--oracle', '--out', {str(oracle)!r}]))\n"
        "seen.append('scipy.linalg' in sys.modules)\n"
        "print(json.dumps(seen))\n"
    )
    assert seen[:2] == [[], []]
    assert seen[2] == seen[4] == 0
    if _lapack.OPENBLAS is not None:
        assert seen[3] == []
    assert seen[5]
    report = json.loads(oracle.read_text())
    assert abs(report["value"] - report["oracle_value"]) <= 1e-6
    assert "oracle_value" not in json.loads(plain.read_text())


def test_fallback_when_the_bundled_library_is_missing():
    # with scipy's location hidden the lookup finds no library, and the
    # solves take scipy.linalg.lapack's routines, to the same iterations
    fallback = run_python(
        HIDE_SCIPY
        + "import json, test_lapack\n"
        "print(json.dumps([_lapack.OPENBLAS is None, _lapack.Cholesky is _lapack.ScipyCholesky,\n"
        "    _lapack.solve_transposed is _lapack.scipy_solve_transposed, test_lapack.iterations()]))\n"
    )
    assert fallback == [True, True, True, iterations()]


@pytest.mark.skipif(_lapack.OPENBLAS is None, reason="scipy has no bundled OpenBLAS here")
def test_bound_when_the_bundled_library_is_present():
    assert _lapack.Cholesky is _lapack.OpenBLASCholesky
    assert _lapack.solve_transposed is _lapack.openblas_solve_transposed


@pytest.mark.parametrize("solve", [_lapack.openblas_solve_transposed, _lapack.scipy_solve_transposed])
def test_solve_transposed(solve):
    if solve is _lapack.openblas_solve_transposed and _lapack.OPENBLAS is None:
        pytest.skip("scipy has no bundled OpenBLAS here")
    rng = np.random.default_rng(3)
    r = np.triu(rng.normal(size=(5, 5))) + 5.0 * np.eye(5)
    b = rng.normal(size=5)
    x, info = solve(r, b)
    assert info == 0
    assert np.allclose(r.T @ x, b, rtol=0.0, atol=1e-12)
    r[2, 2] = 0.0
    _, info = solve(r, b)
    assert info == 3


@pytest.mark.parametrize("cholesky", [_lapack.OpenBLASCholesky, _lapack.ScipyCholesky])
def test_cholesky(cholesky):
    if cholesky is _lapack.OpenBLASCholesky and _lapack.OPENBLAS is None:
        pytest.skip("scipy has no bundled OpenBLAS here")
    rng = np.random.default_rng(4)
    a = rng.normal(size=(6, 9))
    factor = cholesky(6, 2)
    assert factor.potrf(a @ a.T)
    b = rng.normal(size=(2, 6))
    z = factor.potrs(b)
    assert np.allclose(z @ (a @ a.T), b, rtol=0.0, atol=1e-10)
    # the solution is the caller's: the next solve leaves it alone
    factor.potrs(2.0 * b)
    assert np.allclose(z @ (a @ a.T), b, rtol=0.0, atol=1e-10)
    assert not factor.potrf(-np.eye(6))


def test_cholesky_rejects_a_wrong_shape_before_the_call():
    if _lapack.OPENBLAS is None:
        pytest.skip("scipy has no bundled OpenBLAS here")
    factor = _lapack.OpenBLASCholesky(4, 2)
    with pytest.raises(ValueError):
        factor.potrf(np.eye(5))
    assert factor.potrf(np.eye(4))
    with pytest.raises(ValueError):
        factor.potrs(np.ones((1, 4)))


def test_set_blas_threads():
    # scipy's OpenBLAS, through the handle the solves use, and numpy's
    libraries = []
    if _lapack.OPENBLAS is not None:
        libraries.append((_lapack.OPENBLAS, ""))
    numpy_blas = _lapack._bundled("numpy", "libscipy_openblas64_*.so", "scipy_openblas_set_num_threads64_")
    if numpy_blas is not None:
        libraries.append((numpy_blas, "64_"))
    if not libraries:
        pytest.skip("no bundled OpenBLAS here")
    counts = []
    for library, suffix in libraries:
        get = getattr(library, "scipy_openblas_get_num_threads" + suffix)
        get.argtypes, get.restype = [], ctypes.c_int
        put = getattr(library, "scipy_openblas_set_num_threads" + suffix)
        put.argtypes, put.restype = [ctypes.c_int], None
        counts.append((get, put, get()))
    try:
        _lapack.set_blas_threads(1)
        assert [get() for get, _, _ in counts] == [1] * len(counts)
    finally:
        for _, put, before in counts:
            put(before)
