"""The LAPACK binding: scipy's f2py routines, loaded without importing
scipy.linalg, and the BLAS thread setters."""

import ctypes
import importlib.machinery
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import totipm
from totipm import _lapack
from totipm.instances import emit_instance
from totipm.polytope import MarginalProblem

# a fresh interpreter imports totipm from this source tree
PATH = str(Path(totipm.__file__).resolve().parents[1])

# prints, as JSON, which of scipy and scipy.linalg are loaded
LOADED = "def loaded(): return [name for name in ('scipy', 'scipy.linalg') if name in sys.modules]\n"

# prints whether _lapack's potrf gives scipy.linalg.lapack's bits, and the
# status of a HiGHS solve
AGREES = """
import numpy as np
import scipy.linalg.lapack
from scipy.optimize import linprog
from totipm import _lapack
a = np.random.default_rng(5).normal(size=(40, 50))
m = a @ a.T
same = _lapack.dpotrf(m, lower=1)[0].tobytes() == scipy.linalg.lapack.dpotrf(m, lower=1)[0].tobytes()
highs = linprog([1.0, 2.0], A_eq=[[1.0, 1.0]], b_eq=[1.0], method="highs").status
print(json.dumps(seen + [same, highs]))
"""


def run_python(code):
    """Run ``code`` in a fresh interpreter and return the JSON it prints
    last."""
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=PATH),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_solve_path_loads_no_scipy(tmp_path):
    # importing the package or the CLI, solving with or without --oracle and
    # the barrier suite load neither scipy nor scipy.linalg (scipy.linalg
    # took 0.25-0.30 s to import); --oracle reports the simplex's value
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
    commands = [
        ["solve", str(instance), "--out", str(plain)],
        ["solve", str(instance), "--oracle", "--out", str(oracle)],
        ["verify", "--suite", "barrier"],
    ]
    seen = run_python(
        "import json, sys\n"
        + LOADED
        + "seen = []\n"
        "import totipm\n"
        "seen.append(loaded())\n"
        "import totipm.cli\n"
        "seen.append(loaded())\n"
        f"for argv in {commands!r}:\n"
        "    seen.append([totipm.cli.main(argv), loaded()])\n"
        + AGREES
    )
    assert seen == [[], [], [0, []], [0, []], [0, []], True, 0]
    report = json.loads(oracle.read_text())
    assert abs(report["value"] - report["oracle_value"]) <= 1e-6
    assert "oracle_value" not in json.loads(plain.read_text())


def test_scipy_imported_first():
    # the benchmark harness's order: scipy.optimize, then totipm, which
    # takes scipy.linalg's own module
    seen = run_python(
        "import json, sys\n"
        "import scipy.optimize\n"
        "import totipm\n"
        "seen = [sys.modules['scipy.linalg._flapack'].dpotrf is totipm._lapack.dpotrf]\n"
        + AGREES
    )
    assert seen == [True, True, 0]


def test_scipy_linalg_imported_after():
    seen = run_python(
        "import json, sys\n"
        + LOADED
        + "import totipm\n"
        "seen = [loaded()]\n"
        "import scipy.linalg\n"
        "seen.append(scipy.linalg._flapack.dpotrf is totipm._lapack.dpotrf)\n"
        + AGREES
    )
    assert seen == [[], True, True, 0]


def test_missing_extension_module_is_an_import_error(tmp_path, monkeypatch):
    linalg = tmp_path / "scipy" / "linalg"
    linalg.mkdir(parents=True)
    (linalg.parent / "__init__.py").touch()
    spec = importlib.machinery.ModuleSpec("scipy", None, origin=str(linalg.parent / "__init__.py"))
    find_spec = importlib.util.find_spec
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    with monkeypatch.context() as patch:
        patch.setattr(importlib.util, "find_spec", lambda name, *rest: spec if name == "scipy" else find_spec(name, *rest))
        with pytest.raises(ImportError, match=re.escape(f"no _flapack extension module in {linalg}")):
            _lapack._load_flapack()
        patch.setattr(importlib.util, "find_spec", lambda name, *rest: None)
        with pytest.raises(ImportError, match="no scipy package"):
            _lapack._load_flapack()


# the routines the solve calls, as _lapack exports them and as
# scipy.linalg.lapack does, so the calls below hold in either import order
# (the ids name the two bindings these cases checked before both became
# scipy's f2py routines)
ROUTINES = [
    pytest.param("totipm._lapack", id="OpenBLASCholesky"),
    pytest.param("scipy.linalg.lapack", id="ScipyCholesky"),
]
TRANSPOSED = [
    pytest.param("totipm._lapack", id="openblas_solve_transposed"),
    pytest.param("scipy.linalg.lapack", id="scipy_solve_transposed"),
]


@pytest.mark.parametrize("module", ROUTINES)
def test_cholesky(module):
    # the Newton solve's calls: potrf on M.T, M's own buffer read in
    # Fortran order, factored in place; right-hand sides are rows
    lapack = importlib.import_module(module)
    rng = np.random.default_rng(4)
    a = rng.normal(size=(6, 9))
    m = a @ a.T
    buffer = m.copy()
    factor, info = lapack.dpotrf(buffer.T, lower=1, clean=0, overwrite_a=1)
    assert info == 0
    assert np.shares_memory(factor, buffer)
    b = rng.normal(size=(2, 6))
    z = lapack.dpotrs(factor, b.T, lower=1)[0].T
    assert np.allclose(z @ m, b, rtol=0.0, atol=1e-10)
    assert lapack.dpotrf(-np.eye(6), lower=1)[1] > 0


@pytest.mark.parametrize("module", TRANSPOSED)
def test_solve_transposed(module):
    # the QR tail's call: trtrs on R.T, R's C-order buffer read as the
    # lower-triangular R^T
    lapack = importlib.import_module(module)
    rng = np.random.default_rng(3)
    r = np.triu(rng.normal(size=(5, 5))) + 5.0 * np.eye(5)
    b = rng.normal(size=5)
    x, info = lapack.dtrtrs(r.T, b, lower=1)
    assert info == 0
    assert np.allclose(r.T @ x, b, rtol=0.0, atol=1e-12)
    r[2, 2] = 0.0
    _, info = lapack.dtrtrs(r.T, b, lower=1)
    assert info == 3


def test_set_blas_threads():
    # scipy's and numpy's bundled OpenBLAS
    counts = []
    for package, pattern, suffix in (("scipy", "libscipy_openblas-*.so", ""), ("numpy", "libscipy_openblas64_*.so", "64_")):
        library = _lapack._bundled(package, pattern, "scipy_openblas_set_num_threads" + suffix)
        if library is None:
            continue
        get = getattr(library, "scipy_openblas_get_num_threads" + suffix)
        get.argtypes, get.restype = [], ctypes.c_int
        put = getattr(library, "scipy_openblas_set_num_threads" + suffix)
        put.argtypes, put.restype = [ctypes.c_int], None
        counts.append((get, put, get()))
    if not counts:
        pytest.skip("no bundled OpenBLAS here")
    try:
        _lapack.set_blas_threads(1)
        assert [get() for get, _, _ in counts] == [1] * len(counts)
    finally:
        for _, put, before in counts:
            put(before)
