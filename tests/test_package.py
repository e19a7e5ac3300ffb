"""The package's export list and what importing it loads."""

import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import topareto
from topareto import fem2d

SRC = Path(topareto.__file__).parent.parent

# runs in a fresh interpreter: every module of the package, then scipy's
# banded Cholesky, in the order given by the first argument
IMPORT_ORDER_SCRIPT = """
import importlib, pkgutil, sys
import numpy as np

def load_package():
    import topareto
    for mod in pkgutil.iter_modules(topareto.__path__):
        importlib.import_module("topareto." + mod.name)

if sys.argv[1] == "package-first":
    load_package()
    loaded = [m for m in sys.modules if m.startswith(("scipy.linalg", "scipy.sparse"))]
    assert not loaded, loaded
    import scipy.linalg
    import scipy.sparse
else:
    import scipy.linalg
    import scipy.sparse
    load_package()
# scipy's own modules stay registered and usable
assert sys.modules["scipy.linalg._flapack"] is scipy.linalg._flapack
assert sys.modules["scipy.sparse._sparsetools"] is scipy.sparse._sparsetools
assert (scipy.sparse.csr_matrix(np.eye(2)) @ np.ones(2)).tolist() == [1.0, 1.0]

from topareto import fem2d
problem = fem2d.preset("mbb", 30, 10)
kern = fem2d.kernel_for(problem)
emod = fem2d.simp_modulus(np.random.default_rng(0).random(problem.grid.nel), 3.0)
ab = kern.assemble_banded(emod)
cb = scipy.linalg.cholesky_banded(ab, lower=True)
mine, info = fem2d._flapack.dpbtrf(ab, lower=1)
assert info == 0 and np.array_equal(mine, cb)
f = kern.constrained_rhs(problem.load_vector())
assert np.array_equal(kern.factorize(emod)(f), scipy.linalg.cho_solve_banded((cb, True), f))
print("ok")
"""


def test_all_is_the_public_api():
    names = topareto.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert getattr(topareto, name, None) is not None, name
    # every public attribute that is not a submodule is exported: no stray
    # import and no stale name
    public = {name for name, value in vars(topareto).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(names) == public


@pytest.mark.parametrize("order", ["package-first", "scipy-first"])
def test_package_loads_no_scipy_subpackage(order):
    """No module of the package imports ``scipy.linalg`` or ``scipy.sparse``;
    a later import of them works, and their banded Cholesky gives the
    factor and the solve of the package's solver bit for bit."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", IMPORT_ORDER_SCRIPT, order], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"


def test_missing_scipy_extension_names_its_path():
    with pytest.raises(ImportError, match=r"not found: .*linalg.*_no_such_module"):
        fem2d._scipy_extension("linalg._no_such_module")
