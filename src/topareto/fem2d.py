"""Plane-stress FEM core on a regular grid of bilinear quadrilaterals.

Conventions (fixed, used everywhere):

* Nodes live on an ``(nelx+1) x (nely+1)`` lattice. Column ``ix`` runs left
  to right, row ``iy`` runs top to bottom. Node id = ``ix*(nely+1) + iy``
  (column-major). Node ``n`` owns DOFs ``2n`` (x) and ``2n+1`` (y).
* Elements are unit squares. Element id = ``ex*nely + ey`` (column-major).
  The local corner order is bottom-left, bottom-right, top-right, top-left,
  which is counterclockwise in a y-up frame.
* The model is dimensionless: unit Young's modulus, unit thickness, unit
  element size. Plane-stress stiffness of a point-loaded model is invariant
  under in-plane scaling, so compliances depend only on the grid aspect
  ratio and the load/support layout.
* Fixed DOFs are constrained by zeroing their rows and columns and placing
  a unit diagonal; solved displacements are exactly zero there.
* The one linear solver is a banded Cholesky factorization (LAPACK
  ``pbtrf``/``pbtrs``, called directly) of the constrained stiffness in
  Fortran-ordered lower-band storage. The band is assembled from the
  grid's node stencil: the moduli of the four elements around each node
  times a fixed table of element-stiffness coefficients.
* The package calls two compiled scipy modules and none of scipy's Python
  functions: ``dpbtrf``/``dpbtrs`` of ``scipy.linalg._flapack`` and
  ``csr_matvec`` of ``scipy.sparse._sparsetools``. :func:`_scipy_extension`
  loads each from scipy's directory, so neither ``scipy.linalg`` nor
  ``scipy.sparse`` is imported (their ``__init__`` takes about half of a
  command's start-up). The one sparse operator, the density filter, is a
  :class:`Csr` record that ``simp`` reads off the grid's element stencil.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass
from functools import lru_cache
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_file_location
from typing import NamedTuple

import numpy as np

from .errors import InvalidArgumentError, SolverError

RESID_TOL = 1e-8
E_MIN = 1e-9  # modulus of a void element, relative to the solid
NU = 0.3  # Poisson ratio of the solid phase


def _scipy_extension(name: str):
    """The compiled scipy module ``scipy.<name>``, loaded from its file.

    Importing the top-level ``scipy`` package first sets up the libraries
    its wheel bundles; the subpackage ``__init__`` is never run. Loading
    enters the module in ``sys.modules``; unless the subpackage had already
    put it there, it is taken out again, so that a later import of the
    subpackage loads it as usual.
    """
    import scipy

    path = os.path.join(os.path.dirname(scipy.__file__),
                        *name.split(".")) + EXTENSION_SUFFIXES[0]
    if not os.path.exists(path):
        raise ImportError(f"compiled scipy module not found: {path}", path=path)
    loader = ExtensionFileLoader(f"scipy.{name}", path)
    imported = loader.name in sys.modules
    module = module_from_spec(spec_from_file_location(loader.name, path, loader=loader))
    loader.exec_module(module)
    if not imported:
        sys.modules.pop(loader.name, None)
    return module


_flapack = _scipy_extension("linalg._flapack")
_sparsetools = _scipy_extension("sparse._sparsetools")


@dataclass(frozen=True)
class Grid:
    """Regular rectangular design grid."""

    nelx: int
    nely: int

    def __post_init__(self):
        if self.nelx < 1 or self.nely < 1:
            raise InvalidArgumentError("grid needs nelx >= 1 and nely >= 1")

    @property
    def nel(self) -> int:
        return self.nelx * self.nely

    @property
    def nnodes(self) -> int:
        return (self.nelx + 1) * (self.nely + 1)

    @property
    def ndof(self) -> int:
        return 2 * self.nnodes

    def node_id(self, ix: int, iy: int) -> int:
        if not (0 <= ix <= self.nelx and 0 <= iy <= self.nely):
            raise InvalidArgumentError(f"node ({ix},{iy}) outside grid")
        return ix * (self.nely + 1) + iy


@dataclass(frozen=True)
class ProblemSpec:
    """A discretized design domain with loads and supports.

    ``symmetry_factor`` is the volume multiplier mapping the modeled domain
    to the physical part (2 for a half-symmetric model). A problem no solve
    can answer, with supports that leave a rigid-body mode free or with
    every load on a fixed DOF, is rejected.
    """

    grid: Grid
    loads: tuple[tuple[int, float], ...]
    fixed_dofs: frozenset[int]
    name: str = "problem"
    symmetry_factor: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "loads", tuple((int(d), float(m)) for d, m in self.loads))
        object.__setattr__(self, "fixed_dofs", frozenset(int(d) for d in self.fixed_dofs))
        if not isinstance(self.name, str):  # a JSON number or null, say
            raise InvalidArgumentError(f"name must be a string, got {self.name!r}")
        if not self.loads:
            raise InvalidArgumentError("loads must be nonempty")
        ndof = self.grid.ndof
        for dof, mag in self.loads:
            if not 0 <= dof < ndof:
                raise InvalidArgumentError(f"load DOF {dof} out of range (ndof={ndof})")
            if not math.isfinite(mag):
                raise InvalidArgumentError(f"loads magnitude {mag} at DOF {dof} is not finite")
        for dof in self.fixed_dofs:
            if not 0 <= dof < ndof:
                raise InvalidArgumentError(f"fixed DOF {dof} out of range (ndof={ndof})")
        if all(dof in self.fixed_dofs for dof, _ in self.loads):
            raise InvalidArgumentError(f"problem {self.name!r}: every load is on a fixed DOF")
        # the x, y and rotation rigid-body modes, (1, 0), (0, 1) and
        # (-y, x) at node (x, y) = (ix, -iy), at the fixed DOFs: the
        # constrained stiffness is singular unless they are independent there
        fixed = np.array(sorted(self.fixed_dofs), dtype=int)
        ix, iy = np.divmod(fixed // 2, self.grid.nely + 1)
        is_y = fixed % 2
        if np.linalg.matrix_rank(np.column_stack((1 - is_y, is_y, np.where(is_y, ix, iy)))) < 3:
            raise InvalidArgumentError(f"problem {self.name!r}: the supports leave a "
                                       "rigid-body mode free")
        if not 0 < self.symmetry_factor < math.inf:
            raise InvalidArgumentError("symmetry_factor must be positive and finite")

    def load_vector(self) -> np.ndarray:
        f = np.zeros(self.grid.ndof)
        for dof, mag in self.loads:
            f[dof] += mag
        return f

    def with_unit_load(self) -> "ProblemSpec":
        """Same problem with the load pattern rescaled to unit 2-norm."""
        norm = float(np.linalg.norm(self.load_vector()))
        if norm == 0:
            raise InvalidArgumentError("load vector has zero norm")
        if norm == 1.0:
            return self
        loads = tuple((d, m / norm) for d, m in self.loads)
        return ProblemSpec(self.grid, loads, self.fixed_dofs, self.name,
                           self.symmetry_factor)

    def to_json(self) -> str:
        doc = {
            "name": self.name,
            "nelx": self.grid.nelx,
            "nely": self.grid.nely,
            "loads": [[d, m] for d, m in self.loads],
            "fixed_dofs": sorted(self.fixed_dofs),
            "symmetry_factor": self.symmetry_factor,
        }
        return json.dumps(doc, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "ProblemSpec":
        doc = json.loads(text)
        unknown = set(doc) - {"name", "nelx", "nely", "loads", "fixed_dofs", "symmetry_factor"}
        if unknown:
            raise InvalidArgumentError(f"unknown problem key(s) {sorted(unknown)}")
        return ProblemSpec(
            grid=Grid(_json_int(doc["nelx"], "nelx"), _json_int(doc["nely"], "nely")),
            loads=tuple((_json_int(d, "loads DOF"), _json_number(m, "loads magnitude"))
                        for d, m in doc["loads"]),
            fixed_dofs=frozenset(_json_int(d, "fixed_dofs entry") for d in doc["fixed_dofs"]),
            name=doc.get("name", "problem"),
            symmetry_factor=_json_number(doc.get("symmetry_factor", 1.0), "symmetry_factor"),
        )


def _json_int(value, name: str) -> int:
    """An integer of a problem or an optimizer config; a bool or a float is invalid."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidArgumentError(f"{name} must be an integer, got {value!r}")
    return value


def _json_number(value, name: str) -> float:
    """A number of a problem document; a bool or a string is invalid."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidArgumentError(f"{name} must be a number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class DensityField:
    """Per-element densities in [0,1], column-major element order."""

    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        if v.ndim != 1:
            raise InvalidArgumentError("density values must be a flat array")
        if v.size == 0 or not np.all((v >= -1e-12) & (v <= 1 + 1e-12)):
            raise InvalidArgumentError("densities must be finite and lie in [0,1]")
        v = np.clip(v, 0.0, 1.0)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def volume_fraction(self) -> float:
        return float(self.values.mean())

    def as_grid(self, grid: Grid) -> np.ndarray:
        """Row-major (nely, nelx) image of the field."""
        if self.values.size != grid.nel:
            raise InvalidArgumentError("field size does not match grid")
        return self.values.reshape(grid.nelx, grid.nely).T


class Csr(NamedTuple):
    """A float sparse matrix as the compressed-row arrays ``csr_matvec`` reads."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]


def csr_dot(a: Csr, x: np.ndarray) -> np.ndarray:
    """``a @ x`` for a float CSR matrix and vector: scipy's ``csr_matvec``
    into a fresh zeroed vector, and the same bits as scipy's ``@``."""
    if x.shape != (a.shape[1],):  # the kernel reads x without a bounds check
        raise ValueError(f"csr_dot: vector of shape {x.shape} for a {a.shape} matrix")
    out = np.zeros(a.shape[0])
    _sparsetools.csr_matvec(*a.shape, a.indptr, a.indices, a.data, x, out)
    return out


def element_stiffness(nu: float) -> np.ndarray:
    """8x8 stiffness of a unit bilinear square, unit modulus and thickness.

    Closed-form integration of the plane-stress bilinear quad; local corner
    order matches :attr:`GridKernel.edof`.
    """
    if not -1.0 < nu < 0.5:
        raise InvalidArgumentError(f"Poisson ratio {nu} outside (-1, 0.5)")
    a11 = np.array([[12, 3, -6, -3], [3, 12, 3, 0], [-6, 3, 12, -3], [-3, 0, -3, 12]], dtype=float)
    a12 = np.array([[-6, -3, 0, 3], [-3, -6, -3, -6], [0, -3, -6, 3], [3, -6, 3, -6]], dtype=float)
    b11 = np.array([[-4, 3, -2, 9], [3, -4, -9, 4], [-2, -9, -4, -3], [9, 4, -3, -4]], dtype=float)
    b12 = np.array([[2, -3, 4, -9], [-3, 2, 9, -2], [4, 9, 2, 3], [-9, -2, 3, 2]], dtype=float)
    ka = np.block([[a11, a12], [a12.T, a11]])
    kb = np.block([[b11, b12], [b12.T, b11]])
    return (ka + nu * kb) / (24.0 * (1.0 - nu * nu))


def simp_modulus(values: np.ndarray, penal: float) -> np.ndarray:
    """Per-element modulus ``E_MIN + rho^p * (1 - E_MIN)`` (modified SIMP)."""
    return E_MIN + np.asarray(values, dtype=float) ** penal * (1.0 - E_MIN)


class GridKernel:
    """Precomputed index machinery for one (grid, fixed_dofs) pair.

    Carries the element DOF table, the node stencil of the banded assembly
    (the moduli of the four elements around each node and their
    coefficients in the node's band columns) and the fixed DOFs. Its
    :meth:`solve`, a banded Cholesky factorization with iterative
    refinement, is the one linear solver of the package.
    """

    def __init__(self, grid: Grid, fixed_dofs: frozenset[int]):
        self.ke = element_stiffness(NU)
        self.ndof = grid.ndof

        # the eight DOFs of each element in local corner order, the 88-line
        # code's ``edofMat``: offsets from the x DOF of its bottom-left node
        ny = grid.nely
        corner = np.array([0, ny + 1, ny, -1])  # node offsets of the corners
        bottom_left = np.arange(grid.nelx)[:, None] * (ny + 1) + np.arange(1, ny + 1)
        self.edof = 2 * bottom_left.reshape(-1, 1) + np.repeat(2 * corner, 2) + [0, 1] * 4
        self.bandwidth = bw = 2 * ny + 5  # from the x DOF of a bottom-left corner
        self._fixed_at = np.array(sorted(fixed_dofs), dtype=int)

        # the band, stored Fortran-order as LAPACK reads it (entry (i, j) at
        # j*(bw+1) + i-j), is an (nnodes, 2(bw+1)) array whose row n holds
        # node n's two columns. They couple n to itself and to later nodes
        # through the four elements around n: ``_around`` gathers their
        # moduli (slot 2*dx + dy is element (ix-1+dx, iy-1+dy), of which n is
        # corner ``at``; one off the grid reads a 0 appended at index nel)
        # for a product with a coefficient table taken from ``ke``
        ix, iy = np.divmod(np.arange(grid.nnodes), ny + 1)
        ex, ey = ix[:, None] + [-1, -1, 0, 0], iy[:, None] + [-1, 0, -1, 0]
        self._around = np.where((ex >= 0) & (ex < grid.nelx) & (ey >= 0) & (ey < ny),
                                ex * ny + ey, grid.nel)
        at, col, row = np.array([1, 2, 0, 3])[:, None, None], np.arange(2)[:, None], np.arange(8)
        d = 2 * (corner[row // 2] - corner[at]) + row % 2 - col  # row - column DOF
        slot, lower = np.nonzero(d >= 0)[0], d >= 0
        table = np.zeros((4, 2 * (bw + 1)))
        table[slot, (col * (bw + 1) + d)[lower]] = self.ke[row, 2 * at + col][lower]
        # the product fills only the entries that are not structurally zero:
        # 19 of 2(bw+1) per node once nely >= 2, in three runs once nely >= 3
        filled = table.any(axis=0)
        cols = np.flatnonzero(filled)
        self._runs = [(slice(run[0], run[-1] + 1), table[:, run]) for run in
                      np.split(cols, np.flatnonzero(np.diff(cols) > 1) + 1)]
        # then fixed rows and columns are zeroed and given a unit diagonal
        f, k = self._fixed_at[:, None], np.arange(bw + 1)
        zero = np.concatenate(((f * (bw + 1) + k).ravel(), (f * (bw + 1) - k * bw)[f >= k]))
        self._zero_at = zero[filled[zero % (2 * (bw + 1))]]

    def assemble_banded(self, emod: np.ndarray) -> np.ndarray:
        """Constrained stiffness in lower-banded storage, Fortran-ordered.

        Row ``d`` of the ``(bw+1, ndof)`` result holds the ``d``-th
        subdiagonal, as in :func:`scipy.linalg.cholesky_banded`; the array
        is F-contiguous, so LAPACK factors it without a copy.
        """
        bw = self.bandwidth
        ab = np.zeros((self.ndof // 2, 2 * (bw + 1)))
        around = np.append(emod, 0.0)[self._around]
        for cols, coef in self._runs:
            np.matmul(around, coef, out=ab[:, cols])
        ab = ab.reshape(-1)
        ab[self._zero_at] = 0.0
        ab[self._fixed_at * (bw + 1)] = 1.0
        return ab.reshape(self.ndof, bw + 1).T

    def apply_constrained(self, emod: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Matrix-free product of the constrained stiffness with ``u``."""
        uc = u.copy()
        uc[self._fixed_at] = 0.0
        q = (uc[self.edof] @ self.ke) * emod[:, None]
        out = np.bincount(self.edof.ravel(), weights=q.ravel(), minlength=self.ndof)
        out[self._fixed_at] = u[self._fixed_at]
        return out

    def element_energies(self, u: np.ndarray) -> np.ndarray:
        """Per-element ``u_e^T KE u_e`` at unit modulus, as one ``(nel, 8)``
        by 8x8 product. Clamped at zero: the form is positive semi-definite,
        but float cancellation at extreme displacement scales (disconnected
        regions) can leave noise.
        """
        ue = u[self.edof]
        return np.maximum(np.einsum("ij,ij->i", ue @ self.ke, ue), 0.0)

    def constrained_rhs(self, f: np.ndarray) -> np.ndarray:
        out = f.copy()
        out[self._fixed_at] = 0.0
        return out

    def factorize(self, emod: np.ndarray):
        """Banded Cholesky of the constrained stiffness; returns a solve closure.

        Calls LAPACK ``pbtrf``/``pbtrs`` directly (the routines behind
        ``cholesky_banded``/``cho_solve_banded``), factoring the freshly
        assembled band in place.
        """
        cb, info = _flapack.dpbtrf(self.assemble_banded(emod), lower=1, overwrite_ab=1)
        if info > 0:
            raise SolverError(f"banded Cholesky failed: {info}-th leading minor "
                              "not positive definite")
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of pbtrf")
        return lambda rhs: _flapack.dpbtrs(cb, rhs, lower=1)[0]

    def solve(self, emod: np.ndarray, f: np.ndarray) -> np.ndarray:
        """Solve the constrained system for one modulus field.

        One banded Cholesky factorization, then up to four steps of
        iterative refinement so the residual contract holds even at extreme
        stiffness contrast. Refinement stops early once a step fails to halve
        a residual that already meets the limit: it has reached the
        backward-error floor (the stop of LAPACK's ``xPORFS``; Arioli, Demmel
        & Duff 1989). Raises :class:`SolverError` when the matrix is not
        positive definite or the final residual exceeds the limit.
        """
        fc = self.constrained_rhs(f)
        fnorm = math.sqrt(fc @ fc)
        if fnorm == 0.0:
            return np.zeros(self.ndof)
        solve_rhs = self.factorize(emod)
        u = solve_rhs(fc)
        prev = math.inf
        limit = None  # the acceptance limit at the current ``u``, once computed
        for step in range(5):
            r = fc - self.apply_constrained(emod, u)
            r[self._fixed_at] = 0.0
            resid = math.sqrt(r @ r)
            if resid <= RESID_TOL * fnorm or step == 4:
                break
            if resid > 0.5 * prev:
                limit = self._resid_limit(emod, u, fnorm)
                if resid <= limit:
                    break
            prev, limit = resid, None
            u = u + solve_rhs(r)

        # the limit is never below 10*RESID_TOL*fnorm: skip it when inside
        if not resid <= 10 * RESID_TOL * fnorm:
            if limit is None:
                limit = self._resid_limit(emod, u, fnorm)
            if not np.isfinite(resid) or resid > limit:
                raise SolverError(f"linear solve residual {resid:.3e} exceeds "
                                  f"limit {limit:.3e}", residual=resid)
        u[self._fixed_at] = 0.0
        return u

    def _resid_limit(self, emod, u, fnorm):
        """Acceptance threshold: 1e-8 relative to F, widened to the normwise
        backward-error scale (largest stiffness diagonal entry times the
        solution norm) when the solution dwarfs the load (extreme stiffness
        contrast), where a smaller residual is not representable."""
        diag = np.bincount(self.edof.ravel(), minlength=self.ndof,
                           weights=(emod[:, None] * np.diag(self.ke)[None, :]).ravel())
        diag[self._fixed_at] = 1.0
        return 10 * RESID_TOL * max(fnorm, 1e-7 * float(np.max(diag)) * math.sqrt(u @ u))


@lru_cache(maxsize=32)
def _kernel_cached(grid: Grid, fixed_dofs: frozenset) -> GridKernel:
    return GridKernel(grid, fixed_dofs)


def kernel_for(problem: ProblemSpec) -> GridKernel:
    return _kernel_cached(problem.grid, problem.fixed_dofs)


# ---------------------------------------------------------------------------
# presets

# (nelx, nely) of each preset when the caller gives none
PRESET_SIZES = {"mbb": (60, 20), "bridge": (60, 20), "complex": (60, 30)}

def preset(name: str, nelx: int | None = None, nely: int | None = None) -> ProblemSpec:
    """Built-in benchmark problems on desk-scale grids.

    ``mbb``      half MBB beam (60x20): symmetry plane on the left edge
                 (x fixed), roller under the bottom-right corner, unit
                 downward load at the top-left corner; symmetry_factor 2.
    ``bridge``   deck bridge (60x20): pin at bottom-left, roller at
                 bottom-right, downward load ``1/sqrt(nelx+1)`` at each of
                 the ``nelx+1`` bottom nodes: unit 2-norm, total force
                 ``sqrt(nelx+1)``.
    ``complex``  cantilever with two offset loads (60x30): left edge fully
                 clamped, loads at the bottom-right corner and mid-top.

    The layouts are this package's own; they are documented here rather
    than copied from any external mesh.
    """
    key = name.lower()
    if key not in PRESET_SIZES:
        raise InvalidArgumentError(f"unknown preset {name!r}")
    nx, ny = (default if size is None else size
              for size, default in zip((nelx, nely), PRESET_SIZES[key]))
    g = Grid(nx, ny)
    if key == "mbb":
        fixed = {2 * g.node_id(0, iy) for iy in range(ny + 1)}
        fixed.add(2 * g.node_id(nx, ny) + 1)
        loads = ((2 * g.node_id(0, 0) + 1, -1.0),)
        return ProblemSpec(g, loads, frozenset(fixed), name="mbb", symmetry_factor=2.0)
    if key == "bridge":
        fixed = {2 * g.node_id(0, ny), 2 * g.node_id(0, ny) + 1,
                 2 * g.node_id(nx, ny) + 1}
        mag = -1.0 / np.sqrt(nx + 1.0)
        loads = tuple((2 * g.node_id(ix, ny) + 1, mag) for ix in range(nx + 1))
        return ProblemSpec(g, loads, frozenset(fixed), name="bridge")
    # complex
    fixed = set()
    for iy in range(ny + 1):
        fixed.add(2 * g.node_id(0, iy))
        fixed.add(2 * g.node_id(0, iy) + 1)
    loads = ((2 * g.node_id(nx, ny) + 1, -0.8),
             (2 * g.node_id(nx // 2, 0) + 1, -0.6))
    return ProblemSpec(g, loads, frozenset(fixed), name="complex")
