"""Independent textbook implementations used as test oracles.

Everything here is written from first principles (shape functions, Gauss
quadrature, loop assembly, reduced-system solves, the closed-form rod, beam,
plate and meta-model efficiency ratios) or with scipy's sparse matrices (the
filter and the banded assembly operator), and deliberately shares no code
with the package; its one import from it is ``InvalidArgumentError``, so
that the analytic components reject bad arguments as the package does. Slow
and simple on purpose.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from topareto.errors import InvalidArgumentError

GAUSS = 1.0 / np.sqrt(3.0)


def quad_element_stiffness(nu, a=1.0, b=1.0):
    """Plane-stress bilinear quad via 2x2 Gauss quadrature.

    Nodes counterclockwise from the lower-left corner of an a x b element,
    unit modulus and thickness.
    """
    d = np.array([[1.0, nu, 0.0], [nu, 1.0, 0.0], [0.0, 0.0, (1.0 - nu) / 2.0]])
    d /= (1.0 - nu * nu)
    coords = np.array([[0.0, 0.0], [a, 0.0], [a, b], [0.0, b]])
    ke = np.zeros((8, 8))
    for xi in (-GAUSS, GAUSS):
        for eta in (-GAUSS, GAUSS):
            dn = 0.25 * np.array([
                [-(1 - eta), (1 - eta), (1 + eta), -(1 + eta)],
                [-(1 - xi), -(1 + xi), (1 + xi), (1 - xi)],
            ])
            jac = dn @ coords
            dnxy = np.linalg.solve(jac, dn)
            bmat = np.zeros((3, 8))
            bmat[0, 0::2] = dnxy[0]
            bmat[1, 1::2] = dnxy[1]
            bmat[2, 0::2] = dnxy[1]
            bmat[2, 1::2] = dnxy[0]
            ke += bmat.T @ d @ bmat * np.linalg.det(jac)
    return ke


def node_id(ix, iy, nely):
    return ix * (nely + 1) + iy


def element_dof_table(nelx, nely):
    """DOFs per element, corner order lower-left, lower-right, upper-right,
    upper-left in a y-up frame (row index increases downward)."""
    table = []
    for ex in range(nelx):
        for ey in range(nely):
            nodes = [node_id(ex, ey + 1, nely), node_id(ex + 1, ey + 1, nely),
                     node_id(ex + 1, ey, nely), node_id(ex, ey, nely)]
            dofs = []
            for n in nodes:
                dofs += [2 * n, 2 * n + 1]
            table.append(dofs)
    return np.array(table)


def loop_stiffness(nelx, nely, densities, penal, nu=0.3, e_min=1e-9):
    """Unconstrained global stiffness, loop-assembled into a dense matrix."""
    ndof = 2 * (nelx + 1) * (nely + 1)
    ke = quad_element_stiffness(nu)
    table = element_dof_table(nelx, nely)
    k = np.zeros((ndof, ndof))
    dens = np.asarray(densities, dtype=float)
    for el in range(nelx * nely):
        emod = e_min + dens[el] ** penal * (1.0 - e_min)
        dofs = table[el]
        for i in range(8):
            for j in range(8):
                k[dofs[i], dofs[j]] += emod * ke[i, j]
    return k


def fem_compliance(nelx, nely, densities, penal, loads, fixed_dofs,
                   nu=0.3, e_min=1e-9):
    """Loop-assembled dense FEM: reduced-system solve, returns (C, U)."""
    k = loop_stiffness(nelx, nely, densities, penal, nu, e_min)
    ndof = k.shape[0]
    f = np.zeros(ndof)
    for dof, mag in loads:
        f[dof] += mag
    free = np.setdiff1d(np.arange(ndof), np.array(sorted(fixed_dofs)))
    u = np.zeros(ndof)
    u[free] = np.linalg.solve(k[np.ix_(free, free)], f[free])
    return float(f @ u), u


def build_filter(nelx, nely, rmin):
    """Unnormalized cone weights H and their row sums, top88-style."""
    nel = nelx * nely
    rows, cols, vals = [], [], []
    reach = int(np.ceil(rmin)) - 1
    for ex in range(nelx):
        for ey in range(nely):
            e1 = ex * nely + ey
            for dx in range(max(ex - reach, 0), min(ex + reach + 1, nelx)):
                for dy in range(max(ey - reach, 0), min(ey + reach + 1, nely)):
                    w = rmin - np.hypot(ex - dx, ey - dy)
                    if w > 0:
                        rows.append(e1)
                        cols.append(dx * nely + dy)
                        vals.append(w)
    h = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(nel, nel)).tocsr()
    hs = np.asarray(h.sum(axis=1)).ravel()
    return h, hs


def scipy_filter(nelx, nely, rmin):
    """The density filter's shared arrays as scipy builds them: ``w =
    diags(1 / hs) @ h`` as CSR with each row's columns sorted, ``w.T`` as
    CSR, and ``w.T @ dv`` for the volume sensitivity ``dv = 1 / nel``."""
    h, hs = build_filter(nelx, nely, rmin)
    w = (scipy.sparse.diags(1.0 / hs) @ h).tocsr()
    w.sort_indices()
    w_t = w.T.tocsr()
    return w, w_t, w_t.dot(np.full(nelx * nely, 1.0 / (nelx * nely)))


def scipy_band_operator(edof, ke, fixed_dofs, ndof):
    """The banded assembly operator as scipy builds it from an element DOF
    table and element matrix: the positions of the non-empty entries of the
    constrained lower band in Fortran-ordered ``(bw+1, ndof)`` storage, and
    the CSR matrix from element moduli to those entries."""
    nel = edof.shape[0]
    i_idx = np.repeat(edof, 8, axis=1).ravel()
    j_idx = np.tile(edof, (1, 8)).ravel()
    bw = int(np.max(edof.max(axis=1) - edof.min(axis=1)))
    fixed = np.zeros(ndof, dtype=bool)
    fixed[list(fixed_dofs)] = True
    keep = (i_idx >= j_idx) & ~fixed[i_idx] & ~fixed[j_idx]
    band_rows, rows = np.unique((j_idx * (bw + 1) + i_idx - j_idx)[keep],
                                return_inverse=True)
    cols = np.repeat(np.arange(nel), 64)[keep]
    data = np.tile(ke.ravel(), nel)[keep]
    op = scipy.sparse.csr_matrix((data, (rows, cols)), shape=(band_rows.size, nel))
    op.sort_indices()
    return band_rows, op


def scipy_csr(a):
    """A scipy CSR matrix over the arrays of a ``fem2d.Csr`` record."""
    return scipy.sparse.csr_matrix((a.data, a.indices, a.indptr), shape=a.shape)


def oc_bisection(x, dc, dv, target, move, eta, weights=None):
    """OC update by the plain volume-multiplier bisection on [1e-9, 1e9].

    The bracket grows by factors of 100 while the root lies outside it;
    every test evaluates the update. Stops when the mean (``weights @ x``
    with weights, else the plain mean) is within 1e-6 of ``target`` or the
    bracket's relative width falls below 1e-14. Returns the last
    midpoint's design and the midpoint.
    """
    ratio = np.maximum(0.0, -dc / dv)
    lower = np.maximum(0.0, x - move)
    upper = np.minimum(1.0, x + move)

    def step(lm):
        x_new = np.minimum(np.maximum(x * (ratio / lm) ** eta, lower), upper)
        mean = float(weights @ x_new) if weights is not None else float(x_new.mean())
        return x_new, mean

    l1, l2 = 1e-9, 1e9
    for _ in range(40):
        if step(l2)[1] <= target:
            break
        l1, l2 = l2, l2 * 100.0
    for _ in range(40):
        if step(l1)[1] >= target:
            break
        l1, l2 = l1 / 100.0, l1
    for _ in range(200):
        lmid = 0.5 * (l1 + l2)
        x_new, mean = step(lmid)
        if abs(mean - target) <= 1e-6:
            break
        if mean > target:
            l1 = lmid
        else:
            l2 = lmid
        if (l2 - l1) / (l1 + l2) < 1e-14:
            break
    return x_new, lmid


def rescale_by_clip(base, target, weights=None):
    """Shift-and-clamp bisection on [-1, 1] written with ``np.clip`` and
    ``np.mean``: returns the first clamped field whose mean (``weights @ v``
    with weights) is within 1e-7 of ``target``, or None after 80 steps."""
    lo, hi = -1.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        out = np.clip(base + mid, 0.0, 1.0)
        m = float(weights @ out) if weights is not None else float(np.mean(out))
        if abs(m - target) <= 1e-7:
            return out
        if m < target:
            lo = mid
        else:
            hi = mid
    return None


def simp_reference(nelx, nely, volfrac, penal, rmin, loads, fixed_dofs,
                   max_iters=300, move=0.2, change_tol=0.01, nu=0.3, e_min=1e-9):
    """Textbook SIMP compliance minimization (88-line style translation).

    Sparse assembly with scipy, density filter, OC update with damping 0.5,
    volume multiplier bisection. Returns (xphys, penalized compliance,
    iterations).
    """
    nel = nelx * nely
    ndof = 2 * (nelx + 1) * (nely + 1)
    ke = quad_element_stiffness(nu)
    table = element_dof_table(nelx, nely)
    ik = np.repeat(table, 8, axis=1).ravel()
    jk = np.tile(table, (1, 8)).ravel()
    f = np.zeros(ndof)
    for dof, mag in loads:
        f[dof] += mag
    free = np.setdiff1d(np.arange(ndof), np.array(sorted(fixed_dofs)))
    h, hs = build_filter(nelx, nely, rmin)

    x = np.full(nel, volfrac)
    xphys = x.copy()
    loop = 0
    change = 1.0
    c = None
    while change > change_tol and loop < max_iters:
        loop += 1
        emod = e_min + xphys ** penal * (1.0 - e_min)
        vals = (emod[:, None] * ke.ravel()[None, :]).ravel()
        k = scipy.sparse.coo_matrix((vals, (ik, jk)), shape=(ndof, ndof)).tocsc()
        u = np.zeros(ndof)
        kff = k[free][:, free]
        u[free] = scipy.sparse.linalg.spsolve(kff, f[free])
        ue = u[table]
        ce = np.einsum("ij,jk,ik->i", ue, ke, ue)
        c = float(emod @ ce)
        dc = -penal * (1.0 - e_min) * xphys ** (penal - 1) * ce
        dv = np.ones(nel)
        dc = np.asarray(h @ (dc / hs))
        dv = np.asarray(h @ (dv / hs))
        l1, l2 = 1e-9, 1e9
        while (l2 - l1) / (l1 + l2) > 1e-9:
            lmid = 0.5 * (l2 + l1)
            xnew = np.maximum(0.0, np.maximum(
                x - move, np.minimum(1.0, np.minimum(
                    x + move, x * np.sqrt(np.maximum(0.0, -dc / dv) / lmid)))))
            xphys_new = np.asarray(h @ xnew) / hs
            if xphys_new.sum() > volfrac * nel:
                l1 = lmid
            else:
                l2 = lmid
        change = float(np.max(np.abs(xnew - x)))
        x = xnew
        xphys = np.asarray(h @ x) / hs

    emod = e_min + xphys ** penal * (1.0 - e_min)
    vals = (emod[:, None] * ke.ravel()[None, :]).ravel()
    k = scipy.sparse.coo_matrix((vals, (ik, jk)), shape=(ndof, ndof)).tocsc()
    u = np.zeros(ndof)
    u[free] = scipy.sparse.linalg.spsolve(k[free][:, free], f[free])
    c = float(f @ u)
    return xphys, c, loop


def mbb_layout(nelx, nely):
    """Half-MBB loads and supports in the shared numbering convention."""
    fixed = {2 * node_id(0, iy, nely) for iy in range(nely + 1)}
    fixed.add(2 * node_id(nelx, nely, nely) + 1)
    loads = [(2 * node_id(0, 0, nely) + 1, -1.0)]
    return loads, fixed


def loglog_slope(v, c):
    """d(ln c)/d(ln v) with 3-point nonuniform central differences, and
    one-sided two-point differences at the ends."""
    t = np.log(v)
    z = np.log(c)
    out = np.empty(len(t))
    out[0] = (z[1] - z[0]) / (t[1] - t[0])
    out[-1] = (z[-1] - z[-2]) / (t[-1] - t[-2])
    h1 = t[1:-1] - t[:-2]
    h2 = t[2:] - t[1:-1]
    out[1:-1] = (-h2 / (h1 * (h1 + h2)) * z[:-2]
                 + (h2 - h1) / (h1 * h2) * z[1:-1]
                 + h1 / (h2 * (h1 + h2)) * z[2:])
    return out


@dataclass(frozen=True)
class AnalyticComponent:
    """Tension rod, square-section cantilever beam, or bending plate.

    ``section`` is the design-space cross-section area (rod/beam),
    ``h_ds`` the design-space plate thickness, ``width`` the plate width.
    Their compliance fronts are exact power laws with exponents 1, 2 and 3.
    """

    kind: str
    e: float = 1.0
    length: float = 1.0
    section: float = 1.0
    h_ds: float = 1.0
    width: float = 1.0

    def __post_init__(self):
        if self.kind not in ("rod", "beam", "plate"):
            raise InvalidArgumentError(f"unknown component kind {self.kind!r}")
        for nm in ("e", "length", "section", "h_ds", "width"):
            if getattr(self, nm) <= 0:
                raise InvalidArgumentError(f"{nm} must be positive")


def analytic_stiffness(comp, vf):
    """Apparent tip stiffness of the component at a volume fraction."""
    if not 0 < vf <= 1:
        raise InvalidArgumentError("vf must lie in (0, 1]")
    if comp.kind == "rod":
        return comp.e * vf * comp.section / comp.length
    if comp.kind == "beam":
        return comp.e * vf**2 * comp.section**2 / (4 * comp.length**3)
    return comp.e * comp.width * vf**3 * comp.h_ds**3 / (4 * comp.length**3)


def analytic_er(comp):
    """Constant efficiency ratio of the component (1, 2 or 3)."""
    return {"rod": 1.0, "beam": 2.0, "plate": 3.0}[comp.kind]


def analytic_front(comp, vfs):
    """``(vf, compliance)`` pairs, compliance being the inverse stiffness."""
    return [(float(v), 1.0 / analytic_stiffness(comp, float(v))) for v in vfs]


def metamodel_er(b, x):
    """Efficiency ratio ``-x f'(x) / f(x)`` of the meta-model front
    ``f(x) = a * (1/x + b * x^(1/b))``, in closed form (free of ``a``)."""
    xp = x ** (1.0 / b + 1.0)
    return (1.0 - xp) / (1.0 + b * xp)
