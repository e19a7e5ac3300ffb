"""SIMP compliance minimization at a fixed volume fraction.

Optimality-criteria update with move limits and a bisected volume
multiplier, the cone density filter, and a penalization-1 re-evaluation
of the final design. The update and filter follow the 88-line code
(Andreassen et al. 2011): its move limit 0.2, damping 0.5, change
tolerance 0.01 and penalization 3 are the constants ``MOVE_LIMIT``,
``ETA``, ``CHANGE_TOL`` and ``PENAL``.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass, fields
from functools import lru_cache

import numpy as np

from .errors import InvalidArgumentError, SolverError
from .fem2d import (E_MIN, Csr, DensityField, Grid, ProblemSpec, _json_int, csr_dot,
                    kernel_for, simp_modulus)

INITIAL_DESIGN_KINDS = (
    "uniform",
    "vstripes2",
    "vstripes4",
    "hstripes2",
    "hstripes4",
    "diag_sum",
    "diag_diff",
    "ring",
    "noise",
)

_NOISE_SEED = 130904
# first iteration at which a bounded run is checked against its bound: at
# iterations 1 and 2 the start pattern itself is still being solved, and an
# eventual winner sits up to 108x above the uniform start on the desk sweep
# (60x20 half-MBB, 50 vfs); from iteration 3 on, 1.77x at most
FIRST_CHECK = 3
# the OC update of the 88-line code: largest density change per update, the
# damping exponent on the optimality ratio, the largest density change
# below which a run has converged, and the SIMP penalization of the moduli
MOVE_LIMIT = 0.2
ETA = 0.5
CHANGE_TOL = 0.01
PENAL = 3.0


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings for one compliance minimization: its iteration limit."""

    max_iters: int = 300

    def __post_init__(self):
        if _json_int(self.max_iters, "max_iters") < 1:
            raise InvalidArgumentError("max_iters must be >= 1")

    @staticmethod
    def resolve_rmin(grid: Grid) -> float:
        """The filter radius of a grid: ``3 * nelx / 200`` clamped to at least
        1.2, mimicking the relative filter size of a 200-wide reference grid
        on smaller ones."""
        return max(1.2, 3.0 * grid.nelx / 200.0)

    def digest(self) -> str:
        doc = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(doc.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class DesignResult:
    """Outcome of one optimization run."""

    # the summary values that follow from the fields
    DERIVED = ("vf", "iterations", "descent_violations")

    densities: DensityField
    compliance_p: float
    compliance_p1: float
    converged: bool
    # penalized compliance of every iteration, in order
    history: tuple[float, ...]

    @property
    def vf(self) -> float:
        return self.densities.volume_fraction

    @property
    def iterations(self) -> int:
        return len(self.history)

    @property
    def descent_violations(self) -> int:
        """Iterations whose compliance rose above the previous one's."""
        return sum(c > prev * (1.0 + 1e-9)
                   for prev, c in zip(self.history, self.history[1:]))

    def summary(self) -> dict:
        """Every field but the densities, and the ``DERIVED`` values."""
        names = [f.name for f in fields(self) if f.name != "densities"]
        return {name: getattr(self, name) for name in (*names, *self.DERIVED)}


def filter_build(grid: Grid, rmin: float) -> Csr:
    """Row-normalized cone filter: w_ij = max(0, rmin - dist(i, j))."""
    if not 1 <= rmin < np.inf:
        raise InvalidArgumentError("rmin must be finite and >= 1")
    return _filter_cached(grid, float(rmin))[0]


@lru_cache(maxsize=64)
def _filter_cached(grid: Grid, rmin: float):
    """The filter ``w`` of :func:`filter_build`, and the read-only arrays
    every ``optimize`` run on ``(grid, rmin)`` shares: ``w.T`` and the
    filtered volume sensitivity ``dv = w.T @ (1 / nel)``, which is also the
    vector of volume weights: ``dv @ x`` is the mean of ``w @ x``.

    The cone ``h`` is symmetric, so ``w = diags(1 / h.sum(axis=1)) @ h``
    and ``w.T`` share one pattern: the element stencil's offsets in
    ``(dx, dy)`` order, masked where they leave the grid, which lists each
    row's columns in ascending order. The arrays equal those of the scipy
    build of the 88-line code after ``sort_indices()``, bit for bit.
    """
    nelx, nely, nel = grid.nelx, grid.nely, grid.nel
    reach = int(np.ceil(rmin)) - 1
    d = np.arange(-reach, reach + 1)
    dx, dy = np.repeat(d, d.size), np.tile(d, d.size)
    cone = rmin - np.hypot(dx, dy)
    dx, dy, cone = dx[cone > 0], dy[cone > 0], cone[cone > 0]
    ex, ey = np.divmod(np.arange(nel)[:, None], nely)
    src_x, src_y = ex + dx, ey + dy
    ok = (src_x >= 0) & (src_x < nelx) & (src_y >= 0) & (src_y < nely)
    idx = np.int32 if ok.size <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(nel + 1, dtype=idx)
    np.cumsum(ok.sum(axis=1), out=indptr[1:])
    indices = (src_x * nely + src_y)[ok].astype(idx)
    h = np.broadcast_to(cone, ok.shape)[ok]
    inv_rowsum = 1.0 / np.add.reduceat(h, indptr[:-1])
    w = Csr(indptr, indices, (inv_rowsum[:, None] * cone)[ok], (nel, nel))
    w_t = Csr(indptr, indices, h * inv_rowsum[indices], (nel, nel))
    dv = csr_dot(w_t, np.full(nel, 1.0 / nel))
    for a in (indptr, indices, w.data, w_t.data, dv):
        a.flags.writeable = False
    return w, w_t, dv


def initial_design(kind: str, target_vf: float, grid: Grid) -> DensityField:
    """One of the nine starting fields, volume-rescaled to ``target_vf``.

    Base patterns live in [0,1]; a global shift clamped to [0,1] is bisected
    until the mean density matches the target within 1e-6.
    """
    if kind not in INITIAL_DESIGN_KINDS:
        raise InvalidArgumentError(f"unknown initial design kind {kind!r}")
    if not 0 < target_vf <= 1:
        raise InvalidArgumentError("target_vf must lie in (0, 1]")
    base = _base_pattern(kind, grid)
    return DensityField(rescale_to_volume(base, target_vf))


@lru_cache(maxsize=128)
def _base_pattern(kind: str, grid: Grid) -> np.ndarray:
    """The read-only start pattern of a valid ``kind`` on ``grid``, in [0,1]."""
    nelx, nely = grid.nelx, grid.nely
    ex, ey = np.meshgrid(np.arange(nelx), np.arange(nely), indexing="ij")
    x = (ex.ravel() + 0.5) / nelx
    y = (ey.ravel() + 0.5) / nely
    d = np.hypot(x - 0.5, y - 0.5)
    # the cosine starts: wave number, and the coordinate the wave runs along
    waves = {"vstripes2": (2, x), "vstripes4": (4, x), "hstripes2": (2, y),
             "hstripes4": (4, y), "diag_sum": (1.5, x + y), "diag_diff": (1.5, x - y)}
    if kind == "uniform":
        base = np.full(grid.nel, 0.5)
    elif kind in waves:
        k, t = waves[kind]
        base = 0.5 * (1 + np.cos(2 * np.pi * k * t))
    elif kind == "ring":
        base = np.exp(-((d - 0.33) / 0.12) ** 2)
    else:  # noise
        rng = np.random.default_rng(_NOISE_SEED)
        raw = rng.random(grid.nel)
        w = filter_build(grid, 1.0 + min(nelx, nely) / 8.0)
        base = csr_dot(w, csr_dot(w, raw))
    base.flags.writeable = False
    return base


def rescale_to_volume(base: np.ndarray, target_vf: float,
                      weights: np.ndarray | None = None) -> np.ndarray:
    """Shift-and-clamp ``base`` so its mean density hits ``target_vf``.

    The shift is bisected on [-1, 1]. With ``weights`` the mean is the dot
    product ``weights @ v`` (for instance the mean of a filtered field).
    """
    lo, hi = -1.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        out = np.minimum(np.maximum(base + mid, 0.0), 1.0)
        m = _mean(out, weights)
        if abs(m - target_vf) <= 1e-7:
            return out
        if m < target_vf:
            lo = mid
        else:
            hi = mid
    raise InvalidArgumentError("volume rescaling did not converge")


def _mean(v: np.ndarray, weights: np.ndarray | None) -> float:
    """``weights @ v``, or ``sum / size``: ``np.mean`` without its dispatch."""
    return float(weights @ v) if weights is not None else float(v.sum() / v.size)


def optimize(problem: ProblemSpec, target_vf: float, cfg: OptimizerConfig,
             init: DensityField | None = None, *,
             _abandon_above: Sequence[float] = ()) -> DesignResult:
    """Minimize compliance at a fixed volume fraction from a given start.

    Deterministic: identical inputs give bit-identical density fields. The
    result carries the compliance at the optimization penalization and the
    penalization-1 re-evaluation of the same final field, and the
    penalized compliance of every iteration (``history``, one entry per
    iteration).

    ``_abandon_above`` is the multi-start race's bound (see
    ``pareto.ABANDON_FACTOR``): a sequence of penalized compliances, one
    per iteration of a reference run. At every iteration ``it`` from
    ``FIRST_CHECK`` (3) to ``cfg.max_iters - 1``, a penalized compliance
    above entry ``min(it, len) - 1`` ends the loop before the OC update; a
    bound shorter than the run holds its last entry. The current field
    then goes through the same volume check and penalization-1
    evaluation, so the result is valid with ``converged=False`` and
    ``iterations < cfg.max_iters``. Its final solve is the last
    iteration's, unless the volume check moved the field. A run the bound
    never stops, or one with an empty bound, is bit-identical to an
    unbounded one.
    """
    if not 0 < target_vf <= 1:
        raise InvalidArgumentError("target_vf must lie in (0, 1]")
    grid = problem.grid
    if init is None:
        init = initial_design("uniform", target_vf, grid)
    if init.values.size != grid.nel:
        raise InvalidArgumentError("initial design does not match grid")

    kern = kernel_for(problem)
    f = problem.load_vector()
    w, w_t, dv = _filter_cached(grid, cfg.resolve_rmin(grid))

    x = init.values.copy()
    x_phys = csr_dot(w, x)

    converged = False
    lm = None  # the OC multiplier of the last update
    history = []
    n_bound = len(_abandon_above)
    for it in range(1, cfg.max_iters + 1):
        emod = simp_modulus(x_phys, PENAL)
        try:
            u = kern.solve(emod, f)
        except SolverError as exc:
            raise SolverError(f"optimize failed at iteration {it}: {exc}",
                              residual=exc.residual) from exc
        ce = kern.element_energies(u)
        c = float(emod @ ce)
        history.append(c)
        if (n_bound and FIRST_CHECK <= it < cfg.max_iters
                and c > _abandon_above[min(it, n_bound) - 1]):
            break

        dc = -PENAL * (1.0 - E_MIN) * x_phys ** (PENAL - 1.0) * ce
        dc = csr_dot(w_t, dc)
        x_new, lm = _oc_update(x, dc, dv, target_vf, lm)
        change = float(np.max(np.abs(x_new - x)))
        x = x_new
        x_phys = csr_dot(w, x)
        if change < CHANGE_TOL:
            converged = True
            break

    x_phys = np.clip(x_phys, 0.0, 1.0)
    achieved = float(x_phys.mean())
    if abs(achieved - target_vf) > 5e-5:
        # zero-sensitivity regions (dying disconnected islands) can leave
        # the last OC step short of the volume target: the move limit caps
        # how much the live elements can absorb in one update. Project the
        # design back onto the constraint; a projection that does not
        # converge is reported by the volume check below.
        try:
            x = rescale_to_volume(x, target_vf, dv)
        except InvalidArgumentError:
            pass
        x_phys = np.clip(csr_dot(w, x), 0.0, 1.0)
        achieved = float(x_phys.mean())
    if abs(achieved - target_vf) > 1e-4:
        raise SolverError(
            f"volume constraint missed: got {achieved:.6f}, want {target_vf:.6f}")

    emod_last, emod = emod, simp_modulus(x_phys, PENAL)
    # an abandoned run stopped before the OC update: its last solve was of
    # these very moduli
    if not np.array_equal(emod, emod_last):
        u = kern.solve(emod, f)
    compliance_p = float(f @ u)
    densities = DensityField(x_phys)
    compliance_p1 = evaluate_p1(problem, densities)
    return DesignResult(densities, compliance_p, compliance_p1, converged, tuple(history))


def _oc_update(x, dc, dv, target_vf, lm_hint=None):
    """Optimality-criteria step; returns the new design and its multiplier.

    ``dv`` is the filtered volume sensitivity and the volume weights at
    once: the mean of the filtered update is ``dv @ x_new``. The volume
    multiplier is bisected as in the 88-line code (see
    :class:`_MultiplierSearch`), after probes started from ``lm_hint``, the
    previous update's multiplier, when there is one.
    """
    search = _MultiplierSearch(x, dc, dv, target_vf)
    search.probe(lm_hint)
    return search.bisect()


class _MultiplierSearch:
    """The OC bisection for the volume multiplier ``lm`` on [1e-9, 1e9].

    :meth:`bisect` runs the bracket extensions and the bisection of the
    88-line code (Andreassen et al. 2011, *SMO* 43:1) and returns its
    design bit for bit, but calls :meth:`step` only where a test's outcome
    is not already known. The mean of ``step(lm)`` does not increase with
    ``lm``: once some ``a`` gave a mean above ``target + VOLUME_TOL +
    DECIDE_MARGIN``, every test at a multiplier ``<= a`` comes out
    "above", and mirror-wise below. The margin covers the rounding of
    the mean; a NaN mean decides nothing. :meth:`probe` places such points
    just outside the tolerance band first; it chooses which points are
    evaluated, never the result.

    ``dv`` lets ``step`` evaluate the mean of the filtered field as a dot
    product instead of a filter apply. The clamp to the move limits is
    ``minimum(maximum(...))``: the same values as ``np.clip``, which costs
    about three times as much per call.
    """

    # the bisection stops when the mean is within VOLUME_TOL of the target;
    # DECIDE_MARGIN is far above the rounding error of a mean of a million
    # terms in [0, 1] and far below the tolerance
    VOLUME_TOL = 1e-6
    DECIDE_MARGIN = 1e-9
    # probes per update, the offset from the target they aim at and the one
    # within which a known side ends them. An aim just outside the band
    # leaves few bisection midpoints between it and the band: 1.2e-6 takes
    # 5.16 step evaluations per update on the desk baseline, 2e-6 took 5.44
    PROBES = 6
    PROBE_AIM = 1.2e-6
    PROBE_CAP = 4e-6

    def __init__(self, x, dc, dv, target):
        self.x, self.dv, self.target = x, dv, target
        self.ratio = np.maximum(0.0, -dc / dv)
        self.lower, self.upper = np.maximum(0.0, x - MOVE_LIMIT), np.minimum(1.0, x + MOVE_LIMIT)
        # a mean above ``hi`` (below ``lo``) decides its side; the largest
        # multiplier seen above the band and the smallest seen below it,
        # with their means
        margin = self.VOLUME_TOL + self.DECIDE_MARGIN
        self.hi, self.lo = target + margin, target - margin
        self.above = (0.0, np.nan)
        self.below = (np.inf, np.nan)
        # below ``lm_safe``, ``ratio / lm`` may overflow and turn a zero
        # density into NaN, so "above" is not decided there
        self.lm_safe = float(self.ratio.max()) * 1e-300

    def step(self, lm):
        """The update at ``lm`` and its mean; records ``lm`` when the mean
        decides a side."""
        x_new = np.minimum(np.maximum(self.x * (self.ratio / lm) ** ETA,
                                      self.lower), self.upper)
        mean = _mean(x_new, self.dv)
        if mean > self.hi and lm > self.above[0]:
            self.above = (lm, mean)
        elif mean < self.lo and lm < self.below[0]:
            self.below = (lm, mean)
        return x_new, mean

    def side(self, lm):
        """+1 (-1) when the mean at ``lm`` is known above (below) the band."""
        if self.lm_safe <= lm <= self.above[0]:
            return 1
        if lm >= self.below[0]:
            return -1
        return 0

    def probe(self, lm_hint):
        """Secant steps in ``ln lm`` toward the mean ``target +- PROBE_AIM``.

        Starts from ``lm_hint`` or, without one, from the closed-form
        estimate ``(mean(x * ratio**ETA) / target)**(1/ETA)`` of Ferrari &
        Sigmund 2020, which ignores the move limits. Aims above the band
        until a point within ``PROBE_CAP`` of it is known there, then below;
        stops once both sides have one, after ``PROBES`` steps, or when the
        mean stops falling.
        """
        target = self.target
        if lm_hint is None:
            m0 = _mean(self.x * self.ratio ** ETA, self.dv)
            if not 0 < m0 < np.inf:
                return
            s = (math.log(m0) - math.log(target)) / ETA
        else:
            s = math.log(lm_hint)
        s_min = math.log(max(self.lm_safe, 1e-300))
        s_prev = g_prev = None
        for _ in range(self.PROBES):
            if not s_min <= s <= 690.0:
                return
            g = self.step(math.exp(s))[1] - target
            if not math.isfinite(g):
                return
            near_above = self.above[1] - target <= self.PROBE_CAP
            if near_above and target - self.below[1] <= self.PROBE_CAP:
                return
            # unclamped, the mean scales as lm**-ETA
            slope = -ETA * (g + target) if s_prev is None else (g - g_prev) / (s - s_prev)
            if not slope < 0:
                return
            aim = -self.PROBE_AIM if near_above else self.PROBE_AIM
            s_prev, g_prev = s, g
            s += (aim - g) / slope
            if s == s_prev:
                return

    def bisect(self):
        """The bisection's design and last midpoint."""
        target, side = self.target, self.side
        l1, l2 = 1e-9, 1e9
        # badly scaled sensitivities (disconnected starts) can push the root
        # outside the standard bracket; extend only when provably needed
        for _ in range(40):
            known = side(l2)
            if (known < 0) if known else self.step(l2)[1] <= target:
                break
            l1, l2 = l2, l2 * 100.0
        for _ in range(40):
            known = side(l1)
            if (known > 0) if known else self.step(l1)[1] >= target:
                break
            l1, l2 = l1 / 100.0, l1

        for i in range(200):
            lmid = 0.5 * (l1 + l2)
            x_new = None
            known = side(lmid)
            if not known:
                x_new, mean = self.step(lmid)
                if abs(mean - target) <= self.VOLUME_TOL:
                    return x_new, lmid
                known = 1 if mean > target else -1
            if known > 0:
                l1 = lmid
            else:
                l2 = lmid
            if (l2 - l1) / (l1 + l2) < 1e-14 or i == 199:
                return (self.step(lmid)[0] if x_new is None else x_new), lmid


def evaluate_p1(problem: ProblemSpec, densities: DensityField) -> float:
    """Compliance of a field with linear (penalization 1) moduli."""
    f = problem.load_vector()
    u = kernel_for(problem).solve(simp_modulus(densities.values, 1.0), f)
    return float(f @ u)
