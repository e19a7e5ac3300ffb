"""Material screening, approximate stiffness-to-mass indices, and selection.

Candidates are first cut down to the modulus-density Pareto front, then to
materials at least as dense as the one with the best rho/E ratio (denser
front materials are stiffer, run at lower volume fractions, and use
material more efficiently there). The survivors are ranked by the index
``rho * f_inv(t E delta_max / F)``: the density of a fictitious material
that would fill the whole design space at equal part mass. Near-ties are
re-scored on the refined front itself: each tied candidate's mass at the
volume fraction where the front meets its required compliance.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .errors import InfeasibleError, InvalidArgumentError
from .fem2d import ProblemSpec
from .metamodel import MetaModel, inverse
from .pareto import ParetoFront, envelope, finite_cell, read_table
# unused here: perfbench's checks wrap run_optimizations in every module
# that imports it, and read the name here before any workload starts
from .pareto import run_optimizations  # noqa: F401

DEFAULT_TIE_TOL = 0.02
# relative difference of aspect ratios L/h above which select warns
ASPECT_TOL = 0.01


@dataclass(frozen=True)
class Material:
    """Isotropic candidate: Young's modulus in Pa, density in kg/m^3."""

    name: str
    e: float
    rho: float

    def __post_init__(self):
        if not self.name:
            raise InvalidArgumentError("material needs a name")
        if not (0 < self.e < math.inf and 0 < self.rho < math.inf):
            raise InvalidArgumentError(
                f"{self.name}: modulus and density must be positive and finite")


@dataclass(frozen=True)
class LoadCase:
    """Physical requirement: force, allowed deflection, part dimensions (SI)."""

    force: float
    delta_max: float
    thickness: float
    length: float
    height: float

    def __post_init__(self):
        for nm in ("force", "delta_max", "thickness", "length", "height"):
            if not 0 < getattr(self, nm) < math.inf:
                raise InvalidArgumentError(f"{nm} must be positive and finite")

    def required_compliance(self, mat: Material) -> float:
        """Dimensionless front value the material must reach: t E delta / F."""
        return self.thickness * mat.e * self.delta_max / self.force

    def mass(self, mat: Material, vf: float) -> float:
        """Mass in kg of the part in ``mat`` at volume fraction ``vf``."""
        return self.length * self.height * self.thickness * vf * mat.rho


@dataclass
class SelectionReport:
    """Full decision trail of one material selection."""

    kept_after_pareto: list[str]
    kept_after_density: list[str]
    indices: list[tuple[str, float, float]]  # (name, f4, vf)
    winner: Material
    winner_vf: float
    winner_mass: float
    near_ties: list[str]
    trail: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps({
            "kept_after_pareto": self.kept_after_pareto,
            "kept_after_density": self.kept_after_density,
            "indices": [{"name": n, "f4": f4, "vf": vf} for n, f4, vf in self.indices],
            "winner": {"name": self.winner.name, "E_Pa": self.winner.e,
                       "rho_kgm3": self.winner.rho},
            "winner_vf": self.winner_vf,
            "winner_mass_kg": self.winner_mass,
            "near_ties": self.near_ties,
            "trail": self.trail,
        }, sort_keys=True, indent=2)

    def to_text(self) -> str:
        lines = list(self.trail)
        lines.append(f"winner: {self.winner.name} "
                     f"(vf={self.winner_vf:.6g}, mass={self.winner_mass:.6g} kg)")
        return "\n".join(lines) + "\n"


def load_materials(text: str) -> list[Material]:
    """Materials of a CSV table with header ``name,E_GPa,rho_kgm3`` (SI on load).
    A cell that is no finite number (:func:`pareto.finite_cell`), a value
    :class:`Material` rejects and a repeated name are errors naming the line."""
    mats: list[Material] = []
    for line, (name, e_gpa, rho) in read_table(text, ("name", "E_GPa", "rho_kgm3")):
        e, rho = finite_cell(e_gpa, line) * 1e9, finite_cell(rho, line)
        try:
            mat = Material(name.strip(), e, rho)
        except InvalidArgumentError as exc:
            raise InvalidArgumentError(str(exc), line=line) from exc
        if any(m.name == mat.name for m in mats):
            raise InvalidArgumentError(f"duplicate material {mat.name!r}", line=line)
        mats.append(mat)
    return mats


def screen_pareto(mats: list[Material]) -> list[Material]:
    """Keep only materials on the modulus-density Pareto front.

    A candidate is dropped when some other material is at least as stiff
    and at least as light with one strict inequality; exact ties on both
    axes keep both.
    """
    if not mats:
        raise InvalidArgumentError("material list must be nonempty")
    kept = []
    for m in mats:
        dominated = any(
            o.e >= m.e and o.rho <= m.rho and (o.e > m.e or o.rho < m.rho)
            for o in mats)
        if not dominated:
            kept.append(m)
    return kept


def screen_density(mats: list[Material]) -> list[Material]:
    """Keep materials at least as dense as the best-rho/E one.

    Ties on the ratio break toward lower density, which keeps more
    candidates and never discards a potential optimum.
    """
    if not mats:
        raise InvalidArgumentError("material list must be nonempty")
    ref = _density_reference(mats)
    return [m for m in mats if m.rho >= ref.rho]


def _density_reference(mats: list[Material]) -> Material:
    return min(mats, key=lambda m: (m.rho / m.e, m.rho))


def ashby_index(mat: Material, m: MetaModel, lc: LoadCase) -> tuple[float, float]:
    """Approximate selection index ``(vf * rho, vf)`` for one material."""
    x_req = lc.required_compliance(mat)
    try:
        vf = inverse(m, x_req)
    except InfeasibleError as exc:
        raise InfeasibleError(f"{mat.name}: {exc}") from exc
    return vf * mat.rho, vf


def refine_vf(mat: Material, front: ParetoFront, lc: LoadCase
              ) -> tuple[float, float] | None:
    """``(vf, mass)`` at which the front meets the material's required
    compliance, or None when no two front points bracket it.

    Reads :func:`pareto.envelope`: its lightest point whose compliance meets
    the requirement, interpolated log-log toward that point's left
    neighbour. A requirement equal to a point's compliance gives that
    point's vf, so a flat stretch of the envelope gives its lightest point.
    """
    x_req = lc.required_compliance(mat)
    pts = envelope(front).points
    i = next((k for k, p in enumerate(pts) if p.c <= x_req), None)
    if i is None or (i == 0 and pts[0].c < x_req):
        return None
    hi = pts[i]
    vf = hi.vf
    if hi.c < x_req:
        lo = pts[i - 1]
        t = math.log(x_req / lo.c) / math.log(hi.c / lo.c)
        vf = lo.vf * (hi.vf / lo.vf) ** t
    return vf, lc.mass(mat, vf)


def select(mats: list[Material], m: MetaModel, lc: LoadCase,
           tie_tol: float = DEFAULT_TIE_TOL, problem: ProblemSpec | None = None,
           front: ParetoFront | None = None) -> SelectionReport:
    """Screen, rank by index, and pick the minimum-mass material.

    When the runner-up index is within ``tie_tol`` relative of the best and
    a front is supplied, the tied candidates are re-scored by
    :func:`refine_vf` and the lowest front mass wins. Without a front, or
    when a tied candidate is out of its reach, the raw index decides and the
    trail says which. Runs no optimization. With a problem, the
    trail warns when the load case's aspect ``L/h`` differs by more than
    ``ASPECT_TOL`` from the physical part the problem models (its grid's
    ``nelx/nely``, as the elements are unit squares, times
    ``symmetry_factor`` for a model mirrored along its length, as the
    half-MBB is); the ranking does not change.
    """
    trail = [f"candidates: {', '.join(mt.name for mt in mats)}"]
    if problem is not None:
        aspect = problem.symmetry_factor * (problem.grid.nelx / problem.grid.nely)
        lc_aspect = lc.length / lc.height
        if abs(lc_aspect / aspect - 1.0) > ASPECT_TOL:
            trail.append(f"warning: load case aspect L/h = {lc_aspect:.4g} "
                         f"differs from the {aspect:.4g}:1 part that the "
                         f"{problem.name} problem models")

    kept1 = screen_pareto(mats)
    for mt in mats:
        if mt not in kept1:
            trail.append(f"pareto screen removed {mt.name} (stiffer and lighter "
                         f"alternative exists)")
    kept2 = screen_density(kept1)
    ref = _density_reference(kept1)
    for mt in kept1:
        if mt not in kept2:
            trail.append(f"density screen removed {mt.name} "
                         f"(rho {mt.rho:g} below {ref.name} rho {ref.rho:g})")
    trail.append(f"density screen reference: {ref.name} "
                 f"(lowest rho/E = {ref.rho / ref.e:.4g})")

    scored: list[tuple[Material, float, float]] = []
    for mt in kept2:
        try:
            f4, vf = ashby_index(mt, m, lc)
        except InfeasibleError:
            trail.append(f"{mt.name}: infeasible (full design too compliant)")
            continue
        scored.append((mt, f4, vf))
        trail.append(f"{mt.name}: index {f4:.6g} kg/m^3 at vf {vf:.6g}")
    if not scored:
        raise InfeasibleError(
            "no screened material can satisfy the stiffness constraint")

    ranked = sorted(scored, key=lambda t: (t[1], t[0].name))
    best, best_f4, best_vf = ranked[0]
    near = [mt for mt, f4, _ in ranked[1:] if f4 <= best_f4 * (1.0 + tie_tol)]
    winner, winner_vf = best, best_vf
    winner_mass = lc.mass(winner, winner_vf)

    if near:
        # tie_tol * 100 printed with :g reads back as given: 0.5%, 2%, 30%
        trail.append(f"near-tie within {tie_tol * 100:g}%: "
                     f"{', '.join(mt.name for mt in near)}")
        if front is None:
            trail.append("no refined front; tie left to the raw index")
        else:
            tied, rescored = [best] + near, []
            for mt in tied:
                hit = refine_vf(mt, front, lc)
                if hit is None:
                    trail.append(f"{mt.name}: out of the refined front's reach")
                    continue
                vf1, mass1 = hit
                rescored.append((mass1, mt.name, mt, vf1))
                trail.append(f"{mt.name}: front mass {mass1:.6g} kg at vf {vf1:.6g}")
            if len(rescored) < len(tied):
                trail.append("tie left to the raw index")
            else:
                winner_mass, _, winner, winner_vf = min(rescored, key=lambda t: t[:2])
                trail.append(f"tie resolved by front mass: {winner.name}")

    return SelectionReport(
        kept_after_pareto=[mt.name for mt in kept1],
        kept_after_density=[mt.name for mt in kept2],
        indices=[(mt.name, f4, vf) for mt, f4, vf in scored],
        winner=winner,
        winner_vf=winner_vf,
        winner_mass=winner_mass,
        near_ties=[mt.name for mt in near],
        trail=trail,
    )
