"""Efficiency ratio of a compliance-volume front.

The efficiency ratio of a front C(v) is ``-v * C'(v) / C(v)``: the marginal
stiffening efficiency of added material relative to the mean efficiency of
the material already placed. It equals the negated log-log slope of the
front, so it is ``np.gradient`` of ln C over ln v (nonuniform 3-point
differences, one-sided at the ends), exact for power-law fronts
``C = A v^-n``.

Closed-form constant-ratio components (tension rod, square-section
cantilever beam, bending plate) are provided for validation: their fronts
are exact power laws with exponents 1, 2 and 3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .pareto import (DEFAULT_SIGMA, FrontPoint, ParetoFront, check_vfs, envelope,
                     finite_cell, read_table, smooth, write_table)

ER_LOWER_BOUND = -0.02
ER_UPPER_BOUND = 1.02
ER_HEADER = ("vf", "n")


@dataclass(frozen=True)
class ErSeries:
    """Sampled efficiency ratio: ``(vf, n)`` points."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        pts = tuple((float(v), float(n)) for v, n in self.points)
        object.__setattr__(self, "points", pts)
        check_vfs([v for v, _ in pts])

    def vfs(self) -> np.ndarray:
        return np.array([v for v, _ in self.points])

    def values(self) -> np.ndarray:
        return np.array([n for _, n in self.points])

    def bounds_violations(self) -> list[int]:
        """Indices where the ratio leaves the theoretical band (with slack)."""
        return [i for i, (_, n) in enumerate(self.points)
                if n < ER_LOWER_BOUND or n > ER_UPPER_BOUND]

    def to_csv(self) -> str:
        return write_table(ER_HEADER, self.points)

    @staticmethod
    def from_csv(text: str) -> "ErSeries":
        return ErSeries(tuple((finite_cell(v, line), finite_cell(n, line))
                              for line, (v, n) in read_table(text, ER_HEADER)))


def compute_er(front: ParetoFront) -> ErSeries:
    """Raw efficiency ratio ``-v C'/C`` of a front."""
    if len(front) < 3:
        raise InvalidArgumentError("need at least 3 front points")
    v = front.vfs()
    n = -np.gradient(np.log(front.cs()), np.log(v))
    return ErSeries(tuple(zip(v, n)))


def filter_er(front: ParetoFront, sigma: float = DEFAULT_SIGMA) -> ErSeries:
    """Two-step filtered efficiency ratio.

    Step one forces the front monotone with the running-minimum envelope;
    step two Gaussian-averages the resulting ratio series (the derivative
    of a raw front is far too noisy to use directly).
    """
    raw = compute_er(envelope(front))
    ns = smooth(raw.vfs(), raw.values(), sigma)
    return ErSeries(tuple(zip(raw.vfs(), ns)))


# ---------------------------------------------------------------------------
# constant-ratio analytic components

VALID_KINDS = ("rod", "beam", "plate")


@dataclass(frozen=True)
class AnalyticComponent:
    """Tension rod, square-section cantilever beam, or bending plate.

    ``section`` is the design-space cross-section area (rod/beam),
    ``h_ds`` the design-space plate thickness, ``width`` the plate width.
    """

    kind: str
    e: float = 1.0
    length: float = 1.0
    section: float = 1.0
    h_ds: float = 1.0
    width: float = 1.0

    def __post_init__(self):
        if self.kind not in VALID_KINDS:
            raise InvalidArgumentError(f"unknown component kind {self.kind!r}")
        for nm in ("e", "length", "section", "h_ds", "width"):
            if getattr(self, nm) <= 0:
                raise InvalidArgumentError(f"{nm} must be positive")


def analytic_stiffness(comp: AnalyticComponent, vf: float) -> float:
    """Apparent tip stiffness of the component at a volume fraction."""
    if not 0 < vf <= 1:
        raise InvalidArgumentError("vf must lie in (0, 1]")
    if comp.kind == "rod":
        return comp.e * vf * comp.section / comp.length
    if comp.kind == "beam":
        return comp.e * vf**2 * comp.section**2 / (4 * comp.length**3)
    return comp.e * comp.width * vf**3 * comp.h_ds**3 / (4 * comp.length**3)


def analytic_er(comp: AnalyticComponent) -> float:
    """Constant efficiency ratio of the component (1, 2 or 3)."""
    return {"rod": 1.0, "beam": 2.0, "plate": 3.0}[comp.kind]


def analytic_front(comp: AnalyticComponent, vf_grid) -> ParetoFront:
    """Compliance front (inverse stiffness) sampled on a vf grid."""
    pts = tuple(FrontPoint(float(v), 1.0 / analytic_stiffness(comp, float(v)),
                           f"analytic:{comp.kind}") for v in vf_grid)
    return ParetoFront(pts)
