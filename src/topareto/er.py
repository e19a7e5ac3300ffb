"""Efficiency ratio of a compliance-volume front.

The efficiency ratio of a front C(v) is ``-v * C'(v) / C(v)``: the marginal
stiffening efficiency of added material relative to the mean efficiency of
the material already placed. It equals the negated log-log slope of the
front, so it is ``np.gradient`` of ln C over ln v (nonuniform 3-point
differences, one-sided at the ends), exact for power-law fronts
``C = A v^-n``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .pareto import ParetoFront, check_vfs, envelope, smooth, write_table

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


def compute_er(front: ParetoFront) -> ErSeries:
    """Raw efficiency ratio ``-v C'/C`` of a front."""
    if len(front) < 3:
        raise InvalidArgumentError("need at least 3 front points")
    v = front.vfs()
    n = -np.gradient(np.log(front.cs()), np.log(v))
    return ErSeries(tuple(zip(v, n)))


def filter_er(front: ParetoFront) -> ErSeries:
    """Two-step filtered efficiency ratio.

    Step one forces the front monotone with the running-minimum envelope;
    step two Gaussian-averages the resulting ratio series with
    :func:`pareto.smooth` (the derivative of a raw front is far too noisy to
    use directly).
    """
    raw = compute_er(envelope(front))
    ns = smooth(raw.vfs(), raw.values())
    return ErSeries(tuple(zip(raw.vfs(), ns)))

