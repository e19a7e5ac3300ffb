"""Efficiency ratio of a compliance-volume front.

The efficiency ratio of a front C(v) is ``-v * C'(v) / C(v)``: the marginal
stiffening efficiency of added material relative to the mean efficiency of
the material already placed. It equals the negated log-log slope of the
front, so it is ``np.gradient`` of ln C over ln v (nonuniform 3-point
differences, one-sided at the ends), exact for power-law fronts
``C = A v^-n``. A ratio is a float array aligned with the front's
``vfs()``.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError
from .pareto import ParetoFront, envelope

ER_LOWER_BOUND = -0.02
ER_UPPER_BOUND = 1.02
ER_HEADER = ("vf", "n")
# the smoothing's Gaussian width in vf, not a setting
SIGMA = 0.04


def bounds_violations(n: np.ndarray) -> list[int]:
    """Indices where the ratio leaves the theoretical band (with slack)."""
    return [i for i, v in enumerate(n) if v < ER_LOWER_BOUND or v > ER_UPPER_BOUND]


def smooth(vf: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gaussian-kernel weighted average of a series over the vf axis.

    The kernel has standard deviation ``SIGMA``; it is truncated at three
    standard deviations and renormalized, so boundary points average over
    their one-sided neighborhoods.
    """
    vf = np.asarray(vf, dtype=float)
    y = np.asarray(y, dtype=float)
    if vf.ndim != 1 or vf.shape != y.shape:
        raise InvalidArgumentError("series arrays must be 1-d and equal length")
    if np.any(np.diff(vf) <= 0):
        raise InvalidArgumentError("vf must be strictly increasing")
    d = vf[:, None] - vf[None, :]
    w = np.exp(-0.5 * (d / SIGMA) ** 2)
    # small tolerance keeps the cutoff symmetric when the grid spacing
    # divides 3*SIGMA exactly
    w[np.abs(d) > 3 * SIGMA * (1 + 1e-9)] = 0.0
    return (w @ y) / w.sum(axis=1)


def compute_er(front: ParetoFront) -> np.ndarray:
    """Raw efficiency ratio ``-v C'/C`` of a front."""
    if len(front) < 3:
        raise InvalidArgumentError("need at least 3 front points")
    return -np.gradient(np.log(front.cs()), np.log(front.vfs()))


def filter_er(front: ParetoFront) -> np.ndarray:
    """Two-step filtered efficiency ratio.

    Step one forces the front monotone with the running-minimum envelope;
    step two Gaussian-averages the resulting ratio series with
    :func:`smooth` (the derivative of a raw front is far too noisy to use
    directly).
    """
    return smooth(front.vfs(), compute_er(envelope(front)))
