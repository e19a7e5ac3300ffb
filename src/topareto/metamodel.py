"""Two-parameter closed-form model of a compliance-volume front.

The family ``f(x) = a * (1/x + b * x^(1/b))`` with ``a, b > 0`` is strictly
decreasing on (0, 1], its efficiency ratio runs from 1 at x -> 0+ to 0 at
x = 1, and it is pinned down by two front samples: the full-density
compliance (one plain FEM solve) and one optimized anchor, by default at a
volume fraction of 0.1. Inversion is by bisection; the model is monotone,
so brackets are guaranteed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .cache import RunCache
from .errors import FitError, InfeasibleError, InvalidArgumentError
# unused here: perfbench's tracer patches kernel_for in every module that
# imports it, and its contract test requires each patched name to resolve
from .fem2d import DensityField, ProblemSpec, _json_number, kernel_for  # noqa: F401
from .pareto import multistart_states
from .simp import OptimizerConfig, evaluate_p1

DEFAULT_ANCHOR_VF = 0.1


@dataclass(frozen=True)
class MetaModel:
    """Fitted constants plus the two anchors that produced them."""

    a: float
    b: float
    fit_points: tuple[tuple[float, float], tuple[float, float]]
    problem_name: str = ""

    def __post_init__(self):
        if not (0 < self.a < np.inf and 0 < self.b < np.inf):
            raise InvalidArgumentError("model constants must be positive and finite")
        if not isinstance(self.problem_name, str):
            raise InvalidArgumentError(f"problem_name must be a string, got {self.problem_name!r}")
        fp = tuple((float(x), float(c)) for x, c in self.fit_points)
        object.__setattr__(self, "fit_points", fp)
        # fit's order: the low-vf anchor, then the full-density solve at vf 1
        if len(fp) != 2 or not (0 < fp[0][0] < 1 and fp[1][0] == 1.0
                                and all(0 < c < np.inf for _, c in fp)):
            raise InvalidArgumentError("fit_points must be two (vf, c) pairs, vf in (0, 1) "
                                       f"then vf 1, with c positive and finite, got {fp}")

    def to_json(self) -> str:
        return json.dumps({
            "a": self.a, "b": self.b,
            "fit_points": [list(p) for p in self.fit_points],
            "problem_name": self.problem_name,
        }, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "MetaModel":
        try:
            doc = json.loads(text)
            return MetaModel(_json_number(doc["a"], "a"), _json_number(doc["b"], "b"),
                             tuple(tuple(_json_number(v, "fit_points entry") for v in p)
                                   for p in doc["fit_points"]),
                             doc["problem_name"])
        except KeyError as exc:
            raise InvalidArgumentError(f"meta-model is missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise InvalidArgumentError(f"bad meta-model: {exc}") from exc


def eval_front(m: MetaModel, x: float) -> float:
    """Model compliance at a volume fraction."""
    if not 0 < x <= 1:
        raise InvalidArgumentError("x must lie in (0, 1]")
    return m.a * (1.0 / x + m.b * x ** (1.0 / m.b))


def _anchor_ratio(b: float, x1: float) -> float:
    return (1.0 / x1 + b * x1 ** (1.0 / b)) / (1.0 + b)


def fit(point_low: tuple[float, float], c_full: float,
        problem_name: str = "") -> MetaModel:
    """Fit the model through a low-vf anchor and the full-density compliance.

    The anchor ratio ``c1 / c_full`` must lie in (1, 1/x1): 1 is the flat
    limit (b -> inf) and 1/x1 the pure-1/x limit (b -> 0). The exponent is
    bisected on [1e-6, 1e4]; both anchors are then reproduced to 1e-9
    relative by construction.
    """
    x1, c1 = float(point_low[0]), float(point_low[1])
    if not 0 < x1 < 1:
        raise InvalidArgumentError("anchor volume fraction must lie in (0, 1)")
    if not c1 > c_full > 0:
        raise FitError(
            f"anchors must satisfy c1 > c_full > 0, got c1={c1}, c_full={c_full}")
    r = c1 / c_full
    if not 1.0 < r < 1.0 / x1:
        raise FitError(
            f"anchor ratio {r:.6g} outside (1, {1.0 / x1:.6g}); the model family "
            f"only spans fronts between flat and 1/x")
    lo, hi = 1e-6, 1e4
    flo = _anchor_ratio(lo, x1) - r
    fhi = _anchor_ratio(hi, x1) - r
    if flo < 0 or fhi > 0:
        raise FitError(
            f"no sign change on the exponent bracket for ratio {r:.6g}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _anchor_ratio(mid, x1) > r:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * hi:
            break
    b = 0.5 * (lo + hi)
    a = c_full / (1.0 + b)
    m = MetaModel(a, b, ((x1, c1), (1.0, c_full)), problem_name)
    if abs(eval_front(m, 1.0) - c_full) > 1e-9 * c_full or \
            abs(eval_front(m, x1) - c1) > 1e-9 * c1:
        raise FitError("anchor residuals exceed 1e-9 relative")
    return m


def inverse(m: MetaModel, c_req: float) -> float:
    """Volume fraction whose model compliance equals ``c_req``.

    Bisection on the strictly decreasing model to a width of 1e-10, or of
    1e-9 of the answer below a volume fraction of 0.1, so the answer keeps
    its relative precision however small it is. Requirements stiffer than
    the full design are infeasible; an overflowed one, ``t E delta / F`` at
    a tiny force, is invalid.
    """
    if not np.isfinite(c_req):
        raise InvalidArgumentError(f"required compliance {c_req!r} is not finite")
    c_min = eval_front(m, 1.0)
    if c_req < c_min * (1.0 - 1e-12):
        raise InfeasibleError(
            f"required compliance {c_req:.6g} below full-density value "
            f"{c_min:.6g}: even the full design is too compliant")
    if c_req <= c_min:
        return 1.0
    # ends: c_req is finite, and after 1023 halvings 1/lo overflows to inf
    lo = 0.5
    while eval_front(m, lo) < c_req:
        lo *= 0.5
    hi = 1.0
    while hi - lo > min(1e-10, 1e-9 * lo):
        mid = 0.5 * (lo + hi)
        if eval_front(m, mid) > c_req:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def full_density_compliance(problem: ProblemSpec) -> float:
    """Normalized compliance of the all-ones design (one plain solve)."""
    return evaluate_p1(problem.with_unit_load(), DensityField(np.ones(problem.grid.nel)))


def fit_problem(problem: ProblemSpec, cfg: OptimizerConfig | None = None,
                anchor_vf: float = DEFAULT_ANCHOR_VF,
                cache: RunCache | None = None, workers: int = 1,
                report=None) -> MetaModel:
    """Fit the model for a problem from one multi-start anchor optimization.

    The anchor at ``anchor_vf`` controls the whole model, so all nine
    initial designs are run there and the best penalization-1 compliance is
    kept; the second point is the direct full-density solve. ``report``
    receives the anchor batch's census line.
    """
    if not 0 < anchor_vf < 1:
        raise InvalidArgumentError("anchor volume fraction must lie in (0, 1)")
    cfg = cfg or OptimizerConfig()
    c_full = full_density_compliance(problem)
    front, _ = multistart_states(problem, [anchor_vf], cfg, cache, workers,
                                 report)
    c1 = front.points[0].c
    return fit((anchor_vf, c1), c_full, problem.name)
