"""Compliance-volume Pareto front construction.

The front of a problem is built in up to three stages of increasing cost:
a baseline sweep (one optimization per volume fraction from the uniform
start), a multi-start sweep over all nine initial designs, and an
iterative refinement that re-optimizes every point from the designs of
nearby significant points (product-curve minima to the left, compliance
drops to the right), keeping the pointwise best. Each stage is one
function that returns ``(front, designs)``, the designs aligned with the
front points. Every stage hands its optimizations to
:func:`run_optimizations`, which rescales the load pattern to unit norm
once, so stored compliances are always the penalization-1 re-evaluations
of the final designs under the unit-norm load pattern.

The multi-start sweep races its starts. At every iteration from the third
to ``max_iters - 1``, a non-uniform start is abandoned when its penalized
compliance exceeds ``ABANDON_FACTOR`` (10) times the uniform start's
penalized compliance at the same iteration and volume fraction (its last
one, once the uniform run has ended); every other start runs to the end
exactly as an unraced run would. This is the racing rule of Maron & Moore
1994 ("Hoeffding races") and of successive halving (Li et al. 2018,
"Hyperband"), judged against a reference trajectory. The bound depends
only on the uniform start's deterministic result, so which starts are
abandoned does not depend on worker count or cache state.
"""

from __future__ import annotations

import csv
import io
import os
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass

import numpy as np

from .cache import RunCache, field_descriptor, result_key
from .errors import InvalidArgumentError, SolverError
from .fem2d import DensityField, ProblemSpec
from .simp import (INITIAL_DESIGN_KINDS, DesignResult, OptimizerConfig,
                   initial_design, optimize, rescale_to_volume)

# detect_significant's thresholds, not settings: calibrated on the desk-scale
# benchmark so refinement catches the local-optimum artifacts that otherwise
# leave the filtered efficiency ratio above its theoretical band
MIN_THRESHOLD = 0.002
DROP_THRESHOLD = 0.025
# refine's most rounds
REFINE_ROUNDS = 3
# a multi-start run is abandoned when its penalized compliance exceeds this
# multiple of the uniform start's at the same iteration and vf. Measured on
# unraced runs (all 50 desk vfs of the 60x20 half-MBB; bridge and complex
# at 6 vfs each): from iteration 3 on, eventual winners stay within 1.51x,
# 1.45x and 1.77x of the uniform start's compliance at the same iteration,
# so 10 leaves a margin of 5.6x or more
ABANDON_FACTOR = 10.0
FRONT_HEADER = ("vf", "c", "provenance")


@dataclass(frozen=True)
class FrontPoint:
    vf: float
    c: float
    provenance: str = ""


@dataclass(frozen=True)
class ParetoFront:
    """Ordered (vf, c) samples with provenance tags."""

    points: tuple[FrontPoint, ...]

    def __post_init__(self):
        pts = tuple(FrontPoint(float(p.vf), float(p.c), str(p.provenance))
                    for p in self.points)
        object.__setattr__(self, "points", pts)
        check_vfs([p.vf for p in pts])
        if not all(0 < p.c < np.inf for p in pts):
            raise InvalidArgumentError("compliances must be positive and finite")

    def __len__(self) -> int:
        return len(self.points)

    def vfs(self) -> np.ndarray:
        return np.array([p.vf for p in self.points])

    def cs(self) -> np.ndarray:
        return np.array([p.c for p in self.points])

    def to_csv(self) -> str:
        return write_table(FRONT_HEADER, ((p.vf, p.c, p.provenance) for p in self.points))

    @staticmethod
    def from_csv(text: str) -> "ParetoFront":
        pts = tuple(FrontPoint(finite_cell(vf, line), finite_cell(c, line), provenance)
                    for line, (vf, c, provenance) in read_table(text, FRONT_HEADER))
        if not pts:
            raise InvalidArgumentError("front file has no data rows", line=1)
        return ParetoFront(pts)


def read_table(text: str, header) -> Iterator[tuple[int, list[str]]]:
    """``(line, cells)`` of each data row of CSV ``text``: after a first row of
    ``header`` (stripped), each row not all blank has one cell per column. A
    blank text has no rows; a failure is an InvalidArgumentError naming the line."""
    if not text.strip():
        return
    rows = csv.reader(io.StringIO(text))
    if [h.strip() for h in next(rows)] != list(header):
        raise InvalidArgumentError(f"expected header {','.join(header)}", line=1)
    for line, cells in enumerate(rows, start=2):
        if not any(c.strip() for c in cells):
            continue
        if len(cells) != len(header):
            raise InvalidArgumentError(f"expected {len(header)} columns, got {len(cells)}",
                                       line=line)
        yield line, cells


def finite_cell(cell: str, line: int) -> float:
    """A table cell as a finite float; anything else is an InvalidArgumentError naming the line."""
    try:
        value = float(cell)
    except ValueError:
        value = np.nan
    if not np.isfinite(value):
        raise InvalidArgumentError(f"expected a finite number, got {cell!r}", line=line)
    return value


def write_table(header, rows) -> str:
    """CSV text of ``header`` and ``rows``, each float written as its ``repr``."""
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(header)
    w.writerows([repr(float(c)) if isinstance(c, float) else c for c in row]
                for row in rows)
    return out.getvalue()


@dataclass(frozen=True)
class SignificantPoints:
    """Indices of product-curve local minima and of compliance drops.

    A drop index marks the first point after a relative product fall larger
    than ``DROP_THRESHOLD``, i.e. the design worth propagating leftward.
    """

    minima: tuple[int, ...]
    drops: tuple[int, ...]


def envelope(front: ParetoFront) -> ParetoFront:
    """Running minimum over increasing volume fraction (monotone front)."""
    best = np.inf
    best_prov = ""
    pts = []
    for p in front.points:
        if p.c < best:
            best = p.c
            best_prov = p.provenance
        pts.append(FrontPoint(p.vf, best, best_prov))
    return ParetoFront(tuple(pts))


def detect_significant(front: ParetoFront) -> SignificantPoints:
    """Flag significant local minima and drops of the product curve ``c * vf``.

    A local minimum of the product curve is significant when its compliance
    undercuts the next point (higher vf) by at least ``MIN_THRESHOLD``
    relative: evidence that the right neighbor converged badly. A drop is
    significant when the product falls by more than ``DROP_THRESHOLD``
    relative between consecutive points; an ideal front has a
    non-decreasing product (efficiency ratio at most 1), so any product
    drop marks a genuine topology jump rather than smooth steepness.
    """
    c = front.cs()
    v = front.vfs()
    prod = c * v
    minima = []
    for i in range(1, len(prod) - 1):
        if prod[i] < prod[i - 1] and prod[i] < prod[i + 1]:
            if (c[i + 1] - c[i]) / c[i + 1] >= MIN_THRESHOLD:
                minima.append(i)
    drops = [i + 1 for i in range(len(prod) - 1)
             if (prod[i] - prod[i + 1]) / prod[i] > DROP_THRESHOLD]
    return SignificantPoints(tuple(minima), tuple(drops))


# ---------------------------------------------------------------------------
# sweep execution

def _run_point(payload: dict) -> tuple[DesignResult | None, str | None]:
    """Worker task: one optimization.

    Failures come back as messages instead of exceptions so a sweep can
    aggregate them across workers.
    """
    problem, cfg, vf = payload["problem"], payload["cfg"], payload["vf"]
    if payload["init_kind"] is not None:
        init = initial_design(payload["init_kind"], vf, problem.grid)
    else:
        init = DensityField(payload["init_values"])
    try:
        return optimize(problem, vf, cfg, init, **payload["race"]), None
    except SolverError as exc:
        return None, str(exc)


def _init_descriptor(task: dict) -> str:
    kind = task.get("init_kind")
    if kind is None:
        return field_descriptor(task["init_values"])
    return "kind:" + kind


def census(results, tasks: int, cached: int) -> str:
    """One line on a batch: its distinct runs by how they ended."""
    runs = list(results)
    ends = [r.end for r in runs]
    increases = sum(r.descent_violations > 0 for r in runs)
    iterations = sum(r.iterations for r in runs)
    return (f"{tasks} tasks, {len(runs)} distinct, {cached} cached, "
            f"{ends.count('abandoned')} abandoned, {ends.count('capped')} capped, "
            f"{ends.count('projected')} projected, "
            f"{increases} with increases, {iterations} iterations")


def run_optimizations(problem: ProblemSpec, tasks: list[dict],
                      cfg: OptimizerConfig, cache: RunCache | None = None,
                      workers: int = 1, report=None) -> list[DesignResult]:
    """Run a batch of optimization tasks, cache-aware and order-stable.

    Each task dict carries ``vf`` plus either ``init_kind`` or
    ``init_values``. The problem's load pattern is rescaled to unit norm
    here, once (rescaling is not idempotent in floating point, so callers
    pass the problem as given); result keys hash the rescaled problem.
    Tasks that share a result key run once and share the result. Results
    come back in task order regardless of worker scheduling, so serial and
    parallel execution produce identical output.

    A task with ``bound_by`` (the index of an unbounded task in the same
    batch) races against that task's result: its bound is ``ABANDON_FACTOR``
    times the other's ``history``, so it ends ``"abandoned"`` at the first
    iteration from the third on whose penalized compliance exceeds that
    multiple of the reference's at the same iteration (see ``simp.optimize``).
    Unbounded tasks run first, then the bounded ones, in one pool, started
    once two runs are pending (a lone run before that runs in this process).
    The pool forks all its processes at once, so it has ``workers`` of them
    but no more than the CPUs. A bounded task is keyed by its descriptor plus
    the factor and its reference's result key, so an abandoned result never
    sits under a full-run key, and a warm cache, which gives the same bound,
    serves it again. A bounded task whose reference failed is skipped; the
    batch raises for the failure. ``report``, when given, receives the batch's
    :func:`census` line.
    """
    cache = cache or RunCache(None)
    problem = problem.with_unit_load()
    for task in tasks:
        j = task.get("bound_by")
        if j is not None and not (0 <= j < len(tasks) and "bound_by" not in tasks[j]):
            raise InvalidArgumentError("bound_by must index an unbounded task")
    keys: list[str | None] = [None] * len(tasks)
    found: dict[str, DesignResult | None] = {}
    cached = 0
    failures = []
    with ExitStack() as stack:
        pool = None
        for bounded in (False, True):
            pending = []
            for i, task in enumerate(tasks):
                if ("bound_by" in task) != bounded:
                    continue
                desc = _init_descriptor(task)
                if bounded:
                    ref_key = keys[task["bound_by"]]
                    ref = found[ref_key]
                    if ref is None:  # the reference failed: the batch raises
                        continue
                    bound = tuple(ABANDON_FACTOR * c for c in ref.history)
                    desc += f"|abandon_above:{ABANDON_FACTOR!r}x{ref_key}"
                key = keys[i] = result_key(problem, task["vf"], desc, cfg)
                if key in found:
                    continue
                found[key] = cache.get(key)
                if found[key] is not None:
                    cached += 1
                    continue
                pending.append({
                    "problem": problem, "cfg": cfg, "vf": task["vf"],
                    "init_kind": task.get("init_kind"),
                    "init_values": task.get("init_values"), "key": key,
                    # only a bounded task passes the bound to optimize
                    "race": {"_abandon_above": bound} if bounded else {},
                })
            if not pending:
                continue
            if workers > 1 and len(pending) > 1 and pool is None:
                pool = stack.enter_context(ProcessPoolExecutor(
                    max_workers=min(workers, os.cpu_count() or 1)))
            done = pool.map(_run_point, pending) if pool else map(_run_point, pending)
            for payload, (res, err) in zip(pending, done):
                if err is not None:
                    kind = payload["init_kind"] or "warm"
                    failures.append(f"vf={payload['vf']:.6g} init={kind}: {err}")
                    continue
                found[payload["key"]] = res
                cache.put(payload["key"], res)
    if failures:
        raise SolverError(f"{len(failures)} sweep point(s) failed: {'; '.join(failures)}")
    if report is not None:
        report(census(found.values(), len(tasks), cached))
    return [found[key] for key in keys]  # type: ignore[index]


def check_vfs(vfs) -> list[float]:
    """Volume fractions as floats: one or more, strictly increasing, in (0, 1]."""
    vfs = [float(v) for v in vfs]
    if not vfs:
        raise InvalidArgumentError("need at least one volume fraction")
    if any(b <= a for a, b in zip(vfs, vfs[1:])):
        raise InvalidArgumentError("volume fractions must be strictly increasing")
    if not all(0 < v <= 1 for v in vfs):
        raise InvalidArgumentError("volume fractions must lie in (0, 1]")
    return vfs


def default_vf_grid(count: int = 50) -> list[float]:
    """``count`` evenly spaced volume fractions from 0.02 to 1.0."""
    return [float(v) for v in np.linspace(0.02, 1.0, count)]


def start_tasks(vfs, kinds) -> list[dict]:
    """A task per volume fraction and start kind, in that order. Every task
    after its vf's first races against that first task."""
    tasks = []
    for vf in vfs:
        ref = len(tasks)
        for kind in kinds:
            task = {"vf": vf, "init_kind": kind}
            if len(tasks) > ref:
                task["bound_by"] = ref
            tasks.append(task)
    return tasks


def _sweep(problem: ProblemSpec, vf_grid, kinds, cfg: OptimizerConfig, cache, workers,
           report) -> tuple[ParetoFront, list[DesignResult]]:
    """At every vf, the first of ``kinds`` with the lowest penalization-1
    compliance among the starts that finished; the first kind always finishes."""
    vfs = check_vfs(vf_grid)
    results = run_optimizations(problem, start_tasks(vfs, kinds), cfg, cache,
                                workers, report)
    pts, winners = [], []
    for i, vf in enumerate(vfs):
        block = results[i * len(kinds):(i + 1) * len(kinds)]
        finished = [j for j, res in enumerate(block) if res.end != "abandoned"]
        best = min(finished, key=lambda j: block[j].compliance_p1)
        pts.append(FrontPoint(vf, block[best].compliance_p1, kinds[best]))
        winners.append(block[best])
    return ParetoFront(tuple(pts)), winners


def baseline_states(problem: ProblemSpec, vf_grid, cfg: OptimizerConfig,
                    cache: RunCache | None = None, workers: int = 1,
                    report=None) -> tuple[ParetoFront, list[DesignResult]]:
    """One optimization per volume fraction from the uniform start."""
    return _sweep(problem, vf_grid, ("uniform",), cfg, cache, workers, report)


def multistart_states(problem: ProblemSpec, vf_grid, cfg: OptimizerConfig,
                      cache: RunCache | None = None, workers: int = 1,
                      report=None) -> tuple[ParetoFront, list[DesignResult]]:
    """Best of the nine initial designs at every volume fraction.

    The starts race against the uniform start at the same volume fraction
    (``bound_by``, see :func:`run_optimizations`): a start whose penalized
    compliance at some iteration from the third on exceeds
    ``ABANDON_FACTOR`` times the uniform start's at the same iteration is
    abandoned.
    """
    return _sweep(problem, vf_grid, INITIAL_DESIGN_KINDS, cfg, cache, workers, report)


def refine_states(problem: ProblemSpec, front: ParetoFront, designs,
                  cfg: OptimizerConfig, cache: RunCache | None = None,
                  workers: int = 1, report=None
                  ) -> tuple[ParetoFront, list[DesignResult]]:
    """Iteratively re-optimize every point from nearby significant designs.

    Each round warm-starts every point from the nearest product-curve
    minimum to its left and the nearest compliance-drop design to its
    right (volume-rescaled), both as :func:`detect_significant` flags them
    at the fixed ``MIN_THRESHOLD`` and ``DROP_THRESHOLD``, keeping the
    pointwise best result. A warm start already run (same volume fraction,
    same seed field) is not run again: its result competed for that point
    once, and a point only improves. It runs at most ``REFINE_ROUNDS``
    rounds, and stops at a round with no new start.
    """
    states = list(designs)
    if len(states) != len(front):
        raise InvalidArgumentError("designs must align with front points")
    points = list(front.points)
    ran = set()

    for _ in range(REFINE_ROUNDS):
        cur = ParetoFront(tuple(points))
        sig = detect_significant(cur)
        tasks = []
        owners = []
        for j in range(len(points)):
            vf = points[j].vf
            left = [i for i in sig.minima if i < j]
            right = [i for i in sig.drops if i > j]
            for src in ([max(left)] if left else []) + ([min(right)] if right else []):
                seed = rescale_to_volume(states[src].densities.values, vf)
                start = (vf, field_descriptor(seed))
                if start not in ran:
                    ran.add(start)
                    tasks.append({"vf": vf, "init_values": seed})
                    owners.append((j, src))
        if not tasks:
            break
        results = run_optimizations(problem, tasks, cfg, cache, workers, report)
        for (j, src), res in zip(owners, results):
            if res.compliance_p1 < points[j].c:
                points[j] = FrontPoint(points[j].vf, res.compliance_p1,
                                       f"warm:{front.points[src].vf:.6g}")
                states[j] = res
    return ParetoFront(tuple(points)), states
