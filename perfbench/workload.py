"""One run of one topareto benchmark workload, in a fresh process.

``run.py`` starts this script; see README.md for why each workload exists.
The script generates the workload's inputs from the seed, sets up (imports,
``preset``, ``kernel_for``, ``filter_build``), then runs the workload's
phases until ``--seconds`` have passed, checks every output, and prints one
JSON object as the last line of its standard output. An untraced run
also measures every repetition in reference units (see ``Gauge``).

With ``--probe`` it stops after set-up and reports only the set-up time.
With ``--trace`` it records spans (see tracing.py) and adds per-layer
counters to its output; end-to-end times from a traced run are not reported
as such.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
OUT = HERE / "out"
DEFAULT_SEED = 0

# Half-width of the seeded shift of every vf point. OC iteration counts, and
# which start or refinement wins, jump with the vf: at +-0.002 the 8-point
# baseline's OC iterations spread 4.8% (IQR over seeds) and the pipeline's
# refined front 0.8%; at +-0.0005, 2.8% and 0.24%.
VF_JITTER = 0.0005
VF_TOL = 1e-4          # every design meets its volume fraction this closely
REF_RTOL = 1e-6        # default-seed fronts match the stored reference


def monotonic() -> float:
    """System-wide clock, comparable between the parent and this process."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Checks:
    """Output checks; each one is an attempted operation that may fail."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.last_results = []

    def check(self, name: str, ok: bool, detail="") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail() if callable(detail) else detail}")
        return ok

    def design(self, vf, res) -> bool:
        """Volume fraction within VF_TOL, compliances finite and positive."""
        ok = (abs(res.vf - vf) <= VF_TOL
              and abs(res.densities.volume_fraction - vf) <= VF_TOL
              and math.isfinite(res.compliance_p) and res.compliance_p > 0
              and math.isfinite(res.compliance_p1) and res.compliance_p1 > 0)
        return self.check("design", ok, lambda: (
            f"vf target {vf!r} got {res.vf!r}, compliance_p {res.compliance_p!r}, "
            f"compliance_p1 {res.compliance_p1!r}"))

    def hook(self):
        """Check every result that ``run_optimizations`` hands back.

        Wraps the name in both modules that look it up; the cost is a few
        comparisons per design, paid alike on every commit measured.
        """
        from topareto import materials, pareto

        for owner in (pareto, materials):
            orig = owner.run_optimizations

            def checked(problem, tasks, *args, _orig=orig, **kwargs):
                results = _orig(problem, tasks, *args, **kwargs)
                for task, res in zip(tasks, results):
                    self.design(task["vf"], res)
                self.last_results = results
                return results
            owner.run_optimizations = checked

    def front(self, label, points) -> bool:
        ok = all(math.isfinite(c) and c > 0 for _, c in points)
        return self.check(f"{label} compliances finite and positive", ok, lambda: points)

    def dominates(self, label, lower, upper) -> bool:
        """``lower`` is pointwise no worse than ``upper`` on the same vfs."""
        ok = [v for v, _ in lower] == [v for v, _ in upper] and all(
            a <= b for (_, a), (_, b) in zip(lower, upper))
        return self.check(label, ok, lambda: f"{lower} vs {upper}")


def jittered(rng: random.Random, base) -> list[float]:
    return [min(1.0, v + rng.uniform(-VF_JITTER, VF_JITTER)) for v in base]


# ---------------------------------------------------------------------------
# workloads: inputs from the seed, phases to time, fronts to check

class Workload:
    """Base: one phase, ``body``, repeated until the run's time is up."""

    grid = (60, 20)
    solver = "banded"   # the dominant factorization, mirrored by the Gauge
    gauge = None
    wall_phase = "body"
    max_iters = None    # None keeps the OptimizerConfig default

    def config(self):
        from topareto import simp
        if self.max_iters is None:
            return simp.OptimizerConfig()
        return simp.OptimizerConfig(max_iters=self.max_iters)

    def setup(self):
        """The set-up every run pays before its first timed call."""
        from topareto import fem2d, simp

        self.cfg = self.config()
        self.problem = fem2d.preset("mbb", *self.grid)
        norm = self.problem.with_unit_load()
        fem2d.kernel_for(norm)
        simp.filter_build(norm.grid, self.cfg.resolve_rmin(norm.grid))

    def prepare(self, work: Path):
        """Write input files under ``work``; not timed."""

    def phases(self):
        """(name, callable, repeated, minimum repetitions)."""
        return [("body", self.body, True, 1)]

    def after_repetition(self, phase, checks):
        """Checks between repetitions of a phase; not timed."""

    def check(self, checks):
        for label, pts in self.fronts.items():
            checks.front(label, pts)

    def extras(self, phase_times) -> dict:
        return {}


class Baseline60(Workload):
    name = "mbb60-baseline"
    logc_front = "baseline"

    def __init__(self, rng):
        self.vfs = jittered(rng, [0.02 + i * 0.98 / 7 for i in range(8)])

    def body(self):
        from topareto import pareto
        front, _ = pareto.baseline_states(self.problem, self.vfs, self.cfg)
        self.fronts = {"baseline": [(p.vf, p.c) for p in front.points]}


class Multistart30(Workload):
    name = "mbb30-multistart"
    logc_front = "multistart"
    grid = (30, 10)
    solver = "dense"
    # every start is still moving at 10 iterations (the fastest converges
    # at 35), so each seed does exactly 110 OC iterations
    max_iters = 10

    def __init__(self, rng):
        self.vf = 0.3 + rng.uniform(-VF_JITTER, VF_JITTER)

    def body(self):
        from topareto import pareto
        front, _ = pareto.multistart_states(self.problem, [self.vf], self.cfg)
        self.fronts = {"multistart": [(p.vf, p.c) for p in front.points]}
        self.uniform = [(self.vf, self.checks.last_results[0].compliance_p1)]

    def check(self, checks):
        super().check(checks)
        checks.dominates("multistart <= uniform start", self.fronts["multistart"],
                         self.uniform)


class Optimize120(Workload):
    name = "mbb120-optimize"
    logc_front = "optimize"
    grid = (120, 40)
    # an iteration budget that neither start converges within keeps the
    # solver work the same for every seed
    max_iters = 30

    def __init__(self, rng):
        self.vfs = jittered(rng, [0.2, 0.5])

    def body(self):
        from topareto import simp
        norm = self.problem.with_unit_load()
        self.results = [simp.optimize(norm, vf, self.cfg) for vf in self.vfs]
        self.fronts = {"optimize": [(vf, r.compliance_p1)
                                    for vf, r in zip(self.vfs, self.results)]}

    def check(self, checks):
        super().check(checks)
        for vf, res in zip(self.vfs, self.results):
            checks.design(vf, res)


TABLE1 = (("Aluminum alloy (7475)", 70.8, 2795.0),
          ("Stainless steel (AISI 347)", 197.0, 7915.0),
          ("Titanium alloy (Ti-6Al-4V)", 116.0, 4400.0),
          ("Inconel 713", 205.0, 7900.0))
# alloys that pass both screens on Table 1; each gets a seeded second lot
TWINNED = ("Titanium alloy (Ti-6Al-4V)", "Inconel 713")
LOAD_ARGS = ["--force", "20e3", "--delta-max", "5e-3", "--thickness", "5e-3",
             "--length", "2.0", "--height", "0.5"]


def material_table(rng: random.Random) -> str:
    """Table 1 with moduli shifted by up to 0.5%, plus one second lot of each
    alloy that survives screening.

    A second lot is stiffer and denser than its parent by the same small
    factor (0.05% to 0.15%), with its density raised by a further 1e-4 so the
    parent keeps the lowest rho/E. Its index then lies within the default
    2% tie tolerance of its parent's, so ``select`` re-scores a near-tie
    whichever alloy ranks first. The shifts keep Table 1's screening order.
    """
    rows = ["name,E_GPa,rho_kgm3"]
    for name, e_gpa, rho in TABLE1:
        e_gpa *= 1.0 + rng.uniform(-0.005, 0.005)
        rows.append(f"{name},{e_gpa!r},{rho!r}")
        if name in TWINNED:
            k = 1.0 + rng.uniform(0.0005, 0.0015)
            rows.append(f"{name} lot B,{e_gpa * k!r},{rho * k * (1.0 + 1e-4)!r}")
    return "\n".join(rows) + "\n"


class Pipeline60(Workload):
    """The six CLI stages on a fresh cache, then again on the warm cache.

    The timed cold pass runs serially and repeats, each time on a new cache;
    its time is the median over the passes. Then one cold pass runs with
    the process pool on a new cache, and the warm passes read that cache
    with the same number of workers. Every pass must write the same bytes
    as the first.
    """

    name = "mbb60-pipeline"
    logc_front = "refine"
    wall_phase = "cold"
    # four vf points at the low end, eleven starts each, cost about 30 s per
    # pass at the default 300 iterations on two workers; 40 fits a run
    max_iters = 40
    stages = ("baseline", "multistart", "refine", "er", "fit", "select")

    def __init__(self, rng):
        self.vfs = jittered(rng, [0.16, 0.18, 0.20, 0.22])
        self.anchor_vf = 0.3 + rng.uniform(-VF_JITTER, VF_JITTER)
        self.materials = material_table(rng)
        self.workers = min(2, len(os.sched_getaffinity(0)))

    def setup(self):
        import topareto.cli  # noqa: F401  (the stages run through it)
        super().setup()

    def prepare(self, work: Path):
        """Write the generated inputs; not timed."""
        self.work = work
        work.mkdir()
        (work / "config.json").write_text(json.dumps(
            {"sweep": {"points": self.vfs}, "anchor_vf": self.anchor_vf,
             "optimizer": {"max_iters": self.max_iters}}))
        (work / "materials.csv").write_text(self.materials)
        self.stage_times = {}
        self.exit_codes = []
        self.cold_passes = self.warm_passes = 0

    def argv(self, stage, out: Path, workers: int):
        common = ["--preset", "mbb", "--out", str(out),
                  "--cache", str(self.cache), "--workers", str(workers)]
        sub = {
            "baseline": ["pareto", *common, "--strategy", "baseline"],
            "multistart": ["pareto", *common, "--strategy", "multistart"],
            "refine": ["pareto", *common, "--strategy", "refine"],
            "er": ["er", *common, "--front", str(out / "front_refine.csv")],
            "fit": ["fit", *common],
            "select": ["select", *common, "--materials",
                       str(self.work / "materials.csv"), *LOAD_ARGS],
        }[stage]
        return ["--config", str(self.work / "config.json"), *sub]

    def run_stages(self, out: Path, times: dict | None, workers: int):
        from topareto import cli

        for stage in self.stages:
            argv = self.argv(stage, out, workers)
            paused = self.gauge.paused if self.gauge else 0.0
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if times is not None:
                dt = time.perf_counter() - t0
                if self.gauge:
                    dt -= self.gauge.paused - paused
                times.setdefault(stage, []).append(dt)
            self.exit_codes.append((stage, code))

    def cold(self, workers=1, times=None):
        out = self.work / f"cold{self.cold_passes}"
        self.cache = self.work / f"cache{self.cold_passes}"
        self.cold_passes += 1
        self.run_stages(out, self.stage_times if times is None else times, workers)
        self.cold_out = out

    def parallel(self):
        self.cold(self.workers, {})

    def warm(self):
        out = self.work / f"warm{self.warm_passes}"
        self.warm_passes += 1
        self.run_stages(out, None, self.workers)
        self.warm_out = out

    def after_repetition(self, phase, checks):
        """Compare every later pass with the first cold pass, then remove it."""
        first = self.work / "cold0"
        later = self.warm_out if phase == "warm" else self.cold_out
        if later == first:
            return
        names = sorted(p.name for p in first.iterdir())
        same = names == sorted(p.name for p in later.iterdir()) and all(
            (first / n).read_bytes() == (later / n).read_bytes() for n in names)
        checks.check(f"{phase} artifacts byte-identical to the first cold pass",
                     same, lambda: f"{later} differs from {first}")
        shutil.rmtree(later)

    def phases(self):
        return [("cold", self.cold, True, 2), ("parallel", self.parallel, False, 1),
                ("warm", self.warm, True, 3)]

    def read_front(self, label):
        from topareto import pareto
        text = (self.work / "cold0" / f"front_{label}.csv").read_text()
        return [(p.vf, p.c) for p in pareto.ParetoFront.from_csv(text).points]

    def check(self, checks):
        for stage, code in self.exit_codes:
            checks.check(f"exit code of {stage}", code == 0, code)
        self.fronts = {label: self.read_front(label)
                       for label in ("baseline", "multistart", "refine")}
        super().check(checks)
        checks.dominates("multistart <= baseline", self.fronts["multistart"],
                         self.fronts["baseline"])
        checks.dominates("refine <= multistart", self.fronts["refine"],
                         self.fronts["multistart"])
        report = json.loads((self.work / "cold0" / "selection.json").read_text())
        checks.check("select re-scored a near-tie", bool(report["near_ties"]),
                     report["trail"])

    def extras(self, phase_times):
        out = {f"stage.{s}_s": statistics.median(self.stage_times[s])
               for s in ("baseline", "multistart", "refine", "fit")}
        out["parallel_s"] = phase_times["parallel"][0]
        out["warm_s"] = statistics.median(phase_times["warm"])
        return out


WORKLOADS = {w.name: w for w in (Baseline60, Multistart30, Optimize120, Pipeline60)}


# ---------------------------------------------------------------------------
# the run

class Gauge:
    """Measures a timed phase both in seconds and in reference units.

    The host's speed changes within tenths of a second, by up to half, and
    the share of slow time differs from one run to the next, so raw
    seconds spread widely between runs of the same code. While a phase
    runs, a timer interrupts it every ``interval`` seconds and times a
    fixed reference computation, in the CPU time of this thread, so that
    pool workers sharing the CPUs do not inflate it. Each slice of the
    phase between two interrupts is divided by the mean of the reference
    times measured at its two ends; the phase's relative time is the sum.
    The time spent in the interrupts is left out of both figures.

    Kinds of work slow down by different amounts (a large dense Cholesky
    less than a banded one, memory-bound scatters least), so the reference
    mirrors one analysis step of the workload's grid on random element
    matrices: scatter assembly, a Cholesky factorization and solve in the
    workload's dominant storage (dense, or banded with the grid's
    bandwidth), element energies, and a short Python loop. Its inputs are
    fixed here and never drawn from the seed; it calls no topareto code.
    Pool workers do not inherit the timer, so only a serial phase is
    measured well this way.
    """

    INTERVAL = 0.1      # at least; 12 reference times when that is longer

    def __init__(self, grid, solver: str):
        import numpy as np
        import scipy.linalg
        self.la, self.np = scipy.linalg, np
        nelx, nely = grid
        self.ndof = ndof = 2 * (nelx + 1) * (nely + 1)
        ex, ey = np.divmod(np.arange(nelx * nely), nely)
        n1 = (nely + 1) * ex + ey
        n2 = n1 + nely + 1
        self.edof = np.stack([2 * n1, 2 * n1 + 1, 2 * n2, 2 * n2 + 1,
                              2 * n2 + 2, 2 * n2 + 3, 2 * n1 + 2, 2 * n1 + 3], axis=1)
        rng = np.random.default_rng(0)
        m = rng.random((8, 8))
        self.ke = m @ m.T + 8.0 * np.eye(8)
        self.emod = 0.1 + rng.random(nelx * nely)
        self.rhs = rng.random(ndof)
        self.vec = rng.random(1500).tolist()
        i = np.repeat(self.edof, 8, axis=1).ravel()
        j = np.tile(self.edof, (1, 8)).ravel()
        self.solver = solver
        if solver == "dense":
            self.flat = i * ndof + j
            self.keep = slice(None)
            self.shape = (ndof, ndof)
        else:
            keep = i >= j
            self.bw = int((i - j).max())
            self.flat = ((i - j) * ndof + j)[keep]
            self.keep = keep.reshape(nelx * nely, 64)
            self.shape = (self.bw + 1, ndof)
        self.samples: list[float] = []
        for _ in range(3):
            self.once()
        self.interval = max(self.INTERVAL, 12 * statistics.median(
            self.reference() for _ in range(5)))
        self.samples.clear()
        self.paused = 0.0   # seconds spent in interrupts, all phases together

    def once(self) -> float:
        la, np = self.la, self.np
        vals = (self.emod[:, None] * self.ke.ravel()[None, :])[self.keep]
        k = np.bincount(self.flat, weights=vals.ravel(),
                        minlength=self.shape[0] * self.shape[1]).reshape(self.shape)
        if self.solver == "dense":
            u = la.cho_solve(la.cho_factor(k, lower=True), self.rhs)
        else:
            u = la.cho_solve_banded((la.cholesky_banded(k, lower=True), True), self.rhs)
        ue = u[self.edof]
        energy = np.einsum("ij,jk,ik->i", ue, self.ke, ue)
        acc = 0.0
        for v in self.vec:
            acc += v * v if v > 0.5 else -v
        return acc + float(energy[0])

    def reference(self) -> float:
        t0 = time.thread_time()
        self.once()
        ref = time.thread_time() - t0
        self.samples.append(ref)
        return ref

    def _slice(self) -> None:
        """Close the slice that ends now and time the reference."""
        end = time.perf_counter()
        ref = self.reference()
        self.seconds += end - self.mark
        self.relative += (end - self.mark) / ((self.ref + ref) / 2.0)
        self.ref = ref
        self.mark = time.perf_counter()
        self.paused += self.mark - end

    def _interrupt(self, _signum, _frame) -> None:
        self._slice()
        signal.setitimer(signal.ITIMER_REAL, self.interval)

    def measure(self, fn) -> tuple[float, float]:
        """Run ``fn``; return its time in seconds and in reference units."""
        self.seconds = self.relative = 0.0
        self.ref = self.reference()
        previous = signal.signal(signal.SIGALRM, self._interrupt)
        self.mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval)
        try:
            fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self._slice()
        return self.seconds, self.relative


def run_phases(wl, seconds, tracer, checks, gauge):
    """Time every phase; a repeated phase runs until the deadline.

    With a gauge (untraced runs) every repetition also gets its relative
    time. Returns the repetition times, the relative times and the span
    index range of every repetition, per phase.
    """
    deadline = time.perf_counter() + seconds
    times, rel, ranges = {}, {}, {}
    for name, fn, repeated, min_reps in wl.phases():
        times[name], rel[name], ranges[name] = [], [], []
        while True:
            lo = len(tracer.spans) if tracer else 0
            if gauge:
                dt, dr = gauge.measure(fn)
                rel[name].append(dr)
            else:
                t0 = time.perf_counter()
                fn()
                dt = time.perf_counter() - t0
            times[name].append(dt)
            ranges[name].append((lo, len(tracer.spans) if tracer else 0))
            wl.after_repetition(name, checks)
            if not repeated or (len(times[name]) >= min_reps
                                and time.perf_counter() + dt > deadline):
                break
    return times, rel, ranges


def per_layer(tracer, setup_end, ranges, checks):
    """Set-up once plus one repetition of each phase (mean over repetitions)."""
    from tracing import EXACT_COUNTS, layer_metrics, raw_counters

    total = raw_counters(tracer.spans, 0, setup_end)
    for name, reps in ranges.items():
        raws = [raw_counters(tracer.spans, lo, hi) for lo, hi in reps]
        for key in EXACT_COUNTS:
            values = {r[key] for r in raws}
            checks.check(f"{key} repeats in every {name} repetition",
                         len(values) == 1, sorted(values))
        for key in total:
            total[key] += sum(r[key] for r in raws) / len(raws)
    exact = {k: total[k] for k in EXACT_COUNTS}
    return layer_metrics(total), exact


def check_reference(wl, seed, checks):
    ref = json.loads(REFERENCE.read_text()).get(wl.name, {})
    if seed != ref.get("seed"):
        return
    for label, expected in ref["fronts"].items():
        got = wl.fronts.get(label, [])
        ok = len(got) == len(expected) and all(
            v == ev and abs(c - ec) <= REF_RTOL * ec
            for (v, c), (ev, ec) in zip(got, expected))
        checks.check(f"{label} front matches the seed-{seed} reference", ok,
                     lambda: f"{got} vs {expected}")


def write_reference(wl, seed):
    doc = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    doc[wl.name] = {"seed": seed, "fronts": wl.fronts}
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true", help="set up, report, exit")
    p.add_argument("--spawned-at", type=float, default=None,
                   help="CLOCK_MONOTONIC reading taken when this process was started")
    p.add_argument("--write-reference", action="store_true",
                   help="store this run's fronts as the reference for its seed")
    a = p.parse_args(argv)
    spawned = a.spawned_at if a.spawned_at is not None else monotonic()

    wl = WORKLOADS[a.workload](random.Random(a.seed))
    checks = Checks()
    wl.checks = checks
    import numpy
    import scipy
    import topareto  # noqa: F401
    tracer = None
    if a.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    checks.hook()
    wl.setup()
    setup_s = monotonic() - spawned
    if a.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    out = {"workload": wl.name, "seed": a.seed, "trace": a.trace,
           "setup_s": setup_s, "python": platform.python_version(),
           "numpy": numpy.__version__, "scipy": scipy.__version__}
    setup_end = len(tracer.spans) if tracer else 0
    gauge = wl.gauge = None if tracer else Gauge(wl.grid, wl.solver)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    try:
        wl.prepare(work)
        times, rel, ranges = run_phases(wl, a.seconds, tracer, checks, gauge)
        wl.check(checks)
        pts = wl.fronts[wl.logc_front]
        out["wall_s"] = statistics.median(times[wl.wall_phase])
        if gauge:
            out["wall_ref"] = statistics.median(rel[wl.wall_phase])
            out["ref_s"] = statistics.median(gauge.samples)
        out["front_logc"] = sum(math.log(c) for _, c in pts) / len(pts)
        out["phase_times"] = times
        out["phase_rel"] = rel
        out.update(wl.extras(times))
        if a.write_reference:
            write_reference(wl, a.seed)
        check_reference(wl, a.seed, checks)
        if tracer:
            out["per_layer"], out["exact_counts"] = per_layer(
                tracer, setup_end, ranges, checks)
            spans_path = OUT / f"spans-{wl.name}-seed{a.seed}.jsonl"
            tracer.write(spans_path)
            out["spans"] = str(spans_path)
    except Exception:  # the run must still report what failed
        checks.check("workload completed", False, traceback.format_exc())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out["peak_rss_mb"] = max(self_kb, child_kb) / 1024.0
    out["attempted"] = checks.attempted
    out["failures"] = checks.failures
    print(json.dumps(out))
    return 0 if not checks.failures else 1


if __name__ == "__main__":
    sys.exit(main())
