"""Front construction: sweeps, significant points, refine, envelope; and the
efficiency ratio's smoothing, ``er.smooth``."""

import contextlib
import types

import numpy as np
import pytest

from topareto import er
from topareto import pareto as par
from topareto.cache import RunCache, field_descriptor, result_key
from topareto.er import smooth
from topareto.errors import InvalidArgumentError
from topareto.fem2d import DensityField, ProblemSpec, preset
from topareto.pareto import (DROP_THRESHOLD, MIN_THRESHOLD, FrontPoint,
                             ParetoFront, SignificantPoints, baseline_states,
                             default_vf_grid, detect_significant, envelope,
                             multistart_states, refine_states)
from topareto.simp import (INITIAL_DESIGN_KINDS, DesignResult, OptimizerConfig,
                           initial_design, optimize, rescale_to_volume)


def synth_front(vfs, fn, tag="synthetic"):
    return ParetoFront(tuple(FrontPoint(float(v), float(fn(v)), tag)
                             for v in vfs))


class TestParetoFront:
    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            ParetoFront((FrontPoint(0.5, 1.0), FrontPoint(0.5, 2.0)))
        with pytest.raises(InvalidArgumentError):
            ParetoFront((FrontPoint(0.2, -1.0),))
        with pytest.raises(InvalidArgumentError):
            ParetoFront((FrontPoint(0.0, 1.0),))
        with pytest.raises(InvalidArgumentError):
            ParetoFront(tuple())
        for bad in ((0.5, float("nan")), (float("nan"), 1.0),
                    (0.5, float("inf"))):
            with pytest.raises(InvalidArgumentError):
                ParetoFront((FrontPoint(0.2, 3.0), FrontPoint(*bad),
                             FrontPoint(1.0, 1.0)))

    def test_csv_round_trip(self):
        front = synth_front(np.linspace(0.1, 1, 9), lambda v: 2.0 / v + 0.3 * v)
        back = ParetoFront.from_csv(front.to_csv())
        assert back == front

    def test_read_table_rows_and_lines(self):
        text = "vf, c ,provenance\n0.1,2,a\n\n , ,\n0.3,1,\"b,c\"\n"
        assert list(par.read_table(text, par.FRONT_HEADER)) == [
            (2, ["0.1", "2", "a"]), (5, ["0.3", "1", "b,c"])]
        assert list(par.read_table(" \n", par.FRONT_HEADER)) == []
        for text, line in (("vf,c\n", 1), ("vf,c,provenance\n0.1,2\n", 2),
                           ("vf,c,provenance\n0.1,2,a\n\n0.2,1,a,b\n", 4)):
            with pytest.raises(InvalidArgumentError) as exc:
                list(par.read_table(text, par.FRONT_HEADER))
            assert exc.value.line == line

    def test_write_table_floats_as_repr(self):
        text = par.write_table(("a", "b", "c"), [(np.float64(0.1), 1 / 3, "x,y")])
        assert text == 'a,b,c\n0.1,0.3333333333333333,"x,y"\n'

    def test_csv_parse_errors(self):
        with pytest.raises(InvalidArgumentError):
            ParetoFront.from_csv("nope\n1,2,3\n")
        with pytest.raises(InvalidArgumentError) as exc:
            ParetoFront.from_csv("vf,c,provenance\n0.1,zzz,tag\n")
        assert exc.value.line == 2
        with pytest.raises(InvalidArgumentError):
            ParetoFront.from_csv("vf,c,provenance\n")
        with pytest.raises(InvalidArgumentError) as exc:
            ParetoFront.from_csv("vf,c,provenance\n0.1,2,a\n0.2,nan,b\n")
        assert exc.value.line == 3


class TestEnvelope:
    def test_decreasing_front_unchanged(self):
        front = synth_front(np.linspace(0.1, 1, 12), lambda v: 3.0 / v)
        assert envelope(front).cs() == pytest.approx(front.cs())

    def test_running_minimum(self):
        front = ParetoFront((FrontPoint(0.1, 5.0), FrontPoint(0.2, 6.0),
                             FrontPoint(0.3, 4.0)))
        env = envelope(front)
        assert list(env.cs()) == [5.0, 5.0, 4.0]

    def test_random_front_nonincreasing_and_below(self):
        rng = np.random.default_rng(5)
        vfs = np.linspace(0.05, 1, 40)
        cs = 1.0 + rng.random(40) * 5
        front = ParetoFront(tuple(FrontPoint(v, c) for v, c in zip(vfs, cs)))
        env = envelope(front)
        assert np.all(np.diff(env.cs()) <= 0)
        assert np.all(env.cs() <= front.cs())


class TestSmooth:
    def test_constant_series_unchanged(self):
        vf = np.linspace(0.02, 1, 50)
        y = np.full(50, 3.3)
        assert smooth(vf, y) == pytest.approx(y)

    def test_linear_series_interior_unchanged(self):
        vf = np.linspace(0.0, 1, 51)
        y = 2.0 * vf + 1.0
        out = smooth(vf, y)
        inner = slice(8, -8)
        assert out[inner] == pytest.approx(y[inner], abs=1e-9)

    def test_noise_variance_reduced(self):
        rng = np.random.default_rng(42)
        vf = np.linspace(0.02, 1, 200)
        y = rng.standard_normal(200)
        out = smooth(vf, y)
        assert np.var(out) < np.var(y)

    def test_constants(self):
        # the efficiency ratio's smoothing width and refine's most rounds
        assert (er.SIGMA, par.REFINE_ROUNDS) == (0.04, 3)

    def test_truncation_at_three_sigma(self):
        vf = np.array([0.0, 0.5, 1.0])
        y = np.array([100.0, 1.0, 1.0])
        out = smooth(vf, y)
        # neighbors are >3 sigma away: pure identity
        assert out == pytest.approx(y)


class TestDetectSignificant:
    def test_smooth_monotone_front_clean(self):
        # the product 2 * (1 + v^2) rises at every step: no drop, no minimum
        front = synth_front(np.linspace(0.05, 1, 30), lambda v: 2 * (1 / v + v))
        sig = detect_significant(front)
        assert sig.minima == tuple()
        assert sig.drops == tuple()

    def test_injected_product_dip_flagged(self):
        # a dip at i is significant only when it also undercuts the point to
        # its right: model a badly converged neighbor at i+1
        vfs = np.linspace(0.1, 1.0, 19)
        cs = 2.0 / vfs
        dip = 9
        cs[dip] *= 0.997
        cs[dip + 1] *= 1.10
        front = ParetoFront(tuple(FrontPoint(v, c) for v, c in zip(vfs, cs)))
        undercut = 1 - cs[dip] / cs[dip + 1]
        assert MIN_THRESHOLD < undercut < 10 * MIN_THRESHOLD
        sig = detect_significant(front)
        assert sig.minima == (dip,)

    def test_dip_without_undercut_not_flagged(self):
        # on a strictly decreasing front a small product dip never beats the
        # next compliance, so nothing is significant
        vfs = np.linspace(0.1, 1.0, 19)
        cs = 2.0 / vfs
        cs[9] *= 0.99
        front = ParetoFront(tuple(FrontPoint(v, c) for v, c in zip(vfs, cs)))
        sig = detect_significant(front)
        assert sig.minima == tuple()
        assert sig.drops == tuple()  # the 1 percent product dip is no drop either

    def test_step_drop_flagged(self):
        # 10 percent step in the product curve: flagged at the point after
        # the fall, the design worth propagating to lower volume fractions
        vfs = np.linspace(0.5, 0.95, 10)
        prod = 2.0 + 0.01 * np.arange(10)
        prod[6:] -= 0.2
        cs = prod / vfs
        front = ParetoFront(tuple(FrontPoint(v, c) for v, c in zip(vfs, cs)))
        sig = detect_significant(front)
        assert sig.drops == (6,)

    def test_shallow_minimum_not_significant(self):
        vfs = np.linspace(0.1, 1.0, 19)
        cs = 2.0 / vfs
        cs[9] *= 0.9995  # 0.05 percent dip, below the 0.2 percent bar
        front = ParetoFront(tuple(FrontPoint(v, c) for v, c in zip(vfs, cs)))
        sig = detect_significant(front)
        assert sig.minima == tuple()

    def test_undercut_of_exactly_min_threshold_flagged(self):
        # the product 500, 499, 1000 has its minimum at 1, and 998 undercuts
        # 1000 by 2/1000: the threshold itself, which the >= rule flags
        vfs = [0.25, 0.5, 1.0]
        assert (1000.0 - 998.0) / 1000.0 == MIN_THRESHOLD
        for c_mid, minima in ((998.0, (1,)), (998.001, ())):
            front = ParetoFront(tuple(map(FrontPoint, vfs, [2000.0, c_mid, 1000.0])))
            assert detect_significant(front).minima == minima

    def test_drop_of_exactly_drop_threshold_not_flagged(self):
        # the product falls from 40 to 39 by 1/40: the threshold itself,
        # which the > rule does not flag
        assert (40.0 - 39.0) / 40.0 == DROP_THRESHOLD
        for c_right, drops in ((39.0, ()), (38.999, (1,))):
            front = ParetoFront((FrontPoint(0.5, 80.0), FrontPoint(1.0, c_right)))
            assert detect_significant(front).drops == drops


class TestSweeps:
    def test_single_full_density_point(self, tiny_mbb, cfg):
        front, _ = baseline_states(tiny_mbb, [1.0], cfg)
        import reference_impls as ref
        c_full, _ = ref.fem_compliance(8, 4, np.ones(tiny_mbb.grid.nel), 1.0,
                                       tiny_mbb.loads, tiny_mbb.fixed_dofs)
        assert front.points[0].c == pytest.approx(c_full, rel=1e-8)

    def test_determinism(self, tiny_mbb, cfg):
        grid = [0.3, 0.6, 1.0]
        a, _ = baseline_states(tiny_mbb, grid, cfg)
        b, _ = baseline_states(tiny_mbb, grid, cfg)
        assert a == b

    def test_multistart_dominates_baseline(self, tiny_mbb, cfg, tmp_path):
        cache = RunCache(tmp_path)
        grid = [0.2, 0.5, 1.0]
        base, _ = baseline_states(tiny_mbb, grid, cfg, cache)
        multi, _ = multistart_states(tiny_mbb, grid, cfg, cache)
        assert np.all(multi.cs() <= base.cs() + 1e-12)
        assert multi.points[-1].c == pytest.approx(base.points[-1].c, rel=1e-12)

    def test_load_normalized_exactly_once(self, tiny_mbb, cfg):
        # loads (+1, -1) rescale to norm 0.9999999999999999, so rescaling
        # twice changes the loads: only one rescale matches the direct run
        g = tiny_mbb.grid
        p = ProblemSpec(g, ((2 * g.node_id(0, 0) + 1, 1.0),
                            (2 * g.node_id(4, 0) + 1, -1.0)),
                        tiny_mbb.fixed_dofs, name="two-load")
        once = p.with_unit_load()
        assert once.with_unit_load().loads != once.loads
        direct = optimize(once, 0.4, cfg, initial_design("uniform", 0.4, g))
        _, (swept,) = baseline_states(p, [0.4], cfg)
        (batch,) = par.run_optimizations(p, [{"vf": 0.4, "init_kind": "uniform"}],
                                         cfg)
        for res in (swept, batch):
            assert np.array_equal(res.densities.values, direct.densities.values)
            assert (res.compliance_p, res.compliance_p1, res.iterations) == \
                (direct.compliance_p, direct.compliance_p1, direct.iterations)

    def test_invalid_grid_rejected(self, tiny_mbb, cfg, monkeypatch):
        # before anything runs; a NaN inside the grid fails too
        monkeypatch.setattr(par, "run_optimizations",
                            lambda *a, **k: pytest.fail("optimization ran"))
        for grid in ([0.5, 0.4], [], [0.5, 1.2], [0.1, float("nan"), 0.5]):
            for sweep in (baseline_states, par.multistart_states):
                with pytest.raises(InvalidArgumentError):
                    sweep(tiny_mbb, grid, cfg)

    def test_cache_reuse_between_sweeps(self, tiny_mbb, cfg, tmp_path):
        cache = RunCache(tmp_path)
        grid = [0.4, 1.0]
        baseline_states(tiny_mbb, grid, cfg, cache)
        import topareto.pareto as par_mod
        calls = []
        orig = par_mod.optimize

        def spy(problem, vf, cfg_, init=None, **bound):
            calls.append(vf)
            return orig(problem, vf, cfg_, init, **bound)

        par_mod.optimize = spy
        try:
            multi, _ = multistart_states(tiny_mbb, grid, cfg, cache)
        finally:
            par_mod.optimize = orig
        # uniform runs must come from the cache: 2 points x 8 other kinds
        assert len(calls) == 16

    @pytest.mark.parametrize("workers", [1, 2])
    def test_duplicate_tasks_run_once(self, tiny_mbb, tmp_path, monkeypatch,
                                      workers):
        # a file counts calls made in pool workers too
        log = tmp_path / "calls"
        log.touch()
        orig = par.optimize

        def spy(problem, vf, cfg_, init=None):
            with open(log, "a") as fh:
                fh.write(f"{vf}\n")
            return orig(problem, vf, cfg_, init)

        monkeypatch.setattr(par, "optimize", spy)
        cfg = OptimizerConfig(max_iters=5)
        task = {"vf": 0.5, "init_kind": "vstripes2"}
        results = par.run_optimizations(tiny_mbb, [task, dict(task)], cfg,
                                        workers=workers)
        assert log.read_text().splitlines() == ["0.5"]
        assert results[0] is results[1]

    def test_pool_starts_once_two_runs_are_pending(self, tiny_mbb, monkeypatch):
        cfg = OptimizerConfig(max_iters=5)
        pools = []
        real = par.ProcessPoolExecutor

        def counted(max_workers):
            pools.append(max_workers)
            return real(max_workers=max_workers)

        monkeypatch.setattr(par, "ProcessPoolExecutor", counted)
        monkeypatch.setattr(par.os, "cpu_count", lambda: 2)
        task = {"vf": 0.5, "init_kind": "uniform"}
        alone = par.run_optimizations(tiny_mbb, [task], cfg, workers=2)[0]
        assert pools == []  # one pending run runs in this process
        assert alone.summary() == par.run_optimizations(tiny_mbb, [task], cfg)[0].summary()
        # the uniform reference runs here, the eight raced starts in one pool
        front, _ = multistart_states(tiny_mbb, [0.5], cfg, workers=2)
        assert pools == [2]
        assert front.to_csv() == multistart_states(tiny_mbb, [0.5], cfg)[0].to_csv()

    @pytest.mark.parametrize("cpus, workers, want", [(2, 64, 2), (4, 3, 3), (None, 8, 1)])
    def test_pool_capped_at_the_cpus(self, tiny_mbb, monkeypatch, cpus, workers, want):
        # a fake pool that maps serially: a real one forks all its workers
        pools = []

        def serial(max_workers):
            pools.append(max_workers)
            return contextlib.nullcontext(types.SimpleNamespace(map=map))

        monkeypatch.setattr(par, "ProcessPoolExecutor", serial)
        monkeypatch.setattr(par.os, "cpu_count", lambda: cpus)
        cfg = OptimizerConfig(max_iters=5)
        front, _ = multistart_states(tiny_mbb, [0.5], cfg, workers=workers)
        assert pools == [want]
        assert front.to_csv() == multistart_states(tiny_mbb, [0.5], cfg)[0].to_csv()

    def test_parallel_equals_serial(self, tiny_mbb, cfg, tmp_path):
        grid = [0.3, 0.7, 1.0]
        serial, _ = multistart_states(tiny_mbb, grid, cfg, RunCache(tmp_path / "a"))
        parallel, _ = multistart_states(tiny_mbb, grid, cfg,
                                        RunCache(tmp_path / "b"), workers=2)
        assert serial.to_csv() == parallel.to_csv()


def _exhaustive(problem, vf, cfg):
    """All nine starts run in full; the first lowest in kind order wins."""
    norm = problem.with_unit_load()
    runs = [optimize(norm, vf, cfg, initial_design(kind, vf, problem.grid))
            for kind in INITIAL_DESIGN_KINDS]
    best = min(range(len(runs)), key=lambda j: runs[j].compliance_p1)
    return INITIAL_DESIGN_KINDS[best], runs[best]


class TestRace:
    """Multi-start starts abandoned against the uniform start's compliance."""

    def test_every_start_distinct_and_raced_against_uniform(self, tiny_mbb, cfg):
        tasks = par.start_tasks([0.2, 0.5], INITIAL_DESIGN_KINDS)
        assert len(tasks) == 2 * len(INITIAL_DESIGN_KINDS)
        for vf in (0.2, 0.5):
            block = [i for i, t in enumerate(tasks) if t["vf"] == vf]
            (ref,) = [i for i in block if tasks[i]["init_kind"] == "uniform"]
            assert ref == block[0] and "bound_by" not in tasks[ref]
            assert all(tasks[i]["bound_by"] == ref for i in block[1:])
        norm = tiny_mbb.with_unit_load()
        keys = [result_key(norm, t["vf"], par._init_descriptor(t), cfg) for t in tasks]
        assert len(set(keys)) == len(keys)

    @pytest.mark.parametrize("max_iters", [10, 40])
    def test_equals_exhaustive_minimum(self, small_mbb, max_iters):
        cfg = OptimizerConfig(max_iters=max_iters)
        lines = []
        front, (winner,) = multistart_states(small_mbb, [0.3], cfg,
                                             report=lines.append)
        kind, best = _exhaustive(small_mbb, 0.3, cfg)
        assert front.points == (FrontPoint(0.3, best.compliance_p1, kind),)
        assert np.array_equal(winner.densities.values, best.densities.values)
        # the race did stop some starts: vstripes2, vstripes4, diag_sum and
        # ring at iteration 3, and with 40 iterations diag_diff at 23
        abandoned = {10: 4, 40: 5}[max_iters]
        assert f", {abandoned} abandoned," in lines[0]

    def test_abandoned_start_never_wins(self, tiny_mbb, cfg, monkeypatch):
        # an abandoned start with the lowest compliance, and a tie between
        # two finished ones that the first in kind order (diag_diff before
        # ring) wins
        def fake(problem, tasks, cfg_, *args, **kwargs):
            out = []
            for task in tasks:
                c = {"vstripes2": 1.0, "diag_diff": 3.0, "ring": 3.0}.get(
                    task["init_kind"], 5.0)
                iters = 5 if task["init_kind"] == "vstripes2" else cfg_.max_iters
                out.append(DesignResult(DensityField(np.full(32, 0.5)), c, c,
                                        False, (c,) * iters))
            return out

        monkeypatch.setattr(par, "run_optimizations", fake)
        front, _ = multistart_states(tiny_mbb, [0.5], cfg)
        assert front.points[0].provenance == "diag_diff"

    def test_abandoned_result_only_under_its_bounded_key(self, small_mbb,
                                                          tmp_path,
                                                          monkeypatch):
        # a factor of 1 abandons every start above the uniform final value
        monkeypatch.setattr(par, "ABANDON_FACTOR", 1.0)
        cfg = OptimizerConfig(max_iters=40)
        cache = RunCache(tmp_path)
        tasks = [{"vf": 0.3, "init_kind": kind} for kind in INITIAL_DESIGN_KINDS]
        for task in tasks[1:]:
            task["bound_by"] = 0
        results = par.run_optimizations(small_mbb, tasks, cfg, cache)
        stopped = [t["init_kind"] for t, r in zip(tasks, results)
                   if par.abandoned(r, cfg)]
        assert len(stopped) >= 5 and "uniform" not in stopped
        front, _ = multistart_states(small_mbb, [0.3], cfg, cache)
        assert front.points[0].provenance not in stopped
        norm = small_mbb.with_unit_load()
        ref_key = result_key(norm, 0.3, "kind:uniform", cfg)
        for kind in stopped:
            full = result_key(norm, 0.3, f"kind:{kind}", cfg)
            raced = result_key(norm, 0.3,
                               f"kind:{kind}|abandon_above:1.0x{ref_key}", cfg)
            assert cache.get(full) is None
            assert par.abandoned(cache.get(raced), cfg)

    def test_abandoned_at_first_iteration_above_factor_times_reference(
            self, small_mbb, monkeypatch):
        monkeypatch.setattr(par, "ABANDON_FACTOR", 1.5)
        cfg = OptimizerConfig(max_iters=40)
        tasks = [{"vf": 0.3, "init_kind": kind} for kind in INITIAL_DESIGN_KINDS]
        for task in tasks[1:]:
            task["bound_by"] = 0
        results = par.run_optimizations(small_mbb, tasks, cfg)
        ref = results[0].history
        n_stopped = 0
        for res in results[1:]:
            bound = [1.5 * ref[min(it, len(ref)) - 1]
                     for it in range(1, len(res.history) + 1)]
            over = [it for it, (c, b) in enumerate(zip(res.history, bound), start=1)
                    if 3 <= it < cfg.max_iters and c > b]
            if par.abandoned(res, cfg):
                n_stopped += 1
                assert over == [res.iterations]
            else:
                assert over == []
        assert n_stopped >= 5

    def test_warm_cache_serves_every_start(self, small_mbb, tmp_path):
        cfg = OptimizerConfig(max_iters=40)
        cache = RunCache(tmp_path)
        cold, warm = [], []
        a, _ = multistart_states(small_mbb, [0.2, 0.3], cfg, cache,
                                 report=cold.append)
        b, _ = multistart_states(small_mbb, [0.2, 0.3], cfg, cache,
                                 report=warm.append)
        assert a == b
        assert cold[0].startswith("18 tasks, 18 distinct, 0 cached, ")
        assert warm[0].startswith("18 tasks, 18 distinct, 18 cached, ")
        assert cold[0].split(", ")[3:] == warm[0].split(", ")[3:]

    def test_one_and_two_workers_agree(self, small_mbb, tmp_path):
        cfg = OptimizerConfig(max_iters=40)
        out = {}
        for workers in (1, 2):
            lines = []
            front, states = multistart_states(
                small_mbb, [0.2, 0.3, 0.7], cfg, RunCache(tmp_path / str(workers)),
                workers=workers, report=lines.append)
            out[workers] = (front.to_csv(), lines,
                            [s.densities.values.tobytes() for s in states])
        assert out[1] == out[2]
        assert sorted(p.name for p in (tmp_path / "1").iterdir()) == \
            sorted(p.name for p in (tmp_path / "2").iterdir())

    def test_failed_reference_runs_no_bounded_start(self, tiny_mbb, cfg, monkeypatch):
        from topareto.errors import SolverError
        calls = []

        def fake(problem, vf, cfg_, init=None, **race):
            calls.append(race)
            raise SolverError("synthetic failure")

        monkeypatch.setattr(par, "optimize", fake)
        with pytest.raises(SolverError) as exc:
            multistart_states(tiny_mbb, [0.5], cfg)
        assert str(exc.value) == "1 sweep point(s) failed: vf=0.5 init=uniform: synthetic failure"
        assert calls == [{}]  # the uniform run only: no start ran bounded

    @pytest.mark.parametrize("bound_by", [1, 5, -1])
    def test_bound_must_name_an_unbounded_task(self, tiny_mbb, cfg, bound_by):
        tasks = [{"vf": 0.5, "init_kind": "uniform"},
                 {"vf": 0.5, "init_kind": "diag_diff", "bound_by": 0},
                 {"vf": 0.5, "init_kind": "ring", "bound_by": bound_by}]
        with pytest.raises(InvalidArgumentError):
            par.run_optimizations(tiny_mbb, tasks, cfg)


class TestRefine:
    def test_stubbed_optimizer_leaves_front_unchanged(self, tiny_mbb, cfg,
                                                      monkeypatch):
        vfs = np.linspace(0.1, 1.0, 10)
        cs = 2.0 / vfs
        cs[4] *= 0.9  # strong minimum and drop to trigger warm starts
        front = ParetoFront(tuple(FrontPoint(v, c) for v, c in zip(vfs, cs)))
        designs = [_fake_result(tiny_mbb, v, c) for v, c in zip(vfs, cs)]

        def stub(problem, vf, cfg_, init=None):
            i = int(np.argmin(np.abs(vfs - vf)))
            return designs[i]

        monkeypatch.setattr(par, "optimize", stub)
        out, _ = refine_states(tiny_mbb, front, designs, cfg)
        assert out.cs() == pytest.approx(front.cs())

    def test_refine_dominates_input(self, tiny_mbb, cfg, tmp_path):
        cache = RunCache(tmp_path)
        grid = [0.15, 0.3, 0.5, 0.75, 1.0]
        multi, states = multistart_states(tiny_mbb, grid, cfg, cache)
        out, _ = refine_states(tiny_mbb, multi, states, cfg, cache)
        assert np.all(out.cs() <= multi.cs() + 1e-12)

    def test_rounds_skip_warm_starts_already_run(self, monkeypatch):
        # a front with a product drop above DROP_THRESHOLD in each of the
        # three rounds
        problem = preset("mbb", 30, 10)
        cfg = OptimizerConfig(max_iters=40)
        front, states = baseline_states(problem, default_vf_grid(25), cfg)
        starts = []
        orig = par.optimize

        def spy(problem_, vf, cfg_, init=None, **bound):
            starts.append((vf, field_descriptor(init.values)))
            return orig(problem_, vf, cfg_, init, **bound)

        monkeypatch.setattr(par, "optimize", spy)
        lines = []
        out = refine_states(problem, front, states, cfg, RunCache(None),
                            report=lines.append)
        skipping = starts[:]
        del starts[:]
        # one round per call: each call starts afresh and so runs every
        # warm start of its round, as rounds did before they skipped repeats
        again = (front, states)
        monkeypatch.setattr(par, "REFINE_ROUNDS", 1)
        for _ in lines:
            again = refine_states(problem, *again, cfg, RunCache(None))
        assert len(lines) == 3
        assert len(set(skipping)) == len(skipping) < len(starts)
        assert out[0] == again[0]
        for a, b in zip(out[1], again[1]):
            assert np.array_equal(a.densities.values, b.densities.values)
            assert (a.compliance_p, a.compliance_p1, a.iterations) == \
                (b.compliance_p, b.compliance_p1, b.iterations)

    def test_small_gain_is_followed_by_another_round(self, tiny_mbb, cfg, monkeypatch):
        # drops at 3 and 7: points 0-2 start from 3's design, points 3-6 from
        # 7's. Round one improves only point 3, by 1e-4 relative, with a new
        # design, so round two starts points 0-2 from it; round three has no
        # new start
        vfs = np.linspace(0.1, 1.0, 10)
        cs = 2.0 / vfs
        cs[3:] *= 0.9
        cs[7:] *= 0.9
        front = ParetoFront(tuple(FrontPoint(v, c) for v, c in zip(vfs, cs)))
        designs = [_fake_result(tiny_mbb, v, c) for v, c in zip(vfs, cs)]
        calls = []

        def stub(problem, vf, cfg_, init=None):
            i = int(np.argmin(np.abs(vfs - vf)))
            calls.append(i)
            if i == 3 and calls.count(3) == 1:
                values = rescale_to_volume(np.linspace(0.0, 1.0, tiny_mbb.grid.nel), vf)
                c = cs[3] * (1 - 1e-4)
                return DesignResult(DensityField(values), c, c, True, (c,))
            return _fake_result(tiny_mbb, vf, cs[i] * 1.01)

        monkeypatch.setattr(par, "optimize", stub)
        lines = []
        out, _ = refine_states(tiny_mbb, front, designs, cfg, report=lines.append)
        assert len(lines) == 2
        assert sorted(calls) == [0, 0, 1, 1, 2, 2, 3, 4, 5, 6]
        assert out.cs()[3] == cs[3] * (1 - 1e-4)
        assert np.array_equal(np.delete(out.cs(), 3), np.delete(cs, 3))

    def test_misaligned_designs_rejected(self, tiny_mbb, cfg):
        front = synth_front([0.5, 1.0], lambda v: 1 / v)
        with pytest.raises(InvalidArgumentError):
            refine_states(tiny_mbb, front, [], cfg)


def _fake_result(problem, vf, c):
    from topareto.simp import DesignResult
    values = np.full(problem.grid.nel, vf)
    return DesignResult(DensityField(values), c, c, True, (c,))


class TestTheoryBounds:
    def test_envelope_implies_stiffness_increasing(self):
        rng = np.random.default_rng(9)
        vfs = np.linspace(0.05, 1, 30)
        cs = 3.0 / vfs * (1 + 0.1 * rng.random(30))
        env = envelope(ParetoFront(tuple(FrontPoint(v, c)
                                         for v, c in zip(vfs, cs))))
        kappa = 1.0 / env.cs()
        assert np.all(np.diff(kappa) >= -1e-12)

    def test_default_grid(self):
        grid = default_vf_grid()
        assert len(grid) == 50
        assert grid[0] == pytest.approx(0.02)
        assert grid[-1] == pytest.approx(1.0)
