"""Front construction: sweeps, significant points, refine, envelope, smooth."""

import numpy as np
import pytest

from topareto import pareto as par
from topareto.cache import RunCache
from topareto.errors import InvalidArgumentError, ParseError
from topareto.fem2d import DensityField, ProblemSpec, preset
from topareto.pareto import (FrontPoint, ParetoFront, SignificantPoints,
                             baseline_states, default_vf_grid,
                             detect_significant, envelope, multistart_states,
                             refine_states, smooth)
from topareto.simp import OptimizerConfig, initial_design, optimize


def synth_front(vfs, fn, tag="synthetic"):
    return ParetoFront(tuple(FrontPoint(float(v), float(fn(v)), tag)
                             for v in vfs), "synthetic")


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
        back = ParetoFront.from_csv(front.to_csv(), "synthetic")
        assert back == front

    def test_csv_parse_errors(self):
        with pytest.raises(ParseError):
            ParetoFront.from_csv("nope\n1,2,3\n")
        with pytest.raises(ParseError) as exc:
            ParetoFront.from_csv("vf,c,provenance\n0.1,zzz,tag\n")
        assert exc.value.line == 2
        with pytest.raises(ParseError):
            ParetoFront.from_csv("vf,c,provenance\n")
        with pytest.raises(ParseError) as exc:
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
        out = smooth(vf, y, sigma=0.04)
        inner = slice(8, -8)
        assert out[inner] == pytest.approx(y[inner], abs=1e-9)

    def test_noise_variance_reduced(self):
        rng = np.random.default_rng(42)
        vf = np.linspace(0.02, 1, 200)
        y = rng.standard_normal(200)
        out = smooth(vf, y, sigma=0.04)
        assert np.var(out) < np.var(y)

    def test_truncation_at_three_sigma(self):
        vf = np.array([0.0, 0.5, 1.0])
        y = np.array([100.0, 1.0, 1.0])
        out = smooth(vf, y, sigma=0.04)
        # neighbors are >3 sigma away: pure identity
        assert out == pytest.approx(y)


class TestDetectSignificant:
    def test_smooth_monotone_front_clean(self):
        front = synth_front(np.linspace(0.05, 1, 30), lambda v: 2 * (1 / v + v))
        sig = detect_significant(front, drop_threshold=0.05)
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
        sig = detect_significant(front, min_threshold=0.002, drop_threshold=0.5)
        assert sig.minima == (dip,)

    def test_dip_without_undercut_not_flagged(self):
        # on a strictly decreasing front a small product dip never beats the
        # next compliance, so nothing is significant
        vfs = np.linspace(0.1, 1.0, 19)
        cs = 2.0 / vfs
        cs[9] *= 0.99
        front = ParetoFront(tuple(FrontPoint(v, c) for v, c in zip(vfs, cs)))
        sig = detect_significant(front, min_threshold=0.002, drop_threshold=0.5)
        assert sig.minima == tuple()

    def test_step_drop_flagged(self):
        # 10 percent step in the product curve: flagged at the point after
        # the fall, the design worth propagating to lower volume fractions
        vfs = np.linspace(0.5, 0.95, 10)
        prod = 2.0 + 0.01 * np.arange(10)
        prod[6:] -= 0.2
        cs = prod / vfs
        front = ParetoFront(tuple(FrontPoint(v, c) for v, c in zip(vfs, cs)))
        sig = detect_significant(front, drop_threshold=0.05)
        assert sig.drops == (6,)

    def test_shallow_minimum_not_significant(self):
        vfs = np.linspace(0.1, 1.0, 19)
        cs = 2.0 / vfs
        cs[9] *= 0.9995  # 0.05 percent dip, below the 0.2 percent bar
        front = ParetoFront(tuple(FrontPoint(v, c) for v, c in zip(vfs, cs)))
        sig = detect_significant(front)
        assert sig.minima == tuple()


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

    def test_invalid_grid_rejected(self, tiny_mbb, cfg):
        with pytest.raises(InvalidArgumentError):
            baseline_states(tiny_mbb, [0.5, 0.4], cfg)
        with pytest.raises(InvalidArgumentError):
            baseline_states(tiny_mbb, [], cfg)
        with pytest.raises(InvalidArgumentError):
            baseline_states(tiny_mbb, [0.5, 1.2], cfg)

    def test_cache_reuse_between_sweeps(self, tiny_mbb, cfg, tmp_path):
        cache = RunCache(tmp_path)
        grid = [0.4, 1.0]
        baseline_states(tiny_mbb, grid, cfg, cache)
        import topareto.pareto as par_mod
        calls = []
        orig = par_mod.optimize

        def spy(problem, vf, cfg_, init=None):
            calls.append(vf)
            return orig(problem, vf, cfg_, init)

        par_mod.optimize = spy
        try:
            multi, _ = multistart_states(tiny_mbb, grid, cfg, cache)
        finally:
            par_mod.optimize = orig
        # uniform runs must come from the cache, and "previous" (which
        # degenerates to uniform) shares uniform's key: 2 points x 9 new kinds
        assert len(calls) == 18

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

    def test_parallel_equals_serial(self, tiny_mbb, cfg, tmp_path):
        grid = [0.3, 0.7, 1.0]
        serial, _ = multistart_states(tiny_mbb, grid, cfg, RunCache(tmp_path / "a"))
        parallel, _ = multistart_states(tiny_mbb, grid, cfg,
                                        RunCache(tmp_path / "b"), workers=2)
        assert serial.to_csv() == parallel.to_csv()


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
        out, _ = refine_states(tiny_mbb, front, designs, rounds=3, cfg=cfg)
        assert out.cs() == pytest.approx(front.cs())

    def test_refine_dominates_input(self, tiny_mbb, cfg, tmp_path):
        cache = RunCache(tmp_path)
        grid = [0.15, 0.3, 0.5, 0.75, 1.0]
        multi, states = multistart_states(tiny_mbb, grid, cfg, cache)
        out, _ = refine_states(tiny_mbb, multi, states, 2, cfg, cache)
        assert np.all(out.cs() <= multi.cs() + 1e-12)

    def test_misaligned_designs_rejected(self, tiny_mbb, cfg):
        front = synth_front([0.5, 1.0], lambda v: 1 / v)
        with pytest.raises(InvalidArgumentError):
            refine_states(tiny_mbb, front, [], 1, cfg)


def _fake_result(problem, vf, c):
    from topareto.simp import DesignResult
    values = np.full(problem.grid.nel, vf)
    return DesignResult(DensityField(values), c, c, vf, 1, True, 0)


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
