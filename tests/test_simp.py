"""Optimizer: filtering, initial designs, OC loop, p=1 re-evaluation."""

import numpy as np
import pytest

import reference_impls as ref
import topareto.simp as simp_mod
from conftest import kernel_solve
from topareto.errors import InvalidArgumentError
from topareto.fem2d import E_MIN, DensityField, Grid, GridKernel, ProblemSpec, csr_dot
from topareto.simp import (CHANGE_TOL, ETA, INITIAL_DESIGN_KINDS, MOVE_LIMIT, PENAL,
                           OptimizerConfig, _oc_update, evaluate_p1, filter_build,
                           initial_design, optimize, rescale_to_volume)


class TestOptimizerConfig:
    def test_defaults_valid(self):
        cfg = OptimizerConfig()
        assert cfg.max_iters == 300
        # the constants of the 88-line code
        assert (MOVE_LIMIT, ETA, CHANGE_TOL, E_MIN, PENAL) == (0.2, 0.5, 0.01, 1e-9, 3.0)

    def test_rmin_scaling_rule(self):
        cfg = OptimizerConfig()
        assert cfg.resolve_rmin(Grid(200, 100)) == pytest.approx(3.0)
        assert cfg.resolve_rmin(Grid(60, 20)) == pytest.approx(1.2)
        assert cfg.resolve_rmin(Grid(400, 100)) == pytest.approx(6.0)

    @pytest.mark.parametrize("bad", [
        dict(max_iters=-1), dict(max_iters=0.5), dict(max_iters=0),
        dict(max_iters=2.5), dict(max_iters="3"), dict(max_iters=True),
    ])
    def test_invalid_configs(self, bad):
        with pytest.raises(InvalidArgumentError, match="max_iters must be"):
            OptimizerConfig(**bad)

    def test_digest_pinned(self):
        # cache keys: a change here orphans every cached run
        assert OptimizerConfig().digest() == "ce1736850d27ef5e"
        assert OptimizerConfig(max_iters=40).digest() == "bd8e16a9a0d0d1fb"


class TestFilterBuild:
    @pytest.mark.parametrize("rmin", [0.5, np.nan, np.inf])
    def test_bad_rmin_rejected(self, rmin):
        with pytest.raises(InvalidArgumentError, match="rmin must be finite"):
            filter_build(Grid(4, 2), rmin)

    def test_rmin_one_is_identity(self):
        w = ref.scipy_csr(filter_build(Grid(5, 4), 1.0)).toarray()
        assert np.allclose(w, np.eye(20))

    def test_uniform_field_preserved(self):
        w = ref.scipy_csr(filter_build(Grid(7, 5), 2.5))
        x = np.full(35, 0.42)
        assert np.allclose(w @ x, x)

    def test_impulse_matches_hand_computed_cone(self):
        # 5x5 grid, rmin=1.5: self weight 1.5, edge neighbors 1.5-1=0.5,
        # diagonal neighbors 1.5-sqrt(2); everything further is outside
        grid = Grid(5, 5)
        w = ref.scipy_csr(filter_build(grid, 1.5))
        eid = {divmod(el, grid.nely): el for el in range(grid.nel)}
        center = eid[2, 2]
        impulse = np.zeros(25)
        impulse[center] = 1.0
        out = w @ impulse
        w_diag = 1.5 - np.sqrt(2.0)
        total = 1.5 + 4 * 0.5 + 4 * w_diag
        assert out[center] == pytest.approx(1.5 / total)
        for nb in (eid[1, 2], eid[3, 2], eid[2, 1], eid[2, 3]):
            assert out[nb] == pytest.approx(0.5 / total)
        for nb in (eid[1, 1], eid[3, 3], eid[1, 3], eid[3, 1]):
            assert out[nb] == pytest.approx(w_diag / total)
        assert out[eid[0, 0]] == 0.0
        assert out[eid[2, 4]] == 0.0

    def test_rows_normalized(self):
        w = ref.scipy_csr(filter_build(Grid(9, 6), 3.0))
        assert np.allclose(np.asarray(w.sum(axis=1)).ravel(), 1.0)

    def test_matches_reference_filter(self):
        h, hs = ref.build_filter(6, 5, 2.2)
        mine = ref.scipy_csr(filter_build(Grid(6, 5), 2.2)).toarray()
        theirs = (h.toarray().T / hs).T
        assert np.allclose(mine, theirs, rtol=1e-12)


class TestFilterInvariants:
    """The per-(grid, rmin) arrays every ``optimize`` run shares."""

    def test_cached_equal_fresh_and_read_only(self):
        grid = Grid(12, 6)
        got = simp_mod._filter_cached(grid, 2.5)
        assert simp_mod._filter_cached(grid, 2.5) is got
        assert len(got) == 3
        w, w_t, dv = got
        assert filter_build(grid, 2.5) is w
        fresh = ref.scipy_csr(w).T.tocsr()
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(w_t, name), getattr(fresh, name)), name
        assert np.array_equal(dv, fresh.dot(np.full(grid.nel, 1.0 / grid.nel)))
        for arr in (*w[:3], *w_t[:3], dv):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0

    @pytest.mark.parametrize("rmin", [1.0, 1.2, 2.5])
    @pytest.mark.parametrize("shape", [(1, 1), (7, 3), (30, 10), (60, 20), (120, 40)])
    def test_w_and_w_t_share_read_only_index_arrays(self, shape, rmin):
        w, w_t, dv = simp_mod._filter_cached(Grid(*shape), rmin)
        assert w_t.indptr is w.indptr and w_t.indices is w.indices
        assert not any(a.flags.writeable for a in (*w[:3], w_t.data, dv))
        # one pattern, ascending columns in every row
        row_of = np.repeat(np.arange(w.shape[0]), np.diff(w.indptr))
        assert np.all((np.diff(w.indices) > 0) | (np.diff(row_of) > 0))

    @pytest.mark.parametrize("shape", [(1, 1), (7, 3), (30, 10), (60, 20), (60, 30),
                                       (120, 40)])
    def test_dv_is_the_mean_of_the_filtered_field(self, shape):
        # dv @ x and mean(w @ x) sum the same non-negative products in two
        # orders; the largest gap seen is 10 eps of the mean, at 120x40
        grid = Grid(*shape)
        rng = np.random.default_rng(11)
        for rmin in (OptimizerConfig.resolve_rmin(grid), 1.0 + min(shape) / 8.0):
            w, _, dv = simp_mod._filter_cached(grid, rmin)
            for x in (rng.random(grid.nel), np.ones(grid.nel), rng.random(grid.nel) ** 9):
                gap = abs(dv @ x - csr_dot(w, x).mean())
                assert gap <= 32 * np.finfo(float).eps * x.mean()

    @pytest.mark.parametrize("rmin", [1.2, 2.5])
    @pytest.mark.parametrize("shape", [(1, 1), (7, 3), (30, 10), (120, 40)])
    def test_csr_dot_equals_matmul_on_filter(self, shape, rmin):
        grid = Grid(*shape)
        w = filter_build(grid, rmin)
        w_t = simp_mod._filter_cached(grid, rmin)[1]
        rng = np.random.default_rng(16)
        for scale in (1e-9, 1.0, 1e9):
            x = rng.random(grid.nel) * scale
            x[rng.random(grid.nel) < 0.25] = 0.0  # exact zeros
            for a in (w, w_t):
                assert np.array_equal(csr_dot(a, x), ref.scipy_csr(a) @ x)

    @pytest.mark.parametrize("rmin", [1.0, 1.2, 1.8, 2.5, 3.0])
    @pytest.mark.parametrize("shape", [(1, 1), (7, 3), (30, 10), (60, 20), (120, 40)])
    def test_equal_scipy_build(self, shape, rmin):
        got = simp_mod._filter_cached.__wrapped__(Grid(*shape), rmin)
        want = ref.scipy_filter(*shape, rmin)
        for mine, theirs in zip(got[:2], want[:2]):
            assert mine.shape == theirs.shape
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(mine, name), getattr(theirs, name)), name
        assert np.array_equal(got[2], want[2])


class TestInitialDesign:
    def test_cached_base_patterns_equal_fresh_and_read_only(self):
        grid = Grid(12, 6)
        for kind in INITIAL_DESIGN_KINDS:
            got = simp_mod._base_pattern(kind, grid)
            assert simp_mod._base_pattern(kind, grid) is got
            assert np.array_equal(got, simp_mod._base_pattern.__wrapped__(kind, grid))
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[0] = 0.0

    def test_uniform_is_constant(self):
        d = initial_design("uniform", 0.3, Grid(10, 5))
        assert np.allclose(d.values, 0.3, atol=1e-6)

    def test_uniform_full(self):
        d = initial_design("uniform", 1.0, Grid(10, 5))
        assert np.allclose(d.values, 1.0, atol=1e-9)

    @pytest.mark.parametrize("kind", INITIAL_DESIGN_KINDS)
    @pytest.mark.parametrize("vf", [round(0.1 * k, 1) for k in range(1, 10)])
    def test_all_kinds_hit_target_mean(self, kind, vf):
        d = initial_design(kind, vf, Grid(12, 8))
        assert abs(d.volume_fraction - vf) <= 1e-6

    def test_nine_kinds(self):
        assert len(INITIAL_DESIGN_KINDS) == 9
        assert len(set(INITIAL_DESIGN_KINDS)) == 9
        assert INITIAL_DESIGN_KINDS[0] == "uniform"

    def test_unknown_kind(self):
        with pytest.raises(InvalidArgumentError):
            initial_design("zigzag", 0.5, Grid(4, 4))

    def test_retired_previous_kind_is_unknown(self):
        with pytest.raises(InvalidArgumentError, match="unknown initial design kind"):
            initial_design("previous", 0.5, Grid(4, 4))

    def test_retired_disc_kind_is_unknown(self):
        with pytest.raises(InvalidArgumentError, match="unknown initial design kind"):
            initial_design("disc", 0.5, Grid(4, 4))

    @pytest.mark.parametrize("shape", [(12, 8), (30, 10)])
    def test_base_patterns_pairwise_distinct(self, shape):
        # two kinds with one pattern would run one start twice per vf
        grid = Grid(*shape)
        bases = [simp_mod._base_pattern(kind, grid) for kind in INITIAL_DESIGN_KINDS]
        for i, a in enumerate(bases):
            for b in bases[i + 1:]:
                assert not np.array_equal(a, b)

    @pytest.mark.parametrize("shape", [(1, 1), (7, 3), (30, 10), (60, 20), (120, 40)])
    def test_noise_equals_scipy_build(self, shape):
        grid = Grid(*shape)
        w = ref.scipy_filter(*shape, 1.0 + min(shape) / 8.0)[0]
        raw = np.random.default_rng(simp_mod._NOISE_SEED).random(grid.nel)
        assert np.array_equal(simp_mod._base_pattern("noise", grid), w @ (w @ raw))

    def test_noise_deterministic(self):
        a = initial_design("noise", 0.4, Grid(10, 10))
        b = initial_design("noise", 0.4, Grid(10, 10))
        assert np.array_equal(a.values, b.values)

    def test_rescale_clamps_to_unit_interval(self):
        base = np.linspace(0, 1, 50)
        out = rescale_to_volume(base, 0.9)
        assert out.min() >= 0.0 and out.max() <= 1.0
        assert abs(out.mean() - 0.9) <= 1e-6

    def test_rescale_hits_weighted_mean(self):
        # the density filter's volume weights: dv @ x is the mean of W @ x
        grid = Grid(12, 6)
        w = ref.scipy_csr(filter_build(grid, 2.5))
        dv = simp_mod._filter_cached(grid, 2.5)[2]
        base = np.random.default_rng(3).random(grid.nel) ** 3
        out = rescale_to_volume(base, 0.45, dv)
        assert out.min() >= 0.0 and out.max() <= 1.0
        assert abs(dv @ out - 0.45) <= 1e-7
        assert abs(np.asarray(w @ out).mean() - 0.45) <= 1e-7 + 1e-12
        assert abs(out.mean() - 0.45) > 1e-6  # the weights matter here

    @pytest.mark.parametrize("weighted", [False, True])
    def test_rescale_equals_clip_mean_bisection(self, weighted):
        grid = Grid(12, 6)
        weights = simp_mod._filter_cached(grid, 2.5)[2] if weighted else None
        rng = np.random.default_rng(5)
        bases = [simp_mod._base_pattern(kind, grid) for kind in INITIAL_DESIGN_KINDS]
        bases += [rng.random(grid.nel) ** 3, 3.0 * rng.random(grid.nel) - 1.0]
        unreached = 0
        for base in bases:
            for target in (0.02, 0.3, 0.5, 0.9):
                want = ref.rescale_by_clip(base, target, weights)
                if want is None:
                    with pytest.raises(InvalidArgumentError):
                        rescale_to_volume(base, target, weights)
                    unreached += 1
                else:
                    assert np.array_equal(rescale_to_volume(base, target, weights),
                                          want)
        assert unreached < len(bases)

    def test_rescale_unreachable_target_raises(self):
        with pytest.raises(InvalidArgumentError, match="did not converge"):
            rescale_to_volume(np.full(10, 0.5), 0.5, np.zeros(10))


class TestOptimize:
    def test_full_volume_trivial(self, small_mbb, cfg):
        res = optimize(small_mbb, 1.0, cfg)
        assert res.iterations <= 2
        assert np.allclose(res.densities.values, 1.0, atol=1e-12)
        c_full, _ = ref.fem_compliance(30, 10, np.ones(300), 3.0,
                                       small_mbb.loads, small_mbb.fixed_dofs)
        assert res.compliance_p == pytest.approx(c_full, rel=1e-9)

    def test_deterministic(self, small_mbb, cfg):
        a = optimize(small_mbb, 0.4, cfg)
        b = optimize(small_mbb, 0.4, cfg)
        assert np.array_equal(a.densities.values, b.densities.values)
        assert a.compliance_p == b.compliance_p

    def test_volume_constraint_met(self, small_mbb, cfg):
        for vf in (0.2, 0.5, 0.8):
            res = optimize(small_mbb, vf, cfg)
            assert abs(res.vf - vf) <= 1e-4

    def test_compliance_p1_not_above_penalized(self, small_mbb, cfg):
        for vf in (0.3, 0.6):
            res = optimize(small_mbb, vf, cfg)
            assert res.compliance_p1 <= res.compliance_p * (1 + 1e-9)

    def test_matches_reference_simp(self, small_mbb, cfg):
        res = optimize(small_mbb, 0.5, cfg)
        _, c_ref, _ = ref.simp_reference(
            30, 10, 0.5, 3.0, cfg.resolve_rmin(small_mbb.grid),
            small_mbb.loads, small_mbb.fixed_dofs)
        assert abs(res.compliance_p - c_ref) / c_ref <= 0.02

    def test_box_constraints_and_move_limit(self, tiny_mbb):
        # track the OC trajectory through a wrapped filter apply
        cfg = OptimizerConfig(max_iters=25)
        seen = []
        import topareto.simp as simp_mod
        orig = simp_mod._oc_update

        def spy(x, *args):
            out = orig(x, *args)
            seen.append((x.copy(), out[0].copy()))
            return out

        simp_mod._oc_update = spy
        try:
            optimize(tiny_mbb, 0.4, cfg)
        finally:
            simp_mod._oc_update = orig
        assert seen
        for x_old, x_new in seen:
            assert np.all(x_new >= -1e-12) and np.all(x_new <= 1 + 1e-12)
            assert np.max(np.abs(x_new - x_old)) <= MOVE_LIMIT + 1e-12

    def test_descent_violations_rare(self, small_mbb, cfg):
        for vf in (0.3, 0.5):
            res = optimize(small_mbb, vf, cfg)
            assert res.descent_violations <= max(1, 0.05 * res.iterations)

    @pytest.mark.parametrize("kind", ["vstripes2", "ring"])
    def test_one_residual_per_solve(self, small_mbb, monkeypatch, kind):
        # the striped and ring starts at vf 0.1 leave disconnected regions,
        # whose solves sit above RESID_TOL at the backward-error floor
        calls = {"solve": 0, "apply_constrained": 0}
        for name in calls:
            def counting(kern, *args, _name=name, _orig=getattr(GridKernel, name)):
                calls[_name] += 1
                return _orig(kern, *args)
            monkeypatch.setattr(GridKernel, name, counting)
        res = optimize(small_mbb, 0.1, OptimizerConfig(max_iters=5),
                       initial_design(kind, 0.1, small_mbb.grid))
        assert calls["solve"] >= res.iterations
        assert calls["apply_constrained"] == calls["solve"]

    def test_end_of_run_volume_projection(self, small_mbb, cfg, monkeypatch):
        # both DOFs of nodes ix 10-19, iy 2-8 fixed: the elements between them
        # carry no strain energy, and at vf 0.95 the OC loop ends at volume
        # 0.9067 (reported converged); the projection moves the design to 0.95
        g = small_mbb.grid
        fixed = {2 * g.node_id(ix, iy) + k
                 for ix in range(10, 20) for iy in range(2, 9) for k in (0, 1)}
        problem = ProblemSpec(g, small_mbb.loads, small_mbb.fixed_dofs | fixed,
                              name="mbb-pinned", symmetry_factor=2.0)
        weighted = []

        def spy(base, target_vf, weights=None):
            weighted.append(weights is not None)
            return rescale_to_volume(base, target_vf, weights)

        monkeypatch.setattr(simp_mod, "rescale_to_volume", spy)
        res = optimize(problem, 0.95, cfg)
        assert weighted.count(True) == 1  # the projection ran, once
        assert abs(res.densities.values.mean() - 0.95) <= 1e-4
        assert np.isfinite(res.compliance_p1) and res.compliance_p1 > 0

    def test_bad_target_rejected(self, small_mbb, cfg):
        with pytest.raises(InvalidArgumentError):
            optimize(small_mbb, 1.5, cfg)
        with pytest.raises(InvalidArgumentError):
            optimize(small_mbb, 0.0, cfg)


class TestRaceBound:
    """The private ``_abandon_above`` bound used by the multi-start race."""

    @staticmethod
    def _same(a, b):
        return (np.array_equal(a.densities.values, b.densities.values)
                and (a.compliance_p, a.compliance_p1, a.vf, a.iterations,
                     a.converged, a.descent_violations, a.history)
                == (b.compliance_p, b.compliance_p1, b.vf, b.iterations,
                    b.converged, b.descent_violations, b.history))

    class Probe:
        """A bound of ``length`` entries that records the index of each
        check and trips at the given check."""

        def __init__(self, length, trip_at=None):
            self.length, self.trip_at, self.seen = length, trip_at, []

        def __len__(self):
            return self.length

        def __getitem__(self, i):
            self.seen.append(i)
            return -np.inf if len(self.seen) == self.trip_at else np.inf

    @pytest.mark.parametrize("kind", ["uniform", "vstripes2", "noise"])
    def test_unreached_bound_is_plain_run(self, small_mbb, kind):
        cfg = OptimizerConfig(max_iters=40)
        init = initial_design(kind, 0.3, small_mbb.grid)
        plain = optimize(small_mbb, 0.3, cfg, init)
        assert len(plain.history) == plain.iterations
        for bound in ((), (np.inf,), (1e300,) * 3, [1e300] * 100):
            assert self._same(optimize(small_mbb, 0.3, cfg, init,
                                       _abandon_above=bound), plain)

    def test_history_is_the_penalized_compliance_of_each_iteration(self, small_mbb):
        init = initial_design("hstripes4", 0.3, small_mbb.grid)
        cfg = OptimizerConfig(max_iters=1)
        res = optimize(small_mbb, 0.3, cfg, init)
        w = ref.scipy_csr(filter_build(small_mbb.grid, cfg.resolve_rmin(small_mbb.grid)))
        u = kernel_solve(small_mbb, w @ init.values, 3.0)
        assert len(res.history) == 1
        assert res.history[0] == pytest.approx(
            float(small_mbb.load_vector() @ u), rel=1e-9)
        longer = optimize(small_mbb, 0.3, OptimizerConfig(max_iters=6), init)
        assert longer.history[:1] == res.history
        assert len(longer.history) == 6
        assert all(type(c) is float for c in longer.history)

    def test_bound_stops_at_first_check(self, small_mbb):
        cfg = OptimizerConfig(max_iters=40)
        init = initial_design("vstripes2", 0.3, small_mbb.grid)
        res = optimize(small_mbb, 0.3, cfg, init, _abandon_above=(0.0,))
        assert res.iterations == 3 and not res.converged
        assert len(res.history) == 3
        assert abs(res.densities.volume_fraction - 0.3) <= 1e-4
        assert np.isfinite([res.compliance_p, res.compliance_p1]).all()

    def test_no_check_at_iterations_one_and_two(self, small_mbb):
        cfg = OptimizerConfig(max_iters=40)
        init = initial_design("vstripes2", 0.3, small_mbb.grid)
        plain = optimize(small_mbb, 0.3, cfg, init)
        # entries for iterations 1 and 2 that every compliance exceeds
        bound = (0.0, 0.0) + (np.inf,) * 38
        assert self._same(optimize(small_mbb, 0.3, cfg, init,
                                   _abandon_above=bound), plain)
        res = optimize(small_mbb, 0.3, cfg, init,
                       _abandon_above=(0.0, 0.0, 0.0) + (np.inf,) * 37)
        assert res.iterations == 3

    def test_short_bound_holds_its_last_entry(self, small_mbb):
        cfg = OptimizerConfig(max_iters=40)
        init = initial_design("vstripes2", 0.3, small_mbb.grid)
        res = optimize(small_mbb, 0.3, cfg, init,
                       _abandon_above=(np.inf,) * 4 + (0.0,))
        assert res.iterations == 5 and not res.converged
        # the run's own first six compliances: from iteration 7 on it is
        # checked against the sixth, and stops at the first one above it
        plain = optimize(small_mbb, 0.3, cfg, init)
        stop = next(it for it, c in enumerate(plain.history, start=1)
                    if it > 6 and c > plain.history[5])
        assert stop < cfg.max_iters
        res = optimize(small_mbb, 0.3, cfg, init,
                       _abandon_above=plain.history[:6])
        assert res.iterations == stop
        assert res.history == plain.history[:stop]
        probe = self.Probe(5)
        optimize(small_mbb, 0.3, OptimizerConfig(max_iters=12), init,
                 _abandon_above=probe)
        assert probe.seen == [2, 3, 4, 4, 4, 4, 4, 4, 4]

    def test_abandoned_run_reuses_its_last_solve(self, small_mbb, monkeypatch):
        solves = []
        orig = GridKernel.solve

        def counting(kern, emod, f):
            solves.append(1)
            return orig(kern, emod, f)

        monkeypatch.setattr(GridKernel, "solve", counting)
        init = initial_design("vstripes2", 0.3, small_mbb.grid)
        res = optimize(small_mbb, 0.3, OptimizerConfig(max_iters=40), init,
                       _abandon_above=(0.0,))
        # one solve per iteration, none for the final field, one at p = 1
        assert len(solves) == res.iterations + 1
        u = kernel_solve(small_mbb, res.densities.values, 3.0)
        assert res.compliance_p == float(small_mbb.load_vector() @ u)

    def test_checks_every_iteration_below_max_iters(self, small_mbb):
        # vstripes2 at vf 0.3 is still moving after 41 iterations
        init = initial_design("vstripes2", 0.3, small_mbb.grid)
        for max_iters in (41, 40, 4, 3, 1):
            probe = self.Probe(100)
            res = optimize(small_mbb, 0.3, OptimizerConfig(max_iters=max_iters),
                           init, _abandon_above=probe)
            # one check per iteration from 3 to max_iters - 1, each against
            # the entry of its own iteration
            assert probe.seen == list(range(2, max_iters - 1))
            assert res.iterations == max_iters
        for trip_at, stop in ((1, 3), (2, 4), (38, 40)):
            res = optimize(small_mbb, 0.3, OptimizerConfig(max_iters=41), init,
                           _abandon_above=self.Probe(100, trip_at))
            assert res.iterations == stop and not res.converged


class TestOCUpdate:
    """``_oc_update`` against the plain bisection it replays."""

    @staticmethod
    def _inputs(seed, n=300, scale=1.0, weighted=True, x_mean=0.5):
        """A design, its sensitivities and volume weights ``dv``: varying
        ones that sum to 1, as a filter's do, or the uniform ``1 / n``."""
        rng = np.random.default_rng(seed)
        x = 2.0 * x_mean * rng.random(n)
        x[:10], x[10:20] = 0.0, 1.0
        dc = -scale * rng.lognormal(0.0, 2.0, n)
        dv = rng.uniform(0.5, 1.5, n)
        dv = dv / dv.sum() if weighted else np.full(n, 1.0 / n)
        return x, dc, dv

    @staticmethod
    def _check(x, dc, dv, target, hints=(None, 1e-3, 1.0, 1e3)):
        want_x, want_lm = ref.oc_bisection(x, dc, dv, target, MOVE_LIMIT, ETA,
                                           weights=dv)
        for hint in hints:
            got_x, got_lm = _oc_update(x, dc, dv, target, hint)
            assert np.array_equal(got_x, want_x, equal_nan=True)
            assert got_lm == want_lm

    @pytest.mark.parametrize("weighted", [True, False])
    @pytest.mark.parametrize("x_mean", [0.5, 0.3])
    @pytest.mark.parametrize("scale", [1.0, 1e12, 1e-12])
    @pytest.mark.parametrize("seed", range(3))
    def test_equals_plain_bisection(self, seed, scale, x_mean, weighted):
        # scales 1e+-12 put the root outside [1e-9, 1e9]: the bracket grows;
        # a design of mean 0.3 has about a third of its lower move limits at
        # 0, and only its ten solid elements reach an upper limit of 1
        x, dc, dv = self._inputs(seed, scale=scale, weighted=weighted, x_mean=x_mean)
        lo, hi = (dv @ np.clip(x + d, 0.0, 1.0) for d in (-MOVE_LIMIT, MOVE_LIMIT))
        # targets the move limits let the update reach
        for frac in (0.1, 0.5, 0.9):
            self._check(x, dc, dv, lo + frac * (hi - lo))

    @pytest.mark.parametrize("weighted", [True, False])
    def test_edge_cases_equal_plain_bisection(self, weighted):
        x, dc, dv = self._inputs(7, weighted=weighted)
        # every element at its upper, then its lower move limit, and a target
        # that only all elements at their upper limits reach
        at_upper = dv @ np.minimum(1.0, x + 0.2)
        for target in (0.99, 0.01, at_upper):
            self._check(x, dc, dv, target)
        # zero sensitivities: the update is the lower limit at any multiplier
        self._check(x, np.zeros_like(dc), dv, 0.3)
        self._check(x, np.zeros_like(dc), dv, 0.0001)
        # a NaN sensitivity makes every mean NaN: nothing is decided
        nan_dc = dc.copy()
        nan_dc[5] = np.nan
        self._check(x, nan_dc, dv, 0.3)

    def test_overflowing_update_equals_plain_bisection(self):
        # below lm ~ 1e-8, ratio / lm overflows on the void elements and
        # 0 * inf turns their update into NaN, which the mean carries
        rng = np.random.default_rng(0)
        x = rng.uniform(0.2, 0.8, 300)
        x[:10] = 0.0
        ratio = rng.lognormal(0.0, 1.0, 300) * 1e-8
        ratio[:10] = 1.5e300
        dv = np.full(300, 1.0 / 300)
        with np.errstate(over="ignore", invalid="ignore"):
            for target in (0.4, 0.5):
                self._check(x, -ratio * dv, dv, target)

    def test_few_step_evaluations_on_an_optimization(self, small_mbb, monkeypatch):
        orig, orig_mean = simp_mod._oc_update, simp_mod._mean
        means, calls = [0], []

        def counting_mean(v, weights):
            means[0] += 1
            return orig_mean(v, weights)

        def spy(x, dc, dv, target, lm_hint):
            before = means[0]
            out = orig(x, dc, dv, target, lm_hint)
            calls.append(means[0] - before)  # one mean per step evaluation
            want, _ = ref.oc_bisection(x, dc, dv, target, MOVE_LIMIT, ETA, weights=dv)
            assert np.array_equal(out[0], want)
            return out

        monkeypatch.setattr(simp_mod, "_oc_update", spy)
        monkeypatch.setattr(simp_mod, "_mean", counting_mean)
        for vf in (0.1, 0.5):
            optimize(small_mbb, vf, OptimizerConfig(max_iters=60))
        # the plain bisection takes about 30
        assert len(calls) > 60 and np.mean(calls) <= 10


class TestEvaluateP1:
    def test_all_ones_equals_p3(self, small_mbb, cfg):
        ones = DensityField(np.ones(small_mbb.grid.nel))
        c3, _ = ref.fem_compliance(30, 10, ones.values, 3.0,
                                   small_mbb.loads, small_mbb.fixed_dofs)
        assert evaluate_p1(small_mbb, ones) == pytest.approx(c3, rel=1e-9)

    def test_uniform_half_scaling(self, small_mbb, cfg):
        half = DensityField(np.full(small_mbb.grid.nel, 0.5))
        c3, _ = ref.fem_compliance(30, 10, half.values, 3.0,
                                   small_mbb.loads, small_mbb.fixed_dofs)
        e_min = 1e-9
        expected = c3 * (e_min + 0.125 * (1 - e_min)) / (e_min + 0.5 * (1 - e_min))
        assert evaluate_p1(small_mbb, half) == pytest.approx(expected, rel=1e-6)

    def test_optimized_designs_p1_below_p3(self, small_mbb, cfg):
        for vf in (0.25, 0.5, 0.75):
            res = optimize(small_mbb, vf, cfg)
            assert res.compliance_p1 <= res.compliance_p * (1 + 1e-9)
