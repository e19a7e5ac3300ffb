"""Front meta-model: fit, evaluation, inversion, and its closed-form
efficiency ratio (the oracle of ``reference_impls``) against the fitted front."""

import numpy as np
import pytest

import reference_impls as ref
from topareto.errors import FitError, InfeasibleError, InvalidArgumentError
from topareto.metamodel import (MetaModel, eval_front, fit,
                                full_density_compliance, inverse)


class TestFit:
    def test_round_trip_known_model(self):
        # a=2, b=0.5: c_full = 3, c1 = 2*(10 + 0.5*0.01) = 20.01
        c_full = 2.0 * 1.5
        c1 = 2.0 * (10.0 + 0.5 * 0.1 ** 2)
        m = fit((0.1, c1), c_full)
        assert m.a == pytest.approx(2.0, abs=1e-6)
        assert m.b == pytest.approx(0.5, abs=1e-6)

    @pytest.mark.parametrize("a,b", [(1.0, 0.2), (5.0, 1.0), (0.3, 4.0),
                                     (2.0, 10.0)])
    def test_round_trip_family(self, a, b):
        x1 = 0.1
        c1 = a * (1 / x1 + b * x1 ** (1 / b))
        c_full = a * (1 + b)
        m = fit((x1, c1), c_full)
        assert m.a == pytest.approx(a, rel=1e-9)
        assert m.b == pytest.approx(b, rel=1e-7)

    def test_anchor_residual_contract(self):
        m = fit((0.1, 57.3), 10.0)
        assert eval_front(m, 1.0) == pytest.approx(10.0, rel=1e-9)
        assert eval_front(m, 0.1) == pytest.approx(57.3, rel=1e-9)

    def test_near_degenerate_ratio_small_b(self):
        # ratio close to 1/x1 forces b toward zero
        m = fit((0.1, 9.99), 1.0)
        assert m.b < 0.02

    def test_ratio_bounds_enforced(self):
        with pytest.raises(FitError):
            fit((0.1, 10.5), 1.0)  # r > 10
        with pytest.raises(FitError):
            fit((0.1, 0.9), 1.0)  # c1 < c_full
        with pytest.raises(FitError):
            fit((0.1, 1.0), 1.0)  # r == 1

    def test_json_round_trip(self):
        m = fit((0.1, 30.0), 9.0, "mbb")
        back = MetaModel.from_json(m.to_json())
        assert back == m


class TestEval:
    def test_simple_values(self):
        m = MetaModel(1.0, 1.0, ((0.1, 10.1), (1.0, 2.0)))
        assert eval_front(m, 1.0) == pytest.approx(2.0)
        assert eval_front(m, 0.5) == pytest.approx(2.5)

    def test_out_of_range(self):
        m = MetaModel(1.0, 1.0, ((0.1, 10.1), (1.0, 2.0)))
        with pytest.raises(InvalidArgumentError):
            eval_front(m, 0.0)
        with pytest.raises(InvalidArgumentError):
            eval_front(m, 1.5)

    def test_strictly_decreasing(self):
        m = fit((0.1, 40.0), 9.0)
        xs = np.linspace(0.01, 1.0, 300)
        vals = [eval_front(m, float(x)) for x in xs]
        assert np.all(np.diff(vals) < 0)


class TestEvalEr:
    def test_limits(self):
        m = fit((0.1, 40.0), 9.0)
        assert ref.metamodel_er(m.b, 1e-12) == pytest.approx(1.0, abs=1e-9)
        assert ref.metamodel_er(m.b, 1.0) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("x", [0.2, 0.5, 0.8])
    def test_matches_finite_difference(self, x):
        m = fit((0.1, 35.0), 8.0)
        h = 1e-7 * x
        fd = (eval_front(m, x + h) - eval_front(m, x - h)) / (2 * h)
        expected = -x * fd / eval_front(m, x)
        assert ref.metamodel_er(m.b, x) == pytest.approx(expected, abs=1e-6)

    def test_within_unit_interval(self):
        for b in (0.2, 1.0, 5.0):
            m = MetaModel(1.0, b, ((0.1, 1.0), (1.0, 1.0)))
            xs = np.linspace(1e-6, 1.0, 200)
            vals = np.array([ref.metamodel_er(m.b, float(x)) for x in xs])
            assert np.all(vals >= -1e-12) and np.all(vals <= 1 + 1e-12)


class TestInverse:
    def test_boundary(self):
        m = fit((0.1, 40.0), 9.0)
        assert inverse(m, eval_front(m, 1.0)) == 1.0

    def test_round_trip(self):
        m = fit((0.1, 40.0), 9.0)
        assert inverse(m, eval_front(m, 0.25)) == pytest.approx(0.25, abs=1e-9)

    def test_round_trip_log_spaced(self):
        m = fit((0.1, 57.0), 11.0)
        for c_req in np.geomspace(eval_front(m, 1.0), eval_front(m, 1e-4), 25):
            x = inverse(m, float(c_req))
            assert eval_front(m, x) == pytest.approx(float(c_req), rel=1e-8)

    @pytest.mark.parametrize("c_req", [20.0, 150.0, 1e16, 1e20, 1e300])
    def test_answer_keeps_relative_precision(self, c_req):
        # an answer far below 1e-15 is bisected to a width relative to it,
        # not stopped at an absolute floor orders of magnitude above it
        m = MetaModel(3.28, 2.0, ((0.1, 40.0), (1.0, 9.84)))
        assert eval_front(m, inverse(m, c_req)) == pytest.approx(c_req, rel=1e-9)

    def test_infeasible(self):
        m = fit((0.1, 40.0), 9.0)
        with pytest.raises(InfeasibleError):
            inverse(m, 8.0)

    @pytest.mark.parametrize("a", [1.5, 2.0, 5.0])
    def test_scaling_inequality(self, a):
        # a * f_inv(a x) <= f_inv(x): the keystone of the density screen
        m = fit((0.1, 40.0), 9.0)
        for x in np.geomspace(eval_front(m, 1.0), 500.0, 20):
            lhs = a * inverse(m, a * float(x))
            rhs = inverse(m, float(x))
            assert lhs <= rhs + 1e-9

    def test_scaling_inequality_randomized(self):
        m = fit((0.1, 30.0), 7.0)
        rng = np.random.default_rng(17)
        c_min = eval_front(m, 1.0)
        for _ in range(200):
            a = float(rng.uniform(1.0 + 1e-6, 10.0))
            x = float(c_min * rng.uniform(1.0, 100.0))
            assert a * inverse(m, a * x) <= inverse(m, x) + 1e-9


class TestFullDensityCompliance:
    def test_equals_direct_fem(self, tiny_mbb):
        c, _ = ref.fem_compliance(8, 4, np.ones(tiny_mbb.grid.nel), 1.0,
                                  tiny_mbb.loads, tiny_mbb.fixed_dofs)
        assert full_density_compliance(tiny_mbb) == pytest.approx(c, rel=1e-9)

    def test_below_low_volume_point(self, tiny_mbb, cfg):
        from topareto.simp import optimize
        c_full = full_density_compliance(tiny_mbb)
        res = optimize(tiny_mbb, 0.1, cfg)
        assert c_full < res.compliance_p1

    def test_repeatable(self, tiny_mbb):
        assert full_density_compliance(tiny_mbb) == \
            full_density_compliance(tiny_mbb)


class TestFitProblem:
    @pytest.mark.parametrize("anchor_vf", [1.0, 0.0, 1.5])
    def test_anchor_vf_checked_before_any_solve(self, tiny_mbb, monkeypatch,
                                                 anchor_vf):
        from topareto import metamodel

        def forbidden(*args, **kwargs):
            raise AssertionError("no solve or optimization may run")

        monkeypatch.setattr(metamodel, "kernel_for", forbidden)
        monkeypatch.setattr(metamodel, "multistart_states", forbidden)
        with pytest.raises(InvalidArgumentError, match=r"\(0, 1\)"):
            metamodel.fit_problem(tiny_mbb, anchor_vf=anchor_vf)
