"""Efficiency ratio: computation and filtering, checked against power laws,
the meta-model front and the analytic rod/beam/plate components of
``reference_impls``."""

import numpy as np
import pytest

import reference_impls as ref
from reference_impls import AnalyticComponent, analytic_er, analytic_stiffness
from conftest import read_er
from topareto.er import ER_HEADER, bounds_violations, compute_er, filter_er, smooth
from topareto.errors import InvalidArgumentError
from topareto.pareto import FrontPoint, ParetoFront, write_table


def power_law_front(n, vfs, a=2.0):
    return ParetoFront(tuple(FrontPoint(float(v), a * float(v) ** (-n))
                             for v in vfs))


def analytic_front(comp, vfs):
    return ParetoFront(tuple(FrontPoint(v, c)
                             for v, c in ref.analytic_front(comp, vfs)))


class TestComputeEr:
    @pytest.mark.parametrize("n", [0.5, 1.0, 2.0, 3.0])
    def test_exact_on_power_laws(self, n):
        vfs = np.linspace(0.05, 1.0, 37)
        assert np.max(np.abs(compute_er(power_law_front(n, vfs)) - n)) <= 1e-6

    @pytest.mark.parametrize("n", [0.5, 2.0])
    def test_exact_on_nonuniform_grids(self, n):
        vfs = np.geomspace(0.02, 1.0, 23)
        assert np.max(np.abs(compute_er(power_law_front(n, vfs)) - n)) <= 1e-6

    def test_inverse_law_gives_one(self):
        vfs = np.linspace(0.1, 1.0, 12)
        assert compute_er(power_law_front(1.0, vfs)) == pytest.approx(np.ones(12), abs=1e-9)

    def test_bit_equal_to_hand_differences(self):
        # np.gradient on a nonuniform grid is the same 3-point formula in the
        # same operation order: every value equals the hand-written one
        rng = np.random.default_rng(14)
        fronts = [(np.linspace(0.02, 1.0, 50), None)]
        for _ in range(200):
            n = int(rng.integers(3, 60))
            vfs = np.sort(rng.choice(np.arange(1, 1001), n, replace=False)) / 1000
            fronts.append((vfs, rng.uniform(0.5, 2.0, n)))
        for vfs, noise in fronts:
            cs = 4.0 / vfs ** 1.3 * (1.0 if noise is None else noise)
            n = compute_er(ParetoFront(tuple(
                FrontPoint(float(v), float(c)) for v, c in zip(vfs, cs))))
            assert np.array_equal(n, -ref.loglog_slope(vfs, cs))

    def test_needs_three_points(self):
        front = ParetoFront((FrontPoint(0.2, 5.0), FrontPoint(0.9, 1.0)))
        with pytest.raises(InvalidArgumentError):
            compute_er(front)


class TestFilterEr:
    def test_meta_model_front_matches_closed_form(self):
        # front a*(1/x + b*x^(1/b)) with b = 0.5
        a, b = 2.0, 0.5
        vfs = np.linspace(0.02, 1.0, 120)
        front = ParetoFront(tuple(
            FrontPoint(float(v), a * (1 / v + b * v ** (1 / b))) for v in vfs))
        filt = filter_er(front)
        expected = (1 - vfs ** (1 / b + 1)) / (1 + b * vfs ** (1 / b + 1))
        sel = (vfs >= 0.1) & (vfs <= 0.9)
        assert np.max(np.abs(filt[sel] - expected[sel])) <= 0.03

    def test_monotone_front_envelope_is_identity(self):
        vfs = np.linspace(0.05, 1.0, 60)
        front = power_law_front(1.5, vfs)
        direct = smooth(vfs, compute_er(front))
        assert filter_er(front) == pytest.approx(direct, abs=1e-12)

    def test_aligned_with_front_vfs(self):
        # a float array per front point, in the front's order
        vfs = np.linspace(0.05, 1.0, 20)
        for n in (compute_er(power_law_front(1.5, vfs)),
                  filter_er(power_law_front(1.5, vfs))):
            assert isinstance(n, np.ndarray) and n.dtype == float
            assert n.shape == vfs.shape

    def test_bounds_violations_index(self):
        assert bounds_violations(np.array([0.5, 1.5, -0.5])) == [1, 2]
        # the band's edges are inside it
        assert bounds_violations(np.array([-0.02, 1.02, 0.0, 1.0])) == []


class TestAnalytic:
    def test_rod_stiffness_value(self):
        comp = AnalyticComponent("rod")
        assert analytic_stiffness(comp, 0.5) == pytest.approx(0.5)

    def test_beam_stiffness_value(self):
        comp = AnalyticComponent("beam")
        assert analytic_stiffness(comp, 0.5) == pytest.approx(0.0625)

    def test_plate_stiffness_value(self):
        comp = AnalyticComponent("plate")
        assert analytic_stiffness(comp, 0.5) == pytest.approx(0.03125)

    @pytest.mark.parametrize("kind,expected", [("rod", 1.0), ("beam", 2.0),
                                               ("plate", 3.0)])
    def test_constant_ratio(self, kind, expected):
        comp = AnalyticComponent(kind)
        assert analytic_er(comp) == expected
        vfs = np.linspace(0.05, 1.0, 25)
        assert np.max(np.abs(compute_er(analytic_front(comp, vfs)) - expected)) <= 1e-6

    def test_parameter_scaling(self):
        comp = AnalyticComponent("rod", e=70e9, length=2.0, section=1e-4)
        assert analytic_stiffness(comp, 0.3) == pytest.approx(
            70e9 * 0.3 * 1e-4 / 2.0)

    def test_invalid_kind_and_params(self):
        with pytest.raises(InvalidArgumentError):
            AnalyticComponent("shell")
        with pytest.raises(InvalidArgumentError):
            AnalyticComponent("rod", e=-1.0)
        with pytest.raises(InvalidArgumentError):
            analytic_stiffness(AnalyticComponent("rod"), 0.0)


class TestErSeries:
    """A ratio series is ``(vfs, n)`` arrays: its CSV form, and the array
    checks of ``smooth``."""

    def test_csv_round_trip(self):
        # the er command's table writes each float as its repr: it reads back exactly
        vfs = np.array([0.1, 1 / 3 + 0.1, 0.5, 1.0])
        n = np.array([0.9, 2 / 3, 0.4, 0.02])
        back_vfs, back_n = read_er(write_table(ER_HEADER, zip(vfs, n)))
        assert np.array_equal(back_vfs, vfs) and np.array_equal(back_n, n)

    def test_csv_errors(self):
        with pytest.raises(InvalidArgumentError) as exc:
            read_er("wrong,header\n")
        assert exc.value.line == 1

    @pytest.mark.parametrize("row", ["0.5,0.4,x", "0.5,nan", "0.5,inf", "nan,0.4",
                                     "0.5,-inf"])
    def test_csv_bad_row_names_line(self, row):
        # one column too many, or a ratio or vf that is not a finite number
        with pytest.raises(InvalidArgumentError) as exc:
            read_er(f"vf,n\n0.1,0.9\n{row}\n1.0,0.02\n")
        assert exc.value.line == 3

    def test_ordering_enforced(self):
        with pytest.raises(InvalidArgumentError, match="strictly increasing"):
            smooth(np.array([0.5, 0.5]), np.array([1.0, 0.9]))

    @pytest.mark.parametrize("points", [
        ([0.1, 0.2], [1.0]), ([[0.1, 0.2]], [[1.0, 0.9]]), ([0.5, 0.3], [1.0, 0.9]),
        ([0.1], [])])
    def test_vfs_checked(self, points):
        # one vf per value, 1-d, strictly increasing
        with pytest.raises(InvalidArgumentError):
            smooth(*(np.array(a) for a in points))
