"""Material ingestion, screening, indices, and the selection pipeline."""

import numpy as np
import pytest

from topareto.errors import InfeasibleError, InvalidArgumentError
from topareto.materials import (LoadCase, Material, ashby_index,
                                load_materials, refine_vf, screen_density,
                                screen_pareto, select)
from topareto.metamodel import MetaModel, eval_front, inverse
from topareto.pareto import FrontPoint, ParetoFront, envelope

TABLE_MATS = [
    Material("Aluminum alloy (7475)", 70.8e9, 2795),
    Material("Stainless steel (AISI 347)", 197e9, 7915),
    Material("Titanium alloy (Ti-6Al-4V)", 116e9, 4400),
    Material("Inconel 713", 205e9, 7900),
]
MBB_CASE = LoadCase(force=20e3, delta_max=5e-3, thickness=5e-3,
                    length=2.0, height=0.5)


@pytest.fixture(scope="module")
def worked_example_model():
    """Model constants recovered from the worked example's two indices.

    The reference run reports index 100.1 kg/m^3 for the titanium alloy and
    101.4 for Inconel under the 20 kN / 5 mm / 5 mm case, i.e. front values
    f(0.02275) = 145 and f(0.0128354) = 256.25. Two equations pin (a, b);
    a nested bisection recovers them here independently of the fit code.
    """
    x1 = 100.1 / 4400.0
    x2 = 101.4 / 7900.0
    c1 = MBB_CASE.required_compliance(TABLE_MATS[2])
    c2 = MBB_CASE.required_compliance(TABLE_MATS[3])

    def shape(x, b):
        return 1.0 / x + b * x ** (1.0 / b)

    lo, hi = 1e-3, 1e3
    target = c1 / c2
    for _ in range(300):
        mid = np.sqrt(lo * hi)
        if shape(x1, mid) / shape(x2, mid) > target:
            hi = mid
        else:
            lo = mid
    b = float(np.sqrt(lo * hi))
    a = c1 / shape(x1, b)
    return MetaModel(a, b, ((x1, c1), (1.0, a * (1 + b))), "worked-example")


class TestLoadMaterials:
    def test_reference_table(self, table1_csv):
        mats = load_materials(table1_csv.read_text())
        assert len(mats) == 4
        ti = next(m for m in mats if "Ti-6Al-4V" in m.name)
        assert ti.e == pytest.approx(116e9)
        assert ti.rho == pytest.approx(4400)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert load_materials(path.read_text()) == []

    def test_header_only(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("name,E_GPa,rho_kgm3\n")
        assert load_materials(path.read_text()) == []

    def test_zero_modulus_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("name,E_GPa,rho_kgm3\nfoo,0,1000\n")
        with pytest.raises(InvalidArgumentError):
            load_materials(path.read_text())

    @pytest.mark.parametrize("row", ["foo,inf,1000", "foo,10,nan", "foo,-inf,1"])
    def test_non_finite_rejected_with_line(self, tmp_path, row):
        # the cell parser of every table, pareto.finite_cell, names the line
        path = tmp_path / "m.csv"
        path.write_text(f"name,E_GPa,rho_kgm3\nok,10,100\n{row}\n")
        with pytest.raises(InvalidArgumentError, match="expected a finite number") as exc:
            load_materials(path.read_text())
        assert exc.value.line == 3

    def test_non_finite_material_rejected(self):
        with pytest.raises(InvalidArgumentError):
            Material("foo", float("nan"), 1000.0)
        with pytest.raises(InvalidArgumentError):
            Material("foo", 1e9, float("inf"))

    def test_malformed_row_carries_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("name,E_GPa,rho_kgm3\nok,10,100\nbad,ten,100\n")
        with pytest.raises(InvalidArgumentError) as exc:
            load_materials(path.read_text())
        assert exc.value.line == 3

    def test_duplicate_names_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("name,E_GPa,rho_kgm3\nfoo,10,100\nfoo,20,200\n")
        with pytest.raises(InvalidArgumentError):
            load_materials(path.read_text())

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("material,E,rho\nfoo,10,100\n")
        with pytest.raises(InvalidArgumentError):
            load_materials(path.read_text())


class TestScreenPareto:
    def test_reference_set_drops_stainless_only(self):
        kept = screen_pareto(TABLE_MATS)
        names = [m.name for m in kept]
        assert "Stainless steel (AISI 347)" not in names
        assert len(kept) == 3

    def test_single_material_kept(self):
        assert screen_pareto([TABLE_MATS[0]]) == [TABLE_MATS[0]]

    def test_identical_pair_both_kept(self):
        twins = [Material("a", 10e9, 1000), Material("b", 10e9, 1000)]
        assert screen_pareto(twins) == twins

    def test_output_is_antichain(self):
        rng = np.random.default_rng(23)
        mats = [Material(f"m{i}", float(rng.uniform(1, 500) * 1e9),
                         float(rng.uniform(500, 20000))) for i in range(30)]
        kept = screen_pareto(mats)
        for a in kept:
            for b in kept:
                if a is b:
                    continue
                assert not (a.e >= b.e and a.rho <= b.rho
                            and (a.e > b.e or a.rho < b.rho))


class TestScreenDensity:
    def test_reference_set_drops_aluminum(self):
        kept1 = screen_pareto(TABLE_MATS)
        kept2 = screen_density(kept1)
        names = [m.name for m in kept2]
        assert names == ["Titanium alloy (Ti-6Al-4V)", "Inconel 713"]

    def test_single_material_kept(self):
        m = TABLE_MATS[1]
        assert screen_density([m]) == [m]

    def test_ratio_tie_breaks_to_lower_density(self):
        a = Material("light", 50e9, 1000)
        b = Material("heavy", 100e9, 2000)  # identical rho/E
        kept = screen_density([a, b])
        assert set(m.name for m in kept) == {"light", "heavy"}

    def test_all_outputs_at_least_reference_density(self):
        rng = np.random.default_rng(29)
        mats = [Material(f"m{i}", float(rng.uniform(1, 500) * 1e9),
                         float(rng.uniform(500, 20000))) for i in range(25)]
        kept = screen_density(mats)
        ref = min(mats, key=lambda m: (m.rho / m.e, m.rho))
        assert all(m.rho >= ref.rho for m in kept)


class TestAshbyIndex:
    def test_worked_example_titanium(self, worked_example_model):
        f4, vf = ashby_index(TABLE_MATS[2], worked_example_model, MBB_CASE)
        assert f4 == pytest.approx(100.1, rel=1e-4)
        assert vf == pytest.approx(0.02275, rel=1e-3)

    def test_worked_example_inconel(self, worked_example_model):
        f4, vf = ashby_index(TABLE_MATS[3], worked_example_model, MBB_CASE)
        assert f4 == pytest.approx(101.4, rel=1e-4)

    def test_boundary_full_density(self, worked_example_model):
        m = worked_example_model
        c_min = eval_front(m, 1.0)
        lc = MBB_CASE
        mat = Material("edge", c_min * lc.force / (lc.thickness * lc.delta_max),
                       1234.0)
        f4, vf = ashby_index(mat, m, lc)
        assert vf == 1.0
        assert f4 == pytest.approx(1234.0)

    def test_infeasible_names_material(self, worked_example_model):
        soft = Material("rubber", 0.01e9, 1200)
        with pytest.raises(InfeasibleError) as exc:
            ashby_index(soft, worked_example_model, MBB_CASE)
        assert "rubber" in str(exc.value)

    def test_f4_never_exceeds_density(self, worked_example_model):
        for mat in TABLE_MATS:
            try:
                f4, vf = ashby_index(mat, worked_example_model, MBB_CASE)
            except InfeasibleError:
                continue
            assert f4 <= mat.rho
            assert 0 < vf <= 1


class TestSelect:
    def test_worked_example_winner_titanium(self, worked_example_model):
        report = select(TABLE_MATS, worked_example_model, MBB_CASE)
        assert report.winner.name == "Titanium alloy (Ti-6Al-4V)"
        assert report.winner_vf == pytest.approx(0.02275, abs=1e-3)
        mass = 2.0 * 0.5 * 5e-3 * report.winner_vf * 4400
        assert report.winner_mass == pytest.approx(mass, rel=1e-9)
        assert report.winner_mass == pytest.approx(0.5, rel=0.02)
        assert report.kept_after_density == ["Titanium alloy (Ti-6Al-4V)",
                                             "Inconel 713"]

    def test_twenty_fold_load_flips_to_inconel(self, worked_example_model):
        heavy = LoadCase(force=20e3 * 20, delta_max=5e-3, thickness=5e-3,
                         length=2.0, height=0.5)
        report = select(TABLE_MATS, worked_example_model, heavy)
        assert report.winner.name == "Inconel 713"
        # titanium cannot even reach the stiffness at full density
        assert all(n != "Titanium alloy (Ti-6Al-4V)"
                   for n, _, _ in report.indices)

    def test_single_candidate_selected_directly(self, worked_example_model):
        report = select([TABLE_MATS[2]], worked_example_model, MBB_CASE)
        assert report.winner.name == "Titanium alloy (Ti-6Al-4V)"
        assert report.near_ties == []

    def test_all_infeasible_raises(self, worked_example_model):
        soft = [Material("jelly", 0.001e9, 500)]
        with pytest.raises(InfeasibleError):
            select(soft, worked_example_model, MBB_CASE)

    def test_empty_rejected(self, worked_example_model):
        with pytest.raises(InvalidArgumentError):
            select([], worked_example_model, MBB_CASE)

    def test_json_and_trail(self, worked_example_model):
        import json
        report = select(TABLE_MATS, worked_example_model, MBB_CASE)
        doc = json.loads(report.to_json())
        assert doc["winner"]["name"] == report.winner.name
        assert any("pareto screen removed" in line for line in report.trail)
        assert "winner:" in report.to_text()

    @pytest.mark.parametrize("length, height, warned", [
        (2.0, 0.5, True),     # 4:1 against the 6:1 beam
        (3.0, 0.5, False),
        (3.02, 0.5, False),   # within 1%
        (3.04, 0.5, True),
        (1.2, 0.2, False),
    ])
    def test_aspect_mismatch_warns_in_trail(self, worked_example_model,
                                            length, height, warned):
        from topareto.fem2d import preset
        case = LoadCase(force=20e3, delta_max=5e-3, thickness=5e-3,
                        length=length, height=height)
        plain = select(TABLE_MATS, worked_example_model, case, tie_tol=0.0)
        report = select(TABLE_MATS, worked_example_model, case, tie_tol=0.0,
                        problem=preset("mbb"))
        warnings = [line for line in report.trail if line.startswith("warning:")]
        if warned:
            assert len(warnings) == 1
            assert f"L/h = {length / height:.4g}" in warnings[0]
            assert "6:1 part that the mbb problem models" in warnings[0]
        else:
            assert warnings == []
        assert [line for line in report.trail if line not in warnings] == plain.trail
        assert (report.winner, report.winner_vf, report.winner_mass) == \
            (plain.winner, plain.winner_vf, plain.winner_mass)

    def test_selector_equals_exhaustive_oracle(self, worked_example_model):
        # screening must never lose the global index minimizer
        rng = np.random.default_rng(31)
        m = worked_example_model
        for trial in range(25):
            n = int(rng.integers(8, 21))
            mats = [Material(f"t{trial}m{i}",
                             float(rng.uniform(5, 600) * 1e9),
                             float(rng.uniform(400, 22000)))
                    for i in range(n)]
            # oracle: argmin over every feasible material, no screening
            best, best_f4 = None, None
            for mat in mats:
                try:
                    f4, _ = ashby_index(mat, m, MBB_CASE)
                except InfeasibleError:
                    continue
                if best_f4 is None or f4 < best_f4:
                    best, best_f4 = mat, f4
            if best is None:
                with pytest.raises(InfeasibleError):
                    select(mats, m, MBB_CASE, tie_tol=0.0)
                continue
            report = select(mats, m, MBB_CASE, tie_tol=0.0)
            assert report.winner.name == best.name


class TestLoadCase:
    @pytest.mark.parametrize("field", ["force", "delta_max", "thickness",
                                       "length", "height"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
    def test_non_positive_or_non_finite_rejected(self, field, bad):
        args = dict(force=20e3, delta_max=5e-3, thickness=5e-3, length=2.0,
                    height=0.5)
        args[field] = bad
        with pytest.raises(InvalidArgumentError, match=field):
            LoadCase(**args)


def _front(vfs, cs):
    return ParetoFront(tuple(FrontPoint(float(v), float(c)) for v, c in zip(vfs, cs)))


# unit load case: a material's required compliance is its modulus
UNIT_CASE = LoadCase(1.0, 1.0, 1.0, 1.0, 1.0)


def _probe(c_req):
    return Material("probe", c_req, 1000.0)


# c = 60 / sqrt(vf): shallower than the worked example's model, so the front
# puts Inconel 713 (vf 0.0548) below the titanium alloy (vf 0.171) in mass
SHALLOW_VFS = np.geomspace(0.02, 1.0, 30)
SHALLOW = _front(SHALLOW_VFS, 60.0 / np.sqrt(SHALLOW_VFS))


class TestRefineVf:
    def test_fixed_point_with_exact_front(self, worked_example_model):
        m0 = worked_example_model
        vfs = np.geomspace(0.005, 1.0, 400)
        front = _front(vfs, [eval_front(m0, v) for v in vfs])
        for mat in TABLE_MATS[2:]:
            vf1, _ = refine_vf(mat, front, MBB_CASE)
            vf0 = inverse(m0, MBB_CASE.required_compliance(mat))
            assert vf1 == pytest.approx(vf0, rel=1e-4)

    def test_mass_formula(self):
        mat = TABLE_MATS[3]
        vf1, mass = refine_vf(mat, SHALLOW, MBB_CASE)
        assert vf1 == pytest.approx((60.0 / MBB_CASE.required_compliance(mat)) ** 2)
        assert mass == pytest.approx(
            MBB_CASE.length * MBB_CASE.height * MBB_CASE.thickness
            * vf1 * mat.rho)

    def test_requirement_at_a_point_gives_its_vf(self):
        # exact, where interpolating up to the point would give 0.44999999999999996
        front = _front([0.1, 0.3, 0.45, 0.9], [40.0, 20.0, 12.5, 9.0])
        for vf, c in [(0.1, 40.0), (0.45, 12.5), (0.9, 9.0)]:
            assert refine_vf(_probe(c), front, UNIT_CASE) == (vf, 1000.0 * vf)

    def test_between_points_log_log(self):
        front = _front([0.1, 0.2, 0.4], [40.0, 10.0, 2.5])
        # c = 0.4 / vf^2 on both stretches
        vf, _ = refine_vf(_probe(0.4 / 0.3 ** 2), front, UNIT_CASE)
        assert vf == pytest.approx(0.3, rel=1e-12)

    def test_flat_stretch_gives_its_lightest_point(self):
        front = _front([0.1, 0.2, 0.3, 0.4], [40.0, 10.0, 10.0, 10.0])
        assert refine_vf(_probe(10.0), front, UNIT_CASE)[0] == 0.2
        vf, _ = refine_vf(_probe(20.0), front, UNIT_CASE)
        assert vf == pytest.approx(0.1 * 2.0 ** 0.5)

    def test_non_monotone_front_read_through_envelope(self):
        # the raw point at vf 0.3 rises above vf 0.2; the envelope holds 30
        front = _front([0.1, 0.2, 0.3, 0.4], [40.0, 30.0, 35.0, 10.0])
        vf, _ = refine_vf(_probe(20.0), front, UNIT_CASE)
        t = np.log(20.0 / 30.0) / np.log(10.0 / 30.0)
        assert vf == pytest.approx(0.3 * (0.4 / 0.3) ** t, rel=1e-12)
        assert refine_vf(_probe(20.0), envelope(front), UNIT_CASE) == (vf, 1000.0 * vf)

    @pytest.mark.parametrize("c_req", [8.9, 40.1])
    def test_unbracketed_requirement_is_none(self, c_req):
        # stiffer than the heaviest point, or met already by the lightest
        front = _front([0.1, 0.2, 0.4], [40.0, 20.0, 9.0])
        assert refine_vf(_probe(c_req), front, UNIT_CASE) is None


TI, INCONEL = TABLE_MATS[2], TABLE_MATS[3]


class TestNearTie:
    # the worked example's two indices differ by 1.3 percent
    def test_tie_triggers_rescoring(self, worked_example_model):
        m0 = worked_example_model
        plain = select(TABLE_MATS, m0, MBB_CASE, tie_tol=0.02)
        report = select(TABLE_MATS, m0, MBB_CASE, tie_tol=0.02, front=SHALLOW)
        assert report.near_ties == ["Inconel 713"]
        assert plain.winner == TI
        # the front's lowest mass wins over the index's pick
        assert report.winner == INCONEL
        assert (report.winner_vf, report.winner_mass) == refine_vf(INCONEL, SHALLOW,
                                                                   MBB_CASE)
        ti_vf, ti_mass = refine_vf(TI, SHALLOW, MBB_CASE)
        assert report.winner_mass < ti_mass
        assert f"{TI.name}: front mass {ti_mass:.6g} kg at vf {ti_vf:.6g}" in report.trail
        assert report.trail[-1] == "tie resolved by front mass: Inconel 713"

    def test_out_of_reach_candidate_leaves_the_raw_index(self, worked_example_model):
        # from vf 0.1 the front starts at c 190: the titanium alloy's 145 is
        # bracketed, Inconel's 256 is not
        m0 = worked_example_model
        short = _front(SHALLOW_VFS[SHALLOW_VFS >= 0.1],
                       60.0 / np.sqrt(SHALLOW_VFS[SHALLOW_VFS >= 0.1]))
        plain = select(TABLE_MATS, m0, MBB_CASE, tie_tol=0.02)
        report = select(TABLE_MATS, m0, MBB_CASE, tie_tol=0.02, front=short)
        assert (report.winner, report.winner_vf, report.winner_mass) == \
            (plain.winner, plain.winner_vf, plain.winner_mass)
        assert "Inconel 713: out of the refined front's reach" in report.trail
        assert report.trail[-1] == "tie left to the raw index"

    def test_no_front_says_so(self, worked_example_model):
        report = select(TABLE_MATS, worked_example_model, MBB_CASE, tie_tol=0.02)
        assert report.winner == TI
        assert report.trail[-1] == "no refined front; tie left to the raw index"

    def test_no_tie_no_rescoring(self, worked_example_model):
        report = select(TABLE_MATS, worked_example_model, MBB_CASE, tie_tol=0.001,
                        front=SHALLOW)
        assert report.near_ties == [] and report.winner == TI
        assert not any("near-tie" in line or "front mass" in line
                       for line in report.trail)

    @pytest.mark.parametrize("tie_tol, shown", [(0.005, "0.5%"), (0.015, "1.5%"),
                                                (0.02, "2%"), (0.3, "30%")])
    def test_trail_states_the_tolerance_as_given(self, worked_example_model,
                                                 tie_tol, shown):
        # a second titanium lot 0.1% stiffer and denser ties within 0.5%
        lot_b = Material("Titanium lot B", TI.e * 1.001, TI.rho * 1.001 * 1.0001)
        report = select([*TABLE_MATS, lot_b], worked_example_model, MBB_CASE,
                        tie_tol=tie_tol)
        assert "Titanium lot B" in report.near_ties
        assert any(line.startswith(f"near-tie within {shown}: ")
                   for line in report.trail)
