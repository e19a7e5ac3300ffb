"""End-to-end acceptance suite on the desk-scale half-MBB benchmark (60x20).

Each test implements one numbered criterion at its stated tolerance and
records a summary line (printed after the run). The expensive artifacts
(50-point baseline/multistart/refined fronts, efficiency ratio, model fit,
selection) are built once per session through the command-line interface,
so these tests also exercise the emitted CSV/JSON/SVG files.

Known-red: criterion 8's quantitative targets (winner identity, volume
fraction 0.023, mass 0.5 kg, the 20x load flip). They presume a front whose
full-density value is around 4 in normalized units; the 60x20 benchmark
geometry is a 3:1 half-domain whose value is about 126, so the required
compliance 145 sits near the flat end of the front and no parameter choice
can reach the reference operating point. The screening and runtime parts
of criterion 8 do hold. See the test docstring for the measured numbers.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

import reference_impls as ref_impl
from conftest import kernel_solve, read_er, record_criterion
from topareto import cli, er, fem2d, metamodel, pareto, simp
from topareto.errors import InfeasibleError
from topareto.materials import LoadCase, Material, ashby_index, select
from topareto.metamodel import MetaModel, eval_front, inverse

TABLE1 = ("name,E_GPa,rho_kgm3\n"
          "Aluminum alloy (7475),70.8,2795\n"
          "Stainless steel (AISI 347),197,7915\n"
          "Titanium alloy (Ti-6Al-4V),116,4400\n"
          "Inconel 713,205,7900\n")

WORKERS = max(1, min(8, os.cpu_count() or 1))


@pytest.fixture(scope="session")
def desk_pipeline(tmp_path_factory):
    """Full desk-scale pipeline through the CLI, timed per stage."""
    root = tmp_path_factory.mktemp("acceptance")
    out = root / "out"
    cache = root / "cache"
    mats_csv = root / "materials.csv"
    mats_csv.write_text(TABLE1)
    base_args = ["--preset", "mbb", "--out", str(out), "--cache", str(cache),
                 "--workers", str(WORKERS)]
    times = {}

    def staged(name, argv):
        t0 = time.perf_counter()
        code = cli.main(argv)
        times[name] = time.perf_counter() - t0
        assert code == 0, f"stage {name} exited {code}"

    staged("baseline", ["pareto", *base_args, "--strategy", "baseline"])
    staged("multistart", ["pareto", *base_args, "--strategy", "multistart"])
    staged("refine", ["pareto", *base_args, "--strategy", "refine"])
    staged("er", ["er", *base_args, "--front", str(out / "front_refine.csv")])
    staged("fit", ["fit", *base_args])
    t0 = time.perf_counter()
    code_select = cli.main(["select", *base_args, "--materials", str(mats_csv),
                            "--force", "20e3", "--delta-max", "5e-3",
                            "--thickness", "5e-3", "--length", "2.0",
                            "--height", "0.5"])
    times["select"] = time.perf_counter() - t0

    return {
        "out": out, "cache": cache, "mats_csv": mats_csv, "times": times,
        "code_select": code_select,
        "baseline": pareto.ParetoFront.from_csv(
            (out / "front_baseline.csv").read_text()),
        "multistart": pareto.ParetoFront.from_csv(
            (out / "front_multistart.csv").read_text()),
        "refined": pareto.ParetoFront.from_csv(
            (out / "front_refine.csv").read_text()),
        "er_filtered": read_er((out / "er_filtered.csv").read_text()),
        "model": MetaModel.from_json((out / "metamodel.json").read_text()),
    }


class TestCriterion1:
    def test_fem_correctness(self, desk_mbb):
        c_ref, _ = ref_impl.fem_compliance(
            60, 20, np.ones(1200), 3.0, desk_mbb.loads, desk_mbb.fixed_dofs)
        t0 = time.perf_counter()
        u = kernel_solve(desk_mbb, np.ones(desk_mbb.grid.nel), 3.0)
        c = float(desk_mbb.load_vector() @ u)
        ke = fem2d.element_stiffness(0.3)
        sym_exact = np.array_equal(ke, ke.T)
        rigid = np.allclose(ke @ np.array([1.0, 0.0] * 4), 0.0, atol=1e-14) \
            and np.allclose(ke @ np.array([0.0, 1.0] * 4), 0.0, atol=1e-14)
        elapsed = time.perf_counter() - t0
        rel = abs(c - c_ref) / c_ref
        ok = rel <= 0.005 and sym_exact and rigid and elapsed < 5.0
        record_criterion(1, ok, f"compliance {c:.4f} vs reference {c_ref:.4f} "
                                f"({rel:.2e} rel), {elapsed:.2f}s")
        assert rel <= 0.005
        assert sym_exact and rigid
        assert elapsed < 5.0


class TestCriterion2:
    def test_optimizer_parity(self, desk_mbb, cfg):
        t0 = time.perf_counter()
        res = simp.optimize(desk_mbb, 0.5, cfg)
        elapsed = time.perf_counter() - t0
        _, c_ref, iters_ref = ref_impl.simp_reference(
            60, 20, 0.5, 3.0, cfg.resolve_rmin(desk_mbb.grid),
            desk_mbb.loads, desk_mbb.fixed_dofs)
        rel = abs(res.compliance_p - c_ref) / c_ref
        ok = rel <= 0.02 and res.iterations <= 300 and elapsed < 60.0
        record_criterion(2, ok, f"compliance {res.compliance_p:.2f} vs "
                                f"reference {c_ref:.2f} ({rel:.2%}), "
                                f"{res.iterations} iters, {elapsed:.1f}s")
        assert rel <= 0.02
        assert res.iterations <= 300
        assert elapsed < 60.0


class TestCriterion3:
    def test_dominance_chain_on_emitted_csv(self, desk_pipeline):
        base = desk_pipeline["baseline"]
        multi = desk_pipeline["multistart"]
        refined = desk_pipeline["refined"]
        assert len(base) == 50
        sweep_s = sum(desk_pipeline["times"][k]
                      for k in ("baseline", "multistart", "refine"))
        chain = bool(np.all(multi.cs() <= base.cs() + 1e-12)
                     and np.all(refined.cs() <= multi.cs() + 1e-12))
        ok = chain and sweep_s < 45 * 60
        record_criterion(3, ok, f"pointwise refined<=multistart<=baseline on "
                                f"50 points, sweep {sweep_s / 60:.1f} min "
                                f"({WORKERS} worker(s))")
        assert chain
        assert sweep_s < 45 * 60


class TestCriterion4:
    def test_filtered_er_bounds(self, desk_pipeline):
        _, vals = desk_pipeline["er_filtered"]
        in_band = bool(np.all(vals >= -0.02) and np.all(vals <= 1.02))
        first_interior = vals[1]
        last = vals[-1]
        increases = int(np.sum(np.diff(vals) > 0.02))
        limit = 0.10 * len(vals)
        ok = in_band and first_interior >= 0.85 and last <= 0.15 \
            and increases <= limit
        record_criterion(4, ok, f"band [{vals.min():.4f}, {vals.max():.4f}], "
                                f"first interior {first_interior:.3f}, "
                                f"last {last:.3f}, increases {increases}/"
                                f"{len(vals)}")
        assert in_band
        assert first_interior >= 0.85
        assert last <= 0.15
        assert increases <= limit


class TestCriterion5:
    def test_analytic_components(self):
        vfs = np.linspace(0.05, 1.0, 40)
        worst = 0.0
        for kind, n_true in (("rod", 1.0), ("beam", 2.0), ("plate", 3.0)):
            pairs = ref_impl.analytic_front(ref_impl.AnalyticComponent(kind), vfs)
            n = er.compute_er(pareto.ParetoFront(tuple(
                pareto.FrontPoint(v, c) for v, c in pairs)))
            worst = max(worst, float(np.max(np.abs(n - n_true))))
        ok = worst <= 1e-6
        record_criterion(5, ok, f"rod/beam/plate constant ratios exact to "
                                f"{worst:.2e}")
        assert worst <= 1e-6


class TestCriterion6:
    def test_metamodel_accuracy(self, desk_pipeline):
        model = desk_pipeline["model"]
        refined = desk_pipeline["refined"]
        errs = [abs(eval_front(model, p.vf) - p.c) / p.c
                for p in refined.points if p.vf >= 0.05]
        worst = max(errs)
        ok = worst <= 0.10
        record_criterion(6, ok, f"max relative error {worst:.2%} on "
                                f"vf in [0.05, 1] (a={model.a:.4g}, "
                                f"b={model.b:.4g})")
        assert worst <= 0.10


class TestCriterion7:
    def test_scaling_inequality_on_fitted_model(self, desk_pipeline):
        model = desk_pipeline["model"]
        rng = np.random.default_rng(2024)
        c_min = eval_front(model, 1.0)
        worst = -np.inf
        for a in rng.uniform(1.0 + 1e-9, 10.0, 20):
            for x in c_min * rng.uniform(1.0, 50.0, 20):
                gap = float(a) * inverse(model, float(a * x)) \
                    - inverse(model, float(x))
                worst = max(worst, gap)
        ok = worst <= 1e-9
        record_criterion(7, ok, f"max violation {worst:.2e} on 20x20 "
                                f"randomized (a, x) grid")
        assert worst <= 1e-9


class TestCriterion8:
    def test_selection_reproduction(self, desk_pipeline):
        """Worked-example selection at desk scale.

        The screening sequence and the runtime budget hold. The reference
        operating point does not: the desk benchmark's full-density front
        value is ~126 (vs ~4 behind the reference numbers), the required
        normalized compliance for the titanium alloy is 145, and the fitted
        front puts that near volume fraction 0.66 rather than 0.023, which
        also reverses the index ordering and makes the 20x load infeasible
        for every candidate. Kept faithful to the stated targets, so this
        test fails by design; the summary line carries the measured values.
        """
        out = desk_pipeline["out"]
        report = json.loads((out / "selection.json").read_text())
        screening_ok = (
            report["kept_after_pareto"] == ["Aluminum alloy (7475)",
                                            "Titanium alloy (Ti-6Al-4V)",
                                            "Inconel 713"]
            and report["kept_after_density"] == ["Titanium alloy (Ti-6Al-4V)",
                                                 "Inconel 713"])
        winner = report["winner"]["name"]
        vf = report["winner_vf"]
        mass = report["winner_mass_kg"]
        runtime_ok = desk_pipeline["times"]["select"] \
            + desk_pipeline["times"]["fit"] < 300

        model = desk_pipeline["model"]
        flip = None
        try:
            mats = [Material("Titanium alloy (Ti-6Al-4V)", 116e9, 4400),
                    Material("Inconel 713", 205e9, 7900)]
            heavy = LoadCase(force=20e3 * 20, delta_max=5e-3, thickness=5e-3,
                             length=2.0, height=0.5)
            flip = select(mats, model, heavy).winner.name
        except InfeasibleError:
            flip = "all infeasible"

        ok = (screening_ok and runtime_ok
              and winner == "Titanium alloy (Ti-6Al-4V)"
              and abs(vf - 0.023) <= 0.01 and abs(mass - 0.5) <= 0.1
              and flip == "Inconel 713")
        record_criterion(8, ok, f"screening {'ok' if screening_ok else 'BAD'}; "
                                f"winner {winner}, vf {vf:.4f} (target "
                                f"0.023+-0.01), mass {mass:.2f} kg (target "
                                f"0.5+-0.1), 20x -> {flip}; "
                                f"runtime ok: {runtime_ok}")
        assert screening_ok
        assert runtime_ok
        assert winner == "Titanium alloy (Ti-6Al-4V)", \
            f"desk-scale winner is {winner} (see docstring)"
        assert abs(vf - 0.023) <= 0.01
        assert abs(mass - 0.5) <= 0.1
        assert flip == "Inconel 713"


class TestCriterion9:
    def test_selector_equals_exhaustive(self, desk_pipeline):
        model = desk_pipeline["model"]
        lc = LoadCase(force=20e3, delta_max=5e-3, thickness=5e-3,
                      length=2.0, height=0.5)
        rng = np.random.default_rng(77)
        agreements = 0
        trials = 0
        for t in range(25):
            n = int(rng.integers(8, 21))
            mats = [Material(f"r{t}m{i}", float(rng.uniform(5, 900) * 1e9),
                             float(rng.uniform(300, 25000)))
                    for i in range(n)]
            best, best_f4 = None, None
            for mat in mats:
                try:
                    f4, _ = ashby_index(mat, model, lc)
                except Exception:
                    continue
                if best_f4 is None or f4 < best_f4:
                    best, best_f4 = mat, f4
            if best is None:
                continue
            trials += 1
            report = select(mats, model, lc, tie_tol=0.0)
            if report.winner.name == best.name:
                agreements += 1
        ok = trials >= 20 and agreements == trials
        record_criterion(9, ok, f"{agreements}/{trials} randomized sets agree "
                                f"with the exhaustive index minimizer")
        assert trials >= 20
        assert agreements == trials


class TestFrontProperties:
    """Theory-backed properties of the desk-scale fronts (not numbered)."""

    def test_baseline_close_to_refined_at_high_vf(self, desk_pipeline):
        base = desk_pipeline["baseline"]
        refined = desk_pipeline["refined"]
        sel = base.vfs() >= 0.3
        assert np.all(base.cs()[sel] <= refined.cs()[sel] * 1.10)
        assert np.all(np.isfinite(base.cs())) and np.all(base.cs() > 0)

    def test_multistart_winner_census(self, desk_pipeline):
        winners = {p.provenance for p in desk_pipeline["multistart"].points}
        assert len(winners) >= 2

    def test_refine_does_not_add_significant_minima(self, desk_pipeline):
        n_multi = len(pareto.detect_significant(
            desk_pipeline["multistart"]).minima)
        n_ref = len(pareto.detect_significant(desk_pipeline["refined"]).minima)
        assert n_ref <= n_multi

    def test_stiffness_monotone_and_theory_bound(self, desk_pipeline):
        refined = desk_pipeline["refined"]
        env = pareto.envelope(refined)
        kappa = 1.0 / env.cs()
        assert np.all(np.diff(kappa) >= -1e-12)
        # raw front: mass of upward compliance moves at most 1 percent of
        # the downward travel
        inc = np.diff(refined.cs())
        up = float(inc[inc > 0].sum())
        down = float(-inc[inc < 0].sum())
        assert up <= 0.01 * down
        # a front with efficiency ratio at most 1 obeys c(x) <= c(1)/x
        c_full = refined.cs()[-1]
        assert np.all(refined.cs() <= 1.05 * c_full / refined.vfs())

    def test_er_warnings_absent_on_refined_front(self, desk_pipeline):
        assert er.bounds_violations(desk_pipeline["er_filtered"][1]) == []

    def test_rescored_vf_equals_front_inverse(self, desk_pipeline):
        # a near-tie is re-scored on the refined front: the winner's vf is
        # the log-log inverse of the front's envelope at its requirement
        model = desk_pipeline["model"]
        refined = desk_pipeline["refined"]
        env = pareto.envelope(refined)
        lc = LoadCase(force=20e3, delta_max=5e-3, thickness=5e-3,
                      length=2.0, height=0.5)
        mats = [Material("Titanium alloy (Ti-6Al-4V)", 116e9, 4400),
                Material("Inconel 713", 205e9, 7900)]
        report = select(mats, model, lc, tie_tol=0.3, front=refined)
        assert report.near_ties
        v, c = env.vfs(), env.cs()
        exhaustive = []
        for mat in mats:
            vf_exh = float(np.exp(np.interp(np.log(lc.required_compliance(mat)),
                                            np.log(c[::-1]), np.log(v[::-1]))))
            exhaustive.append((lc.mass(mat, vf_exh), vf_exh, mat.name))
        mass, vf_exh, name = min(exhaustive)
        assert report.winner.name == name
        assert report.winner_vf == pytest.approx(vf_exh, rel=1e-12)
        assert report.winner_mass == pytest.approx(mass, rel=1e-12)


class TestCriterion10:
    def test_byte_identical_serial_vs_parallel(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("determinism")
        cfgfile = root / "cfg.json"
        cfgfile.write_text(json.dumps(
            {"sweep": {"points": [float(v) for v in np.linspace(0.1, 1.0, 6)]}}))
        artifacts = ("front_baseline.csv", "front_multistart.csv",
                     "front_refine.csv", "er_raw.csv", "er_filtered.csv",
                     "er.svg", "metamodel.json", "fit_overlay.svg",
                     "fit_error.csv", "densities.csv", "design.svg",
                     "summary.json", "selection.json", "ashby.svg")

        def run_all(out, cache, workers):
            mats_csv = root / "mats.csv"
            mats_csv.write_text(TABLE1)
            args = ["--preset", "mbb", "--nelx", "24", "--nely", "8",
                    "--out", str(out), "--cache", str(cache),
                    "--workers", str(workers)]
            for strategy in ("baseline", "multistart", "refine"):
                assert cli.main(["--config", str(cfgfile), "pareto", *args,
                                 "--strategy", strategy]) == 0
            assert cli.main(["--config", str(cfgfile), "er", *args, "--front",
                             str(out / "front_refine.csv")]) == 0
            assert cli.main(["--config", str(cfgfile), "fit", *args]) == 0
            assert cli.main(["--config", str(cfgfile), "optimize", *args,
                             "--vf", "0.4"]) == 0
            assert cli.main(["--config", str(cfgfile), "select", *args,
                             "--materials", str(mats_csv),
                             "--force", "20e3", "--delta-max", "5e-3",
                             "--thickness", "5e-3", "--length", "2.0",
                             "--height", "0.5"]) == 0

        run_all(root / "o1", root / "c1", workers=1)
        run_all(root / "o2", root / "c2", workers=2)
        diffs = [name for name in artifacts
                 if (root / "o1" / name).read_bytes()
                 != (root / "o2" / name).read_bytes()]
        ok = not diffs
        record_criterion(10, ok, "all emitted artifacts byte-identical "
                                 "serial vs parallel" if ok else
                                 f"differences in {diffs}")
        assert not diffs
