"""Command-line interface: artifacts, exit codes, determinism, caching."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from conftest import read_er
from topareto import cli
from topareto.metamodel import MetaModel, eval_front
from topareto.pareto import FrontPoint, ParetoFront, default_vf_grid


SELECT_LOAD = ["--force", "20e3", "--delta-max", "5e-3", "--thickness", "5e-3",
               "--length", "2.0", "--height", "0.5"]


# a custom problem document: a 4x2 cantilever
SMALL_PROBLEM = {"nelx": 4, "nely": 2, "loads": [[29, -1.0]],
                 "fixed_dofs": [0, 1, 2, 3, 4, 5]}

# a UTF-16 byte-order mark: not UTF-8
NOT_UTF8 = b"\xff\xfe\x00bad"


def run(args):
    return cli.main(args)


def tiny(*extra):
    return ["--preset", "mbb", "--nelx", "12", "--nely", "6", *extra]


class TestOptimizeCmd:
    def test_artifacts_and_summary(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = run(["optimize", *tiny("--out", str(out)), "--vf", "1.0"])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["iterations"] <= 2
        # how the run ended, and the flag derived from it
        assert summary["end"] == "converged" and summary["converged"] is True
        assert capsys.readouterr().out.rstrip().endswith(
            f"iterations={summary['iterations']} end=converged")
        assert (out / "densities.csv").exists()
        svg = (out / "design.svg").read_text()
        assert svg.startswith("<svg")
        # full density compliance equals the reference FEM
        import reference_impls as ref
        from topareto import fem2d
        p = fem2d.preset("mbb", 12, 6)
        c, _ = ref.fem_compliance(12, 6, np.ones(p.grid.nel), 3.0,
                                  p.loads, p.fixed_dofs)
        assert summary["compliance_p"] == pytest.approx(c, rel=1e-9)

    def test_summary_vf_is_the_achieved_mean(self, tmp_path):
        out = tmp_path / "o"
        assert run(["optimize", *tiny("--out", str(out)), "--vf", "0.3"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        dens = np.loadtxt(out / "densities.csv", delimiter=",")
        # the mean of the written field, not the requested 0.3
        assert summary["vf"] == pytest.approx(dens.mean(), rel=1e-12)
        assert summary["vf"] != 0.3

    def test_invalid_vf_exit_2(self, tmp_path, capsys):
        # checked before the cache directory is made: nothing is left behind
        out, cache = tmp_path / "o", tmp_path / "c"
        for vf in ("1.5", "nan"):
            code = run(["optimize", *tiny("--out", str(out), "--cache", str(cache)),
                        "--vf", vf])
            assert code == 2
            assert "(0, 1]" in capsys.readouterr().err
            assert not out.exists() and not cache.exists()

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["optimize", *tiny("--out", str(out)),
                        "--vf", "0.5"]) == 0
        for name in ("densities.csv", "design.svg", "summary.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_densities_csv_is_numeric(self, tmp_path):
        from topareto import pareto
        from topareto.fem2d import preset
        from topareto.simp import OptimizerConfig
        out = tmp_path / "o"
        assert run(["optimize", "--preset", "mbb", "--nelx", "8", "--nely", "4",
                    "--out", str(out), "--vf", "0.5"]) == 0
        rows = (out / "densities.csv").read_text().splitlines()
        got = np.array([[float(cell) for cell in row.split(",")] for row in rows])
        problem = preset("mbb", 8, 4)
        res = pareto.run_optimizations(problem, [{"vf": 0.5, "init_kind": "uniform"}],
                                       OptimizerConfig())[0]
        assert np.array_equal(got, res.densities.as_grid(problem.grid))


class TestParetoCmd:
    def test_strategies_and_dominance(self, tmp_path):
        out = tmp_path / "o"
        cache = tmp_path / "c"
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "sweep": {"points": [float(v) for v in np.linspace(0.2, 1.0, 5)]}}))
        for strategy in ("baseline", "multistart", "refine"):
            code = run(["--config", str(cfgfile), "pareto",
                        *tiny("--out", str(out), "--cache", str(cache)),
                        "--strategy", strategy])
            assert code == 0
        base = ParetoFront.from_csv((out / "front_baseline.csv").read_text())
        multi = ParetoFront.from_csv((out / "front_multistart.csv").read_text())
        ref = ParetoFront.from_csv((out / "front_refine.csv").read_text())
        assert np.all(multi.cs() <= base.cs() + 1e-12)
        assert np.all(ref.cs() <= multi.cs() + 1e-12)

    def test_census_line_per_batch(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"sweep": {"points": [0.3, 1.0]},
                                       "optimizer": {"max_iters": 20}}))
        args = ["--config", str(cfgfile)]
        common = tiny("--out", str(tmp_path / "o"), "--cache", str(tmp_path / "c"))
        assert run([*args, "pareto", *common, "--strategy", "refine"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("multistart: 18 tasks, 18 distinct, 0 cached, ")
        assert all(line.startswith("refine round: ") for line in lines[1:-1])
        assert run([*args, "fit", *common]) == 0
        fit_line = capsys.readouterr().out.splitlines()[0]
        assert fit_line.startswith("fit anchor: 9 tasks, 9 distinct, ")
        assert fit_line.endswith(" iterations")

    def test_warm_cache_rerun_identical(self, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        cache = tmp_path / "c"
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "sweep": {"points": [float(v) for v in np.linspace(0.3, 1.0, 3)]}}))
        import time
        args = ["--config", str(cfgfile), "pareto"]
        run([*args, *tiny("--out", str(out1), "--cache", str(cache)),
             "--strategy", "baseline"])
        t0 = time.perf_counter()
        run([*args, *tiny("--out", str(out2), "--cache", str(cache)),
             "--strategy", "baseline"])
        warm = time.perf_counter() - t0
        assert (out1 / "front_baseline.csv").read_bytes() == \
            (out2 / "front_baseline.csv").read_bytes()
        assert warm < 5.0

    def test_cache_env_var(self, tmp_path, monkeypatch):
        # the cache directory comes from --cache alone: the variable older
        # versions read is ignored, and nothing is written there
        out = tmp_path / "o"
        cache = tmp_path / "envcache"
        monkeypatch.setenv("TOPARETO_CACHE", str(cache))
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"sweep": {"points": [1.0]}}))
        assert run(["--config", str(cfgfile), "pareto", *tiny("--out", str(out)),
                    "--strategy", "baseline"]) == 0
        assert (out / "front_baseline.csv").exists() and not cache.exists()


class TestErCmd:
    def test_power_law_front_constant_ratio(self, tmp_path):
        vfs = np.linspace(0.05, 1.0, 60)
        front = ParetoFront(tuple(FrontPoint(float(v), 4.0 / v) for v in vfs))
        path = tmp_path / "front.csv"
        path.write_text(front.to_csv())
        out = tmp_path / "o"
        code = run(["er", *tiny("--out", str(out)), "--front", str(path)])
        assert code == 0
        _, filt = read_er((out / "er_filtered.csv").read_text())
        assert np.max(np.abs(filt - 1.0)) <= 0.03

    def test_missing_front_exit_2(self, tmp_path):
        assert run(["er", *tiny("--out", str(tmp_path / "o")),
                    "--front", str(tmp_path / "nope.csv")]) == 2

    @pytest.mark.parametrize("row", ["0.5,nan,x", "nan,2.0,x", "0.5,inf,x"])
    def test_non_finite_front_row_exit_2(self, tmp_path, capsys, row):
        path = tmp_path / "front.csv"
        path.write_text(f"vf,c,provenance\n0.2,5.0,x\n{row}\n1.0,1.0,x\n")
        out = tmp_path / "o"
        assert run(["er", *tiny("--out", str(out)), "--front", str(path)]) == 2
        assert "(line 3)" in capsys.readouterr().err
        assert not (out / "er_raw.csv").exists()

    @pytest.mark.parametrize("row", ["0.5,2.0,x,y", "0.5,two,x", "0.5"])
    def test_bad_front_row_names_file(self, tmp_path, capsys, row):
        path = tmp_path / "front.csv"
        path.write_text(f"vf,c,provenance\n0.2,5.0,x\n{row}\n1.0,1.0,x\n")
        assert run(["er", *tiny("--out", str(tmp_path / "o")),
                    "--front", str(path)]) == 2
        err = capsys.readouterr().err
        assert "(line 3)" in err and f"cannot read front file {path}" in err

    def test_non_utf8_front_exit_2(self, tmp_path, capsys):
        path = tmp_path / "front.csv"
        path.write_bytes(NOT_UTF8)
        out = tmp_path / "o"
        assert run(["er", *tiny("--out", str(out)), "--front", str(path)]) == 2
        assert f"cannot read front file {path}" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_front_exit_2(self, tmp_path):
        path = tmp_path / "front.csv"
        path.write_text("")
        assert run(["er", *tiny("--out", str(tmp_path / "o")),
                    "--front", str(path)]) == 2


class TestFitCmd:
    def test_fit_without_cache_produces_model(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = run(["fit", *tiny("--out", str(out),
                                 "--cache", str(tmp_path / "c"))])
        assert code == 0
        model = MetaModel.from_json((out / "metamodel.json").read_text())
        assert model.a > 0 and model.b > 0
        assert not (out / "fit_error.csv").exists()
        assert "error profile skipped" in capsys.readouterr().out

    def test_error_profile_zero_for_exact_front(self, tmp_path, monkeypatch):
        # refined front generated from a known model; anchor runs stubbed to
        # return that same model
        m = MetaModel(2.0, 0.5, ((0.1, 20.01), (1.0, 3.0)), "mbb")
        vfs = np.linspace(0.05, 1.0, 40)
        front = ParetoFront(tuple(
            FrontPoint(float(v), eval_front(m, float(v))) for v in vfs))
        out = tmp_path / "o"
        out.mkdir()
        (out / "front_refine.csv").write_text(front.to_csv())
        import topareto.cli as cli_mod
        monkeypatch.setattr(cli_mod.mm_mod, "fit_problem",
                            lambda *a, **k: m)
        code = run(["fit", *tiny("--out", str(out))])
        assert code == 0
        rows = (out / "fit_error.csv").read_text().strip().splitlines()[1:]
        errs = [abs(float(r.split(",")[3])) for r in rows]
        assert max(errs) <= 1e-6
        assert (out / "fit_overlay.svg").exists()


class TestRefinedFront:
    """``fit`` and ``select`` read ``front_refine.csv`` under ``--out``
    through one reader, before their work starts or any artifact is written."""

    @pytest.fixture(params=["fit", "select"])
    def command(self, request, tmp_path, table1_csv, monkeypatch):
        """``(out, argv, artifact)`` of a run whose work fails if it starts."""
        out = tmp_path / "o"
        out.mkdir()

        def too_early(*args, **kwargs):
            raise AssertionError("work started before the front was read")
        if request.param == "fit":
            monkeypatch.setattr(cli.mm_mod, "fit_problem", too_early)
            return out, ["fit", *tiny("--out", str(out))], "metamodel.json"
        model = MetaModel(3.28, 2.0, ((0.1, 36.0), (1.0, 9.84)), "mbb")
        (out / "metamodel.json").write_text(model.to_json())
        monkeypatch.setattr(cli.mat_mod, "select", too_early)
        return out, ["select", *tiny("--out", str(out)), "--materials",
                     str(table1_csv), *SELECT_LOAD], "selection.json"

    def test_non_utf8_refined_front_exit_2(self, command, capsys):
        out, argv, artifact = command
        path = out / "front_refine.csv"
        path.write_bytes(NOT_UTF8)
        assert run(argv) == 2
        assert f"cannot read refined front {path}" in capsys.readouterr().err
        assert not (out / artifact).exists()

    def test_bad_refined_front_row_names_file(self, command, capsys):
        out, argv, artifact = command
        path = out / "front_refine.csv"
        path.write_text("vf,c,provenance\n0.2,5.0,x\n0.5,nan,x\n1.0,1.0,x\n")
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "(line 3)" in err and f"cannot read refined front {path}" in err
        assert not (out / artifact).exists()


class TestSelectCmd:
    def test_empty_materials_exit_2(self, tmp_path):
        path = tmp_path / "mats.csv"
        path.write_text("")
        code = run(["select", *tiny("--out", str(tmp_path / "o")),
                    "--materials", str(path), "--force", "20e3",
                    "--delta-max", "5e-3", "--thickness", "5e-3",
                    "--length", "2.0", "--height", "0.5"])
        assert code == 2

    @pytest.mark.parametrize("content", [None, b"\xff\xfe\x00bad"])
    def test_unreadable_materials_exit_2(self, tmp_path, capsys, content):
        path = tmp_path / "mats.csv"
        if content is not None:
            path.write_bytes(content)
        code = run(["select", *tiny("--out", str(tmp_path / "o")),
                    "--materials", str(path), *SELECT_LOAD])
        assert code == 2
        assert f"cannot read materials file {path}" in capsys.readouterr().err

    @pytest.mark.parametrize("row, message", [
        ("bad,ten,100", "(line 3)"),
        ("bad,10,inf", "(line 3)"),
        ("bad,10,100,1", "(line 3)"),
        ("bad,0,100", ": bad: modulus and density must be positive and finite"),
        ("bad,10,-5", ": bad: modulus and density must be positive and finite"),
        ("Inconel 713,10,100", ": duplicate material 'Inconel 713'")])
    def test_bad_materials_row_names_file(self, tmp_path, capsys, row, message):
        # a bad cell, a bad row and a repeated name all name the line alike
        path = tmp_path / "mats.csv"
        path.write_text(f"name,E_GPa,rho_kgm3\nInconel 713,205,7900\n{row}\n")
        out = tmp_path / "o"
        code = run(["select", *tiny("--out", str(out)),
                    "--materials", str(path), *SELECT_LOAD])
        assert code == 2
        err = capsys.readouterr().err
        assert f"invalid input (line 3): cannot read materials file {path}" in err
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize("row", ["bad,10,-5", "bad,x,100"])
    def test_bad_material_and_bad_cell_name_line_alike(self, tmp_path, capsys, row):
        # a value Material rejects and a cell that is no number: one error
        # class, one line attribute, one printed form
        from topareto.errors import InvalidArgumentError
        from topareto.materials import load_materials
        text = f"name,E_GPa,rho_kgm3\nInconel 713,205,7900\n{row}\n"
        with pytest.raises(InvalidArgumentError) as exc:
            load_materials(text)
        assert exc.value.line == 3
        path = tmp_path / "mats.csv"
        path.write_text(text)
        assert run(["select", *tiny("--out", str(tmp_path / "o")),
                    "--materials", str(path), *SELECT_LOAD]) == 2
        assert "error: invalid input (line 3): " in capsys.readouterr().err

    def test_missing_metamodel_exit_2(self, tmp_path, table1_csv, capsys, monkeypatch):
        # select reads the model that fit wrote; it never fits one itself
        from topareto import pareto
        monkeypatch.setattr(pareto, "run_optimizations",
                            lambda *a, **k: pytest.fail("optimization ran"))
        out, cache = tmp_path / "o", tmp_path / "c"
        code = run(["select", *tiny("--out", str(out), "--cache", str(cache)),
                    "--materials", str(table1_csv), *SELECT_LOAD])
        assert code == 2
        assert f"cannot read meta-model {out / 'metamodel.json'}" in capsys.readouterr().err
        assert not out.exists() and not cache.exists()

    def test_single_material_flat_log_axes(self, tmp_path):
        # one candidate puts one point on both log axes, at rho 0.3 < 1
        out = tmp_path / "o"
        out.mkdir()
        (out / "metamodel.json").write_text(
            MetaModel(3.28, 2.0, ((0.1, 36.0), (1.0, 9.84)), "mbb").to_json())
        path = tmp_path / "mats.csv"
        path.write_text("name,E_GPa,rho_kgm3\nfoam,200,0.3\n")
        assert run(["select", *tiny("--out", str(out)), "--materials", str(path),
                    *SELECT_LOAD]) == 0
        svg = (out / "ashby.svg").read_text()
        # drawn once as on the pareto front and once as kept
        assert svg.count("<circle") == 2 and "nan" not in svg

    def test_model_of_another_problem_exit_2(self, tmp_path, table1_csv, capsys):
        # a meta-model fitted to the bridge, read by a run on the mbb preset
        out = tmp_path / "o"
        out.mkdir(parents=True)
        model_path = out / "metamodel.json"
        model_path.write_text(
            MetaModel(3.28, 2.0, ((0.1, 36.0), (1.0, 9.84)), "bridge").to_json())
        code = run(["select", *tiny("--out", str(out)),
                    "--materials", str(table1_csv), *SELECT_LOAD])
        assert code == 2
        err = capsys.readouterr().err
        assert str(model_path) in err and "'bridge'" in err and "'mbb'" in err
        assert not (out / "selection.json").exists()

    @pytest.mark.parametrize("text, message", [
        ('{"a": 1.0', "bad meta-model: Expecting"),
        ('{"a": 1.0, "fit_points": [[0.1, 36.0], [1.0, 9.84]]}',
         "meta-model is missing key 'b'"),
        # a document that reaches the model's own checks names its problem:
        # a missing problem_name is a fault of its own, below
        ('{"a": NaN, "b": 2.0, "fit_points": [[0.1, 36.0], [1.0, 9.84]], '
         '"problem_name": "mbb"}',
         "bad meta-model: a must be finite, got nan"),
        ('{"a": 3.28, "b": Infinity, "fit_points": [[0.1, 36.0], [1.0, 9.84]], '
         '"problem_name": "mbb"}',
         "bad meta-model: b must be finite, got inf"),
        ('{"a": 3.28, "b": 2.0, "fit_points": 7}', "bad meta-model"),
        ("[1, 2]", "bad meta-model"),
        (b"\xff\xfe\x00", "can't decode"),
        # fit points: exactly two finite pairs, c > 0, the low-vf anchor in
        # (0, 1) first and the full-density compliance at vf 1 second
        ('{"a": 3.28, "b": 2.0, "fit_points": [[1.0, 9.84]], '
         '"problem_name": "mbb"}',
         "fit_points must be two"),
        ('{"a": 3.28, "b": 2.0, "fit_points": [[0.1, 36.0], [1.0, 9.84], [0.5, 20.0]], '
         '"problem_name": "mbb"}',
         "fit_points must be two"),
        ('{"a": 3.28, "b": 2.0, "fit_points": [[NaN, 36.0], [1.0, 9.84]], '
         '"problem_name": "mbb"}',
         "bad meta-model: fit_points entry must be finite, got nan"),
        ('{"a": 3.28, "b": 2.0, "fit_points": [[0.1, 36.0], [1.0, Infinity]], '
         '"problem_name": "mbb"}',
         "bad meta-model: fit_points entry must be finite, got inf"),
        ('{"a": 3.28, "b": 2.0, "fit_points": [[0.1, 36.0], [1.0, 0.0]], '
         '"problem_name": "mbb"}',
         "fit_points must be two"),
        ('{"a": 3.28, "b": 2.0, "fit_points": [[0.1, 36.0], [1.5, 9.84]], '
         '"problem_name": "mbb"}',
         "fit_points must be two"),
        ('{"a": 3.28, "b": 2.0, "fit_points": [[1.0, 9.84], [0.1, 36.0]], '
         '"problem_name": "mbb"}',
         "fit_points must be two"),
        ('{"a": 3.28, "b": 2.0, "fit_points": [[0.1, 36.0], [0.5, 9.84]], '
         '"problem_name": "mbb"}',
         "fit_points must be two"),
        # numbers: a bool or a string is not one
        ('{"a": true, "b": 2.0, "fit_points": [[0.1, 36.0], [1.0, 9.84]]}',
         "a must be a number, got True"),
        ('{"a": 3.28, "b": false, "fit_points": [[0.1, 36.0], [1.0, 9.84]]}',
         "b must be a number, got False"),
        ('{"a": 3.28, "b": 2.0, "fit_points": [[0.1, 36.0], [true, 9.84]]}',
         "fit_points entry must be a number, got True"),
        ('{"a": "1.5", "b": 2.0, "fit_points": [[0.1, 36.0], [1.0, 9.84]]}',
         "a must be a number, got '1.5'"),
        # the problem the model was fitted to: a JSON string, never absent
        ('{"a": 3.28, "b": 2.0, "fit_points": [[0.1, 36.0], [1.0, 9.84]]}',
         "meta-model is missing key 'problem_name'"),
        ('{"a": 3.28, "b": 2.0, "fit_points": [[0.1, 36.0], [1.0, 9.84]], '
         '"problem_name": 5}', "problem_name must be a string, got 5"),
    ])
    def test_bad_metamodel_exit_2(self, tmp_path, table1_csv, capsys, text,
                                  message):
        out = tmp_path / "o"
        out.mkdir(parents=True)
        model_path = out / "metamodel.json"
        model_path.write_bytes(text if isinstance(text, bytes) else text.encode())
        code = run(["select", *tiny("--out", str(out)),
                    "--materials", str(table1_csv), *SELECT_LOAD])
        assert code == 2
        err = capsys.readouterr().err
        assert str(model_path) in err and message in err
        assert not (out / "selection.json").exists()

    def test_select_with_prefit_model(self, tmp_path, table1_csv, capsys):
        # model close to the worked example pinned in place of a fresh fit
        out = tmp_path / "o"
        out.mkdir(parents=True)
        m = MetaModel(3.28, 2.0, ((0.1, 36.0), (1.0, 9.84)), "mbb")
        (out / "metamodel.json").write_text(m.to_json())
        code = run(["select", *tiny("--out", str(out)),
                    "--materials", str(table1_csv), "--force", "20e3",
                    "--delta-max", "5e-3", "--thickness", "5e-3",
                    "--length", "2.0", "--height", "0.5"])
        assert code == 0
        doc = json.loads((out / "selection.json").read_text())
        assert doc["winner"]["name"] == "Titanium alloy (Ti-6Al-4V)"
        assert (out / "ashby.svg").read_text().startswith("<svg")
        assert "winner" in capsys.readouterr().out

    def test_select_rescores_a_tie_on_the_refined_front(self, tmp_path, table1_csv):
        # a front shallower than the model puts Inconel 713 below the
        # titanium alloy in mass; the model's index ranks them the other way
        out = tmp_path / "o"
        out.mkdir(parents=True)
        m = MetaModel(3.28, 2.0, ((0.1, 36.0), (1.0, 9.84)), "mbb")
        (out / "metamodel.json").write_text(m.to_json())
        vfs = np.geomspace(0.02, 1.0, 30)
        (out / "front_refine.csv").write_text(ParetoFront(tuple(
            FrontPoint(float(v), float(60.0 / np.sqrt(v))) for v in vfs)).to_csv())
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"tie_tol": 0.3}))
        code = run(["--config", str(cfgfile), "select", *tiny("--out", str(out)),
                    "--materials", str(table1_csv), *SELECT_LOAD])
        assert code == 0
        doc = json.loads((out / "selection.json").read_text())
        assert doc["near_ties"] == ["Inconel 713"]
        assert doc["winner"]["name"] == "Inconel 713"
        assert doc["winner_vf"] == pytest.approx((60.0 / 256.25) ** 2)
        assert doc["trail"][-1] == "tie resolved by front mass: Inconel 713"

    def test_overflowing_required_compliance_exit_2(self, tmp_path, table1_csv, capsys):
        # t E delta / F overflows at a tiny force: no winner may be reported
        out = tmp_path / "o"
        out.mkdir(parents=True)
        m = MetaModel(3.28, 2.0, ((0.1, 36.0), (1.0, 9.84)), "mbb")
        (out / "metamodel.json").write_text(m.to_json())
        load = ["--force", "1e-310", *SELECT_LOAD[2:]]
        code = run(["select", *tiny("--out", str(out)),
                    "--materials", str(table1_csv), *load])
        assert code == 2
        assert "required compliance inf is not finite" in capsys.readouterr().err
        assert not (out / "selection.json").exists()

    def test_all_infeasible_exit_3(self, tmp_path):
        out = tmp_path / "o"
        out.mkdir(parents=True)
        m = MetaModel(3.28, 2.0, ((0.1, 36.0), (1.0, 9.84)), "mbb")
        (out / "metamodel.json").write_text(m.to_json())
        path = tmp_path / "mats.csv"
        path.write_text("name,E_GPa,rho_kgm3\njelly,0.001,500\n")
        code = run(["select", *tiny("--out", str(out)),
                    "--materials", str(path), "--force", "20e3",
                    "--delta-max", "5e-3", "--thickness", "5e-3",
                    "--length", "2.0", "--height", "0.5"])
        assert code == 3


class TestExitCodes:
    """Every class of ``topareto.errors`` raised by a command, through
    ``cli.main``: its exit code and the first words of its stderr line."""

    TABLE = [("ToparetoError", 4, "error: boom\n"),
             ("InvalidArgumentError", 2, "error: invalid input: boom\n"),
             ("InfeasibleError", 3, "error: infeasible: boom\n"),
             ("SolverError", 4, "error: solver failure: boom\n"),
             ("FitError", 4, "error: boom\n")]

    def test_table_names_every_class(self):
        from topareto import errors
        classes = {name for name, obj in vars(errors).items()
                   if isinstance(obj, type) and issubclass(obj, errors.ToparetoError)}
        assert classes == {name for name, _, _ in self.TABLE}

    @pytest.mark.parametrize("name, code, stderr", TABLE)
    def test_exit_code_and_prefix(self, tmp_path, capsys, monkeypatch, name, code,
                                  stderr):
        from topareto import errors

        def stub(args):
            raise getattr(errors, name)("boom")
        monkeypatch.setattr(cli, "cmd_fit", stub)
        assert run(["fit", *tiny("--out", str(tmp_path / "o"))]) == code
        assert capsys.readouterr().err == stderr

    def test_invalid_input_names_its_line(self, capsys, monkeypatch):
        from topareto.errors import InvalidArgumentError

        def stub(args):
            raise InvalidArgumentError("boom", line=7)
        monkeypatch.setattr(cli, "cmd_fit", stub)
        assert run(["fit", *tiny()]) == 2
        assert capsys.readouterr().err == "error: invalid input (line 7): boom\n"


class TestWarningsAndFailures:
    def test_er_warning_printed_for_out_of_band_ratio(self, tmp_path, capsys):
        # one huge isolated product drop pushes the filtered ratio over 1.02
        vfs = np.linspace(0.7, 1.0, 31)
        cs = 4.0 / vfs
        cs[16:] *= 0.45
        front = ParetoFront(tuple(
            FrontPoint(float(v), float(c)) for v, c in zip(vfs, cs)))
        path = tmp_path / "front.csv"
        path.write_text(front.to_csv())
        code = run(["er", *tiny("--out", str(tmp_path / "o")),
                    "--front", str(path)])
        assert code == 0  # warnings, not failures
        assert "warning" in capsys.readouterr().out

    def test_sweep_failure_exit_4(self, tmp_path, monkeypatch):
        import topareto.pareto as par_mod
        from topareto.errors import SolverError

        def boom(problem, vf, cfg, init=None):
            raise SolverError("synthetic failure", residual=1.0)

        monkeypatch.setattr(par_mod, "optimize", boom)
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"sweep": {"points": [0.5, 1.0]}}))
        code = run(["--config", str(cfgfile), "pareto",
                    *tiny("--out", str(tmp_path / "o")),
                    "--strategy", "baseline"])
        assert code == 4

    def test_residual_failure_reaches_exit_4_line(self, tmp_path, monkeypatch,
                                                   capsys):
        from topareto import fem2d

        monkeypatch.setattr(fem2d.GridKernel, "factorize",
                            lambda self, emod: (lambda rhs: np.zeros_like(rhs)))
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"sweep": {"points": [0.5]}}))
        code = run(["--config", str(cfgfile), "pareto",
                    *tiny("--out", str(tmp_path / "o")), "--strategy", "baseline"])
        assert code == 4
        err = capsys.readouterr().err
        assert "optimize failed at iteration 1: linear solve residual" in err
        assert "exceeds limit" in err

    def test_twenty_fold_load_flip_through_cli(self, tmp_path, table1_csv):
        out = tmp_path / "o"
        out.mkdir(parents=True)
        m = MetaModel(3.28, 2.0, ((0.1, 36.0), (1.0, 9.84)), "mbb")
        (out / "metamodel.json").write_text(m.to_json())
        code = run(["select", *tiny("--out", str(out)),
                    "--materials", str(table1_csv), "--force", "400e3",
                    "--delta-max", "5e-3", "--thickness", "5e-3",
                    "--length", "2.0", "--height", "0.5"])
        assert code == 0
        doc = json.loads((out / "selection.json").read_text())
        assert doc["winner"]["name"] == "Inconel 713"


class TestConfigPrecedence:
    # the retired settings: a config that names one exits 2, whatever the
    # value, as it does for any key the program does not read; workers is
    # set by its flag alone, and a sweep by its points alone
    RETIRED = {"rounds": "unknown config key(s) ['rounds']",
               "sigma": "unknown config key(s) ['sigma']",
               "workers": "unknown config key(s) ['workers']",
               "optimizer.penal": "unknown optimizer key(s) ['penal']",
               "optimizer.rmin": "unknown optimizer key(s) ['rmin']",
               "sweep.count": "unknown sweep key(s) ['count']",
               "sweep.lo": "unknown sweep key(s) ['lo']",
               "sweep.hi": "unknown sweep key(s) ['hi']"}

    @staticmethod
    def _er_with_config(tmp_path, name, value, *flags):
        """Runs ``er`` on a valid front with the config setting ``name`` to
        the raw JSON ``value`` (``sweep.<key>`` nests, ``sweep.points`` is a
        one-item list); returns the exit code, with no output written."""
        front = tmp_path / "front.csv"
        front.write_text("vf,c,provenance\n0.2,5.0,x\n0.5,2.0,x\n1.0,1.0,x\n")
        if name == "sweep.points":
            value = f"[{value}]"
        section, _, key = name.rpartition(".")
        text = f'{{"{key}": {value}}}'
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(f'{{"{section}": {text}}}' if section else text)
        out = tmp_path / "o"
        code = run(["--config", str(cfgfile), "er", *tiny("--out", str(out)),
                    "--front", str(front), *flags])
        assert not out.exists()
        return code

    @pytest.mark.parametrize("name", ["rounds", "sigma", "anchor_vf", "tie_tol",
                                      "workers", "sweep.count", "sweep.lo", "sweep.hi",
                                      "sweep.points", "optimizer.penal",
                                      "optimizer.rmin", "optimizer.max_iters"])
    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "true", "false"])
    def test_non_finite_number_exit_2(self, tmp_path, capsys, name, value):
        assert self._er_with_config(tmp_path, name, value) == 2
        err = capsys.readouterr().err
        if name in self.RETIRED:
            assert self.RETIRED[name] in err
        elif name == "optimizer.max_iters":  # checked by OptimizerConfig
            assert f"max_iters must be an integer, got {json.loads(value)!r}" in err
        elif value in ("true", "false"):  # a JSON bool is not a number
            assert f"{name} must be" in err and f"got {value.title()}" in err
        else:
            assert f"{name} must be finite" in err

    @pytest.mark.parametrize("name", ["anchor_vf", "tie_tol", "sweep.points"])
    def test_integer_past_float_range_exit_2(self, tmp_path, capsys, name):
        # a JSON integer no float can hold is not a finite number either
        assert self._er_with_config(tmp_path, name, "1" + "0" * 400) == 2
        assert f"{name} must be finite, got 1000" in capsys.readouterr().err

    @pytest.mark.parametrize("name, value", [("workers", '"two"'),
                                             ("sweep.count", '"x"'),
                                             ("sweep.points", '"a"')])
    def test_non_numeric_number_exit_2(self, tmp_path, capsys, name, value):
        assert self._er_with_config(tmp_path, name, value) == 2
        message = self.RETIRED.get(name, f"{name} must be a number")
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["optimizer.penal", "optimizer.rmin", "sigma",
                                      "anchor_vf", "tie_tol", "sweep.lo", "sweep.hi",
                                      "sweep.points"])
    def test_numeric_string_exit_2(self, tmp_path, capsys, name):
        # a JSON string is not a number, even when it spells one
        value = '"3"' if name.startswith("optimizer.") else '"0.5"'
        assert self._er_with_config(tmp_path, name, value) == 2
        message = self.RETIRED.get(name, f"{name} must be a number, got {value[1:-1]!r}")
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["sigma", "tie_tol"])
    def test_negative_threshold_exit_2(self, tmp_path, capsys, name):
        assert self._er_with_config(tmp_path, name, "-2") == 2
        message = self.RETIRED.get(name, f"{name} must be at least 0, got -2.0")
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["er", "pareto"])
    @pytest.mark.parametrize("value", ["1.5", "0"])
    def test_anchor_vf_outside_unit_interval_exit_2(self, tmp_path, capsys, command, value):
        # checked where the config holds it, not only by fit, which reads it
        if command == "er":
            code = self._er_with_config(tmp_path, "anchor_vf", value)
        else:
            cfgfile = tmp_path / "cfg.json"
            cfgfile.write_text(f'{{"anchor_vf": {value}, "sweep": {{"points": [0.5]}}}}')
            out = tmp_path / "o"
            code = run(["--config", str(cfgfile), "pareto", *tiny("--out", str(out))])
            assert not out.exists()
        assert code == 2
        err = capsys.readouterr().err
        assert f"anchor_vf must lie in (0, 1), got {float(value)}" in err

    @pytest.mark.parametrize("command", ["er", "optimize", "pareto", "fit", "select"])
    @pytest.mark.parametrize("points, message", [
        ([0.5, 0.3], "strictly increasing"), ([], "at least one volume fraction"),
        ([1.5], "(0, 1]"), ([0.3, 0.3], "strictly increasing")])
    def test_bad_sweep_points_exit_2(self, tmp_path, capsys, table1_csv, command,
                                     points, message):
        # checked where the config holds it, for every command, before any write
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"sweep": {"points": points}}))
        front = tmp_path / "front.csv"
        front.write_text("vf,c,provenance\n0.2,5.0,x\n0.5,2.0,x\n1.0,1.0,x\n")
        extra = {"er": ["--front", str(front)], "optimize": ["--vf", "0.5"],
                 "select": ["--materials", str(table1_csv), *SELECT_LOAD]}
        out, cache = tmp_path / "o", tmp_path / "c"
        code = run(["--config", str(cfgfile), command,
                    *tiny("--out", str(out), "--cache", str(cache)),
                    *extra.get(command, [])])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists() and not cache.exists()

    def test_zero_thresholds_accepted(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"tie_tol": 0}))
        cfg = cli._load_config(cli.build_parser().parse_args(
            ["--config", str(cfgfile), "pareto", *tiny()]))
        assert cfg.tie_tol == 0.0

    @pytest.mark.parametrize("flags", [(), ("--workers", "-3"), ("--workers", "0")])
    def test_workers_below_one_exit_2(self, tmp_path, capsys, flags):
        # the flag sets workers; the config's -3 is a retired key
        if flags:
            code = self._er_with_config(tmp_path, "tie_tol", "0", *flags)
            message = f"workers must be an integer of at least 1, got {flags[1]}"
        else:
            code = self._er_with_config(tmp_path, "workers", "-3")
            message = self.RETIRED["workers"]
        assert code == 2 and message in capsys.readouterr().err

    @pytest.mark.parametrize("flags, doc", [
        (("--nelx", "0", "--nely", "4"), {}),
        (("--nelx", "8", "--nely", "-2"), {}),
        (("--nelx", "0"), {"nelx": 8, "nely": 4}),
        ((), {"nelx": 0, "nely": 4}),
        ((), {"nelx": 8, "nely": -1}),
        ((), {"nelx": 8.5, "nely": 4}),
        ((), {"nelx": "8", "nely": 4}),
    ])
    def test_bad_grid_size_exit_2(self, tmp_path, capsys, flags, doc):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(doc))
        out = tmp_path / "o"
        code = run(["--config", str(cfgfile), "optimize", "--preset", "mbb",
                    *flags, "--out", str(out), "--vf", "1.0"])
        assert code == 2 and not out.exists()
        # the flags set the grid; the config's sizes are retired keys,
        # whatever their values
        message = ("unknown config key(s) ['nelx', 'nely']" if doc
                   else "must be an integer of at least 1")
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("doc, message", [
        ({"problem": {"name": "x"}}, "problem config is missing key 'nelx'"),
        ({"problem": {"nelx": 4, "nely": 2, "loads": [[3, -1.0]]}},
         "problem config is missing key 'fixed_dofs'"),
        ({"problem": {"nelx": 4, "nely": 2, "loads": 3, "fixed_dofs": []}},
         "bad problem config"),
        ({"problem": [1, 2]}, "problem must be a problem document (a JSON object), got list"),
        ({"sweep": [1, 2]}, "sweep must be a JSON object"),
        ({"sweep": {"points": 0.5}}, "sweep.points must be a JSON array"),
        ({"optimizer": [1, 2]}, "optimizer must be a JSON object"),
        ([1, 2], "config must be a JSON object"),
        # keys the program does not read
        ({"sweep": {"point": [0.3]}}, "unknown sweep key(s) ['point']"),
        ({"anchor_vff": 0.3}, "unknown config key(s) ['anchor_vff']"),
        ({"sweep": {"points": [0.3]}, "out": "x", "sigmas": 1},
         "unknown config key(s) ['out', 'sigmas']"),
        ({"problem": {**SMALL_PROBLEM, "L": 2.0}}, "unknown problem key(s) ['L']"),
        ({"problem": {**SMALL_PROBLEM, "h": 1.0, "t": 1.0}},
         "unknown problem key(s) ['h', 't']"),
        ({"cache_dir": 5}, "unknown config key(s) ['cache_dir']"),
        # numbers of a custom problem: integral grid sizes and DOFs, finite
        # magnitudes and symmetry factor
        ({"problem": {**SMALL_PROBLEM, "nelx": 12.7}},
         "bad problem config: nelx must be an integer, got 12.7"),
        ({"problem": {**SMALL_PROBLEM, "nely": True}},
         "bad problem config: nely must be an integer, got True"),
        ({"problem": {**SMALL_PROBLEM, "loads": [[9.9, -1.0]]}},
         "bad problem config: loads DOF must be an integer, got 9.9"),
        ({"problem": {**SMALL_PROBLEM, "fixed_dofs": [0, 1, 2.5]}},
         "bad problem config: fixed_dofs entry must be an integer, got 2.5"),
        ({"problem": {**SMALL_PROBLEM, "loads": [[29, float("nan")]]}},
         "bad problem config: loads magnitude must be finite, got nan"),
        ({"problem": {**SMALL_PROBLEM, "loads": [[29, float("-inf")]]}},
         "bad problem config: loads magnitude must be finite, got -inf"),
        ({"problem": {**SMALL_PROBLEM, "symmetry_factor": float("nan")}},
         "bad problem config: symmetry_factor must be finite, got nan"),
        ({"problem": {**SMALL_PROBLEM, "symmetry_factor": float("inf")}},
         "bad problem config: symmetry_factor must be finite, got inf"),
        # a JSON bool or string is not a number
        ({"problem": {**SMALL_PROBLEM, "loads": [[29, True]]}},
         "bad problem config: loads magnitude must be a number, got True"),
        ({"problem": {**SMALL_PROBLEM, "symmetry_factor": False}},
         "bad problem config: symmetry_factor must be a number, got False"),
        ({"problem": {**SMALL_PROBLEM, "loads": [[29, "-1"]]}},
         "bad problem config: loads magnitude must be a number, got '-1'"),
        # problems that no solve can answer
        ({"problem": {**SMALL_PROBLEM, "name": "loose", "fixed_dofs": [0]}},
         "bad problem config: problem 'loose': the supports leave a rigid-body mode free"),
        ({"problem": {**SMALL_PROBLEM, "name": "held", "loads": [[3, -1.0]]}},
         "bad problem config: problem 'held': every load is on a fixed DOF"),
        # the retired refine thresholds are constants of pareto now
        ({"min_threshold": 0.002}, "unknown config key(s) ['min_threshold']"),
        ({"drop_threshold": 0.025}, "unknown config key(s) ['drop_threshold']"),
        # the points are the whole sweep: the retired count and range keys
        # are unknown, each named, beside the points or not
        ({"sweep": {"points": [0.3], "lo": float("nan")}},
         "unknown sweep key(s) ['lo']"),
        ({"sweep": {"points": [0.3], "count": "x"}},
         "unknown sweep key(s) ['count']"),
        ({"sweep": {"points": [0.3], "count": 3, "lo": 0.1, "hi": 0.9}},
         "unknown sweep key(s) ['count', 'hi', 'lo']"),
        # the retired settings are constants: PENAL, the grid's filter
        # radius, SIGMA and REFINE_ROUNDS
        ({"optimizer": {"penal": 3.0}}, "unknown optimizer key(s) ['penal']"),
        ({"optimizer": {"rmin": None}}, "unknown optimizer key(s) ['rmin']"),
        ({"sigma": 0.04}, "unknown config key(s) ['sigma']"),
        ({"rounds": 3}, "unknown config key(s) ['rounds']"),
        # every unknown optimizer key is named, not only the first
        ({"optimizer": {"penal": 3, "rmin": 2}}, "unknown optimizer key(s) ['penal', 'rmin']"),
        # placement is set by flags alone: the preset, the grid, the
        # directories and the workers are no config keys
        ({"nelx": 12}, "unknown config key(s) ['nelx']"),
        ({"nely": 6}, "unknown config key(s) ['nely']"),
        ({"out_dir": "o"}, "unknown config key(s) ['out_dir']"),
        ({"cache_dir": "c"}, "unknown config key(s) ['cache_dir']"),
        ({"workers": 1}, "unknown config key(s) ['workers']"),
        ({"problem": "mbb"}, "got str; a preset is named by --preset"),
        ({"sweep": {"count": 6}}, "unknown sweep key(s) ['count']"),
        # a problem's name is a JSON string, as metamodel.json's
        # problem_name that select compares with it
        ({"problem": {**SMALL_PROBLEM, "name": 5}},
         "bad problem config: name must be a string, got 5"),
        ({"problem": {**SMALL_PROBLEM, "name": None}},
         "bad problem config: name must be a string, got None"),
    ])
    def test_bad_config_shape_exit_2(self, tmp_path, capsys, doc, message):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(doc))
        out = tmp_path / "o"
        code = run(["--config", str(cfgfile), "optimize", "--out", str(out),
                    "--vf", "0.5"])
        assert code == 2 and not out.exists()
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flags, doc, code, message", [
        (("--nelx", "30", "--nely", "10"), {}, 2,
         "nelx 30 conflicts with the problem document's 6x3 grid"),
        (("--nely", "4"), {}, 2,
         "nely 4 conflicts with the problem document's 6x3 grid"),
        (("--nelx", "7"), {}, 2,
         "nelx 7 conflicts with the problem document's 6x3 grid"),
        # the document sets its own grid: no grid flag beside it, even a
        # matching one
        (("--nelx", "6", "--nely", "3"), {}, 2,
         "--nelx 6 conflicts with the problem document's 6x3 grid"),
        (("--nelx", "6"), {}, 2,
         "--nelx 6 conflicts with the problem document's 6x3 grid"),
        ((), {}, 0, ""),
        # the document is the problem: no preset beside it, and no grid
        # size in the file, even a matching one
        (("--preset", "mbb"), {}, 2,
         "--preset mbb conflicts with the config's problem document"),
        ((), {"nelx": 6}, 2, "unknown config key(s) ['nelx']"),
        (("--nely", "3"), {}, 2,
         "--nely 3 conflicts with the problem document's 6x3 grid"),
    ])
    def test_custom_problem_grid_flags(self, tmp_path, capsys, flags, doc,
                                       code, message):
        from topareto.fem2d import preset
        cfgfile = tmp_path / "cfg.json"
        problem = json.loads(preset("mbb", 6, 3).to_json())
        cfgfile.write_text(json.dumps({"problem": problem, **doc}))
        out = tmp_path / "o"
        got = run(["--config", str(cfgfile), "optimize", *flags,
                   "--out", str(out), "--vf", "0.5"])
        assert got == code
        if code:
            assert not out.exists()
            assert message in capsys.readouterr().err
        else:
            dens = (out / "densities.csv").read_text().strip().splitlines()
            assert (len(dens[0].split(",")), len(dens)) == (6, 3)

    def test_non_utf8_config_exit_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_bytes(NOT_UTF8)
        out = tmp_path / "o"
        code = run(["--config", str(cfgfile), "optimize", *tiny("--out", str(out)),
                    "--vf", "0.5"])
        assert code == 2 and not out.exists()
        assert f"cannot read config {cfgfile}" in capsys.readouterr().err

    def test_unknown_optimizer_key_exit_2(self, tmp_path, capsys):
        # fields of older configs: the OC constants are no longer settings
        # and the retired filter choice: the density filter is the only one
        for key, value in (("solve_method", "dense"), ("move_limit", 0.2),
                           ("eta", 0.5), ("change_tol", 0.01), ("e_min", 1e-9),
                           ("filter_kind", "density")):
            cfgfile = tmp_path / "cfg.json"
            cfgfile.write_text(json.dumps({"optimizer": {key: value}}))
            code = run(["--config", str(cfgfile), "optimize",
                        *tiny("--out", str(tmp_path / "o")), "--vf", "0.5"])
            assert code == 2
            assert f"unknown optimizer key(s) ['{key}']" in capsys.readouterr().err

    def test_filter_kind_flag_exit_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["optimize", *tiny("--out", str(tmp_path / "o")), "--vf", "0.5",
                 "--filter-kind", "density"])
        assert exc.value.code == 2 and not (tmp_path / "o").exists()
        assert "unrecognized arguments: --filter-kind" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--penal", "--rmin"])
    def test_retired_optimizer_flag_exit_2(self, tmp_path, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            run(["optimize", *tiny("--out", str(tmp_path / "o")), "--vf", "0.5",
                 flag, "3"])
        assert exc.value.code == 2 and not (tmp_path / "o").exists()
        assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err

    def test_every_config_key_accepted(self, tmp_path):
        # the keys of the benchmark pipeline's config, and all the others
        from topareto.fem2d import preset
        problem = json.loads(preset("mbb", 6, 3).to_json())
        doc = {"optimizer": {"max_iters": 5}, "anchor_vf": 0.3, "tie_tol": 0.02}
        for extra in ({"sweep": {"points": [0.3]}}, {"problem": problem}):
            cfgfile = tmp_path / "cfg.json"
            cfgfile.write_text(json.dumps({**doc, **extra}))
            cfg = cli._load_config(cli.build_parser().parse_args(
                ["--config", str(cfgfile), "pareto"]))
            assert (cfg.anchor_vf, cfg.tie_tol, cfg.optimizer.max_iters) == (0.3, 0.02, 5)
            # without a sweep, the default grid
            assert cfg.vf_grid == (extra["sweep"]["points"] if "sweep" in extra
                                   else default_vf_grid())
            assert cfg.problem.grid.nelx == (6 if "problem" in extra else 60)
            # no flag places the run: the defaults of --out, --cache, --workers
            assert (cfg.out_dir, cfg.cache_dir, cfg.workers) == (Path("out"), None, 1)

    @pytest.mark.parametrize("command, flag", [
        (["pareto", "--strategy", "baseline"], "--out"),
        (["optimize", "--vf", "0.5"], "--out"),
        (["optimize", "--vf", "0.5"], "--cache"),
        (["pareto", "--strategy", "baseline"], "--cache"),
    ])
    @pytest.mark.parametrize("under_file", [False, True])
    def test_file_as_directory_exit_2(self, tmp_path, capsys, monkeypatch,
                                      command, flag, under_file):
        # checked before any optimization runs, and nothing is created
        from topareto import pareto
        monkeypatch.setattr(pareto, "run_optimizations",
                            lambda *a, **k: pytest.fail("optimization ran"))
        blocker = tmp_path / "file"
        blocker.write_text("")
        path = blocker / "sub" if under_file else blocker
        other = "--cache" if flag == "--out" else "--out"
        code = run([command[0], *tiny(flag, str(path), other, str(tmp_path / "x")),
                    *command[1:]])
        assert code == 2
        err = capsys.readouterr().err
        assert f"directory {path}: {blocker} is not a directory" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]

    @pytest.mark.parametrize("flag, what", [("--out", "output"), ("--cache", "cache")])
    def test_name_too_long_exit_2(self, tmp_path, capsys, monkeypatch, flag, what):
        # no file system takes a 300-character name: refused before any run
        from topareto import pareto
        monkeypatch.setattr(pareto, "run_optimizations",
                            lambda *a, **k: pytest.fail("optimization ran"))
        path = tmp_path / ("x" * 300)
        other = "--cache" if flag == "--out" else "--out"
        code = run(["optimize", *tiny(flag, str(path), other, str(tmp_path / "o")),
                    "--vf", "0.5"])
        assert code == 2
        assert f"cannot create {what} directory {path}: " in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs a Linux /proc")
    @pytest.mark.parametrize("flag, what", [("--out", "output"), ("--cache", "cache")])
    def test_uncreatable_directory_exit_2(self, tmp_path, capsys, monkeypatch, flag,
                                          what):
        # /proc is a directory that takes no new one: a probe directory
        # made there fails, before any optimization runs
        from topareto import pareto
        monkeypatch.setattr(pareto, "run_optimizations",
                            lambda *a, **k: pytest.fail("optimization ran"))
        path = "/proc/topareto-absent"
        other = "--cache" if flag == "--out" else "--out"
        code = run(["optimize", *tiny(flag, path, other, str(tmp_path / "o")),
                    "--vf", "0.5"])
        assert code == 2
        assert f"cannot create {what} directory {path}: " in capsys.readouterr().err
        assert not os.path.exists(path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs a Linux /proc")
    def test_uncreatable_out_refused_before_the_sweep(self, capsys, monkeypatch):
        from topareto import pareto
        monkeypatch.setattr(pareto, "run_optimizations",
                            lambda *a, **k: pytest.fail("optimization ran"))
        path = "/proc/topareto-absent/front"
        assert run(["pareto", *tiny("--out", path), "--strategy", "baseline"]) == 2
        assert (f"cannot create output directory {path}: "
                in capsys.readouterr().err)
        assert not os.path.exists("/proc/topareto-absent")

    def test_directory_probe_leaves_nothing_behind(self, tmp_path):
        # the probe is made and removed in tmp_path, the nearest that exists
        out = tmp_path / "a" / "b"
        assert run(["optimize", *tiny("--out", str(out)), "--vf", "1.0"]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["a"]

    @pytest.mark.parametrize("name, value, minimum", [
        ("rounds", "2.7", 0), ("rounds", "-1", 0),
        ("sweep.count", "3.9", 1), ("sweep.count", "0", 1),
        ("workers", "1.9", 1),
        ("optimizer.max_iters", "2.5", 1), ("optimizer.max_iters", "0", 1),
        ("optimizer.max_iters", "true", 1),
    ])
    def test_bad_integer_exit_2(self, tmp_path, capsys, name, value, minimum):
        assert self._er_with_config(tmp_path, name, value) == 2
        got = json.loads(value)  # shown as Python shows it: true is True
        # OptimizerConfig checks its own field: an integer, then its minimum
        key = name.removeprefix("optimizer.")
        if isinstance(got, (bool, float)):
            expected = f"{key} must be an integer, got {got!r}"
        else:
            expected = f"{key} must be an integer of at least {minimum}, got {got!r}"
        assert self.RETIRED.get(name, expected) in capsys.readouterr().err

    def test_integer_minimums_accepted(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"optimizer": {"max_iters": 1}}))
        args = cli.build_parser().parse_args(
            ["--config", str(cfgfile), "pareto", *tiny("--workers", "1")])
        cfg = cli._load_config(args)
        assert (cfg.optimizer.max_iters, cfg.workers) == (1, 1)
