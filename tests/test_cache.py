"""On-disk result cache and SVG emission utilities."""

import json
import re
from dataclasses import asdict, fields, replace
from xml.etree import ElementTree

import numpy as np
import pytest

from topareto.cache import RunCache, field_descriptor, result_key
from topareto.fem2d import DensityField, preset
from topareto.simp import DesignResult, OptimizerConfig
from topareto import svgplot
from topareto.errors import InvalidArgumentError


def make_result(n=12):
    rng = np.random.default_rng(1)
    # one compliance increase in the history: descent_violations is 1
    return DesignResult(DensityField(rng.random(n)), 12.5, 11.25, "converged",
                        (13.0, 12.0, 12.5))


class TestRunCache:
    def test_round_trip(self, tmp_path):
        cache = RunCache(tmp_path)
        res = make_result()
        cache.put("k1", res)
        back = cache.get("k1")
        assert back is not None
        assert np.array_equal(back.densities.values, res.densities.values)
        assert back.compliance_p == res.compliance_p
        assert back.compliance_p1 == res.compliance_p1
        assert back.iterations == res.iterations
        assert back.end == res.end and back.converged

    def test_history_round_trips_bit_for_bit(self, tmp_path, small_mbb):
        from topareto.simp import initial_design, optimize
        cache = RunCache(tmp_path)
        rng = np.random.default_rng(2)
        awkward = (0.1, 1 / 3, 2.0 ** -1074, 1.7976931348623157e308,
                   *(rng.random(20) * 10.0 ** rng.integers(-300, 300, 20)))
        res = replace(make_result(), history=tuple(float(c) for c in awkward))
        run = optimize(small_mbb, 0.3, OptimizerConfig(max_iters=12),
                       initial_design("ring", 0.3, small_mbb.grid))
        for key, result in (("k1", res), ("k2", run)):
            cache.put(key, result)
            back = cache.get(key)
            assert len(back.history) == len(result.history) > 0
            assert all(type(c) is float for c in back.history)
            assert (np.array(back.history).tobytes()
                    == np.array(result.history).tobytes())
            assert back.summary() == result.summary()

    def test_miss_returns_none(self, tmp_path):
        assert RunCache(tmp_path).get("missing") is None

    def test_disabled_cache(self):
        cache = RunCache(None)
        cache.put("k", make_result())
        assert cache.get("k") is None

    def test_cache_version_enters_key(self, monkeypatch):
        from topareto import cache as cache_mod
        p = preset("mbb", 8, 4)
        k1 = result_key(p, 0.5, "kind:uniform", OptimizerConfig())
        monkeypatch.setattr(cache_mod, "CACHE_VERSION", cache_mod.CACHE_VERSION + 1)
        assert result_key(p, 0.5, "kind:uniform", OptimizerConfig()) != k1

    def test_keys_are_stable_and_distinct(self):
        p = preset("mbb", 8, 4)
        cfg = OptimizerConfig()
        k1 = result_key(p, 0.5, "kind:uniform", cfg)
        k2 = result_key(p, 0.5, "kind:uniform", cfg)
        assert k1 == k2
        assert result_key(p, 0.6, "kind:uniform", cfg) != k1
        assert result_key(p, 0.5, "kind:ring", cfg) != k1
        # every optimizer field enters the key, and the dict form sent to
        # pool workers rebuilds an equal config
        changed = {"max_iters": 100}
        assert set(changed) == {f.name for f in fields(OptimizerConfig)}
        for name, value in changed.items():
            other = replace(cfg, **{name: value})
            assert result_key(p, 0.5, "kind:uniform", other) != k1, name
            assert OptimizerConfig(**asdict(other)) == other

    @pytest.mark.parametrize("edit", [
        lambda meta, root: meta.pop("history"),
        lambda meta, root: meta.pop("descent_violations"),
        lambda meta, root: meta.update(history=5),
        lambda meta, root: meta.update(compliance_p1="abc"),
        lambda meta, root: meta.update(compliance_p1=float("nan")),
        lambda meta, root: meta.update(compliance_p=float("inf")),
        lambda meta, root: meta.update(vf=None),
        lambda meta, root: meta.update(history=[13.0, float("nan"), 12.5]),
        lambda meta, root: meta.update(history=[13.0, "12.0", 12.5]),
        lambda meta, root: meta.update(iterations=42.0),
        lambda meta, root: meta.update(iterations=True),
        lambda meta, root: meta.update(converged=1),
        lambda meta, root: meta.update(end="done"),
        lambda meta, root: meta.update(end=1),
        lambda meta, root: meta.pop("end"),
        lambda meta, root: np.save(root / "k.npy", np.full(12, np.nan)),
        lambda meta, root: meta.update(iterations=meta["iterations"] + 1),
        lambda meta, root: meta.update(vf=meta["vf"] + 1e-9),
        lambda meta, root: meta.pop("vf"),
        lambda meta, root: np.save(root / "k.npy", np.full(12, 0.5)),
    ], ids=["no history", "no descent_violations", "history not a list",
            "compliance_p1 a string", "compliance_p1 NaN", "compliance_p inf",
            "vf null", "history NaN", "history string", "iterations float",
            "iterations bool", "converged int", "end unknown", "end int",
            "no end", "densities NaN",
            "iterations not the history length", "vf not the density mean",
            "no vf", "densities not of the stored vf"])
    def test_malformed_entry_is_a_miss(self, tmp_path, edit):
        cache = RunCache(tmp_path)
        cache.put("k", make_result())
        assert cache.get("k") is not None
        meta_path = tmp_path / "k.json"
        meta = json.loads(meta_path.read_text())
        edit(meta, tmp_path)
        meta_path.write_text(json.dumps(meta))
        assert cache.get("k") is None

    def test_field_descriptor_stable(self):
        v = np.linspace(0, 1, 20)
        assert field_descriptor(v) == field_descriptor(v.copy())
        assert field_descriptor(v) != field_descriptor(v * 0.9)

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        import os
        cache = RunCache(tmp_path)

        def no_room(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", no_room)
        with pytest.raises(OSError, match="No space left"):
            cache.put("k", make_result())
        assert list(tmp_path.iterdir()) == []

    def test_overwrite_is_atomic_replace(self, tmp_path):
        cache = RunCache(tmp_path)
        cache.put("k", make_result())
        cache.put("k", make_result())
        assert cache.get("k") is not None


class TestSvgplot:
    def test_chart_deterministic(self):
        xs = np.linspace(0.1, 1, 20)
        a = svgplot.chart([("s", xs, 1 / xs)], xlabel="x", ylabel="y")
        b = svgplot.chart([("s", xs, 1 / xs)], xlabel="x", ylabel="y")
        assert a == b
        assert a.startswith("<svg")
        assert "polyline" in a

    def test_log_axes_reject_nonpositive(self):
        with pytest.raises(InvalidArgumentError):
            svgplot.chart([("s", [0.0, 1.0], [1.0, 2.0])], logx=True)

    @pytest.mark.parametrize("value", [0.1, 0.5, 125.0])
    def test_flat_series_on_log_axes(self, value):
        # a flat range widens by a factor, so a log axis stays positive
        svg = svgplot.chart([("front", [value], [value])], logx=True, logy=True)
        assert svg.count("<circle") == 1 and "nan" not in svg
        assert 'cx="334.00"' in svg  # the middle of the widened range

    def test_flat_series_on_linear_axes(self):
        svg = svgplot.chart([("s", [0.5, 0.5], [2.0, 2.0])])
        assert "nan" not in svg and "polyline" in svg

    def test_density_raster_shape(self):
        svg = svgplot.density_raster(np.linspace(0, 1, 12).reshape(3, 4), cell=10)
        assert 'width="40"' in svg
        assert 'height="30"' in svg

    def test_ashby_chart(self):
        from topareto.materials import Material
        mats = [Material("a", 10e9, 1000), Material("b", 100e9, 5000)]
        svg = svgplot.ashby_chart([("all", mats)])
        assert svg.count("<circle") == 2

    def test_ashby_chart_of_table_1_labels_both_axes(self):
        from test_materials import TABLE_MATS
        svg = svgplot.ashby_chart([("all", TABLE_MATS)])
        # rho 2795-7915 holds no power of ten, E 70.8-205 GPa only 1e+11
        x_labels = re.findall(r'font-size="11" text-anchor="middle">([^<]+)<', svg)
        y_labels = re.findall(r'font-size="11" text-anchor="end">([^<]+)<', svg)
        assert x_labels == ["3000", "4000", "5000", "6000", "7000"]
        assert y_labels == ["1e+11", "2e+11"]

    @pytest.mark.parametrize("lo, hi, want", [
        (1e-3, 1e3, [1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3]),
        (0.02, 1.0, [0.1, 1.0]),
        (100.0, 400.0, [100.0, 200.0]),
        (7.08e10, 2.05e11, [1e11, 2e11]),
        (2795.0, 7915.0, [3000.0, 4000.0, 5000.0, 6000.0, 7000.0]),
        (0.3, 0.35, [0.3]),
    ])
    def test_log_ticks_coarsest_multiples_with_two_inside(self, lo, hi, want):
        assert svgplot._ticks(lo, hi, True) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("lo, hi, want", [
        (0.0155, 1.29, [0.0155, 0.334125, 0.65275, 0.971375, 1.29]),
        (-0.5, 1.0, [-0.5, -0.125, 0.25, 0.625, 1.0]),
        (-3.0, -1.0, [-3.0, -2.5, -2.0, -1.5, -1.0]),
        (-1.0, 0.0, [-1.0, -0.75, -0.5, -0.25, 0.0]),
    ])
    def test_linear_ticks_keep_both_ends(self, lo, hi, want):
        # negative ends too: efficiency ratios can be negative
        assert svgplot._ticks(lo, hi, False) == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_chart_text_is_escaped(self):
        svg = svgplot.chart([("s<1> & more", [0.1, 0.5], [1.0, 2.0])],
                            xlabel="x <m>", ylabel="a&b", title="A&B <x>")
        root = ElementTree.fromstring(svg)
        texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        for text in ("A&B <x>", "x <m>", "a&b", "s<1> & more"):
            assert text in texts
