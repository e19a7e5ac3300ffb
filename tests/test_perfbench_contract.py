"""The names the benchmark under ``perfbench/`` patches or calls must exist,
and the calls must keep the shapes it relies on.

The benchmark's tracer replaces each traced callable where callers look it
up, and its workloads call the sweep functions by name and read results by
position; a rename or a changed signature in the package would otherwise
surface only when the benchmark runs.
"""

import importlib.util
import random
from pathlib import Path

import pytest

from topareto import cli, materials, pareto
from topareto.cache import RunCache
from topareto.metamodel import MetaModel, eval_front
from topareto.simp import OptimizerConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _patch_table():
    return _module("tracing").patch_table()


def test_every_traced_lookup_site_resolves():
    for owner, attr, _name, _tag in _patch_table():
        assert callable(vars(owner).get(attr)), f"{owner.__name__}.{attr}"


def test_optimize_calls_traced_kernel_methods_once_per_iteration(tiny_mbb,
                                                                 monkeypatch):
    # the tracer counts calls through the GridKernel class attributes: one
    # solve and one energy evaluation per iteration, then the final solve
    # of the moved design and its penalization-1 solve
    from topareto import fem2d, simp
    calls = {"solve": 0, "element_energies": 0}
    for name in calls:
        def counted(*args, _orig=vars(fem2d.GridKernel)[name], _name=name, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(fem2d.GridKernel, name, counted)
    res = simp.optimize(tiny_mbb.with_unit_load(), 0.4,
                        OptimizerConfig(max_iters=6))
    assert res.iterations == 6 and not res.converged
    assert calls == {"solve": res.iterations + 2,
                     "element_energies": res.iterations}


def test_result_attributes_the_benchmark_reads(tiny_mbb, tmp_path):
    # the result checks and the tracer's tags read these, on fresh results
    # and on cache hits alike
    cache = RunCache(tmp_path)
    tasks = [{"vf": 0.4, "init_kind": "uniform"}]
    cfg = OptimizerConfig(max_iters=5)
    fresh = pareto.run_optimizations(tiny_mbb, tasks, cfg, cache)[0]
    hit = pareto.run_optimizations(tiny_mbb, tasks, cfg, cache)[0]
    assert hit is not fresh
    types = {"vf": float, "iterations": int, "converged": bool,
             "descent_violations": int, "compliance_p": float,
             "compliance_p1": float}
    for res in (fresh, hit):
        for name, kind in types.items():
            assert type(getattr(res, name)) is kind, name
        assert type(res.densities.volume_fraction) is float
        assert res.densities.values.dtype == float
        assert res.vf == res.densities.volume_fraction
        assert res.iterations == len(res.history) == 5
    assert fresh.summary() == hit.summary()


def test_workload_config_and_filter_calls():
    # every workload builds its config with no argument or with max_iters
    # alone, and its set-up builds the filter of the grid it optimizes on
    from topareto import fem2d, simp
    grid = fem2d.preset("mbb", 60, 20).with_unit_load().grid
    for cfg in (simp.OptimizerConfig(), simp.OptimizerConfig(max_iters=30)):
        rmin = cfg.resolve_rmin(grid)
        assert rmin == 1.2
        assert simp.filter_build(grid, rmin).shape == (grid.nel, grid.nel)
    assert simp.OptimizerConfig(max_iters=30).max_iters == 30


def test_pipeline_stages_load_as_the_cli_reads_them(tmp_path):
    # mbb60-pipeline places each stage by flags and sets the experiment in
    # its config file; every stage's argv must load to the run it times
    wl = _module("workload").Pipeline60(random.Random(0))
    wl.prepare(tmp_path / "work")
    wl.cache = tmp_path / "work" / "cache0"
    out = tmp_path / "work" / "cold0"
    for stage in wl.stages:
        cfg = cli._load_config(cli.build_parser().parse_args(wl.argv(stage, out, 2)))
        assert (cfg.problem.name, cfg.problem.grid.nelx, cfg.problem.grid.nely) == \
            ("mbb", *wl.grid)
        assert (cfg.vf_grid, cfg.anchor_vf) == (wl.vfs, wl.anchor_vf)
        assert cfg.optimizer == OptimizerConfig(max_iters=wl.max_iters)
        assert (cfg.out_dir, cfg.cache_dir, cfg.workers) == (out, wl.cache, 2)
        assert cfg.tie_tol == materials.DEFAULT_TIE_TOL


def test_sweeps_called_by_name_exist():
    assert callable(pareto.baseline_states)
    assert callable(pareto.multistart_states)


def _spy(monkeypatch, owner, calls):
    """Records ``(tasks, results)`` of each ``run_optimizations`` call made
    through ``owner``, the way the benchmark's result check wraps it."""
    orig = owner.run_optimizations

    def spy(problem, tasks, *args, **kwargs):
        results = orig(problem, tasks, *args, **kwargs)
        calls.append((tasks, results))
        return results

    monkeypatch.setattr(owner, "run_optimizations", spy)


def test_multistart_is_one_batch_led_by_the_uniform_start(tiny_mbb, monkeypatch):
    # mbb30-multistart reads the uniform start's result as the first result
    # of the last batch
    cfg = OptimizerConfig(max_iters=5)
    uniform, _ = pareto.baseline_states(tiny_mbb, [0.3], cfg)
    calls = []
    _spy(monkeypatch, pareto, calls)
    pareto.multistart_states(tiny_mbb, [0.3], cfg)
    assert len(calls) == 1
    tasks, results = calls[0]
    assert tasks[0] == {"vf": 0.3, "init_kind": "uniform"}
    assert results[0].compliance_p1 == uniform.points[0].c


def test_near_tied_select_runs_no_solver(tiny_mbb, monkeypatch):
    # the benchmark's select stage re-scores a near-tie; it reads the front
    # and leaves the names the result check wraps uncalled
    from topareto import fem2d
    m0 = MetaModel(3.28, 2.0, ((0.1, 36.0), (1.0, 9.84)), "mbb")
    vfs = [0.05 * k for k in range(1, 21)]
    front = pareto.ParetoFront(tuple(pareto.FrontPoint(v, eval_front(m0, v)) for v in vfs))
    # unit load case: the required compliance is the modulus, met near vf 0.5
    lc = materials.LoadCase(1.0, 1.0, 1.0, 1.0, 1.0)
    mats = [materials.Material("probe", eval_front(m0, 0.5), 1000.0),
            materials.Material("probe lot B", eval_front(m0, 0.5) * 1.001, 1001.0)]
    calls, factorized = [], []
    for owner in (materials, pareto):
        _spy(monkeypatch, owner, calls)
    monkeypatch.setattr(fem2d.GridKernel, "factorize",
                        lambda *args: factorized.append(args))
    report = materials.select(mats, m0, lc, problem=tiny_mbb, front=front)
    assert len(report.near_ties) == 1
    assert report.trail[-1].startswith("tie resolved by front mass")
    assert calls == [] and factorized == []


def test_baseline_runs_with_defaults(tiny_mbb):
    # mbb60-baseline passes only the problem, the vfs and the config
    front, designs = pareto.baseline_states(tiny_mbb, [0.3, 0.6],
                                            OptimizerConfig(max_iters=5))
    assert [p.vf for p in front.points] == [0.3, 0.6]
    assert len(designs) == 2
