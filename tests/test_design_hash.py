"""``tools/design_hash.py`` must keep building its groups from the package.

Every claim that a change keeps the designs bit for bit rests on that tool,
and it calls the package by name; a rename in ``pareto`` or ``simp`` would
otherwise surface only when someone runs it.
"""

import importlib.util
from pathlib import Path

import pytest

from topareto import pareto
from topareto.fem2d import ProblemSpec
from topareto.simp import OptimizerConfig

DESIGN_HASH = Path(__file__).resolve().parent.parent / "tools" / "design_hash.py"


def _tool():
    spec = importlib.util.spec_from_file_location("design_hash", DESIGN_HASH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_groups_build_without_optimizing(monkeypatch):
    monkeypatch.setattr(pareto, "run_optimizations",
                        lambda *a, **k: pytest.fail("optimization ran"))
    tool = _tool()
    groups = list(tool.groups())
    assert [name for name, _, _ in groups] == [
        "mbb30-multistart", "mbb60-baseline", "mbb60-multistart", "bridge",
        "complex", "mbb120-optimize"]
    for _, problem, batches in groups:
        assert isinstance(problem, ProblemSpec)
        for tasks, cfg in batches:
            assert isinstance(cfg, OptimizerConfig)
            assert tasks and all(0 < t["vf"] <= 1 for t in tasks)
    assert callable(tool.digest_results) and callable(tool.main)


@pytest.mark.parametrize("sweep, tasks_of", [
    (pareto.baseline_states, "baseline_tasks"),
    (pareto.multistart_states, "multistart_tasks"),
])
def test_tool_hashes_the_tasks_the_sweeps_run(tiny_mbb, monkeypatch, sweep, tasks_of):
    ran = []

    def stop(problem, tasks, *args, **kwargs):
        ran.append(tasks)
        raise RuntimeError("stop")

    monkeypatch.setattr(pareto, "run_optimizations", stop)
    vfs = [0.1, 0.3, 0.6]
    with pytest.raises(RuntimeError, match="stop"):
        sweep(tiny_mbb, vfs, OptimizerConfig())
    assert ran == [getattr(_tool(), tasks_of)(vfs)]
