"""``tools/design_hash.py`` must keep building its groups from the package.

Every claim that a change keeps the designs bit for bit rests on that tool,
and it calls the package by name; a rename in ``pareto`` or ``simp`` would
otherwise surface only when someone runs it.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from topareto import pareto
from topareto.fem2d import DensityField, ProblemSpec
from topareto.simp import DesignResult, OptimizerConfig

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


def _result(c1, iterations):
    return DesignResult(DensityField(np.full(4, 0.5)), 2.0 * c1, c1, "converged",
                        tuple(3.0 - 0.1 * k for k in range(iterations)))


def test_compare_reports_the_largest_change_and_moved_iterations():
    tool = _tool()
    before = tool.summary([_result(10.0, 5), _result(20.0, 7), _result(40.0, 9)])
    assert tool.compare(before, before) == (0.0, 0)
    after = tool.summary([_result(10.0 * (1 + 1e-9), 5), _result(20.0 * (1 - 3e-9), 8),
                          _result(40.0, 9)])
    rel, changed = tool.compare(before, after)
    assert rel == pytest.approx(3e-9, rel=1e-6)
    assert changed == 1
    with pytest.raises(ValueError, match="3 saved runs against 2"):
        tool.compare(before, tool.summary([_result(10.0, 5), _result(20.0, 7)]))


def test_save_and_against_round_trip(tmp_path, monkeypatch, capsys):
    tool = _tool()
    runs = {"c1": 10.0, "iterations": 5}
    monkeypatch.setattr(tool, "groups", lambda: [("g", None, [([{"vf": 0.5}] * 2, None)])])
    monkeypatch.setattr(tool.pareto, "run_optimizations",
                        lambda *a: [_result(runs["c1"], runs["iterations"]),
                                    _result(4.0, 3)])
    saved = tmp_path / "before.json"
    assert tool.main(["--save", str(saved)]) == 0
    assert json.loads(saved.read_text()) == {
        "g": {"compliance_p1": [10.0, 4.0], "iterations": [5, 3]}}
    capsys.readouterr()
    runs.update(c1=10.0 * (1 + 2e-9), iterations=6)
    assert tool.main(["--against", str(saved)]) == 0
    assert (f"against {saved}: compliance_p1 within 2.00e-09 relative, "
            "1 of 2 runs changed iterations") in capsys.readouterr().out
