"""The names the benchmark under ``perfbench/`` patches or calls must exist.

The benchmark's tracer replaces each traced callable where callers look it
up, and its workloads call the sweep functions by name; a rename in the
package would otherwise surface only when the benchmark runs.
"""

import importlib.util
from pathlib import Path

from topareto import pareto

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _patch_table():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.patch_table()


def test_every_traced_lookup_site_resolves():
    for owner, attr, _name, _tag in _patch_table():
        assert callable(vars(owner).get(attr)), f"{owner.__name__}.{attr}"


def test_sweeps_called_by_name_exist():
    assert callable(pareto.baseline_states)
    assert callable(pareto.multistart_states)
