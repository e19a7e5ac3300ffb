"""Hash the designs of whole sweeps, to show whether a change keeps the bits.

    OPENBLAS_NUM_THREADS=1 python3 tools/design_hash.py [--save PATH] [--against PATH]

Run it from anywhere; it imports the package from the ``src/`` tree beside
this script, so running it in two checkouts compares them. Every group runs
serially and without a cache. For each group it prints a sha256 over every
result, in task order: the density bytes, both compliances, the volume
fraction, the iteration count, the converged flag and the history. A last
line hashes the group hashes. Equal hashes mean the same designs, fronts and
cache entries, bit for bit; a kernel rewrite that keeps its summation order
keeps them. Outputs repeat bit for bit at 1, 2 and 4 OpenBLAS threads on
grids up to 120x40 (measured on a 2-core host); at 200x66 the compliance
histories differ between thread counts in their last digits, so compare runs
made at one thread count.

When the bits move, ``--save PATH`` in one checkout writes each group's
penalization-1 compliances and iteration counts as JSON, and ``--against
PATH`` in the other prints, per group, the largest relative change of
``compliance_p1`` and the number of runs whose iteration count changed.

Groups:

* ``mbb30-multistart``: 30x10 ``mbb``, all nine starts raced as
  ``pareto.multistart_states`` races them, at vf 0.1, 0.3 and 0.6;
* ``mbb60-baseline``: 60x20 ``mbb`` from the uniform start at the 50
  default vfs;
* ``mbb60-multistart``: 60x20 ``mbb``, nine starts at 10 vfs, 40 iterations;
* ``bridge`` and ``complex``: each preset at its default size, a 10-vf
  baseline and a nine-start sweep at vf 0.1, 0.3 and 0.6, 40 iterations;
* ``mbb120-optimize``: 120x40 ``mbb`` from the uniform start at vf 0.2 and
  0.5, 30 iterations, as the benchmark workload of that name runs it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from topareto import pareto  # noqa: E402
from topareto.fem2d import preset  # noqa: E402
from topareto.simp import INITIAL_DESIGN_KINDS, OptimizerConfig  # noqa: E402

SHORT = OptimizerConfig(max_iters=40)


def baseline_tasks(vfs):
    return pareto.start_tasks(vfs, ("uniform",))


def multistart_tasks(vfs):
    """The tasks of ``pareto.multistart_states``."""
    return pareto.start_tasks(vfs, INITIAL_DESIGN_KINDS)


def groups():
    """(name, problem, [(tasks, cfg), ...]) for every group."""
    three = [0.1, 0.3, 0.6]
    ten = pareto.default_vf_grid(10)
    fifty = pareto.default_vf_grid()
    yield "mbb30-multistart", preset("mbb", 30, 10), [(multistart_tasks(three), OptimizerConfig())]
    yield "mbb60-baseline", preset("mbb"), [(baseline_tasks(fifty), OptimizerConfig())]
    yield "mbb60-multistart", preset("mbb"), [(multistart_tasks(ten), SHORT)]
    for name in ("bridge", "complex"):
        yield name, preset(name), [(baseline_tasks(ten), OptimizerConfig()),
                                   (multistart_tasks(three), SHORT)]
    yield ("mbb120-optimize", preset("mbb", 120, 40),
           [(baseline_tasks([0.2, 0.5]), OptimizerConfig(max_iters=30))])


def digest_results(h, results) -> None:
    for res in results:
        h.update(np.ascontiguousarray(res.densities.values).tobytes())
        h.update(np.array([res.compliance_p, res.compliance_p1, res.vf, *res.history],
                          dtype=float).tobytes())
        h.update(f"|{res.iterations}|{bool(res.converged)}|{len(res.history)}|".encode())


def summary(results) -> dict:
    """What ``--save`` keeps of a group's results, in task order."""
    return {"compliance_p1": [res.compliance_p1 for res in results],
            "iterations": [res.iterations for res in results]}


def compare(before: dict, after: dict) -> tuple[float, int]:
    """The largest relative ``compliance_p1`` change and the number of runs
    whose iteration count changed, between two summaries of one group."""
    if len(before["iterations"]) != len(after["iterations"]):
        raise ValueError(f"{len(before['iterations'])} saved runs against "
                         f"{len(after['iterations'])}")
    c0, c1 = np.array(before["compliance_p1"]), np.array(after["compliance_p1"])
    rel = float(np.max(np.abs(c1 - c0) / np.abs(c0), initial=0.0))
    return rel, sum(a != b for a, b in zip(before["iterations"], after["iterations"]))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--save", metavar="PATH", help="write the groups' compliances and iterations")
    p.add_argument("--against", metavar="PATH", help="compare with a file of --save")
    args = p.parse_args(argv)
    saved = json.loads(Path(args.against).read_text()) if args.against else None
    overall = hashlib.sha256()
    summaries = {}
    for name, problem, batches in groups():
        h = hashlib.sha256()
        start = time.perf_counter()
        results = []
        for tasks, cfg in batches:
            batch = pareto.run_optimizations(problem, tasks, cfg)
            digest_results(h, batch)
            results += batch
        overall.update(f"{name}={h.hexdigest()};".encode())
        summaries[name] = summary(results)
        print(f"{name:28s} {h.hexdigest()}  {len(results)} results, "
              f"{sum(summaries[name]['iterations'])} iterations, "
              f"{time.perf_counter() - start:.1f} s", flush=True)
        if saved is not None:
            rel, changed = compare(saved[name], summaries[name])
            print(f"{'':28s} against {args.against}: compliance_p1 within {rel:.2e} "
                  f"relative, {changed} of {len(results)} runs changed iterations", flush=True)
    print(f"{'overall':28s} {overall.hexdigest()}")
    if args.save:
        Path(args.save).write_text(json.dumps(summaries))
    return 0


if __name__ == "__main__":
    sys.exit(main())
