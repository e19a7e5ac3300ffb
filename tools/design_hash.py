"""Hash the designs of whole sweeps, to show whether a change keeps the bits.

    OPENBLAS_NUM_THREADS=1 python3 tools/design_hash.py

Run it from anywhere; it imports the package from the ``src/`` tree beside
this script, so running it in two checkouts compares them. Every group runs
serially and without a cache. For each group it prints a sha256 over every
result, in task order: the density bytes, both compliances, the volume
fraction, the iteration count, the converged flag and the history. A last
line hashes the group hashes. Equal hashes mean the same designs, fronts and
cache entries, bit for bit; a kernel rewrite that keeps its summation order
keeps them. Outputs repeat only at a fixed BLAS thread count.

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

import hashlib
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


def main() -> int:
    overall = hashlib.sha256()
    for name, problem, batches in groups():
        h = hashlib.sha256()
        start = time.perf_counter()
        n_results = n_iters = 0
        for tasks, cfg in batches:
            results = pareto.run_optimizations(problem, tasks, cfg)
            digest_results(h, results)
            n_results += len(results)
            n_iters += sum(r.iterations for r in results)
        overall.update(f"{name}={h.hexdigest()};".encode())
        print(f"{name:28s} {h.hexdigest()}  {n_results} results, "
              f"{n_iters} iterations, {time.perf_counter() - start:.1f} s", flush=True)
    print(f"{'overall':28s} {overall.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
