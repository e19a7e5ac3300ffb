"""topareto benchmark: one command, one workload, one JSON result line.

    python3 perfbench/run.py --workload mbb60-baseline --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``, nothing is installed. Every run starts fresh processes with
BLAS/OpenMP pinned to one thread (see README.md):

* set-up probes before and after the workload process, each a new
  interpreter that imports the package and builds the workload's kernel
  and filter; ``setup_s`` is the median of their set-up times and the
  workload process's own;
* the workload process (workload.py), which runs the workload for
  ``--seconds``, checks its outputs and reports end-to-end metrics;
  ``wall_ref`` is its time in units of a reference computation timed
  alongside it (see ``Gauge`` in workload.py);
* with ``--trace 1``, first an untraced and then a traced workload process,
  each for half of ``--seconds``: the per-layer metrics come from the
  traced one, and ``trace.overhead_s`` is the difference of their ``wall_s``.

``--selftest`` instead runs the traced workload process twice and requires
the exact counts to agree. The last line of standard output is the result;
the full record goes to ``perfbench/out/``. The exit code is 0 only when
every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 3       # before the workload process, and again after it
PROBE_LIMIT_S = 20.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
RUN_LIMIT_S = 170.0     # every run, probes and workload processes included
# pipeline-only metrics, measured untraced and reported with the per-layer set
PIPELINE_TIMES = ("stage.baseline_s", "stage.multistart_s", "stage.refine_s",
                  "stage.fit_s", "parallel_s", "warm_s")


def child_env() -> dict:
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(args: list[str], timeout: float) -> tuple[dict | None, str]:
    """Start workload.py; return its JSON result (or None) and its stderr.

    The child leads its own process group, so a timeout also stops any pool
    workers it started; the group is waited for before returning.
    """
    cmd = [sys.executable, str(HERE / "workload.py"), *args,
           "--spawned-at", repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    with subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return None, f"timed out after {timeout:.0f} s"
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), stderr
    except (IndexError, json.JSONDecodeError):
        return None, stderr or stdout


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="input seed (default: --default-seed)")
    p.add_argument("--default-seed", type=int, default=0,
                   help="the seed whose fronts are stored in reference.json")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true",
                   help="run the traced workload twice and compare exact counts")
    a = p.parse_args(argv)
    seed = a.default_seed if a.seed is None else a.seed

    spec_path = ROOT / "BENCHMARK.json"
    for need in (ROOT / "src" / "topareto" / "__init__.py", spec_path):
        if not need.is_file():
            print(f"error: {need} not found; run from a topareto checkout",
                  file=sys.stderr)
            return 2
    spec = json.loads(spec_path.read_text())
    if a.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {a.workload!r}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    seconds = a.seconds / 2 if a.trace else a.seconds
    base = ["--workload", a.workload, "--seed", str(seed), "--seconds", str(seconds)]
    if a.selftest:
        return selftest(a.workload, base)

    start = time.monotonic()
    errors: list[str] = []
    setup = []

    def probe():
        for _ in range(SETUP_PROBES):
            res, err = run_child([*base, "--probe"], PROBE_LIMIT_S)
            if res is None:
                errors.append(f"set-up probe failed: {err}")
                return
            setup.append(res["setup_s"])

    probe()
    runs = {}
    for trace in ((0, 1) if a.trace else (0,)):
        if errors:
            break
        left = RUN_LIMIT_S - PROBE_LIMIT_S - (time.monotonic() - start)
        res, err = run_child([*base, "--trace", str(trace)],
                             left / (2 - trace if a.trace else 1))
        if res is None:
            errors.append(f"workload process (trace {trace}) failed: {err}")
        elif "wall_s" not in res or (trace and "per_layer" not in res):
            errors.extend(res["failures"])
        runs[trace] = res
    if not errors:
        probe()
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1

    plain = runs[0]
    setup.append(plain["setup_s"])
    values = {"setup_s": statistics.median(setup), "wall_ref": plain["wall_ref"],
              "front_logc": plain["front_logc"], "peak_rss_mb": plain["peak_rss_mb"]}
    kind = "end_to_end"
    if a.trace:
        traced = runs[1]
        kind = "per_layer"
        values = dict(traced["per_layer"])
        values.update({k: plain.get(k, 0.0) for k in PIPELINE_TIMES})
        values["wall_s"] = plain["wall_s"]
        values["ref_s"] = plain["ref_s"]
        values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]

    attempted = sum(r["attempted"] for r in runs.values())
    failures = [f for r in runs.values() for f in r["failures"]]
    env = {"nproc": len(os.sched_getaffinity(0)),
           "threads": {v: child_env()[v] for v in THREAD_VARS},
           "python": plain["python"], "numpy": plain["numpy"], "scipy": plain["scipy"]}
    record = {"workload": a.workload, "seed": seed, "seconds": a.seconds,
              "trace": a.trace, "env": env, "setup_samples": setup,
              "runs": {str(k): v for k, v in runs.items()},
              "fail_ratio": len(failures) / attempted if attempted else 1.0}
    (OUT / f"result-{a.workload}-seed{seed}-trace{a.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"workload {a.workload} seed {seed}: {json.dumps(env)}")
    if a.trace and a.workload == "mbb60-pipeline":
        print("note: per-layer numbers cover the parent process only; "
              "spans inside pool workers are not collected")
    if a.trace:
        print(f"tracing overhead: {values['trace.overhead_s']:+.4f} s on wall_s "
              f"{plain['wall_s']:.4f} s; spans in {traced.get('spans')}")
    for f in failures:
        print(f"FAILED {f[:2000]}")
    print(f"fail_ratio {record['fail_ratio']:.4g} ({len(failures)} of {attempted})")

    metrics = {}
    for m in spec[kind]:
        if m["name"] not in values:
            print(f"error: metric {m['name']} was not measured", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


def selftest(workload: str, base: list[str]) -> int:
    """Two traced runs of one seed must agree on every exact count."""
    counts = []
    for _ in range(2):
        res, err = run_child([*base, "--trace", "1"], RUN_LIMIT_S / 2)
        if res is None:
            print(f"error: traced run failed: {err}", file=sys.stderr)
            return 1
        counts.append(res["exact_counts"])
    same = counts[0] == counts[1]
    print(json.dumps({"workload": workload, "exact_counts_repeat": same,
                      "counts": counts}))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
