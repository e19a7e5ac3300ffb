"""Hash the artifacts of the six CLI stages, to show whether a change keeps their bytes.

    OPENBLAS_NUM_THREADS=1 python3 tools/artifact_hash.py --nelx 60 --nely 20 --vfs 50 --workers 2

Run it from anywhere; it imports the package from the ``src/`` tree beside
this script, so running it in two checkouts compares them. In a fresh
temporary directory it runs ``pareto`` with the ``baseline``, ``multistart``
and ``refine`` strategies, ``er`` on the refined front, ``fit``, and
``select`` with the four-alloy table under a 20 kN load (5 mm deflection
limit, 5 mm thickness, a 2.0 m x 0.5 m part), all on the ``mbb`` preset with
a fresh cache. The config's ``sweep.points`` are ``--vfs`` evenly spaced
volume fractions from 0.02 to 1.0. It prints a sha256 per artifact, one over
the census lines the stages print, followed by those lines, indented, so a
census diff can be read off two runs, and one over the names and bytes of the
cache files. ``--tie-tol 0.3`` makes ``select`` re-score a near-tie on the
refined front, so ``selection.json`` carries the front's masses. Outputs
repeat bit for bit at 1, 2 and 4 OpenBLAS threads on grids up to 120x40
(measured on a 2-core host); at 200x66 the compliance histories differ between
thread counts in their last digits, so compare runs made at one thread count.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from topareto import cli  # noqa: E402
from topareto.materials import DEFAULT_TIE_TOL  # noqa: E402
from topareto.pareto import default_vf_grid  # noqa: E402

MATERIALS = ("name,E_GPa,rho_kgm3\n"
             "Aluminum alloy (7475),70.8,2795\n"
             "Stainless steel (AISI 347),197,7915\n"
             "Titanium alloy (Ti-6Al-4V),116,4400\n"
             "Inconel 713,205,7900\n")
LOAD = ["--force", "20e3", "--delta-max", "5e-3", "--thickness", "5e-3",
        "--length", "2.0", "--height", "0.5"]
ARTIFACTS = tuple(f"front_{s}.{ext}" for s in ("baseline", "multistart", "refine")
                  for ext in ("csv", "svg")) + (
    "er_raw.csv", "er_filtered.csv", "er.svg",
    "metamodel.json", "fit_error.csv", "fit_overlay.svg",
    "selection.json", "ashby.svg")
# "<label>: <n> tasks, ..." as pareto.census reports a batch
CENSUS = re.compile(r"^[a-z ]+: \d+ tasks, ")


def stages(work: Path, nelx: int, nely: int, workers: int) -> list[tuple[str, list[str]]]:
    """(stage, argv) of the six stages, writing under ``work``."""
    out = work / "out"
    common = ["--preset", "mbb", "--nelx", str(nelx), "--nely", str(nely),
              "--out", str(out), "--cache", str(work / "cache"),
              "--workers", str(workers)]
    runs = [(s, ["pareto", *common, "--strategy", s])
            for s in ("baseline", "multistart", "refine")]
    runs += [("er", ["er", *common, "--front", str(out / "front_refine.csv")]),
             ("fit", ["fit", *common]),
             ("select", ["select", *common, "--materials", str(work / "materials.csv"),
                         *LOAD])]
    return [(name, ["--config", str(work / "config.json"), *argv]) for name, argv in runs]


def write_inputs(work: Path, vfs: int, tie_tol: float) -> None:
    (work / "config.json").write_text(json.dumps(
        {"sweep": {"points": default_vf_grid(vfs)}, "tie_tol": tie_tol}))
    (work / "materials.csv").write_text(MATERIALS)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--nelx", type=int, default=60)
    p.add_argument("--nely", type=int, default=20)
    p.add_argument("--vfs", type=int, default=50, help="volume fractions in the sweep")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--tie-tol", dest="tie_tol", type=float, default=DEFAULT_TIE_TOL)
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        write_inputs(work, args.vfs, args.tie_tol)
        census = []
        for name, stage_argv in stages(work, args.nelx, args.nely, args.workers):
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                code = cli.main(stage_argv)
            if code != 0:
                print(f"stage {name} exited {code}", file=sys.stderr)
                return 1
            census += [line for line in printed.getvalue().splitlines()
                       if CENSUS.match(line)]
        for name in ARTIFACTS:
            print(f"{name:20s} {sha((work / 'out' / name).read_bytes())}")
        print(f"{'census':20s} {sha(chr(10).join(census).encode())}  {len(census)} lines")
        for line in census:
            print(f"    {line}")
        cache = sorted(p for p in (work / "cache").rglob("*") if p.is_file())
        h = hashlib.sha256()
        for path in cache:
            h.update(f"{path.relative_to(work / 'cache')}\0".encode())
            h.update(path.read_bytes())
        print(f"{'cache':20s} {h.hexdigest()}  {len(cache)} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
