"""Command-line pipeline: optimize | pareto | er | fit | select.

Each setting has one source and one form. Flags place the run: the preset
and its grid (``--preset``, ``--nelx``, ``--nely``), the output and cache
directories (``--out``, ``--cache``) and ``--workers``. An optional JSON
config file (``--config``) describes the experiment: a custom ``problem``
document, which sets its own grid, ``optimizer.max_iters``, the sweep's
volume fractions ``sweep.points``, ``anchor_vf`` and ``tie_tol``.
All artifacts are plain CSV/JSON/SVG written under the output directory;
sweep results are cached under the cache directory so repeated runs are
no-ops on finished computations.

Exit codes: 0 ok, 2 invalid input, 3 infeasible problem, 4 solver or
internal failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

from . import er as er_mod
from . import materials as mat_mod
from . import metamodel as mm_mod
from . import pareto as pareto_mod
from . import svgplot
from .cache import RunCache
from .errors import InfeasibleError, InvalidArgumentError, SolverError, ToparetoError
from .fem2d import ProblemSpec, _json_number, preset
from .simp import OptimizerConfig

# the real-valued numbers a config may set at its top level
NUMBER_KEYS = ("anchor_vf", "tie_tol")


@dataclass
class RunConfig:
    problem: ProblemSpec
    optimizer: OptimizerConfig
    vf_grid: list[float]
    out_dir: Path
    cache_dir: Path | None
    workers: int
    anchor_vf: float = mm_mod.DEFAULT_ANCHOR_VF
    tie_tol: float = mat_mod.DEFAULT_TIE_TOL

    def cache(self) -> RunCache:
        return RunCache(self.cache_dir and _mkdir(self.cache_dir, "cache"))


def _load_config(args) -> RunConfig:
    doc = _read(args.config, "config", json.loads) if args.config else {}
    if not isinstance(doc, dict):
        raise InvalidArgumentError(f"config must be a JSON object, got {type(doc).__name__}")
    _known_keys(doc, ("problem", "optimizer", "sweep", *NUMBER_KEYS), "config")
    if "problem" not in doc:
        problem = preset(args.preset or "mbb", args.nelx, args.nely)
    elif not isinstance(doc["problem"], dict):
        raise InvalidArgumentError("problem must be a problem document (a JSON object), got "
                                   f"{type(doc['problem']).__name__}; a preset is named by "
                                   "--preset")
    elif args.preset:
        raise InvalidArgumentError(f"--preset {args.preset} conflicts with the config's "
                                   "problem document")
    else:
        try:
            problem = ProblemSpec.from_json(json.dumps(doc["problem"]))
        except KeyError as exc:
            raise InvalidArgumentError(f"problem config is missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise InvalidArgumentError(f"bad problem config: {exc}") from exc
        for name in ("nelx", "nely"):  # the document sets its own grid
            if getattr(args, name) is not None:
                raise InvalidArgumentError(
                    f"--{name} {getattr(args, name)} conflicts with the problem "
                    f"document's {problem.grid.nelx}x{problem.grid.nely} grid")

    opt_doc = _section(doc, "optimizer")
    _known_keys(opt_doc, ("max_iters",), "optimizer")
    optimizer = OptimizerConfig(**opt_doc)

    sweep = _section(doc, "sweep")
    _known_keys(sweep, ("points",), "sweep")
    points = sweep.get("points", pareto_mod.default_vf_grid())
    if not isinstance(points, list):
        raise InvalidArgumentError("sweep.points must be a JSON array, "
                                   f"got {type(points).__name__}")
    vf_grid = pareto_mod.check_vfs(_json_number(v, "sweep.points") for v in points)

    numbers = {name: _json_number(doc.get(name, getattr(RunConfig, name)), name)
               for name in NUMBER_KEYS}
    if numbers["tie_tol"] < 0:  # would silently turn the tie break off
        raise InvalidArgumentError(f"tie_tol must be at least 0, got {numbers['tie_tol']}")
    if not 0 < numbers["anchor_vf"] < 1:  # held for every command, read by fit alone
        raise InvalidArgumentError(f"anchor_vf must lie in (0, 1), got {numbers['anchor_vf']}")
    if args.workers < 1:
        raise InvalidArgumentError("workers must be an integer of at least 1, "
                                   f"got {args.workers}")
    return RunConfig(
        problem=problem,
        optimizer=optimizer,
        vf_grid=vf_grid,
        out_dir=_directory(args.out, "output"),
        cache_dir=_directory(args.cache, "cache") if args.cache else None,
        workers=args.workers,
        **numbers,
    )


def _section(doc: dict, name: str) -> dict:
    """A config section: a JSON object, empty when absent."""
    section = doc.get(name, {})
    if not isinstance(section, dict):
        raise InvalidArgumentError(f"{name} must be a JSON object, got {type(section).__name__}")
    return section


def _known_keys(doc: dict, known, where: str) -> None:
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise InvalidArgumentError(f"unknown {where} key(s) {unknown}")


def _directory(path, what: str) -> Path:
    """A directory to write under: one that exists, or can be made because
    a directory can be made in its nearest existing ancestor, as a probe
    made and removed at once shows. Leaves nothing behind."""
    path = Path(path)
    try:  # the root or the working directory ends the search
        nearest = next(p for p in (path, *path.parents) if p.exists())
        if nearest.is_dir():
            Path(tempfile.mkdtemp(dir=nearest)).rmdir()
    except OSError as exc:  # a name too long, a file system that takes none
        raise InvalidArgumentError(f"cannot create {what} directory {path}: {exc}") from exc
    if not nearest.is_dir():
        raise InvalidArgumentError(f"{what} directory {path}: {nearest} is not a directory")
    return path


def _read(path, what: str, parse):
    """``parse`` of a user file's text. A file that cannot be read, is not
    UTF-8 or fails to parse is an InvalidArgumentError naming it, and any line."""
    try:
        return parse(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise InvalidArgumentError(f"cannot read {what} {path}: {exc}",
                                   line=getattr(exc, "line", None)) from exc


def _mkdir(path: Path, what: str) -> Path:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InvalidArgumentError(f"cannot create {what} directory {path}: {exc}") from exc
    return path


def _write(path: Path, text: str) -> None:
    _mkdir(path.parent, "output")
    path.write_text(text)


def _census(label: str):
    """Prints the census line of each batch a command runs."""
    return lambda line: print(f"{label}: {line}")


def _front_svg(front, title: str) -> str:
    return svgplot.chart([("front", front.vfs(), front.cs())],
                         xlabel="volume fraction", ylabel="normalized compliance",
                         title=title, logy=True)


def cmd_optimize(args) -> int:
    pareto_mod.check_vfs([args.vf])  # before the cache directory is made
    cfg = _load_config(args)
    res = pareto_mod.run_optimizations(
        cfg.problem, [{"vf": args.vf, "init_kind": "uniform"}],
        cfg.optimizer, cfg.cache(), cfg.workers)[0]
    out = cfg.out_dir
    img = res.densities.as_grid(cfg.problem.grid)
    _write(out / "densities.csv",
           "".join(",".join(map(repr, row)) + "\n" for row in img.tolist()))
    _write(out / "design.svg", svgplot.density_raster(img))
    _write(out / "summary.json", json.dumps(
        {"problem": cfg.problem.name, **res.summary()},
        sort_keys=True, indent=2) + "\n")
    print(f"optimize {cfg.problem.name} vf={args.vf:g}: "
          f"compliance_p={res.compliance_p:.6g} compliance_p1={res.compliance_p1:.6g} "
          f"iterations={res.iterations} end={res.end}")
    return 0


def cmd_pareto(args) -> int:
    cfg = _load_config(args)
    cache = cfg.cache()
    out = cfg.out_dir
    strategy = args.strategy

    if strategy == "baseline":
        sweep, kind = pareto_mod.baseline_states, "baseline"
    else:
        sweep, kind = pareto_mod.multistart_states, "multistart"
    front, states = sweep(cfg.problem, cfg.vf_grid, cfg.optimizer, cache,
                          cfg.workers, _census(kind))
    if strategy == "refine":
        front, _ = pareto_mod.refine_states(
            cfg.problem, front, states, cfg.optimizer, cache, cfg.workers,
            _census("refine round"))
    _write(out / f"front_{strategy}.csv", front.to_csv())
    _write(out / f"front_{strategy}.svg",
           _front_svg(front, f"{cfg.problem.name} front ({strategy})"))
    print(f"pareto {cfg.problem.name} strategy={strategy}: "
          f"{len(front)} points -> {out / f'front_{strategy}.csv'}")
    return 0


def cmd_er(args) -> int:
    cfg = _load_config(args)
    front = _read(args.front, "front file", pareto_mod.ParetoFront.from_csv)
    vfs, raw, filt = front.vfs(), er_mod.compute_er(front), er_mod.filter_er(front)
    out = cfg.out_dir
    for name, n in (("er_raw.csv", raw), ("er_filtered.csv", filt)):
        _write(out / name, pareto_mod.write_table(er_mod.ER_HEADER, zip(vfs, n)))
    _write(out / "er.svg", svgplot.chart(
        [("raw", vfs, raw), ("filtered", vfs, filt)],
        xlabel="volume fraction", ylabel="efficiency ratio",
        title=f"{cfg.problem.name} efficiency ratio"))
    for i in er_mod.bounds_violations(filt):
        print(f"warning: filtered ratio {filt[i]:.4f} at vf={vfs[i]:.4g} outside "
              f"[{er_mod.ER_LOWER_BOUND}, {er_mod.ER_UPPER_BOUND}]")
    print(f"er: wrote {out / 'er_raw.csv'} and {out / 'er_filtered.csv'}")
    return 0


def _refined_front(out: Path):
    """The front ``pareto --strategy refine`` wrote under ``out``, or None;
    commands read it before any work or write, so a bad one fails fast."""
    path = out / "front_refine.csv"
    return (_read(path, "refined front", pareto_mod.ParetoFront.from_csv)
            if path.exists() else None)


def cmd_fit(args) -> int:
    cfg = _load_config(args)
    out = cfg.out_dir
    front = _refined_front(out)  # before the anchor runs
    model = mm_mod.fit_problem(cfg.problem, cfg.optimizer, cfg.anchor_vf,
                               cfg.cache(), cfg.workers, _census("fit anchor"))
    _write(out / "metamodel.json", model.to_json() + "\n")

    xs = pareto_mod.default_vf_grid(200)
    series = [("model", xs, [mm_mod.eval_front(model, x) for x in xs]),
              ("anchors", [p[0] for p in model.fit_points],
               [p[1] for p in model.fit_points])]
    if front is not None:
        series.insert(0, ("refined front", front.vfs(), front.cs()))
        model_cs = [mm_mod.eval_front(model, p.vf) for p in front.points]
        _write(out / "fit_error.csv", pareto_mod.write_table(
            ("vf", "front", "model", "rel_error"),
            ((p.vf, p.c, mv, (mv - p.c) / p.c) for p, mv in zip(front.points, model_cs))))
    else:
        print(f"notice: no refined front at {out / 'front_refine.csv'}, error profile skipped")
    _write(out / "fit_overlay.svg", svgplot.chart(
        series, xlabel="volume fraction", ylabel="normalized compliance",
        title=f"{cfg.problem.name} meta-model", logy=True))
    print(f"fit: a={model.a:.6g} b={model.b:.6g} -> {out / 'metamodel.json'}")
    return 0


def cmd_select(args) -> int:
    cfg = _load_config(args)
    mats = _read(args.materials, "materials file", mat_mod.load_materials)
    if not mats:
        raise InvalidArgumentError(f"no materials in {args.materials}")
    lc = mat_mod.LoadCase(force=args.force, delta_max=args.delta_max,
                          thickness=args.thickness, length=args.length,
                          height=args.height)
    out = cfg.out_dir
    model_path = out / "metamodel.json"
    model = _read(model_path, "meta-model", mm_mod.MetaModel.from_json)
    if model.problem_name != cfg.problem.name:
        raise InvalidArgumentError(f"meta-model {model_path} was fitted to problem "
                                   f"{model.problem_name!r}, not {cfg.problem.name!r}")

    report = mat_mod.select(mats, model, lc, cfg.tie_tol, problem=cfg.problem,
                            front=_refined_front(out))
    _write(out / "selection.json", report.to_json() + "\n")
    kept1 = [m for m in mats if m.name in report.kept_after_pareto]
    kept2 = [m for m in mats if m.name in report.kept_after_density]
    removed = [m for m in mats if m.name not in report.kept_after_density]
    _write(out / "ashby.svg", svgplot.ashby_chart(
        [("screened out", removed), ("pareto front", kept1), ("kept", kept2)]))
    sys.stdout.write(report.to_text())
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="topareto", description=__doc__)
    p.add_argument("--config", help="JSON config file")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--preset", help="problem preset: mbb, bridge, complex")
        sp.add_argument("--nelx", type=int)
        sp.add_argument("--nely", type=int)
        sp.add_argument("--out", default="out", help="output directory")
        sp.add_argument("--cache", help="cache directory")
        sp.add_argument("--workers", type=int, default=1)

    sp = sub.add_parser("optimize", help="one compliance minimization")
    common(sp)
    sp.add_argument("--vf", type=float, required=True)
    sp.set_defaults(func=cmd_optimize)

    sp = sub.add_parser("pareto", help="build a compliance-volume front")
    common(sp)
    sp.add_argument("--strategy", choices=["baseline", "multistart", "refine"],
                    default="refine")
    sp.set_defaults(func=cmd_pareto)

    sp = sub.add_parser("er", help="efficiency ratio of a front CSV")
    common(sp)
    sp.add_argument("--front", required=True, help="front CSV path")
    sp.set_defaults(func=cmd_er)

    sp = sub.add_parser("fit", help="fit the front meta-model")
    common(sp)
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("select", help="pick the minimum-mass material")
    common(sp)
    sp.add_argument("--materials", required=True, help="materials CSV path")
    sp.add_argument("--force", type=float, required=True, help="load F in N")
    sp.add_argument("--delta-max", dest="delta_max", type=float, required=True,
                    help="deflection limit in m")
    sp.add_argument("--thickness", type=float, required=True, help="t in m")
    sp.add_argument("--length", type=float, required=True, help="L in m")
    sp.add_argument("--height", type=float, required=True, help="h in m")
    sp.set_defaults(func=cmd_select)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidArgumentError as exc:
        line = f" (line {exc.line})" if exc.line else ""
        print(f"error: invalid input{line}: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"error: infeasible: {exc}", file=sys.stderr)
        return 3
    except SolverError as exc:
        print(f"error: solver failure: {exc}", file=sys.stderr)
        return 4
    except ToparetoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
