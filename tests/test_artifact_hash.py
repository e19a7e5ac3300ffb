"""``tools/artifact_hash.py`` must keep driving the CLI as it is.

Every claim that a change keeps the pipeline's artifacts byte for byte rests
on that tool, and it calls the CLI by its flags; a renamed flag or artifact
would otherwise surface only when someone runs it.
"""

import importlib.util
import json
from pathlib import Path

from topareto import cli
from topareto.materials import load_materials
from topareto.pareto import default_vf_grid
from topareto.simp import OptimizerConfig

ARTIFACT_HASH = Path(__file__).resolve().parent.parent / "tools" / "artifact_hash.py"


def _tool():
    spec = importlib.util.spec_from_file_location("artifact_hash", ARTIFACT_HASH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_stages_parse_without_running(tmp_path):
    tool = _tool()
    stages = tool.stages(tmp_path, 18, 6, 2)
    assert [name for name, _ in stages] == [
        "baseline", "multistart", "refine", "er", "fit", "select"]
    commands = [cli.cmd_pareto] * 3 + [cli.cmd_er, cli.cmd_fit, cli.cmd_select]
    for (name, argv), command in zip(stages, commands):
        args = cli.build_parser().parse_args(argv)
        assert args.func is command
        assert (args.nelx, args.nely, args.workers) == (18, 6, 2)
        assert args.out == str(tmp_path / "out")
        assert args.config == str(tmp_path / "config.json")
        if name in ("baseline", "multistart", "refine"):
            assert args.strategy == name
    er_args = cli.build_parser().parse_args(stages[3][1])
    assert er_args.front == str(tmp_path / "out" / "front_refine.csv")


def test_inputs_load_as_the_cli_reads_them(tmp_path):
    # the flags place every stage and the config file sets its sweep and
    # tie tolerance
    tool = _tool()
    tool.write_inputs(tmp_path, 6, 0.3)
    for _name, argv in tool.stages(tmp_path, 18, 6, 2):
        cfg = cli._load_config(cli.build_parser().parse_args(argv))
        assert (cfg.problem.name, cfg.problem.grid.nelx, cfg.problem.grid.nely) == \
            ("mbb", 18, 6)
        assert (cfg.vf_grid, cfg.tie_tol) == (default_vf_grid(6), 0.3)
        assert cfg.optimizer == OptimizerConfig()
        assert (cfg.out_dir, cfg.cache_dir, cfg.workers) == \
            (tmp_path / "out", tmp_path / "cache", 2)
    assert json.loads((tmp_path / "config.json").read_text())["sweep"] == \
        {"points": default_vf_grid(6)}
    assert len(load_materials((tmp_path / "materials.csv").read_text())) == 4


def test_artifacts_are_the_six_stages_outputs():
    tool = _tool()
    assert len(tool.ARTIFACTS) == len(set(tool.ARTIFACTS)) == 14
    assert tool.CENSUS.match("fit anchor: 9 tasks, 9 distinct, 0 cached, ")
    assert not tool.CENSUS.match("pareto mbb strategy=refine: 6 points -> out")


def test_prints_the_census_lines_it_hashes(capsys):
    tool = _tool()
    assert tool.main(["--nelx", "6", "--nely", "2", "--vfs", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    row = next(i for i, line in enumerate(out) if line.startswith("census "))
    digest, count = out[row].split()[1], int(out[row].split()[2])
    lines = out[row + 1:row + 1 + count]
    # indented under the census row, and the next row is the cache's
    assert all(line.startswith("    ") for line in lines)
    assert out[row + 1 + count].startswith("cache ")
    census = [line[4:] for line in lines]
    assert all(tool.CENSUS.match(line) for line in census)
    assert digest == tool.sha("\n".join(census).encode())
    # the baseline, the multistart sweep and the refine stage's cached
    # rerun of it, and the fit anchor; no refine round runs on this grid
    assert [line.split(":")[0] for line in census] == [
        "baseline", "multistart", "multistart", "fit anchor"]
    assert [line.split(", ")[0].split(": ")[1] for line in census] == [
        "3 tasks", "27 tasks", "27 tasks", "9 tasks"]
