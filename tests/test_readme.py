"""The README's library quickstart and CLI examples run as written."""

import json
import pathlib
import re
import shlex
import shutil

from mechlearn.cli import cli_dispatch

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _block(heading: str, lang: str) -> str:
    """The first ``lang`` code block under the README's ``heading``."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index(f"\n{heading}\n"):]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def _cli_lines() -> list[list[str]]:
    """The ``mechlearn`` commands of the ``sh`` block under ``## CLI``,
    without the program name."""
    block = _block("## CLI", "sh")
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("mechlearn ")]


def test_readme_library_quickstart_runs(capsys):
    exec(compile(_block("## Library quickstart", "python"), "README.md", "exec"), {})
    _, ir_slack, revenue = capsys.readouterr().out.split()
    assert float(ir_slack) >= 0.0 and float(revenue) > 0.0


def test_readme_cli_examples_run_and_verify(tmp_path, monkeypatch, capsys):
    shutil.copytree(ROOT / "configs", tmp_path / "configs")
    monkeypatch.chdir(tmp_path)
    lines = _cli_lines()
    assert {argv[0] for argv in lines} >= {"learn-single", "nudge", "verify"}
    for argv in lines:
        if argv[0] == "sweep":  # test_cli runs configs/sweep.json
            continue
        assert cli_dispatch(argv) == 0, argv
    single = json.loads((tmp_path / "configs" / "single_item.json").read_text())
    sp_prior = {"n": single["n"], "m": single["m"], "h": single["h"], **single["prior"]}
    (tmp_path / "sp_prior.json").write_text(json.dumps(sp_prior))
    checks = {
        "mech.json": "configs/prior.json",
        "learned.json": "configs/prior.json",
        "nudged.json": "configs/prior.json",
        "sp.json": "sp_prior.json",
    }
    for mech, prior in checks.items():
        capsys.readouterr()
        assert cli_dispatch(["verify", "--mech", mech, "--prior", prior]) == 0, mech
        assert capsys.readouterr().out.endswith("declared invariants hold\n"), mech
