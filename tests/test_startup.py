"""Start-up cost: the commands that solve no LP load no SciPy, and a sweep
reads its worker count before it starts anything."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mechlearn
from mechlearn import ConfigError, GridSpec, serialize_mechanism
from mechlearn.cli import cli_dispatch
from mechlearn.experiments import sweep_workers

from conftest import posted_price_table
from test_cli import CONCENTRATE, INSTANCE

SRC = Path(mechlearn.__file__).resolve().parent.parent

# Runs in a fresh interpreter: imports mechlearn, then mechlearn.cli, then
# runs each argv of ``sys.argv[1]`` (a JSON list) through cli_dispatch, and
# prints, per step, its exit code and which of the watched modules are loaded.
PROBE = """
import contextlib, io, json, sys
WATCHED = ("scipy", "concurrent.futures.process")
steps = []
def record(name, code=0):
    steps.append([name, code, [m for m in WATCHED if m in sys.modules]])
import mechlearn
record("import mechlearn")
from mechlearn.cli import cli_dispatch
record("import mechlearn.cli")
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_dispatch(argv)
    record(argv[0], code)
print(json.dumps(steps))
"""


def _fresh_run(argvs: list[list[str]]) -> list[list]:
    """Each step of ``PROBE`` run on ``argvs`` in a new interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argvs)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture
def inputs(tmp_path):
    (tmp_path / "inst.json").write_text(json.dumps(INSTANCE))
    prior = {"n": 1, "m": 2, "h": 2.0, **INSTANCE["prior"]}
    (tmp_path / "prior.json").write_text(json.dumps(prior))
    (tmp_path / "posted.json").write_text(
        serialize_mechanism(posted_price_table(GridSpec(0.25, 2.0), 1.0, m=2))
    )
    single = {**INSTANCE, "n": 2, "m": 1, "space": {"kind": "single_parameter"}}
    (tmp_path / "single.json").write_text(json.dumps(single))
    (tmp_path / "conc.json").write_text(json.dumps(CONCENTRATE))
    return tmp_path


def test_commands_that_solve_no_lp_load_no_scipy(inputs):
    w = str(inputs)
    steps = _fresh_run([
        ["verify", "--mech", f"{w}/posted.json", "--prior", f"{w}/prior.json",
         "--config", f"{w}/inst.json"],
        ["eval", "--mech", f"{w}/posted.json", "--prior", f"{w}/prior.json"],
        ["nudge", "--mech", f"{w}/posted.json", "--config", f"{w}/inst.json",
         "--epsilon", "0.04", "--out", f"{w}/nudged.json"],
        ["myerson", "--config", f"{w}/single.json", "--out", f"{w}/virtuals.csv"],
        ["concentrate", "--config", f"{w}/conc.json", "--seed", "1",
         "--out", f"{w}/conc.csv"],
    ])
    assert steps == [
        [name, 0, []]
        for name in ("import mechlearn", "import mechlearn.cli", "verify", "eval",
                     "nudge", "myerson", "concentrate")
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["learn-dsic", "--config", "{w}/inst.json", "--s", "20", "--seed", "1",
         "--out", "{w}/learned.json"],
        ["oracle", "--config", "{w}/inst.json", "--mode", "bic", "--out",
         "{w}/oracle.json", "--lp-dump", "{w}/dump.lp"],
    ],
    ids=["learn-dsic", "oracle-lp-dump"],
)
def test_commands_that_solve_an_lp_load_scipy_on_the_way(inputs, argv):
    steps = _fresh_run([[a.format(w=inputs) for a in argv]])
    assert steps == [
        ["import mechlearn", 0, []],
        ["import mechlearn.cli", 0, []],
        [argv[0], 0, ["scipy"]],
    ]


@pytest.mark.parametrize(
    "value, cells, workers",
    [
        (None, 24, 1),
        ("1", 24, 1),
        ("2", 24, 2),
        ("5000", 24, 24),
        ("5000", 1, 1),
        ("0", 24, 1),
        ("-3", 24, 1),
        (" 4 ", 3, 3),
    ],
)
def test_sweep_starts_at_most_one_worker_per_cell(value, cells, workers):
    assert sweep_workers(value, cells) == workers


@pytest.mark.parametrize("value", ["abc", "", "2.5", "two"])
def test_sweep_workers_not_an_integer_is_config_error(value):
    with pytest.raises(ConfigError, match="MECHLEARN_WORKERS"):
        sweep_workers(value, 24)


def test_sweep_workers_not_an_integer_is_exit_one(tmp_path, capsys, monkeypatch):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setenv("MECHLEARN_WORKERS", "abc")
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps(
        {"instance": INSTANCE, "mode": "bic", "s_values": [20], "seeds": [0, 1]}
    ))
    out = tmp_path / "out"
    assert cli_dispatch(["sweep", "--config", str(config), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: MECHLEARN_WORKERS: 'abc' is not an integer\n"
    assert captured.out == ""
    assert not out.exists()
