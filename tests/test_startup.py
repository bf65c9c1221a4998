"""Start-up cost: the commands that solve no LP load no SciPy, those that
solve one load only its HiGHS binding, and a sweep reads its worker count
before it starts anything."""

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
TESTS = Path(__file__).resolve().parent

# Runs in a fresh interpreter: imports mechlearn, then mechlearn.cli, then
# runs each argv of ``sys.argv[1]`` (a JSON list) through cli_dispatch, and
# prints, per step, its exit code and which of the watched modules are loaded.
PROBE = """
import contextlib, io, json, sys
WATCHED = ("scipy", "scipy.optimize", "scipy.optimize._highspy._core", "scipy.sparse",
           "concurrent.futures.process")
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
    # of SciPy, its top-level package and the HiGHS binding alone: neither
    # scipy.optimize nor scipy.sparse
    steps = _fresh_run([[a.format(w=inputs) for a in argv]])
    assert steps == [
        ["import mechlearn", 0, []],
        ["import mechlearn.cli", 0, []],
        [argv[0], 0, ["scipy", "scipy.optimize._highspy._core"]],
    ]


# Runs in a fresh interpreter: solves one small LP with the oracle and one
# with scipy.optimize.linprog through HiGHS, in the order ``sys.argv[1]``
# names, and prints both objectives.
ORDERS = """
import sys
from fractions import Fraction
from mechlearn import (GridSpec, OracleProblem, ValuationModel, enumerate_multi_item,
                       solve_optimal)
from conftest import product_prior

def oracle():
    prior = product_prior(GridSpec(1.0, 2.0), [[{1: Fraction(1, 3), 2: Fraction(2, 3)}]])
    problem = OracleProblem(prior=prior, space=enumerate_multi_item(1, 1),
                            model=ValuationModel(tag="additive"))
    return solve_optimal(problem).objective_value

def scipy():
    from scipy.optimize import linprog
    return linprog([-1.0, -2.0], A_ub=[[1.0, 1.0]], b_ub=[4.0], A_eq=[[1.0, -1.0]],
                   b_eq=[1.0], method="highs").fun

first, second = (oracle, scipy) if sys.argv[1] == "oracle-first" else (scipy, oracle)
values = {f.__name__: f() for f in (first, second)}
print(values["oracle"], values["scipy"])
"""


@pytest.mark.parametrize("order", ["oracle-first", "scipy-first"])
def test_oracle_and_scipy_optimize_share_one_highs_binding(order):
    # pybind11 refuses to register the binding's types twice: whichever
    # loads it first, the other must reuse it
    done = subprocess.run(
        [sys.executable, "-c", ORDERS, order],
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(TESTS)])},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    oracle, scipy = map(float, done.stdout.split())
    assert (oracle, scipy) == (pytest.approx(4 / 3), pytest.approx(-5.5))


def test_missing_highs_binding_names_the_directory_searched(tmp_path, monkeypatch):
    # SciPy before 1.15 has no scipy.optimize._highspy._core
    import types

    from mechlearn import oracle

    fake = types.ModuleType("scipy")
    fake.__path__ = [str(tmp_path)]
    monkeypatch.setitem(sys.modules, "scipy", fake)
    monkeypatch.delitem(sys.modules, "scipy.optimize._highspy._core", raising=False)
    folder = tmp_path / "optimize" / "_highspy"
    with pytest.raises(ImportError, match="scipy>=1.15") as raised:
        oracle.load_lp_layer()
    assert str(folder) in str(raised.value)
    assert "scipy.optimize._highspy._core" not in sys.modules


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
