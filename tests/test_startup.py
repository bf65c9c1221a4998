"""Start-up cost: the commands that solve no LP load no SciPy, and those
that solve one load only its HiGHS binding."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mechlearn
from mechlearn import GridSpec, UsageError, serialize_mechanism
from mechlearn.cli import cli_dispatch

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
    sweep = {"instance": INSTANCE, "mode": "bic", "s_values": [20], "seeds": [0, 1]}
    (tmp_path / "sweep.json").write_text(json.dumps(sweep))
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
        ["sweep", "--config", "{w}/sweep.json", "--out", "{w}/sweep"],
    ],
    ids=["learn-dsic", "oracle-lp-dump", "sweep"],
)
def test_commands_that_solve_an_lp_load_scipy_on_the_way(inputs, monkeypatch, argv):
    # of SciPy, its top-level package and the HiGHS binding alone: neither
    # scipy.optimize nor scipy.sparse. MECHLEARN_WORKERS once put a sweep's
    # cells in a process pool; set, it must start none.
    monkeypatch.setenv("MECHLEARN_WORKERS", "2")
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


def _stub_scipy(tmp_path, monkeypatch):
    """A ``scipy`` package in ``tmp_path`` without the HiGHS binding, as
    before SciPy 1.15; returns the directory the oracle searches."""
    import types

    fake = types.ModuleType("scipy")
    fake.__path__ = [str(tmp_path)]
    monkeypatch.setitem(sys.modules, "scipy", fake)
    monkeypatch.delitem(sys.modules, "scipy.optimize._highspy._core", raising=False)
    return tmp_path / "optimize" / "_highspy"


def test_missing_highs_binding_names_the_directory_searched(tmp_path, monkeypatch):
    from mechlearn import oracle

    folder = _stub_scipy(tmp_path, monkeypatch)
    with pytest.raises(UsageError, match="scipy>=1.15") as raised:
        oracle._highs()
    assert str(folder) in str(raised.value)
    assert "scipy.optimize._highspy._core" not in sys.modules


def test_scipy_that_fails_to_import_is_a_usage_error(monkeypatch):
    from mechlearn import oracle

    monkeypatch.setitem(sys.modules, "scipy", None)  # import scipy raises
    monkeypatch.delitem(sys.modules, "scipy.optimize._highspy._core", raising=False)
    with pytest.raises(UsageError, match="scipy>=1.15") as raised:
        oracle._highs()
    assert isinstance(raised.value.__cause__, ImportError)


def test_missing_highs_binding_is_exit_one(inputs, capsys, monkeypatch):
    folder = _stub_scipy(inputs / "stub", monkeypatch)
    out = inputs / "learned.json"
    argv = ["learn-dsic", "--config", f"{inputs}/inst.json", "--s", "20", "--seed", "1",
            "--out", str(out)]
    assert cli_dispatch(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: SciPy's HiGHS binding _core is not in {folder}; mechlearn needs scipy>=1.15\n"
    )
    assert captured.out == ""
    assert not out.exists()
    assert "scipy.optimize._highspy._core" not in sys.modules
