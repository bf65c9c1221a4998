"""The CLI's exit-code contract over malformed input files.

Each example starts from a valid instance, prior, sweep or concentrate file,
changes one JSON value (or drops or adds a key, or truncates the text), and
runs a command that reads the file. The command must exit 0, 1, 2 or 3 and
print no traceback: an exception that escapes ``cli_dispatch`` is one.
"""

import contextlib
import copy
import io
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mechlearn import GridSpec, serialize_mechanism
from mechlearn.cli import cli_dispatch

from conftest import posted_price_table

PRIOR = {"family": "discrete_on_grid", "params": {"values": [1.0, 2.0], "probs": ["1/2", "1/2"]}}
INSTANCE = {
    "n": 1, "m": 2, "epsilon": 0.25, "h": 2.0, "space": {"kind": "multi_item"},
    "model": {"tag": "additive"}, "prior": PRIOR,
}
SINGLE = {**INSTANCE, "n": 2, "m": 1, "space": {"kind": "single_parameter"}}
# a prior given cell by cell, one continuous family a cell
CELLS = {**INSTANCE, "prior": {"cells": [[
    {"family": "uniform", "params": {"low": 0.5, "high": 2.0}},
    {"family": "trunc_exp", "params": {"scale": 0.7, "low": 0.0, "high": 2.0}},
]]}}
CONCENTRATE = {
    "epsilon": 0.5, "h": 1.0, "s": 10, "epsilon_dev": 0.1, "trials": 5,
    "marginals": [{"values": [0.5], "probs": ["1"]}], "f": {"kind": "constant", "value": 0.5},
}
# each file, and the commands that read it: {f} is the file, {w} the directory
FILES = {
    "instance": (INSTANCE, [
        ["learn-bic", "--config", "{f}", "--s", "5", "--seed", "1", "--out", "{w}/o.json"],
        ["learn-dsic", "--config", "{f}", "--s", "5", "--seed", "1", "--out", "{w}/o.json"],
        ["oracle", "--config", "{f}", "--mode", "bic", "--eta", "0.5", "--out", "{w}/o.json"],
        ["oracle", "--config", "{f}", "--mode", "dsic", "--out", "{w}/o.json"],
    ]),
    "cells": (CELLS, [
        ["learn-bic", "--config", "{f}", "--s", "5", "--seed", "1", "--out", "{w}/o.json"],
        ["learn-dsic", "--config", "{f}", "--s", "5", "--seed", "1", "--out", "{w}/o.json"],
    ]),
    "single": (SINGLE, [
        ["learn-single", "--config", "{f}", "--s", "5", "--seed", "1", "--out", "{w}/o.json"],
        ["myerson", "--config", "{f}", "--out", "{w}/m.csv"],
    ]),
    "prior": ({"n": 1, "m": 2, "h": 2.0, **PRIOR}, [
        ["eval", "--mech", "{w}/posted.json", "--prior", "{f}"],
        ["verify", "--mech", "{w}/posted.json", "--prior", "{f}", "--config", "{w}/inst.json"],
    ]),
    "sweep": ({"instance": INSTANCE, "mode": "bic", "s_values": [5], "seeds": [0]}, [
        ["sweep", "--config", "{f}", "--out", "{w}/sweep"],
    ]),
    "concentrate": (CONCENTRATE, [
        ["concentrate", "--config", "{f}", "--seed", "1", "--out", "{w}/c.csv"],
    ]),
}

DEEP = "deep nesting"  # stands for a list nested past the JSON decoder's limit
VALUES = [
    # wrong types, numbers among them as text
    "x", "0.5", "NaN", "inf", True, False, None, [], {}, [1], {"x": 1},
    # non-finite, signed, zero and huge numbers
    math.nan, math.inf, -math.inf, -1, -0.5, 0, 0.0, 10**30, -(10**30), 10**400, 1e308,
    # deep nesting, shallow enough to decode and too deep to decode
    json.loads("[" * 50 + "]" * 50), DEEP,
]


def _paths(obj, path=()):
    """The path of every value in ``obj``, itself first."""
    yield path
    if isinstance(obj, (dict, list)):
        for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from _paths(value, path + (key,))


def mutated(doc, path, mutation) -> str:
    """The JSON text of ``doc`` with the value at ``path`` changed by
    ``mutation``: ("set", value), ("drop",), ("add",), which adds a key to
    a dict or an entry to a list, or ("cut", fraction) of the text."""
    doc = copy.deepcopy(doc)
    kind = mutation[0]
    if kind == "cut":
        text = json.dumps(doc)
        return text[: int(len(text) * mutation[1])]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if kind == "set":
        if path:
            parent[path[-1]] = mutation[1]
        else:
            doc = mutation[1]
    elif kind == "drop" and path:
        del parent[path[-1]]
    elif kind == "add":
        target = parent[path[-1]] if path else doc
        if isinstance(target, dict):
            target["extra"] = 1
        elif isinstance(target, list):
            target.append(copy.deepcopy(target[-1]) if target else 1)
    return json.dumps(doc).replace(json.dumps(DEEP), "[" * 100_000 + "]" * 100_000)


@st.composite
def cases(draw):
    name = draw(st.sampled_from(sorted(FILES)))
    doc, commands = FILES[name]
    path = draw(st.sampled_from(list(_paths(doc))))
    mutation = draw(st.one_of(
        st.tuples(st.just("set"), st.sampled_from(VALUES)),
        st.sampled_from([("drop",), ("add",)]),
        st.tuples(st.just("cut"), st.sampled_from([0.0, 0.5, 0.99])),
    ))
    return mutated(doc, path, mutation), draw(st.sampled_from(commands))


def run(workdir, text, command):
    """Exit code, stdout and stderr of ``command`` on a file holding
    ``text``, beside the instance and the mechanism that eval and verify
    read."""
    (workdir / "inst.json").write_text(json.dumps(INSTANCE))
    (workdir / "posted.json").write_text(
        serialize_mechanism(posted_price_table(GridSpec(0.25, 2.0), 1.0, m=2))
    )
    (workdir / "case.json").write_text(text)
    argv = [a.format(f=workdir / "case.json", w=workdir) for a in command]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_dispatch(argv)
    return code, out.getvalue(), err.getvalue()


def test_every_file_runs_as_given(tmp_path):
    for doc, commands in FILES.values():
        for command in commands:
            assert run(tmp_path, json.dumps(doc), command)[0] == 0, command


@given(case=cases())
@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_one_malformed_value_never_ends_in_a_traceback(tmp_path, case):
    code, _, err = run(tmp_path, *case)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "prior",
    [
        {"family": "uniform", "params": {"low": 0, "high": math.inf}},
        {"family": "uniform", "params": {"low": -math.inf, "high": 1}},
        {"family": "uniform", "params": {"low": -1e308, "high": 1e308}},
        {"family": "uniform", "params": {"low": 0, "high": 10**400}},
        {"family": "trunc_exp", "params": {"scale": 1, "high": 10**400}},
        {"family": "uniform", "params": {"low": [0], "high": [1]}},
        {"family": "uniform", "params": {"low": False, "high": True}},
    ],
    ids=[
        "inf_high", "inf_low", "infinite_range", "huge_int_high", "trunc_exp_huge_int_high",
        "lists", "bools",
    ],
)
def test_a_malformed_continuous_prior_parameter_is_exit_one(tmp_path, prior):
    # an infinite or huge bound, or a range wider than the largest float,
    # once ended in an OverflowError while drawing, and lists or booleans
    # were drawn from
    command = FILES["instance"][1][0]
    code, _, err = run(tmp_path, json.dumps({**INSTANCE, "prior": prior}), command)
    assert (code, "Traceback" in err) == (1, False)
    assert err.startswith("error: ") and ("low" in err or "high" in err)
