"""Tests of the benchmark's own code: the tracer and the output checks.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import ast
import functools
import importlib
import io
import json
import pkgutil
import sys
import types
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Any, Callable

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import mechlearn  # noqa: E402
from layers import LAYERS, layer_metrics  # noqa: E402
from tracer import Layer, Tracer, mechlearn_modules, resolve  # noqa: E402
from workloads import Op, OpResult, check  # noqa: E402


def _all_mechlearn_modules() -> list[types.ModuleType]:
    return [mechlearn] + [
        importlib.import_module(f"mechlearn.{info.name}")
        for info in pkgutil.iter_modules(mechlearn.__path__)
    ]


def _stray_references(originals: list[Callable]) -> list[str]:
    """Paths from a mechlearn module to any of ``originals`` that a
    rebinding of module globals and class attributes cannot reach, such as
    a function stored in a dict, a default argument or a closure cell."""
    wanted = {id(fn) for fn in originals}
    found: list[str] = []
    seen: set[int] = set()

    def walk(obj: Any, path: str, top: bool) -> None:
        if id(obj) in wanted and not top:
            found.append(path)
            return
        if (
            id(obj) in seen
            or isinstance(obj, types.ModuleType)
            or hasattr(obj, "__wrapped_original__")  # a tracer wrapper
        ):
            return
        seen.add(id(obj))
        if isinstance(obj, dict):
            for key, value in list(obj.items()):
                walk(value, f"{path}[{key!r}]", False)
        elif isinstance(obj, (list, tuple, set, frozenset)):
            for i, value in enumerate(obj):
                walk(value, f"{path}[{i}]", False)
        elif isinstance(obj, functools.partial):
            walk(obj.func, f"{path}.func", False)
            walk(obj.args, f"{path}.args", False)
            walk(obj.keywords, f"{path}.keywords", False)
        elif isinstance(obj, types.FunctionType):
            walk(obj.__defaults__ or (), f"{path}.__defaults__", False)
            walk(obj.__kwdefaults__ or {}, f"{path}.__kwdefaults__", False)
            cells = [c.cell_contents for c in obj.__closure__ or () if _filled(c)]
            walk(cells, f"{path}.__closure__", False)

    for mod in mechlearn_modules():
        for attr, value in list(vars(mod).items()):
            # A module global or class attribute bound directly to an
            # original is an import site the tracer rebinds.
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for cattr, cvalue in list(vars(value).items()):
                    walk(cvalue, f"{mod.__name__}.{attr}.{cattr}", True)
            else:
                walk(value, f"{mod.__name__}.{attr}", True)
    return found


def _filled(cell: types.CellType) -> bool:
    try:
        cell.cell_contents
    except ValueError:
        return False
    return True


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self) -> float:
        return next(self.ticks)


def test_self_time_is_duration_minus_children():
    tracer = Tracer(clock=FakeClock([0.0, 1.0, 3.0, 4.0, 8.0, 10.0]))
    inner = tracer.wrap("inner", lambda: None)

    def body():
        inner()
        inner()

    outer = tracer.wrap("outer", body)
    outer()
    spans = {(s.name, s.start): s for s in tracer.spans}
    assert spans[("inner", 1.0)].self_s == 2.0
    assert spans[("inner", 4.0)].self_s == 4.0
    assert spans[("outer", 0.0)].duration == 10.0
    assert spans[("outer", 0.0)].self_s == 10.0 - 2.0 - 4.0
    summary = tracer.summary([])
    assert summary["inner.self_s"] == 6.0 and summary["inner.calls"] == 2
    assert summary["outer.self_s"] == 4.0 and summary["outer.calls"] == 1


def test_span_closes_when_the_call_raises():
    tracer = Tracer(clock=FakeClock([0.0, 1.0, 2.0, 5.0]))

    def fail():
        raise ValueError("boom")

    inner = tracer.wrap("inner", fail)

    def body():
        with pytest.raises(ValueError):
            inner()

    tracer.wrap("outer", body)()
    summary = tracer.summary([])
    assert summary["inner.self_s"] == 1.0
    assert summary["outer.self_s"] == 4.0
    assert tracer._stack == []


def test_counts_come_from_arguments_and_results():
    tracer = Tracer()
    double = tracer.wrap("double", lambda x: 2 * x, lambda a, kw, r: {"in": a[0], "out": r})
    double(3)
    double(4)
    assert tracer.counts == {"in": 7, "out": 14}


def _import_sites_in_source() -> list[tuple[str, str, str, bool]]:
    """(importing module, source module, name, module level) for every
    ``from .x import name`` of a traced function in the package source."""
    wanted = {(layer.module, layer.attr) for layer in LAYERS}
    sites = []
    for path in sorted((SRC / "mechlearn").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for alias in node.names:
                    if (node.module, alias.name) in wanted:
                        module = "mechlearn" if path.stem == "__init__" else f"mechlearn.{path.stem}"
                        sites.append((module, node.module, alias.asname or alias.name,
                                      id(node) in top))
    return sites


def test_tracer_rebinds_every_import_site_and_restores_them():
    modules = _all_mechlearn_modules()
    originals = {layer.name: resolve(layer)[2] for layer in LAYERS}
    sites = _import_sites_in_source()
    assert any(not top for *_, top in sites), "expected function-local imports too"
    tracer = Tracer()
    with tracer.installed(LAYERS):
        for layer in LAYERS:
            owner, leaf, bound = resolve(layer)
            assert bound.__wrapped_original__ is originals[layer.name], layer.name
        for module, source, name, top in sites:
            # A module-level import binds a global; a local import reads the
            # source module's attribute when the function runs.
            holder = sys.modules[module] if top else sys.modules[f"mechlearn.{source}"]
            bound = getattr(holder, name)
            assert getattr(bound, "__wrapped_original__", None) is not None, (module, name)
        for mod in modules:
            for attr, value in vars(mod).items():
                assert not any(value is fn for fn in originals.values()), (mod.__name__, attr)
        assert _stray_references(list(originals.values())) == []
    for layer in LAYERS:
        assert resolve(layer)[2] is originals[layer.name]
    for module, source, name, top in sites:
        holder = sys.modules[module] if top else sys.modules[f"mechlearn.{source}"]
        assert not hasattr(getattr(holder, name), "__wrapped_original__")


def test_a_reference_the_tracer_cannot_rebind_is_reported():
    from mechlearn.oracle import solve_optimal

    fake = types.ModuleType("mechlearn._stray_site")
    fake.SOLVERS = {"lp": solve_optimal}
    fake.solve = lambda problem, solver=solve_optimal: solver(problem)
    sys.modules[fake.__name__] = fake
    try:
        found = _stray_references([solve_optimal])
    finally:
        del sys.modules[fake.__name__]
    assert "mechlearn._stray_site.SOLVERS['lp']" in found
    assert "mechlearn._stray_site.solve.__defaults__[0]" in found


def _tiny_instance(tmp_path: Path) -> tuple[Path, Path]:
    cell = {"family": "point_masses",
            "params": {"values": [0.3, 1.1, 1.85], "probs": ["1/3", "1/3", "1/3"]}}
    config = {"n": 2, "m": 1, "epsilon": 0.25, "h": 2.0, "space": {"kind": "multi_item"},
              "model": {"tag": "additive"}, "prior": cell}
    prior = {"n": 2, "m": 1, "h": 2.0, **cell}
    (tmp_path / "instance.json").write_text(json.dumps(config))
    (tmp_path / "prior.json").write_text(json.dumps(prior))
    return tmp_path / "instance.json", tmp_path / "prior.json"


def _run(argv: list[str]) -> int:
    from mechlearn import cli

    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return cli.cli_dispatch(argv)


def test_tracing_changes_no_exit_code_output_byte_or_count(tmp_path):
    config, prior = _tiny_instance(tmp_path)

    def run_all(tag: str) -> list:
        results = []
        for mode in ("bic", "dsic"):
            mech = tmp_path / f"{tag}_{mode}.json"
            rc = _run([f"learn-{mode}", "--config", str(config), "--s", "40",
                       "--seed", "3", "--out", str(mech)])
            results.append((rc, mech.read_bytes()))
            results.append(_run(["verify", "--mech", str(mech), "--prior", str(prior)]))
        return results

    plain = run_all("plain")
    counts = []
    for tag in ("traced1", "traced2"):
        tracer = Tracer()
        with tracer.installed(LAYERS):
            assert run_all(tag) == plain
        metrics = layer_metrics(tracer)
        counts.append({k: v for k, v in metrics.items() if not k.endswith("_s")})
    assert counts[0] == counts[1]
    assert counts[0]["oracle.solve_optimal.calls"] == 2
    assert counts[0]["mechanism.serialize_mechanism.calls"] == 2
    assert counts[0]["oracle.lp_vars"] > 0


def _op(kind="verify", key="lp_2x2/1/bic") -> Op:
    return Op(kind, key, ("verify",))


def test_known_failure_counts_as_failed_but_not_wrong():
    ref = {"known_failures": {"verify lp_2x2/1/bic": {"exit": 3, "stderr": "invariant failure: x\n"}}}
    verdict = check(_op(), OpResult(3, "report", "invariant failure: x\n", 0.1), ref)
    assert verdict.status == "known_failure"
    assert "invariant failure: x" in verdict.message
    assert check(_op(), OpResult(3, "", "invariant failure: y\n", 0.1), ref).status == "wrong"
    assert check(_op(), OpResult(0, "", "", 0.1), ref).status == "ok"
    assert check(_op(key="lp_2x2/2/bic"), OpResult(3, "", "invariant failure: x\n", 0.1),
                 ref).status == "wrong"


def test_objective_must_match_the_reference_to_1e_9(tmp_path):
    mech = tmp_path / "m.json"
    mech.write_text('{"header":{"meta":{"oracle_objective":1.0000000005}},"rows":[]}')
    op = Op("learn", "k", ("learn-bic",), mech)
    ok = OpResult(0, "", "", 0.1)
    assert check(op, ok, {"known_failures": {}, "objectives": {"k": 1.0}}).status == "ok"
    mech.write_text('{"header":{"meta":{"oracle_objective":1.000000002}},"rows":[]}')
    assert check(op, ok, {"known_failures": {}, "objectives": {"k": 1.0}}).status == "wrong"


def test_layer_names_are_unique():
    names = [layer.name for layer in LAYERS]
    assert len(names) == len(set(names))
    assert Layer("learner", "LearnedMechanism.exact_revenue_on_atoms").name == (
        "learner.exact_revenue_on_atoms"
    )
