"""Outside-in span tracer for the mechlearn layers.

The tracer wraps a public function of the program and rebinds the wrapper
at every mechlearn module that holds the function, so calls made through
any import site record a span. Nothing under ``src/`` changes: the wrappers
live here and are removed again when the ``installed`` block ends.

A span records its name, start, end and parent. A layer's self time is its
span's duration minus the time its direct child spans cover; the program
is single-threaded, so children never overlap. Counts are computed from the
arguments and results each wrapper sees, after the span has closed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
import types
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator


@dataclass
class Span:
    name: str
    parent: "Span | None"
    start: float
    end: float = 0.0
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


CountFn = Callable[[tuple, dict, Any], dict]


@dataclass(frozen=True)
class Layer:
    """One wrapped function: ``module`` under the ``mechlearn`` package and
    a dotted ``attr`` inside it; ``count`` derives counters from a call."""

    module: str
    attr: str
    count: CountFn | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr.rsplit('.', 1)[-1]}"


@dataclass
class Tracer:
    clock: Callable[[], float] = time.perf_counter
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    _stack: list[Span] = field(default_factory=list)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()

    def wrap(self, name: str, fn: Callable, count: CountFn | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, parent, self.clock())
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
                if parent is not None:
                    parent.child_s += span.duration
                self.spans.append(span)
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    self.counts[key] += int(value)
            return result

        traced.__wrapped_original__ = fn
        return traced

    def summary(self, layers: list[Layer]) -> dict[str, float]:
        """Per-layer ``self_s`` and ``calls``, plus the tracer's counts."""
        out: dict[str, float] = {}
        for layer in layers:
            out[f"{layer.name}.self_s"] = 0.0
            out[f"{layer.name}.calls"] = 0
        for span in self.spans:
            out[f"{span.name}.self_s"] = out.get(f"{span.name}.self_s", 0.0) + span.self_s
            out[f"{span.name}.calls"] = out.get(f"{span.name}.calls", 0) + 1
        out.update(self.counts)
        return out

    def total_s(self, name: str, parent: str | None = None) -> float:
        """Summed duration of ``name`` spans, optionally only those whose
        direct parent is a ``parent`` span."""
        return sum(
            s.duration
            for s in self.spans
            if s.name == name
            and (parent is None or (s.parent is not None and s.parent.name == parent))
        )

    @contextlib.contextmanager
    def installed(self, layers: list[Layer]) -> Iterator[None]:
        """Rebind every layer's wrapper at all of its import sites."""
        undo: list[tuple[Any, str, Any]] = []
        try:
            for layer in layers:
                owner, leaf, original = resolve(layer)
                wrapper = self.wrap(layer.name, original, layer.count)
                for holder, attr in import_sites(original, owner, leaf):
                    undo.append((holder, attr, holder.__dict__[attr]))
                    setattr(holder, attr, wrapper)
            yield
        finally:
            for holder, attr, value in reversed(undo):
                setattr(holder, attr, value)


def resolve(layer: Layer) -> tuple[Any, str, Callable]:
    """The object owning the layer's attribute, the attribute name, and the
    function it holds."""
    owner: Any = importlib.import_module(f"mechlearn.{layer.module}")
    *path, leaf = layer.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf, owner.__dict__[leaf]


def mechlearn_modules() -> list[types.ModuleType]:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "mechlearn" or name.startswith("mechlearn."))
    ]


def import_sites(original: Callable, owner: Any, leaf: str) -> list[tuple[Any, str]]:
    """Every module global (and the owner's own attribute) bound to
    ``original``."""
    sites = [(owner, leaf)]
    for mod in mechlearn_modules():
        for attr, value in list(vars(mod).items()):
            if value is original and (mod, attr) != (owner, leaf):
                sites.append((mod, attr))
    return sites
