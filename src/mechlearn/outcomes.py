"""Finite outcome spaces and parametrized Lipschitz valuations.

An outcome space is an explicit list of outcomes, each carrying an
allocation matrix with entries in [0, 1] (one row per bidder, one column per
parameter). Multi-item spaces enumerate every assignment of m items to n
bidders or to nobody; single-parameter spaces carry one allocation level per
bidder.

A valuation model maps (own parameter vector, outcome) to a value in
[0, m*L*h]. Built-in models have Lipschitz constant 1 by construction;
custom table models declare an L that the constructor audits exhaustively on
grid neighbors and refuses if violated.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from .errors import CapacityError, ConfigError, UsageError, config_int, config_real
from .grid import GridSpec, round_down_indices

__all__ = [
    "OutcomeSpace",
    "ValuationModel",
    "PricedOutcome",
    "ClosureResult",
    "enumerate_multi_item",
    "single_parameter_space",
    "bidder_value",
    "check_weakly_downward_closed",
    "grid_type_indices",
    "grid_type_ranks",
    "space_from_config",
    "model_from_config",
]

ENUMERATION_BUDGET = 10**6
MODEL_TAGS = (
    "additive",
    "unit_demand",
    "additive_up_to_k",
    "paired_complements",
    "custom",
)


@dataclass(frozen=True)
class OutcomeSpace:
    """Explicitly enumerated outcomes with stable indices."""

    kind: str  # multi_item | single_parameter | custom
    n: int
    m: int
    alloc: np.ndarray = field(repr=False)  # (K, n, m), entries in [0, 1]

    def __post_init__(self) -> None:
        arr = np.asarray(self.alloc, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[1:] != (self.n, self.m):
            raise UsageError(
                f"alloc must have shape (K, {self.n}, {self.m}), got {arr.shape}"
            )
        if arr.shape[0] == 0:
            raise UsageError("outcome space must be nonempty")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise UsageError("allocation entries must lie in [0, 1]")
        object.__setattr__(self, "alloc", arr)

    @property
    def num_outcomes(self) -> int:
        return int(self.alloc.shape[0])

    def bidder_rows(self, i: int) -> np.ndarray:
        return self.alloc[:, i, :]

    def canonical_json(self) -> str:
        payload = {
            "kind": self.kind,
            "n": self.n,
            "m": self.m,
            "alloc": [[[repr(float(x)) for x in row] for row in out] for out in self.alloc],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def content_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]


def enumerate_multi_item(n: int, m: int) -> OutcomeSpace:
    """All assignments of m items to n bidders or nobody, (n+1)^m outcomes.

    Ordering is mixed-radix: item 0 is the most significant digit and digit
    value 0 means unassigned, so outcome 0 is the empty allocation.
    """
    if m >= ENUMERATION_BUDGET.bit_length():  # (n+1)^m >= 2^m: over without the power
        raise CapacityError(
            f"multi-item space has {n + 1}^{m} outcomes, over the {ENUMERATION_BUDGET} budget"
        )
    size = (n + 1) ** m
    if size > ENUMERATION_BUDGET:
        raise CapacityError(
            f"multi-item space has {size} outcomes, over the {ENUMERATION_BUDGET} budget"
        )
    if size * n * m > ENUMERATION_BUDGET:
        raise CapacityError(
            f"multi-item space has {size} outcomes of {n * m} allocation cells, "
            f"{size * n * m} in all, over the {ENUMERATION_BUDGET} budget"
        )
    digits = np.indices((n + 1,) * m).reshape(m, size).T  # (size, m), item 0 first
    bidders = np.arange(1, n + 1)[:, None]  # bidder i gets the items of digit i + 1
    alloc = (digits[:, None, :] == bidders).astype(np.float64, order="C")
    return OutcomeSpace(kind="multi_item", n=n, m=m, alloc=alloc)


def single_parameter_space(levels: Sequence[Sequence[float]]) -> OutcomeSpace:
    """Single-parameter space from per-outcome allocation vectors in [0,1]^n."""
    arr = np.asarray(levels, dtype=np.float64)
    if arr.ndim != 2:
        raise UsageError("single-parameter allocations must be a K x n array")
    return OutcomeSpace(
        kind="single_parameter", n=arr.shape[1], m=1, alloc=arr[:, :, None]
    )


@dataclass(frozen=True)
class PricedOutcome:
    """An outcome index together with one payment per bidder."""

    outcome: int
    payments: np.ndarray

    def __post_init__(self) -> None:
        pay = np.asarray(self.payments, dtype=np.float64)
        if not np.all(np.isfinite(pay)):
            raise UsageError("payments must be finite")
        object.__setattr__(self, "payments", pay)


def grid_type_indices(spec: GridSpec, m: int) -> np.ndarray:
    """All grid parameter vectors as an (levels^m, m) index array, lex order."""
    size = spec.levels**m
    if size > ENUMERATION_BUDGET:
        raise CapacityError(
            f"grid type enumeration has {size} entries, over budget"
        )
    grids = np.indices((spec.levels,) * m).reshape(m, size).T
    return grids.astype(np.int64)


def grid_type_ranks(indices: np.ndarray, levels: int) -> np.ndarray:
    """Row of each (T, m) grid index vector in ``grid_type_indices``: its
    mixed-radix rank, first coordinate major."""
    m = indices.shape[1]
    weights = levels ** np.arange(m - 1, -1, -1, dtype=np.int64)
    return indices @ weights


@dataclass(frozen=True)
class ValuationModel:
    """Parametrized valuation with a declared Lipschitz constant."""

    tag: str
    lipschitz_l: float = 1.0
    cap: int | None = None  # additive_up_to_k only
    table: np.ndarray | None = field(default=None, repr=False)  # custom only
    table_spec: GridSpec | None = None  # grid the custom table is indexed by

    def __post_init__(self) -> None:
        if self.tag not in MODEL_TAGS:
            raise ConfigError(f"unknown valuation model {self.tag!r}")
        if not 0 < self.lipschitz_l < math.inf:  # NaN fails it too
            raise UsageError(
                f"lipschitz_l must be positive and finite, got {self.lipschitz_l}"
            )
        if self.tag == "additive_up_to_k" and (self.cap is None or self.cap < 1):
            raise UsageError("additive_up_to_k needs cap >= 1")
        if self.tag == "custom":
            if self.table is None or self.table_spec is None:
                raise UsageError("custom model needs a table and its grid spec")
            object.__setattr__(
                self, "table", np.asarray(self.table, dtype=np.float64)
            )

    def values_for(
        self, space: OutcomeSpace, bidder: int, params: np.ndarray
    ) -> np.ndarray:
        """Values of one bidder for every outcome: (T, K) for (T, m) params."""
        pts = np.atleast_2d(np.asarray(params, dtype=np.float64))
        rows = space.bidder_rows(bidder)  # (K, m)
        if pts.shape[1] != space.m:
            raise UsageError(
                f"parameter vectors have length {pts.shape[1]}, expected {space.m}"
            )
        if self.tag == "additive":
            return pts @ rows.T
        if self.tag == "unit_demand":
            return np.max(rows[None, :, :] * pts[:, None, :], axis=2)
        if self.tag == "additive_up_to_k":
            per_item = rows[None, :, :] * pts[:, None, :]
            top = np.sort(per_item, axis=2)[:, :, -self.cap :]
            return top.sum(axis=2)
        if self.tag == "paired_complements":
            if space.m % 2 != 0:
                raise UsageError("paired_complements needs an even parameter count")
            pair = np.minimum(rows[:, 0::2], rows[:, 1::2])  # (K, m/2)
            return pts[:, 0::2] @ pair.T
        # custom: piecewise-constant lookup on the declared grid
        spec = self.table_spec
        assert spec is not None and self.table is not None
        idx = np.stack(
            [round_down_indices(pts[:, j], spec) for j in range(space.m)], axis=1
        )
        ranks = grid_type_ranks(idx, spec.levels)
        return self.table[ranks]

    def value_table(self, space: OutcomeSpace, spec: GridSpec, bidder: int) -> np.ndarray:
        """(levels^m, K) values of `bidder` at every grid parameter vector."""
        types = grid_type_indices(spec, space.m)
        return self.values_for(space, bidder, types * spec.epsilon)

    def audit_custom_table(self, space: OutcomeSpace) -> None:
        """Exhaustive Lipschitz and range audit on grid neighbors."""
        spec = self.table_spec
        assert spec is not None and self.table is not None
        table = self.table
        types = grid_type_indices(spec, space.m)
        expected = (spec.levels ** space.m, space.num_outcomes)
        if table.shape != expected:
            raise UsageError(f"custom table shape {table.shape} != {expected}")
        bound = space.m * self.lipschitz_l * spec.h
        if table.min() < -1e-9 or table.max() > bound + 1e-9:
            raise UsageError(
                f"custom table values leave [0, {bound}] (m*L*h bound)"
            )
        tol = self.lipschitz_l * spec.epsilon + 1e-12
        for j in range(space.m):
            movable = types[:, j] < spec.top_index
            src = grid_type_ranks(types[movable], spec.levels)
            stepped = types[movable].copy()
            stepped[:, j] += 1
            dst = grid_type_ranks(stepped, spec.levels)
            gap = np.abs(table[dst] - table[src])
            if gap.size and gap.max() > tol:
                at = int(np.argmax(gap.max(axis=1)))
                raise UsageError(
                    f"custom table violates declared Lipschitz constant "
                    f"{self.lipschitz_l} at grid type {types[movable][at].tolist()} "
                    f"coordinate {j}"
                )


def bidder_value(
    model: ValuationModel,
    space: OutcomeSpace,
    bidder: int,
    params: Sequence[float],
    outcome: int,
) -> float:
    """Value of one bidder for one outcome at a real parameter vector."""
    pts = np.asarray(params, dtype=np.float64)
    if pts.shape != (space.m,):
        raise UsageError(f"expected {space.m} parameters, got shape {pts.shape}")
    if not (0 <= outcome < space.num_outcomes):
        raise UsageError(f"outcome index {outcome} outside the space")
    return float(model.values_for(space, bidder, pts[None, :])[0, outcome])


@dataclass(frozen=True)
class ClosureResult:
    """Outcome of the weak-downward-closure search."""

    closed: bool
    witness: np.ndarray | None  # (K, n) -> witness outcome index
    counterexample: tuple[int, int] | None  # (outcome, bidder)
    zero_outcome: int | None  # outcome worth 0 to everyone, if any


def check_weakly_downward_closed(
    space: OutcomeSpace, model: ValuationModel, grid: GridSpec
) -> ClosureResult:
    """Search, per (outcome, bidder), for an outcome that keeps that bidder's
    value at every grid type while zeroing everyone else's.

    Value equality is exact: witnesses must reproduce the value table columns
    bit-for-bit, which built-in models satisfy because the witness reuses the
    bidder's own allocation row.
    """
    tables = [model.value_table(space, grid, i) for i in range(space.n)]
    k_outcomes = space.num_outcomes
    zero_cols = [
        np.flatnonzero(np.all(tables[i] == 0.0, axis=0)) for i in range(space.n)
    ]
    all_zero = zero_cols[0]
    for i in range(1, space.n):
        all_zero = np.intersect1d(all_zero, zero_cols[i])
    zero_outcome = int(all_zero[0]) if all_zero.size else None

    witness = np.zeros((k_outcomes, space.n), dtype=np.int64)
    for k in range(space.n):
        others_zero = np.ones(k_outcomes, dtype=bool)
        for i in range(space.n):
            if i != k:
                others_zero &= np.all(tables[i] == 0.0, axis=0)
        candidates = np.flatnonzero(others_zero)
        for x in range(k_outcomes):
            col = tables[k][:, x]
            hit = None
            for xp in candidates:
                if np.array_equal(tables[k][:, xp], col):
                    hit = int(xp)
                    break
            if hit is None:
                return ClosureResult(
                    closed=False,
                    witness=None,
                    counterexample=(x, k),
                    zero_outcome=zero_outcome,
                )
            witness[x, k] = hit
    return ClosureResult(
        closed=True, witness=witness, counterexample=None, zero_outcome=zero_outcome
    )


def space_from_config(obj: Mapping[str, Any], n: int, m: int) -> OutcomeSpace:
    kind = obj.get("kind")
    if kind == "multi_item":
        return enumerate_multi_item(n, m)
    if kind == "single_parameter":
        if m != 1:
            raise ConfigError("single_parameter spaces require m = 1")
        if "allocations" in obj:
            return single_parameter_space(obj["allocations"])
        # default: one indivisible item, n + 1 outcomes of n allocations
        if (n + 1) * n > ENUMERATION_BUDGET:
            raise CapacityError(
                f"a single-item space for {n} bidders has {(n + 1) * n} "
                f"allocations, over the {ENUMERATION_BUDGET} budget"
            )
        alloc = np.vstack([np.zeros(n), np.eye(n)])
        return single_parameter_space(alloc)
    if kind == "custom":
        alloc = np.asarray(obj["allocations"], dtype=np.float64)
        return OutcomeSpace(kind="custom", n=n, m=m, alloc=alloc)
    raise ConfigError(f"unknown outcome-space kind {kind!r}")


def model_from_config(
    obj: Mapping[str, Any], spec: GridSpec | None = None, space: OutcomeSpace | None = None
) -> ValuationModel:
    tag = obj.get("tag")
    if tag == "custom":
        if spec is None or space is None:
            raise ConfigError("custom models need the grid and space context")
        model = ValuationModel(
            tag="custom",
            lipschitz_l=config_real(obj.get("lipschitz_l", 1.0), "lipschitz_l"),
            table=np.asarray(obj["table"], dtype=np.float64),
            table_spec=spec,
        )
        model.audit_custom_table(space)
        return model
    return ValuationModel(
        tag=str(tag),
        lipschitz_l=config_real(obj.get("lipschitz_l", 1.0), "lipschitz_l"),
        cap=config_int(obj["k"], "k") if "k" in obj else None,
    )
