"""Value grids and discrete distributions over them.

Everything downstream identifies a grid point by its integer index; floats are
only produced at the boundary (``index * epsilon``) and never compared for
grid membership. Probability masses are stored as exact ``Fraction``s, so
empirical distributions built from S samples carry masses that are exact
multiples of 1/S.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DomainError, InvariantError, ParseError, UsageError, read_text, write_text

__all__ = [
    "GridSpec",
    "GridValue",
    "DiscreteMarginal",
    "ProductPrior",
    "SampleSet",
    "round_down",
    "round_down_indices",
    "empirical_marginal",
    "recommended_sample_count",
]


@dataclass(frozen=True)
class GridSpec:
    """A value grid: multiples of ``epsilon`` inside [0, h].

    The top grid point is the largest multiple of epsilon that does not
    exceed h; when h itself is not a multiple of epsilon the top cell is
    partial and h is not a grid point.
    """

    epsilon: float
    h: float

    def __post_init__(self) -> None:
        if not (self.epsilon > 0):
            raise DomainError(f"epsilon must be positive, got {self.epsilon}")
        if not (self.h > 0):
            raise DomainError(f"h must be positive, got {self.h}")
        if self.epsilon > self.h:
            raise DomainError(
                f"epsilon must not exceed h, got epsilon={self.epsilon} > h={self.h}"
            )

    @property
    def top_index(self) -> int:
        # Exact rational floor(h / epsilon): float division could straddle
        # an integer boundary for non-dyadic steps.
        return int(Fraction(self.h) / Fraction(self.epsilon))

    @property
    def levels(self) -> int:
        return self.top_index + 1

    def value(self, index: int) -> float:
        if not (0 <= index <= self.top_index):
            raise DomainError(
                f"grid index {index} outside [0, {self.top_index}]"
            )
        return index * self.epsilon

    def values(self) -> np.ndarray:
        return np.arange(self.levels, dtype=np.float64) * self.epsilon


@dataclass(frozen=True)
class GridValue:
    """A value pinned to a grid point, identified by integer index."""

    index: int

    def value(self, spec: GridSpec) -> float:
        return spec.value(self.index)


def round_down_indices(values: np.ndarray, spec: GridSpec) -> np.ndarray:
    """Vectorized floor-to-grid: largest index k with k*epsilon <= v.

    The initial guess comes from float division; two fixup passes pin the
    result against the actual float grid points so that grid points are
    exact fixed points of the rounding.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size and (np.min(v) < 0.0 or np.max(v) > spec.h):
        bad = v[(v < 0.0) | (v > spec.h)].flat[0]
        raise DomainError(f"value {bad!r} outside [0, {spec.h}]")
    k = np.floor(v / spec.epsilon).astype(np.int64)
    top = spec.top_index
    k = np.clip(k, 0, top)
    for _ in range(2):  # each pass moves at most one step
        k = np.where((k < top) & ((k + 1) * spec.epsilon <= v), k + 1, k)
        k = np.where((k > 0) & (k * spec.epsilon > v), k - 1, k)
    return k


def round_down(v: float, spec: GridSpec) -> GridValue:
    """Round a real value in [0, h] down to the nearest grid point."""
    if not (0.0 <= v <= spec.h):
        raise DomainError(f"value {v!r} outside [0, {spec.h}]")
    idx = int(round_down_indices(np.array([v]), spec)[0])
    return GridValue(idx)


@dataclass(frozen=True)
class DiscreteMarginal:
    """A finite distribution over grid points of one (bidder, parameter) cell.

    Masses are exact rationals. A marginal is *exact* when its masses sum to
    exactly 1; marginals built from float probabilities may only sum to 1
    within 1e-12 (the float inputs are embedded exactly, so nothing further
    drifts after construction).
    """

    spec: GridSpec
    mass: Mapping[int, Fraction]

    def __post_init__(self) -> None:
        frozen = {int(k): Fraction(p) for k, p in self.mass.items()}
        object.__setattr__(self, "mass", frozen)
        top = self.spec.top_index
        for k, p in frozen.items():
            if not (0 <= k <= top):
                raise DomainError(f"support index {k} outside grid [0, {top}]")
            if p < 0:
                raise DomainError(f"negative probability {p} at index {k}")
        total = sum(frozen.values(), Fraction(0))
        if abs(total - 1) > Fraction(1, 10**12):
            raise DomainError(f"probabilities sum to {float(total)}, not 1")

    @property
    def exact(self) -> bool:
        return sum(self.mass.values(), Fraction(0)) == 1

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(k for k, p in self.mass.items() if p > 0))

    def support_values(self) -> np.ndarray:
        return np.array([self.spec.value(k) for k in self.support])

    def probs(self, indices: Sequence[int] | None = None) -> list[Fraction]:
        idx = self.support if indices is None else indices
        zero = Fraction(0)
        return [self.mass.get(k, zero) for k in idx]

    def probs_float(self, indices: Sequence[int] | None = None) -> np.ndarray:
        return np.array([float(p) for p in self.probs(indices)])


def empirical_marginal(samples: Iterable[float], spec: GridSpec) -> DiscreteMarginal:
    """Uniform distribution over the rounded samples, with exact k/S masses."""
    arr = np.asarray(list(samples), dtype=np.float64)
    if arr.size == 0:
        raise UsageError("empirical_marginal requires at least one sample")
    idx = round_down_indices(arr, spec)
    counts: dict[int, int] = {}
    for k in idx.tolist():
        counts[k] = counts.get(k, 0) + 1
    s = arr.size
    return DiscreteMarginal(spec, {k: Fraction(c, s) for k, c in counts.items()})


@dataclass(frozen=True)
class ProductPrior:
    """Independent product of n*m grid marginals sharing one GridSpec.

    Only the marginals are stored; joint tables are never materialized.
    """

    n: int
    m: int
    marginals: tuple[tuple[DiscreteMarginal, ...], ...]

    def __post_init__(self) -> None:
        if len(self.marginals) != self.n or any(
            len(row) != self.m for row in self.marginals
        ):
            raise UsageError("marginals must form an n x m array")
        spec = self.spec
        for row in self.marginals:
            for marg in row:
                if marg.spec != spec:
                    raise UsageError("all marginals must share one GridSpec")

    @property
    def spec(self) -> GridSpec:
        return self.marginals[0][0].spec

    def cell(self, i: int, j: int) -> DiscreteMarginal:
        return self.marginals[i][j]

    def supports(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        return tuple(
            tuple(marg.support for marg in row) for row in self.marginals
        )

    @property
    def exact(self) -> bool:
        return all(m.exact for row in self.marginals for m in row)


@dataclass(frozen=True)
class SampleSet:
    """n x m x s raw sample values in [0, h], reproducible from the seed."""

    n: int
    m: int
    s: int
    h: float
    values: np.ndarray = field(repr=False)
    rng_seed: int = 0

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (self.n, self.m, self.s):
            raise UsageError(
                f"values shape {vals.shape} != ({self.n}, {self.m}, {self.s})"
            )
        if self.s < 1:
            raise UsageError("need at least one sample per cell")
        # negated so that a NaN, which fails every comparison, is rejected
        if vals.size and not (vals.min() >= 0.0 and vals.max() <= self.h):
            raise DomainError("sample values must lie in [0, h]")
        object.__setattr__(self, "values", vals)

    def cell(self, i: int, j: int) -> np.ndarray:
        return self.values[i, j]

    def to_csv(self, path: str) -> None:
        lines = ["bidder,parameter,sample_index,value\n"]
        for i in range(self.n):
            for j in range(self.m):
                for s in range(self.s):
                    lines.append(f"{i},{j},{s},{float(self.values[i, j, s])!r}\n")
        write_text(path, "".join(lines))

    @classmethod
    def from_csv(cls, path: str, h: float, rng_seed: int = 0) -> "SampleSet":
        cells: dict[tuple[int, int], dict[int, float]] = {}
        reader = csv.DictReader(read_text(path).splitlines(keepends=True))
        expected = ["bidder", "parameter", "sample_index", "value"]
        if reader.fieldnames != expected:
            raise ParseError(
                f"{path}: expected header {','.join(expected)}, got {reader.fieldnames}"
            )
        for row in reader:
            where = f"{path}: line {reader.line_num}"
            if None in row or None in row.values():  # a long or a short row
                raise ParseError(f"{where}: expected {len(expected)} fields")
            try:
                i, j, k = (int(row[f]) for f in expected[:3])
                value = float(row["value"])
            except ValueError as exc:
                raise ParseError(f"{where}: {exc}") from exc
            if min(i, j, k) < 0:
                raise ParseError(f"{where}: negative index")
            cells.setdefault((i, j), {})[k] = value
        if not cells:
            raise UsageError(f"{path}: no sample rows")
        n = 1 + max(i for i, _ in cells)
        m = 1 + max(j for _, j in cells)
        s = 1 + max(max(d) for d in cells.values())
        # checked before allocating: one stray index must not size the array
        if len(cells) != n * m:
            raise UsageError(f"{path}: samples cover {len(cells)} of {n}x{m} cells")
        for (i, j), d in cells.items():
            if len(d) != s:
                raise UsageError(f"{path}: ragged sample counts at cell ({i},{j})")
        values = np.zeros((n, m, s))
        for (i, j), d in cells.items():
            for k, v in d.items():
                values[i, j, k] = v
        return cls(n=n, m=m, s=s, h=h, values=values, rng_seed=rng_seed)


def recommended_sample_count(
    n: int, m: int, L: float, H: float, epsilon: float, delta: float
) -> int:
    """Smallest sample count satisfying the learner's union-bound inequality.

    The requirement has the shape S >= a + b*log(S+1), solved by fixed-point
    iteration from below and then tightened by a downward scan, so the
    returned S satisfies the inequality while S-1 does not.
    """
    for name, val in (("n", n), ("m", m), ("L", L), ("H", H), ("epsilon", epsilon)):
        if not val > 0:
            raise DomainError(f"{name} must be positive, got {val}")
    if not (0.0 < delta < 1.0):
        raise DomainError(f"delta must be in (0, 1), got {delta}")

    levels = math.ceil(H / epsilon)
    lead = 8.0 * n * n * m * m * L * L * H * H / (epsilon * epsilon)
    const = (
        math.log(4.0 * n * m * L * H / epsilon)
        + math.log(1.0 / delta)
        + math.log(n)
        + 2.0 * m * math.log(levels)
    )

    def rhs(s: int) -> float:
        return lead * (const + n * m * levels * math.log(s + 1.0))

    s = 1
    for _ in range(10_000):
        nxt = math.ceil(rhs(s))
        if nxt <= s:
            break
        s = nxt
    else:  # pragma: no cover - the iteration contracts geometrically
        raise InvariantError(
            f"sample-count iteration failed to converge for {(n, m, L, H, epsilon, delta)}"
        )
    while s > 1 and (s - 1) >= rhs(s - 1):
        s -= 1
    return s
