"""Ground-truth prior families, sampling, and JSON prior configs.

Supported families (fixed set; reproducible experiments need closed-form
samplers):

* ``discrete_on_grid``  -- atoms that must sit exactly on grid points
* ``point_masses``      -- finite atoms anywhere in [0, h]
* ``uniform``           -- continuous uniform on [low, high] within [0, h]
* ``trunc_exp``         -- exponential(scale) truncated to [low, high]

The two finite families admit an exact grid pushforward (used for exact
benchmarks and the revenue-transfer identity); the continuous families only
support sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Mapping

import numpy as np

from .errors import (
    CapacityError,
    ConfigError,
    DomainError,
    UsageError,
    config_int,
    config_real,
)
from .grid import (
    DiscreteMarginal,
    GridSpec,
    ProductPrior,
    SampleSet,
    round_down,
    round_down_indices,
)
from .outcomes import ENUMERATION_BUDGET

__all__ = [
    "PriorCell",
    "PriorDescription",
    "sample_prior",
    "prior_from_config",
]

_FAMILIES = ("discrete_on_grid", "point_masses", "uniform", "trunc_exp")
# Caps the n * m * s values sample_prior draws, 8 bytes each: 800 MB.
SAMPLE_BUDGET = 10**8


def _fraction(x: Any) -> Fraction:
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, (int, float)):
        return Fraction(x)
    raise ConfigError(f"cannot interpret probability {x!r}")


def _finite(x: Any, key: str) -> float:
    """Continuous-family parameter ``key``: a finite JSON number."""
    out = config_real(x, key)
    if not math.isfinite(out):
        raise ConfigError(f"{key}: {x!r} is not finite")
    return out


@dataclass(frozen=True)
class PriorCell:
    """One (bidder, parameter) marginal description."""

    family: str
    params: Mapping[str, Any]

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ConfigError(
                f"unsupported prior family {self.family!r}; expected one of {_FAMILIES}"
            )
        p = dict(self.params)
        object.__setattr__(self, "params", p)
        if self.family in ("discrete_on_grid", "point_masses"):
            values = p.get("values")
            probs = p.get("probs")
            if not values or probs is None or len(values) != len(probs):
                raise ConfigError(
                    f"{self.family} needs matching 'values' and 'probs' lists"
                )
            try:
                atoms = tuple((float(v), _fraction(q)) for v, q in zip(values, probs))
            except (TypeError, ValueError, ZeroDivisionError) as exc:
                raise ConfigError(
                    f"{self.family} values and probs must be numbers: {exc}"
                ) from exc
            if any(q < 0 for _, q in atoms):
                raise ConfigError(f"{self.family} probs must be nonnegative")
            total = sum((q for _, q in atoms), Fraction(0))
            if abs(total - 1) > Fraction(1, 10**12):
                raise ConfigError(f"probs sum to {float(total)}, not 1")
            object.__setattr__(self, "_atoms", atoms)
        elif self.family == "uniform":
            if not {"low", "high"} <= p.keys():
                raise ConfigError("uniform needs low < high")
            lo, hi = _finite(p["low"], "low"), _finite(p["high"], "high")
            if not lo < hi or not math.isfinite(hi - lo):
                raise ConfigError("uniform needs low < high, a finite range apart")
        elif self.family == "trunc_exp":
            if _finite(p.get("scale", 0), "scale") <= 0:
                raise ConfigError("trunc_exp needs a positive 'scale'")
            if "high" not in p:
                raise ConfigError("trunc_exp needs low < high")
            lo, hi = _finite(p.get("low", 0.0), "low"), _finite(p["high"], "high")
            if not lo < hi:
                raise ConfigError("trunc_exp needs low < high")

    @property
    def finite(self) -> bool:
        return self.family in ("discrete_on_grid", "point_masses")

    def atoms(self) -> list[tuple[float, Fraction]]:
        if not self.finite:
            raise ConfigError(f"{self.family} has no finite atom list")
        return list(self._atoms)

    def grid_pushforward(self, spec: GridSpec) -> DiscreteMarginal:
        """Distribution of the epsilon-rounded value, exactly. The first bad
        atom, in atom order, raises: one outside [0, h], or, for
        ``discrete_on_grid``, one off the grid."""
        atoms = self.atoms()
        values = np.array([v for v, _ in atoms])
        inside = (values >= 0.0) & (values <= spec.h)  # False for NaN
        idx = round_down_indices(np.where(inside, values, 0.0), spec)
        bad = ~inside
        if self.family == "discrete_on_grid":
            bad |= idx * spec.epsilon != values
        if bad.any():
            at = int(np.argmax(bad))
            v = atoms[at][0]
            if not inside[at]:
                raise DomainError(f"value {v!r} outside [0, {spec.h}]")
            raise ConfigError(
                f"discrete_on_grid atom {v!r} is not a grid point of "
                f"epsilon={spec.epsilon}"
            )
        mass: dict[int, Fraction] = {}
        for k, (_, q) in zip(idx.tolist(), atoms):
            mass[k] = mass.get(k, Fraction(0)) + q
        return DiscreteMarginal(spec, mass)

    def draw(self, rng: np.random.Generator, size: int, h: float) -> np.ndarray:
        if self.finite:
            vals = np.array([v for v, _ in self.atoms()])
            probs = np.array([float(q) for _, q in self.atoms()])
            probs = probs / probs.sum()
            out = rng.choice(vals, size=size, p=probs)
        elif self.family == "uniform":
            out = rng.uniform(self.params["low"], self.params["high"], size=size)
        else:  # trunc_exp, by inverse CDF
            lo = self.params.get("low", 0.0)
            hi = self.params["high"]
            scale = self.params["scale"]
            u = rng.uniform(0.0, 1.0, size=size)
            z = 1.0 - math.exp(-(hi - lo) / scale)
            out = lo - scale * np.log1p(-u * z)
        if out.size and (out.min() < 0.0 or out.max() > h):
            raise DomainError(
                f"prior cell {self.family} produced values outside [0, {h}]"
            )
        return out


@dataclass(frozen=True)
class PriorDescription:
    """An n x m array of prior cells plus the value cap h."""

    n: int
    m: int
    h: float
    cells: tuple[tuple[PriorCell, ...], ...]

    def __post_init__(self) -> None:
        if len(self.cells) != self.n or any(len(r) != self.m for r in self.cells):
            raise ConfigError("cells must form an n x m array")

    @property
    def finite(self) -> bool:
        return all(c.finite for row in self.cells for c in row)

    def cell(self, i: int, j: int) -> PriorCell:
        return self.cells[i][j]

    def to_grid_prior(self, spec: GridSpec) -> ProductPrior:
        """Exact product of rounded marginals; finite families only."""
        if not self.finite:
            raise ConfigError(
                "exact grid pushforward requires finite prior families"
            )
        marg = tuple(
            tuple(c.grid_pushforward(spec) for c in row) for row in self.cells
        )
        return ProductPrior(n=self.n, m=self.m, marginals=marg)

    def grid_supported(self, spec: GridSpec) -> bool:
        if not self.finite:
            return False
        for row in self.cells:
            for c in row:
                for v, _ in c.atoms():
                    if spec.value(round_down(v, spec).index) != v:
                        return False
        return True


def sample_prior(
    prior: PriorDescription, n: int, m: int, s: int, seed: int
) -> SampleSet:
    """Draw n*m*s i.i.d. values, one private stream per call."""
    if (n, m) != (prior.n, prior.m):
        raise ConfigError(
            f"prior is {prior.n}x{prior.m} but {n}x{m} samples were requested"
        )
    if s < 1 or seed < 0:
        raise UsageError(f"need s >= 1 and seed >= 0, got s={s} and seed={seed}")
    if n * m * s > SAMPLE_BUDGET:
        raise CapacityError(
            f"{n}x{m}x{s} samples are {n * m * s} values, over the "
            f"{SAMPLE_BUDGET} budget"
        )
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    values = np.empty((n, m, s))
    for i in range(n):
        for j in range(m):
            values[i, j] = prior.cell(i, j).draw(rng, s, prior.h)
    return SampleSet(n=n, m=m, s=s, h=prior.h, values=values, rng_seed=seed)


def prior_from_config(obj: Mapping[str, Any]) -> PriorDescription:
    """Build a PriorDescription from a JSON-style mapping.

    The cell description is either a single {"family", "params"} object
    (broadcast to all n x m cells) or a full n x m nested list under "cells".
    """
    try:
        n, m = (config_int(obj[key], key) for key in ("n", "m"))
        h = config_real(obj["h"], "h")
    except KeyError as exc:
        raise ConfigError(f"prior config missing key {exc}") from exc
    if n * m > ENUMERATION_BUDGET:
        raise CapacityError(
            f"a {n}x{m} prior has {n * m} cells, over the {ENUMERATION_BUDGET} budget"
        )
    if "cells" in obj:
        rows = obj["cells"]
        if len(rows) != n or any(len(r) != m for r in rows):
            raise ConfigError("prior 'cells' must be an n x m nested list")
        cells = tuple(
            tuple(PriorCell(c["family"], c.get("params", {})) for c in row)
            for row in rows
        )
    elif "family" in obj:
        cell = PriorCell(obj["family"], obj.get("params", {}))
        cells = tuple(tuple(cell for _ in range(m)) for _ in range(n))
    else:
        raise ConfigError("prior config needs either 'cells' or a broadcast 'family'")
    return PriorDescription(n=n, m=m, h=h, cells=cells)
