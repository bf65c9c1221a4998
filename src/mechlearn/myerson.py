"""Discrete Myerson machinery: ironing, virtual-welfare auctions, payments.

Ironing works in quantile space with exact rationals: the revenue curve of a
discrete marginal is the set of points (sale quantile, price * quantile) plus
the origin, its upper concave hull is computed with exact cross products, and
the ironed virtual value of a support point is the hull slope over that
point's quantile segment. Exactness matters: a float hull can misorder the
virtual values of near-tied support points, and everything downstream
(allocation monotonicity, payment identity, optimality) leans on the
ordering.

The auction allocates by maximizing total virtual welfare with a fixed,
bid-independent tie order (a welfare tie goes to the larger total
allocation, so zero-virtual-value ties allocate); winners pay ladder
thresholds, which makes the auction exactly IR and DSIC. It exists only as
the full-grid table ``single_parameter_table`` builds, and real bids reach
it through that table like every learned table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import CapacityError, UsageError
from .grid import DiscreteMarginal, GridSpec
from .mechanism import MechanismTable, ProfileDomain
from .outcomes import OutcomeSpace

__all__ = [
    "IronedVirtuals",
    "iron",
    "single_parameter_table",
    "ironed_curve_rows",
]

# Caps the cells of the position table, (support + 1)^n position profiles
# times the larger of K and n; 10^8 float cells are 800 MB.
POSITION_CELL_BUDGET = 10**8


@dataclass(frozen=True)
class IronedVirtuals:
    """Ironed virtual values of one marginal, exact and per support point."""

    marginal: DiscreteMarginal
    phi_exact: tuple[Fraction, ...]  # aligned with marginal.support
    quantiles: tuple[Fraction, ...]  # sale quantile of each support point
    curve: tuple[Fraction, ...]  # revenue-curve ordinate at each quantile
    hull: tuple[Fraction, ...]  # hull ordinate at each quantile

    def __post_init__(self) -> None:
        for a, b in zip(self.phi_exact, self.phi_exact[1:]):
            if a > b:
                raise UsageError("ironed virtual values must be nondecreasing")

    @property
    def support(self) -> tuple[int, ...]:
        return self.marginal.support

    def phi_floats(self) -> np.ndarray:
        return np.array([float(p) for p in self.phi_exact])


def _upper_hull(points: list[tuple[Fraction, Fraction]]) -> list[tuple[Fraction, Fraction]]:
    """Upper concave envelope of points with strictly increasing abscissas."""
    hull: list[tuple[Fraction, Fraction]] = []
    for p in points:
        while len(hull) >= 2:
            o, a = hull[-2], hull[-1]
            cross = (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0])
            if cross >= 0:  # middle point at or below the chord: drop it
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def _hull_value(hull: list[tuple[Fraction, Fraction]], q: Fraction) -> Fraction:
    for (x0, y0), (x1, y1) in zip(hull, hull[1:]):
        if x0 <= q <= x1:
            if x0 == q:
                return y0
            return y0 + (y1 - y0) * (q - x0) / (x1 - x0)
    if hull and hull[-1][0] == q:
        return hull[-1][1]
    raise UsageError(f"quantile {q} outside the hull range")


def iron(marginal: DiscreteMarginal) -> IronedVirtuals:
    """Ironed virtual value of every support point, via the concave hull of
    the discrete revenue curve in quantile space."""
    support = marginal.support
    if not support:
        raise UsageError("cannot iron an empty marginal")
    probs = marginal.probs(support)
    values = [Fraction(marginal.spec.value(k)) for k in support]
    t = len(support)
    # sale quantile of posting each support value as a price
    quantiles = [Fraction(0)] * t
    acc = Fraction(0)
    for i in range(t - 1, -1, -1):
        acc += probs[i]
        quantiles[i] = acc
    curve = [values[i] * quantiles[i] for i in range(t)]
    points = [(Fraction(0), Fraction(0))] + [
        (quantiles[i], curve[i]) for i in range(t - 1, -1, -1)
    ]
    hull = _upper_hull(points)
    hull_at = [_hull_value(hull, quantiles[i]) for i in range(t)]
    phi = []
    for i in range(t):
        hi_q = quantiles[i]
        lo_q = quantiles[i + 1] if i + 1 < t else Fraction(0)
        hi_r = hull_at[i]
        lo_r = hull_at[i + 1] if i + 1 < t else Fraction(0)
        phi.append((hi_r - lo_r) / (hi_q - lo_q))
    return IronedVirtuals(
        marginal=marginal,
        phi_exact=tuple(phi),
        quantiles=tuple(quantiles),
        curve=tuple(curve),
        hull=tuple(hull_at),
    )


def ironed_curve_rows(iv: IronedVirtuals) -> list[dict]:
    """CSV-ready rows: value, quantile, revenue-curve point, hull point, phi."""
    rows = []
    for pos, k in enumerate(iv.support):
        rows.append(
            {
                "value": iv.marginal.spec.value(k),
                "quantile": float(iv.quantiles[pos]),
                "revenue_curve": float(iv.curve[pos]),
                "hull": float(iv.hull[pos]),
                "phi": float(iv.phi_exact[pos]),
            }
        )
    return rows


def _position_table(
    virtuals: Sequence[IronedVirtuals], alloc: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Chosen outcome (-1 where none is feasible) and every bidder's ladder
    payment at every position profile of the (K, n) allocation levels
    ``alloc``. Axis i is indexed by bidder i's support position + 1, so
    index 0 is a bid below the support: a non-participant.

    The chosen outcome is the first of the lexicographic maxima of
    (virtual welfare, total allocation) among the outcomes that give no
    non-participant any allocation, so zero-virtual-value ties allocate.
    Welfare is summed in bidder order. Raises ``CapacityError`` first when
    the table is over ``POSITION_CELL_BUDGET``.
    """
    n = len(virtuals)
    shape = tuple(len(iv.support) + 1 for iv in virtuals)
    cells = math.prod(shape) * max(alloc.shape)
    if cells > POSITION_CELL_BUDGET:
        raise CapacityError(
            f"the Myerson position table has {cells} cells, over the "
            f"{POSITION_CELL_BUDGET} budget"
        )
    welfare = np.zeros(shape + alloc.shape[:1])
    feasible = np.ones(welfare.shape, dtype=bool)
    total = np.zeros(alloc.shape[0])
    for i, iv in enumerate(virtuals):
        phi = np.concatenate(([0.0], iv.phi_floats()))
        welfare += phi.reshape((-1,) + (1,) * (n - i)) * alloc[:, i]
        feasible[(slice(None),) * i + (0,)] &= alloc[:, i] == 0.0
        total += alloc[:, i]
    best = np.where(feasible, welfare, -np.inf).max(axis=-1, keepdims=True)
    tied = feasible & (welfare == best)
    key = np.where(tied, total, -np.inf)
    tied &= key == key.max(axis=-1, keepdims=True)
    chosen = np.where(feasible.any(axis=-1), tied.argmax(axis=-1), -1)

    # Myerson's payment identity on the ladder: a bidder at position p
    # pays v_p x_p minus the sum over lower positions l of
    # x_l (v_{l+1} - v_l), all other positions held fixed.
    payments = np.zeros(shape + (n,))
    for i, iv in enumerate(virtuals):
        vals = iv.marginal.support_values()
        x = np.moveaxis(alloc[chosen, i], i, -1)[..., 1:]
        ladder = np.zeros_like(x)
        np.cumsum(x[..., :-1] * np.diff(vals), axis=-1, out=ladder[..., 1:])
        np.moveaxis(payments[..., i], i, -1)[..., 1:] = vals * x - ladder
    return chosen, payments


def single_parameter_table(
    virtuals: Sequence[IronedVirtuals], space: OutcomeSpace, spec: GridSpec
) -> MechanismTable:
    """The virtual-welfare auction of one ``IronedVirtuals`` per bidder on
    the single-parameter ``space``, as a full-grid table: a grid bid plays
    the row of the bidder's support value at or below it, and a bid below
    the support does not participate."""
    if space.m != 1:
        raise UsageError("Myersonian auctions require a single-parameter space")
    if len(virtuals) != space.n:
        raise UsageError("need one IronedVirtuals per bidder")
    n = space.n
    domain = ProfileDomain.full_grid(spec, n, 1)
    r = domain.num_profiles
    # snapped position + 1 of every grid value, 0 below the support
    index = np.ix_(
        *(
            np.searchsorted(iv.marginal.support_values(), spec.values(), side="right")
            for iv in virtuals
        )
    )
    chosen, payments = _position_table(virtuals, space.alloc[:, :, 0])
    chosen = chosen[index].ravel()
    if np.any(chosen < 0):
        raise UsageError(
            "no outcome excludes the non-participating bidders; the space "
            "cannot host below-minimum bids"
        )
    probs = np.zeros((r, space.num_outcomes))
    probs[np.arange(r), chosen] = 1.0
    return MechanismTable(
        domain=domain,
        space=space,
        probs=probs,
        payments=payments[index].reshape(r, n),
        meta={"pipeline": "myerson"},
    )
