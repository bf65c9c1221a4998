"""End-to-end learning pipelines and the single-bidder exact-IC nudge.

``learn_bic`` and ``learn_dsic`` run the whole chain: round the samples,
build the empirical product prior, solve the oracle LP over its support,
extend to the full grid with the matching extension rule, and wrap the grid
table so it accepts arbitrary real bids by rounding them down first. Both
pipelines are deterministic functions of their inputs.

The nudge turns a single-bidder IR + eps-IC menu into an exactly IC and IR
one by scaling every payment by (1 - sqrt(eps)): more expensive entries keep
more absolute discount, which beats any eps-bounded deviation gain. The
bidder then simply picks her utility-maximizing entry, ties resolved toward
the seller.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import UsageError
from .grid import GridSpec, ProductPrior, SampleSet, empirical_marginal, round_down_indices
from .mechanism import (
    MechanismTable,
    ProfileDomain,
    distinct_columns,
    expost_columns,
    interim_utilities,
    max_gain,
    revenue,
)
from .oracle import OracleProblem, extend_bic, extend_dsic, solve_optimal
from .outcomes import (
    OutcomeSpace,
    ValuationModel,
    check_weakly_downward_closed,
    grid_type_ranks,
)
from .priors import PriorDescription

__all__ = [
    "LearnedMechanism",
    "Menu",
    "MenuEntry",
    "learn_bic",
    "learn_dsic",
    "evaluate_on_reals",
    "mechanism_to_menu",
    "nudge_to_ic",
    "menu_mechanism",
    "real_lattice_bic_regret",
    "real_lattice_dsic_regret",
]


@dataclass
class LearnedMechanism:
    """A full-grid mechanism table plus the round-bids-down wrapper."""

    inner: MechanismTable
    mode: str  # "bic" | "dsic" | "single_bidder_ic"

    def __post_init__(self) -> None:
        if not self.inner.domain.is_full_grid:
            raise UsageError("learned mechanisms must cover the full grid")
        if self.mode not in ("bic", "dsic", "single_bidder_ic"):
            raise UsageError(f"unknown mode {self.mode!r}")

    @property
    def spec(self) -> GridSpec:
        return self.inner.domain.spec

    @property
    def n(self) -> int:
        return self.inner.n

    @property
    def m(self) -> int:
        return self.inner.m

    def grid_rank(self, bids: np.ndarray) -> int:
        idx = np.stack(
            [round_down_indices(bids[i], self.spec) for i in range(self.n)]
        )
        return self.inner.domain.profile_rank(idx)

    def exact_revenue_on_atoms(self, prior: PriorDescription) -> Fraction:
        """Exact expected revenue under a finite-support true prior, with
        real bids rounded through the wrapper.

        The wrapper and the grid pushforward both round with
        ``round_down_indices`` on this grid, so this is the exact revenue of
        the inner table under the prior's pushforward."""
        if (prior.n, prior.m) != (self.n, self.m):
            raise UsageError("prior and mechanism disagree on (n, m)")
        return revenue(self.inner, prior.to_grid_prior(self.spec), exact=True)


def evaluate_on_reals(
    mech: LearnedMechanism, bids: Sequence[Sequence[float]]
) -> list[tuple[float, int, np.ndarray]]:
    """Lottery entries played for a real bid matrix in [0, H]^(n*m)."""
    arr = np.asarray(bids, dtype=np.float64)
    if arr.shape != (mech.n, mech.m):
        raise UsageError(f"bids shape {arr.shape} != ({mech.n}, {mech.m})")
    rank = mech.grid_rank(arr)  # round_down_indices rejects out-of-range bids
    return mech.inner.lottery_entries(rank)


def _empirical_prior(samples: SampleSet, spec: GridSpec) -> ProductPrior:
    marginals = tuple(
        tuple(
            empirical_marginal(samples.cell(i, j), spec) for j in range(samples.m)
        )
        for i in range(samples.n)
    )
    return ProductPrior(n=samples.n, m=samples.m, marginals=marginals)


def learn_bic(
    samples: SampleSet,
    epsilon: float,
    space: OutcomeSpace,
    model: ValuationModel,
) -> LearnedMechanism:
    """Empirical revenue maximization with the interim-truthfulness oracle."""
    spec = GridSpec(epsilon=epsilon, h=samples.h)
    prior = _empirical_prior(samples, spec)
    problem = OracleProblem(prior=prior, space=space, model=model, ic_mode="bic")
    solution = solve_optimal(problem)
    inner = extend_bic(solution.mechanism, prior, model)
    inner.meta.update(
        {
            "mode": "bic",
            "samples": samples.s,
            "seed": samples.rng_seed,
            "oracle_objective": solution.objective_value,
            "bic_regret_bound": 2.0 * samples.m * epsilon,
        }
    )
    return LearnedMechanism(inner=inner, mode="bic")


def learn_dsic(
    samples: SampleSet,
    epsilon: float,
    space: OutcomeSpace,
    model: ValuationModel,
) -> LearnedMechanism:
    """Empirical revenue maximization with the ex-post oracle and zero-out
    extension; requires a weakly downward closed outcome space."""
    spec = GridSpec(epsilon=epsilon, h=samples.h)
    closure = check_weakly_downward_closed(space, model, spec)
    if not closure.closed:
        raise UsageError(
            f"outcome space is not weakly downward closed: no witness for "
            f"outcome {closure.counterexample[0]} and bidder "
            f"{closure.counterexample[1]}"
        )
    prior = _empirical_prior(samples, spec)
    eta = 2.0 * samples.m * epsilon
    problem = OracleProblem(
        prior=prior, space=space, model=model, ic_mode="dsic", eta=eta
    )
    solution = solve_optimal(problem)
    inner = extend_dsic(solution.mechanism, space, model, closure)
    inner.meta.update(
        {
            "mode": "dsic",
            "samples": samples.s,
            "seed": samples.rng_seed,
            "oracle_objective": solution.objective_value,
            "dsic_regret_bound": 4.0 * samples.m * epsilon,
        }
    )
    return LearnedMechanism(inner=inner, mode="dsic")


# ---------------------------------------------------------------------------
# Menus and the nudge (single bidder).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MenuEntry:
    """A lottery over outcomes with one expected payment."""

    probs: np.ndarray
    payment: float

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=np.float64)
        if p.min() < -1e-9 or abs(p.sum() - 1.0) > 1e-9:
            raise UsageError("menu entry lottery must be a distribution")
        object.__setattr__(self, "probs", p)


@dataclass(frozen=True)
class Menu:
    """Priced lotteries a single bidder chooses from."""

    space: OutcomeSpace
    entries: tuple[MenuEntry, ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise UsageError("menus must be nonempty")

    def utilities(self, model: ValuationModel, spec: GridSpec) -> np.ndarray:
        """(T, E) utility of every grid type for every entry."""
        val = model.value_table(self.space, spec, 0)  # (T, K)
        probs = np.stack([e.probs for e in self.entries], axis=0)  # (E, K)
        pay = np.array([e.payment for e in self.entries])
        return val @ probs.T - pay[None, :]


def _zero_entry(space: OutcomeSpace, model: ValuationModel, spec: GridSpec) -> MenuEntry:
    val = model.value_table(space, spec, 0)
    zero_cols = np.flatnonzero(np.all(val == 0.0, axis=0))
    if zero_cols.size == 0:
        raise UsageError(
            "space has no outcome worth zero to the bidder; cannot build the "
            "IR anchor entry"
        )
    probs = np.zeros(space.num_outcomes)
    probs[zero_cols[0]] = 1.0
    return MenuEntry(probs=probs, payment=0.0)


def mechanism_to_menu(
    mech: MechanismTable, model: ValuationModel
) -> Menu:
    """Distinct (lottery, payment) rows of a single-bidder full-grid table,
    plus the zero entry."""
    if mech.n != 1:
        raise UsageError("menus only exist for single-bidder mechanisms")
    if not mech.domain.is_full_grid:
        raise UsageError("extend the mechanism to the full grid first")
    spec = mech.domain.spec
    entries: list[MenuEntry] = [_zero_entry(mech.space, model, spec)]
    seen = {(tuple(entries[0].probs.tolist()), 0.0)}
    for c in dict.fromkeys(mech.src.tolist()):  # candidates in the order played
        key = (tuple(mech.rows_probs[c].tolist()), float(mech.rows_pay[c, 0]))
        if key not in seen:
            seen.add(key)
            entries.append(
                MenuEntry(probs=mech.rows_probs[c], payment=float(mech.rows_pay[c, 0]))
            )
    return Menu(space=mech.space, entries=tuple(entries))


def nudge_to_ic(menu: Menu, model: ValuationModel, epsilon: float) -> Menu:
    """Scale every entry's payment by (1 - sqrt(epsilon))."""
    if epsilon < 0:
        raise UsageError(f"epsilon must be nonnegative, got {epsilon}")
    factor = 1.0 - np.sqrt(epsilon)
    return Menu(
        space=menu.space,
        entries=tuple(
            MenuEntry(probs=e.probs, payment=factor * e.payment) for e in menu.entries
        ),
    )


def menu_selection(
    menu: Menu, model: ValuationModel, spec: GridSpec
) -> np.ndarray:
    """Chosen entry per grid type: utility argmax, ties toward the highest
    payment, then the earliest entry."""
    u = menu.utilities(model, spec)
    pay = np.array([e.payment for e in menu.entries])
    return np.argmax(np.where(u == u.max(axis=1, keepdims=True), pay, -np.inf), axis=1)


def menu_mechanism(
    menu: Menu, model: ValuationModel, spec: GridSpec
) -> MechanismTable:
    """Single-bidder mechanism that lets every grid type pick from the menu."""
    choice = menu_selection(menu, model, spec)
    domain = ProfileDomain.full_grid(spec, 1, menu.space.m)
    return MechanismTable(
        domain=domain,
        space=menu.space,
        probs=np.stack([e.probs for e in menu.entries]),
        payments=np.array([[e.payment] for e in menu.entries]),
        meta={"pipeline": "menu_selection"},
        src=choice,
    )


# ---------------------------------------------------------------------------
# Real-bid lattice audits of the wrapped mechanism.
# ---------------------------------------------------------------------------


def _lattice(spec: GridSpec, m: int, per_coord: int) -> tuple[np.ndarray, np.ndarray]:
    """(per_coord^m, m) real parameter vectors covering [0, h], and the grid
    type rank each rounds down to: its truthful report through the wrapper."""
    axis = np.linspace(0.0, spec.h, per_coord)
    mesh = np.meshgrid(*([axis] * m), indexing="ij")
    pts = np.stack([g.reshape(-1) for g in mesh], axis=1)
    idx = np.stack([round_down_indices(pts[:, j], spec) for j in range(m)], axis=1)
    return pts, grid_type_ranks(idx, spec.levels)


def real_lattice_bic_regret(
    mech: LearnedMechanism,
    prior: ProductPrior,
    model: ValuationModel,
    per_coord: int = 10,
) -> float:
    """Worst interim deviation gain when true types live on a real lattice
    and reports pass through the rounding wrapper; prior over grid types."""
    pts, truth = _lattice(mech.spec, mech.m, per_coord)
    worst = 0.0
    for k in range(mech.n):
        val = model.values_for(mech.inner.space, k, pts)  # (T_real, K)
        u, _ = interim_utilities(mech.inner, prior, k, val)  # (T_real, T_grid)
        worst = max(worst, max_gain(u, truth)[0])
    return worst


def real_lattice_dsic_regret(
    mech: LearnedMechanism,
    model: ValuationModel,
    per_coord: int = 10,
) -> float:
    """Worst ex-post deviation gain over a real lattice of true types, with
    others' bids ranging over all grid profiles."""
    pts, truth = _lattice(mech.spec, mech.m, per_coord)
    inner, worst = mech.inner, 0.0
    for k in range(mech.n):
        val = model.values_for(inner.space, k, pts)  # (T_real, K)
        columns, _ = distinct_columns(inner, k)
        slabs = expost_columns(inner.rows_probs, inner.rows_pay[:, k], columns, val)
        for _, u in slabs:  # (T_real, T_grid, distinct rest columns)
            worst = max(worst, max_gain(u, truth)[0])
    return worst
