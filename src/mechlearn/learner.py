"""End-to-end learning pipelines and the single-bidder exact-IC nudge.

Every learning mode runs one chain: round the samples, build the empirical
product prior, optimize over it (the oracle LP, or ironing for a
single-parameter auction), extend to the full grid, and wrap the grid table
so it accepts arbitrary real bids by rounding them down first. Every
pipeline is a deterministic function of its inputs.

The nudge turns a single-bidder IR + eps-IC full-grid table into an exactly
IC and IR one. Its menu is the table's distinct played rows plus a free
outcome worth zero, and it scales every payment by (1 - sqrt(eps)): more
expensive entries keep more absolute discount, which beats any eps-bounded
deviation gain. Each type then plays her utility-maximizing entry, ties
resolved toward the seller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import CapacityError, UsageError
from .grid import GridSpec, ProductPrior, SampleSet, empirical_marginal, round_down_indices
from .mechanism import (
    MechanismTable,
    distinct_columns,
    expost_columns,
    interim_utilities,
    max_gain,
    revenue,
)
from .myerson import iron, single_parameter_table
from .oracle import OracleProblem, extend_bic, extend_dsic, solve_optimal
from .outcomes import (
    ENUMERATION_BUDGET,
    OutcomeSpace,
    ValuationModel,
    check_weakly_downward_closed,
    grid_type_ranks,
)
from .priors import PriorDescription

__all__ = [
    "MODES",
    "LearnedMechanism",
    "learn_bic",
    "learn_dsic",
    "learn_single_parameter",
    "regret_slack",
    "evaluate_on_reals",
    "nudge_to_ic",
    "real_lattice_bic_regret",
    "real_lattice_dsic_regret",
]


@dataclass
class LearnedMechanism:
    """A full-grid mechanism table plus the round-bids-down wrapper."""

    inner: MechanismTable
    mode: str  # "bic" | "dsic": the truthfulness the table is learned for
    # the oracle's ``LpSolution.stats``, empty without an LP; never serialized
    stats: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.inner.domain.is_full_grid:
            raise UsageError("learned mechanisms must cover the full grid")
        if self.mode not in ("bic", "dsic"):
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

    def exact_revenue_on_atoms(
        self, prior: PriorDescription, grid_prior: ProductPrior | None = None
    ) -> Fraction:
        """Exact expected revenue under a finite-support true prior, with
        real bids rounded through the wrapper.

        The wrapper and the grid pushforward both round with
        ``round_down_indices`` on this grid, so this is the exact revenue of
        the inner table under the prior's pushforward; a caller that holds
        it, ``prior.to_grid_prior(self.spec)``, may pass it as
        ``grid_prior``."""
        if (prior.n, prior.m) != (self.n, self.m):
            raise UsageError("prior and mechanism disagree on (n, m)")
        if grid_prior is None:
            grid_prior = prior.to_grid_prior(self.spec)
        return revenue(self.inner, grid_prior, exact=True)


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


def regret_slack(m: int, epsilon: float) -> float:
    """The slack 2*m*epsilon of the learning guarantees: the DSIC oracle's
    eta, a learned BIC table's declared regret bound, and half a learned
    DSIC table's."""
    return 2.0 * m * epsilon


# The learning pipelines, each run by ``_learn``; README "Modes" lists each
# one's oracle, declared bound, benchmark and sweep regret column.
MODES = ("bic", "dsic", "single_parameter")


def _learn(
    samples: SampleSet,
    epsilon: float,
    space: OutcomeSpace,
    model: ValuationModel,
    mode: str,
) -> LearnedMechanism:
    """Learn a full-grid table from the empirical prior of the rounded
    samples by the pipeline ``mode``, one of ``MODES``; its meta records the
    truthfulness, sample count, seed (None if unknown) and declared bound."""
    if mode not in MODES:
        raise UsageError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "single_parameter":
        if samples.m != 1:
            raise UsageError("single-parameter learning requires m = 1 samples")
        if space.m != 1:
            raise UsageError("single-parameter learning requires an m = 1 space")
    spec = GridSpec(epsilon=epsilon, h=samples.h)
    cells = samples.n * samples.m
    if spec.levels**cells > ENUMERATION_BUDGET:  # the full grid's profiles
        raise CapacityError(
            f"the full grid has {spec.levels}^{cells} profiles, over the "
            f"{ENUMERATION_BUDGET} budget"
        )
    slack = regret_slack(samples.m, epsilon)
    if mode == "dsic":
        closure = check_weakly_downward_closed(space, model, spec)
        if not closure.closed:
            raise UsageError(
                f"outcome space is not weakly downward closed: no witness for "
                f"outcome {closure.counterexample[0]} and bidder "
                f"{closure.counterexample[1]}"
            )
    prior = _empirical_prior(samples, spec)
    stats = {}
    if mode == "single_parameter":  # exactly IR and DSIC
        inner = single_parameter_table(tuple(iron(row[0]) for row in prior.marginals), space, spec)
        declared = {"pipeline": "single_parameter", "dsic_regret_bound": 0.0}
    else:
        eta = slack if mode == "dsic" else 0.0
        problem = OracleProblem(prior=prior, space=space, model=model, ic_mode=mode, eta=eta)
        solution = solve_optimal(problem)
        if mode == "bic":
            inner = extend_bic(solution.mechanism, prior, model)
            declared = {"bic_regret_bound": slack}
        else:
            inner = extend_dsic(solution.mechanism, space, model, closure)
            declared = {"dsic_regret_bound": 2.0 * slack}
        declared["oracle_objective"] = solution.objective_value
        stats = solution.stats
    ic_mode = "bic" if mode == "bic" else "dsic"
    inner.meta.update(mode=ic_mode, samples=samples.s, seed=samples.rng_seed, **declared)
    return LearnedMechanism(inner=inner, mode=ic_mode, stats=stats)


def learn_bic(
    samples: SampleSet, epsilon: float, space: OutcomeSpace, model: ValuationModel
) -> LearnedMechanism:
    """Empirical revenue maximization with the interim-truthfulness oracle."""
    return _learn(samples, epsilon, space, model, "bic")


def learn_dsic(
    samples: SampleSet, epsilon: float, space: OutcomeSpace, model: ValuationModel
) -> LearnedMechanism:
    """Empirical revenue maximization with the ex-post oracle and zero-out
    extension; requires a weakly downward closed outcome space."""
    return _learn(samples, epsilon, space, model, "dsic")


def learn_single_parameter(
    samples: SampleSet, epsilon: float, space: OutcomeSpace
) -> LearnedMechanism:
    """The Myersonian auction of the ironed empirical marginals of m = 1
    samples, whose values are additive; exactly IR and DSIC."""
    return _learn(samples, epsilon, space, ValuationModel(tag="additive"), "single_parameter")


# ---------------------------------------------------------------------------
# The nudge (single bidder).
# ---------------------------------------------------------------------------


def nudge_to_ic(
    mech: MechanismTable, model: ValuationModel, epsilon: float
) -> MechanismTable:
    """The exactly IC and IR table of a single-bidder full-grid table.

    Its candidate rows are the menu: the first outcome worth zero to the
    bidder at price 0, then the distinct (lottery, payment) rows ``mech``
    plays, in the order first played. Every payment is scaled by
    (1 - sqrt(epsilon)), which is in [0, 1] for epsilon in [0, 1]: a larger
    epsilon would make the seller pay. Each grid type plays its utility
    argmax, ties toward the highest payment, then the earliest entry."""
    if mech.n != 1:
        raise UsageError("nudge applies to single-bidder mechanisms only")
    if not mech.domain.is_full_grid:
        raise UsageError("extend the mechanism to the full grid first")
    val = model.value_table(mech.space, mech.domain.spec, 0)  # (T, K)
    zero_cols = np.flatnonzero(np.all(val == 0.0, axis=0))
    if zero_cols.size == 0:
        raise UsageError(
            "space has no outcome worth zero to the bidder; cannot build the "
            "IR anchor entry"
        )
    if not 0.0 <= epsilon <= 1.0:  # NaN fails it too
        raise UsageError(f"epsilon must be in [0, 1], got {epsilon}")
    zero = np.eye(mech.space.num_outcomes)[zero_cols[0]]
    first = {(tuple(zero.tolist()), 0.0): -1}  # menu key -> candidate row
    for c in dict.fromkeys(mech.src.tolist()):  # candidates in the order played
        first.setdefault((tuple(mech.rows_probs[c].tolist()), float(mech.rows_pay[c, 0])), c)
    rows = np.array(list(first.values())[1:], dtype=np.int64)
    probs = np.vstack([zero, mech.rows_probs[rows]])  # (E, K)
    pay = np.concatenate([[0.0], mech.rows_pay[rows, 0]]) * (1.0 - np.sqrt(epsilon))
    u = val @ probs.T - pay[None, :]  # (T, E)
    choice = np.argmax(np.where(u == u.max(axis=1, keepdims=True), pay, -np.inf), axis=1)
    return MechanismTable(
        domain=mech.domain,
        space=mech.space,
        probs=probs,
        payments=pay[:, None],
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
