"""Optimal mechanisms over explicit finite product priors, by LP.

The decision variables are, per support profile, a lottery over outcomes and
one payment per bidder. Feasibility means: lotteries sum to one, the
mechanism is IR at every profile, and either exact interim (BIC) truthfulness
or ex-post truthfulness up to a slack eta (DSIC mode) holds for deviations
within the support. The objective is expected revenue under the prior.

In BIC mode each bidder's support type also gets interim variables, its
expected lottery and payment over the others' profiles, each defined by one
equality row; the BIC rows read only these, so a row has at most 2K + 2
nonzeros (the reduced form of Cai, Daskalakis and Weinberg, without Border
constraints).

HiGHS solves the LP by row generation, since few IC rows bind, and only
the rows HiGHS sees are ever built: ``--lp-dump`` is the one path that
builds every row. One HiGHS model is built once and rows are only ever
appended to it. The first rows are the IR rows and the IC rows violated by
the IR-only optimum, in which each profile plays its welfare-maximizing
outcome and every bidder pays their value for it; the equality rows come
after them (with the equality rows first, HiGHS lands on a vertex that
needs a second round on some sweep priors). Each later round appends every
inactive row the last optimum violates by more than ``ROW_TOL`` and
re-solves from the last basis, which the new rows leave valid, so HiGHS
continues with the dual simplex instead of starting over. Rows are only
added, so the loop ends; when no inactive row is violated, the last
relaxation's optimum is feasible for the full LP and therefore optimal for
it, and its duals on the added rows certify the objective.

The violated rows are read off the point itself, not off a matrix: a DSIC
row's left side is an ex-post utility gain, which ``expost_slabs`` yields
slab by slab as it does for the audit, and a BIC row's is an interim one,
one small product of the point's interim columns.

Interim constraint weights are assembled as exact rationals and converted to
floats once, so identical priors produce identical matrices; the HiGHS solves
and the row choice are deterministic, making the whole oracle a deterministic
function of its input.

Two extension rules lift a support-domain solution to the full grid. Each
picks one candidate row per full-grid profile, and the table is those
candidates and that index, ``MechanismTable``'s factored form:

* ``extend_bic``: a bidder with any off-support coordinate is re-bid as the
  in-support type vector of highest interim expected utility (others drawn
  fresh from the prior) among the reports that are ex-post IR for the true
  type at every support profile of the others, or among all reports when
  none is; ties go to the lexicographically smallest type. The candidates
  are the support rows.
* ``extend_dsic``: with exactly one off-support bidder, her best in-support
  reply against the realized others is played through a downward-closure
  witness that keeps her value and payment and zeroes everyone else, unless
  it leaves her below zero and she walks away to the zero outcome; with two
  or more off-support bidders everything is zeroed. The candidates are the
  support rows, the zero outcome at price 0, and each bidder's replies.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from typing import Literal, NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.optimize._highspy._core import HighsModelStatus, _Highs

from .errors import CapacityError, InvariantError, UsageError, write_text
from .grid import ProductPrior
from .mechanism import (
    MechanismTable,
    ProfileDomain,
    audit_over_domain,
    expost_columns,
    expost_slabs,
    interim_utilities,
    rest_columns,
    rest_weights,
    revenue,
    type_weights,
)
from .outcomes import (
    ClosureResult,
    OutcomeSpace,
    ValuationModel,
)

__all__ = ["OracleProblem", "LpSolution", "solve_optimal", "extend_bic", "extend_dsic"]

VARIABLE_BUDGET = 500_000
# Caps the nonzeros of the full LP. Building all of them peaks about 100
# bytes per nonzero above the interpreter (5.74 M nonzeros lifted the
# process from 79 to 653 MB on a DSIC LP), so the cap holds ``--lp-dump``
# near 1 GB. The solve path builds only the rows HiGHS sees, but row
# generation may hand HiGHS every row, so the cap is checked before it too.
NNZ_BUDGET = 10_000_000
FEASIBILITY_TOL = 1e-8
# An inactive row joins the LP once the last optimum violates it by more.
ROW_TOL = 1e-9


@dataclass(frozen=True)
class OracleProblem:
    """A revenue-maximization instance over an explicit product prior."""

    prior: ProductPrior
    space: OutcomeSpace
    model: ValuationModel
    ic_mode: Literal["bic", "dsic"] = "bic"
    eta: float = 0.0

    def __post_init__(self) -> None:
        if self.ic_mode not in ("bic", "dsic"):
            raise UsageError(f"ic_mode must be 'bic' or 'dsic', got {self.ic_mode!r}")
        if not (math.isfinite(self.eta) and self.eta >= 0):
            raise UsageError(f"eta must be finite and nonnegative, got {self.eta}")
        if self.ic_mode == "bic" and self.eta != 0:
            raise UsageError(f"eta is a DSIC slack; BIC mode is exact, got eta {self.eta}")
        if (self.prior.n, self.prior.m) != (self.space.n, self.space.m):
            raise UsageError("prior and outcome space disagree on (n, m)")

    def domain(self) -> ProfileDomain:
        return ProfileDomain(spec=self.prior.spec, supports=self.prior.supports())

    def check_budget(self) -> None:
        lottery_vars = self.domain().num_profiles * self.space.num_outcomes
        if lottery_vars > VARIABLE_BUDGET:
            raise CapacityError(
                f"{lottery_vars} lottery variables exceed the {VARIABLE_BUDGET} budget"
            )


@dataclass
class LpSolution:
    mechanism: MechanismTable
    objective_value: float
    solver_status: str
    certificate: float  # dual objective value
    # rows, cols and nnz of the full LP; rounds of row generation, the rows
    # HiGHS saw in the last one (active_rows: every equality row and the
    # generated inequality rows) and its iterations over all of them (nit);
    # assemble_s (the LP but its inequality rows, and the first round's
    # rows), solve_s and audit_s; kept out of the mechanism, so never
    # serialized
    stats: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        gap = abs(self.objective_value - self.certificate)
        if gap > 1e-7 * (1.0 + abs(self.objective_value)):
            raise InvariantError(
                f"primal/dual gap {gap} too large: "
                f"{self.objective_value} vs {self.certificate}"
            )


class _Lp(NamedTuple):
    """The LP: minimize ``c @ x`` subject to ``a_ub @ x <= b_ub``, ``a_eq @
    x == b_eq`` and the ``(lower, upper)`` rows of ``bounds``; ``seed`` is
    its IR-only optimum, ``vals[i]`` bidder i's (T_i, K) value table and
    ``interim`` the interim column offsets. The solve path leaves ``a_ub``
    and ``b_ub`` unset and builds their rows on demand with
    ``_inequality_rows``; ``_assemble`` builds them all."""

    c: np.ndarray
    a_ub: sp.csr_matrix | None
    b_ub: np.ndarray | None
    a_eq: sp.csr_matrix
    b_eq: np.ndarray
    bounds: np.ndarray
    seed: np.ndarray
    vals: list[np.ndarray]
    interim: np.ndarray


def solve_optimal(problem: OracleProblem, lp_dump: str | None = None) -> LpSolution:
    """Revenue-maximal IR + (exact-BIC | eta-DSIC) mechanism on the support."""
    start = time.perf_counter()
    domain = problem.domain()
    if lp_dump is not None:
        _dump_lp(lp_dump, problem, domain)
    base = _base(problem, domain)
    r_profiles, k_out, n = domain.num_profiles, problem.space.num_outcomes, domain.n
    n_x = r_profiles * k_out

    # Row generation (see the module docstring) on one live HiGHS model: the
    # IR rows, which come first, and the IC rows the IR-only optimum
    # violates, then the equality rows, then each round's violated rows.
    # active[i] marks bidder i's IC rows the model holds, one cell per row.
    active = [np.zeros(_ic_shape(problem, domain, i), dtype=bool) for i in range(n)]

    def new_rows(x: np.ndarray, ir: np.ndarray) -> tuple[sp.csr_matrix, np.ndarray]:
        picks = []
        for a, violated in zip(active, _violated_rows(problem, domain, base, x)):
            violated &= ~a
            a |= violated
            picks.append(np.nonzero(violated))
        return _inequality_rows(problem, domain, base, ir, picks)

    highs = _Highs()
    highs.setOptionValue("output_flag", False)
    highs.addVars(base.c.size, base.bounds[:, 0], base.bounds[:, 1])
    highs.changeColsCost(base.c.size, np.arange(base.c.size, dtype=np.int32), base.c)
    a_ub, b_ub = new_rows(base.seed, np.arange(r_profiles))
    _add_rows(highs, a_ub, -np.inf, b_ub)
    _add_rows(highs, base.a_eq, base.b_eq, base.b_eq)
    b_rows = [b_ub, base.b_eq]  # the right sides of the model's rows, in order
    assembled = time.perf_counter()
    nit = 0
    while True:
        highs.run()
        status = highs.getModelStatus()
        if status == HighsModelStatus.kInfeasible:
            raise InvariantError(
                "oracle LP reported infeasible, but the zero mechanism is always "
                "feasible; this is an internal solver fault"
            )
        if status != HighsModelStatus.kOptimal:
            raise InvariantError(
                f"LP solver failed with status {highs.modelStatusToString(status)}"
            )
        info, result = highs.getInfo(), highs.getSolution()
        nit += info.simplex_iteration_count
        x = np.asarray(result.col_value)
        a_ub, b_ub = new_rows(x, np.arange(0))
        if not b_ub.size:
            break
        b_rows.append(b_ub)
        _add_rows(highs, a_ub, -np.inf, b_ub)
    solved = time.perf_counter()

    probs = np.clip(x[:n_x].reshape(r_profiles, k_out), 0.0, None)
    sums = probs.sum(axis=1)
    if np.max(np.abs(sums - 1.0)) > 1e-6:
        raise InvariantError("solver returned lotteries far from stochastic")
    probs = probs / sums[:, None]
    payments = x[n_x : base.interim[0]].reshape(r_profiles, n)
    mech = MechanismTable(
        domain=domain,
        space=problem.space,
        probs=probs,
        payments=payments,
        meta={"ic_mode": problem.ic_mode, "eta": problem.eta},
    )

    objective = -info.objective_function_value
    dual = float(np.asarray(result.row_dual) @ np.concatenate(b_rows))
    ir_rows = r_profiles * n
    ic_rows = sum(a.size - a.size // len(a) for a in active)  # off the diagonal
    solution = LpSolution(
        mechanism=mech,
        objective_value=objective,
        solver_status="optimal",
        certificate=-dual,
        stats={
            "rows": ir_rows + ic_rows + base.a_eq.shape[0],
            "cols": base.c.size,
            "nnz": _ub_nnz(problem, domain, base.vals) + base.a_eq.nnz,
            "nit": nit,
            "rounds": len(b_rows) - 1,
            "active_rows": ir_rows + sum(int(a.sum()) for a in active)
            + base.a_eq.shape[0],
            "assemble_s": assembled - start,
            "solve_s": solved - assembled,
        },
    )
    _audit_solution(problem, solution)
    solution.stats["audit_s"] = time.perf_counter() - solved
    return solution


def _assemble(
    problem: OracleProblem, domain: ProfileDomain
) -> tuple[_Lp, int, np.ndarray]:
    """The full LP with every row built, the lottery column count and the
    interim column offsets."""
    base = _base(problem, domain)
    every = []
    for i in range(domain.n):
        rows = np.ones(_ic_shape(problem, domain, i), dtype=bool)
        own = np.arange(len(rows))
        rows[own, own] = False
        every.append(np.nonzero(rows))
    a_ub, b_ub = _inequality_rows(
        problem, domain, base, np.arange(domain.num_profiles), every
    )
    lp = base._replace(a_ub=a_ub, b_ub=b_ub)
    return lp, domain.num_profiles * problem.space.num_outcomes, base.interim


def _base(problem: OracleProblem, domain: ProfileDomain) -> _Lp:
    """The LP without its inequality rows. Raises ``CapacityError`` first
    when the LP is over ``VARIABLE_BUDGET`` or ``NNZ_BUDGET``."""
    problem.check_budget()
    space = problem.space
    n = domain.n
    r_profiles = domain.num_profiles
    k_out = space.num_outcomes
    bound = _nnz_bound(problem, domain, k_out)
    if bound > NNZ_BUDGET:
        raise CapacityError(
            f"the oracle LP has up to {bound} nonzeros, over the {NNZ_BUDGET} budget"
        )
    n_x = r_profiles * k_out
    # BIC mode adds, per bidder i and support type t, the interim columns
    # pi_i(t, o) of every outcome o, then P_i(t); interim[i] is bidder i's
    # first one and interim[n] the column count
    sizes = [
        domain.bidder_type_count(i) * (k_out + 1) if problem.ic_mode == "bic" else 0
        for i in range(n)
    ]
    interim = n_x + r_profiles * n + np.cumsum([0] + sizes)
    n_vars = int(interim[-1])

    # Exact rational weights, converted to float exactly once.
    weights_frac = type_weights(domain, problem.prior)
    weights = [np.array([float(w) for w in ws]) for ws in weights_frac]
    type_ranks = domain.type_ranks()
    profile_w = np.ones(r_profiles)
    for i in range(n):
        profile_w *= weights[i][type_ranks[:, i]]

    vals = _values(problem, domain)

    c = np.zeros(n_vars)
    for i in range(n):
        c[n_x + np.arange(r_profiles) * n + i] = -profile_w  # maximize revenue

    # One equality row per profile: its lottery sums to one; then, in BIC
    # mode, one per interim variable, defining it.
    a_eq = [
        sp.csr_matrix(
            (np.ones(n_x), np.arange(n_x), np.arange(0, n_x + 1, k_out)),
            shape=(r_profiles, n_vars),
        )
    ]
    if problem.ic_mode == "bic":
        a_eq.append(_interim_rows(domain, weights_frac, k_out, interim))
    a_eq = sp.vstack(a_eq, format="csr")
    b_eq = np.concatenate([np.ones(r_profiles), np.zeros(a_eq.shape[0] - r_profiles)])
    bounds = np.tile([-np.inf, np.inf], (n_vars, 1))
    bounds[:n_x, 0] = 0.0

    # IR-only optimum: each profile plays its welfare-maximizing outcome and
    # every bidder pays their value for it; the interim columns then follow
    # from their defining rows, which read them with coefficient 1.
    own = [vals[i][type_ranks[:, i]] for i in range(n)]  # (R, K) per bidder
    best = np.argmax(sum(own), axis=1)
    seed = np.zeros(n_vars)
    seed[np.arange(r_profiles) * k_out + best] = 1.0
    paid = [v[np.arange(r_profiles), best] for v in own]
    seed[n_x : interim[0]] = np.stack(paid, axis=1).ravel()
    seed[interim[0] :] -= a_eq[r_profiles:] @ seed
    return _Lp(c, None, None, a_eq, b_eq, bounds, seed, vals, interim)


def _values(problem: OracleProblem, domain: ProfileDomain) -> list[np.ndarray]:
    """Each bidder's (T_i, K) value table over its support types."""
    return [
        problem.model.values_for(
            problem.space, i, domain.bidder_types(i) * domain.spec.epsilon
        )
        for i in range(domain.n)
    ]


def _ic_shape(problem: OracleProblem, domain: ProfileDomain, i: int) -> tuple:
    """Bidder i's IC rows as cells (true type, report) in BIC mode or (true
    type, report, rest) in DSIC mode; the diagonal cells are no rows."""
    t_i = domain.bidder_type_count(i)
    if problem.ic_mode == "bic":
        return (t_i, t_i)
    return (t_i, t_i, domain.num_profiles // t_i)


def _violated_rows(
    problem: OracleProblem, domain: ProfileDomain, base: _Lp, x: np.ndarray
) -> list[np.ndarray]:
    """Per bidder, the cells (see ``_ic_shape``) of the IC rows that the LP
    point ``x`` violates by more than ``ROW_TOL``.

    ``x`` is read as the rows read it, unclipped and unnormalized. A DSIC
    row's left side is the ex-post gain ``u[t, s, rest] - u[t, t, rest]``
    over ``expost_slabs``; a BIC row's is the interim gain, from one
    product of bidder i's interim columns: ``v_t . pi_s - P_s`` less its
    truthful value."""
    n, r_profiles = domain.n, domain.num_profiles
    k_out = base.vals[0].shape[1]
    out = []
    for i, vals in enumerate(base.vals):
        own = np.arange(len(vals))
        if problem.ic_mode == "bic":
            block = x[base.interim[i] : base.interim[i + 1]].reshape(-1, k_out + 1)
            u = np.hstack([vals, -np.ones((len(vals), 1))]) @ block.T  # (T_i, T_i)
            out.append(u - u[own, own][:, None] > ROW_TOL)
            continue
        probs = x[: r_profiles * k_out].reshape(-1, k_out)
        pay = x[r_profiles * k_out : base.interim[0]].reshape(-1, n)[:, i]
        mask = np.empty(_ic_shape(problem, domain, i), dtype=bool)
        for r0, u in expost_slabs(domain, i, probs, pay, vals):  # (T_i, T_i, rest)
            u -= u[own, own][:, None]
            u -= problem.eta
            np.greater(u, ROW_TOL, out=mask[:, :, r0 : r0 + u.shape[2]])
        out.append(mask)
    return out


def _add_rows(highs: _Highs, a: sp.csr_matrix, lower, upper: np.ndarray) -> None:
    """Append the rows ``lower <= a @ x <= upper`` to a live HiGHS model."""
    lower = np.broadcast_to(np.asarray(lower, dtype=np.float64), upper.shape)
    highs.addRows(
        a.shape[0], lower, upper, a.nnz,
        a.indptr[:-1].astype(np.int32), a.indices.astype(np.int32), a.data,
    )


def _ub_nnz(
    problem: OracleProblem, domain: ProfileDomain, vals: list[np.ndarray]
) -> int:
    """Nonzeros of the full LP's inequality rows, exactly: IR, IC and
    lottery entries never share a (row, column), and a row holds one term
    per true type, its nonzero values and its payment, at each profile it
    reads."""
    total = 0
    for i, v in enumerate(vals):
        t_i = len(v)
        rest = domain.num_profiles // t_i
        terms = np.count_nonzero(v) + t_i
        total += rest * terms  # IR
        total += 2 * (t_i - 1) * terms * (1 if problem.ic_mode == "bic" else rest)
    return int(total)


def _nnz_bound(problem: OracleProblem, domain: ProfileDomain, k_out: int) -> int:
    """Nonzeros the full LP can have at most: exact but for the BIC interim
    definitions, which skip rest profiles of zero weight."""
    total = _ub_nnz(problem, domain, _values(problem, domain))
    total += domain.num_profiles * k_out  # lotteries
    if problem.ic_mode == "bic":  # the interim definitions
        for i in range(domain.n):
            t_i = domain.bidder_type_count(i)
            total += t_i * (k_out + 1) * (domain.num_profiles // t_i + 1)
    return int(total)


def _inequality_rows(
    problem: OracleProblem,
    domain: ProfileDomain,
    base: _Lp,
    ir: np.ndarray,
    picks: list[tuple[np.ndarray, ...]],
) -> tuple[sp.csr_matrix, np.ndarray]:
    """The IR rows of the profile ranks ``ir``, profile-major, then bidder
    by bidder the IC rows ``picks[i]`` selects: index arrays of (true type,
    report) in BIC mode or (true type, report, rest) in DSIC mode, as
    ``np.nonzero`` gives them from a mask of ``_ic_shape``. Rows come in
    the order of the full LP's, so every batch HiGHS gets holds the rows of
    the full LP as they are; ``_assemble`` picks every row.

    IR and DSIC rows are sums of terms (row, profile, bidder, true type,
    coef). A term puts ``coef * v[o]`` on lottery variable (profile, o) for
    every nonzero value ``v[o]`` of the true type, and ``-coef`` on the
    bidder's payment at the profile. A BIC row reads only the interim
    variables: ``v . (pi(report) - pi(true)) - P(report) + P(true) <= 0``.
    """
    n, r_profiles = domain.n, domain.num_profiles
    vals, interim = base.vals, base.interim
    k_out = vals[0].shape[1]
    n_x = r_profiles * k_out
    bidders = np.arange(n)
    # IR: payment can never exceed the expected lottery value.
    ir_types = np.stack([domain.split_rank(i, ir)[0] for i in range(n)], axis=1)
    rows = np.arange(ir.size)[:, None] * n + bidders
    terms = [(rows, ir[:, None], bidders, ir_types, -1.0)]
    interim_entries = []  # (row, column, coef) of the BIC rows
    b_ub = [np.zeros(ir.size * n)]
    row0 = ir.size * n
    for i, (true, report, *rest) in enumerate(picks):
        rows = row0 + np.arange(true.size)
        if problem.ic_mode == "bic":
            # interim utility of the report minus truthful, <= 0
            coef = np.hstack([vals[i], -np.ones((len(vals[i]), 1))])[true]
            col = interim[i] + np.arange(k_out + 1)
            rows = np.broadcast_to(rows[:, None], coef.shape)
            nz = coef != 0.0
            interim_entries += [
                (rows[nz], (report[:, None] * (k_out + 1) + col)[nz], coef[nz]),
                (rows[nz], (true[:, None] * (k_out + 1) + col)[nz], -coef[nz]),
            ]
            b_ub.append(np.zeros(true.size))
        else:
            b_ub.append(np.full(true.size, problem.eta, dtype=np.float64))
            terms.append((rows, domain.join_rank(i, report, rest[0]), i, true, 1.0))
            terms.append((rows, domain.join_rank(i, true, rest[0]), i, true, -1.0))
        row0 += true.size

    a_ub = sp.coo_matrix(
        _entries(terms, interim_entries, vals, n_x, n), shape=(row0, int(interim[-1]))
    )
    return a_ub.tocsr(), np.concatenate(b_ub)


def _entries(
    terms: list[tuple], extra: list[tuple], vals: list[np.ndarray], n_x: int, n: int
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """``(data, (rows, cols))`` of the terms' entries (see
    ``_inequality_rows``), then of ``extra``, (row, column, coef) arrays.
    A function of its own so that its temporaries are freed before the
    caller builds the matrix: a batch of rows then peaks near 65 bytes per
    entry, where building them all in one scope took about 100."""
    k_out = vals[0].shape[1]
    row, prof, bidder, t, coef = (
        np.concatenate(col)
        for col in zip(*(map(np.ravel, np.broadcast_arrays(*term)) for term in terms))
    )
    offsets = np.cumsum([0] + [len(v) for v in vals])
    # each term's nonzero values, in outcome order
    v = sp.csr_matrix(np.concatenate(vals))[offsets[bidder] + t]
    per_term = np.diff(v.indptr)
    extra_rows, extra_cols, extra_data = zip(*extra) if extra else ((), (), ())
    data = np.concatenate([np.repeat(coef, per_term) * v.data, -coef, *extra_data])
    rows = np.concatenate([np.repeat(row, per_term), row, *extra_rows])
    cols = [np.repeat(prof, per_term) * k_out + v.indices, n_x + prof * n + bidder]
    return data, (rows, np.concatenate(cols + list(extra_cols)))


def _interim_rows(
    domain: ProfileDomain,
    weights_frac: list[list],
    k_out: int,
    interim: np.ndarray,
) -> sp.csr_matrix:
    """One equality row per interim variable, in column order, with right
    side 0: ``pi_i(t, o) - sum_rest w(rest) x(join(i, t, rest), o)`` and
    ``P_i(t) - sum_rest w(rest) p(join(i, t, rest), i)``."""
    n, r_profiles = domain.n, domain.num_profiles
    n_x = r_profiles * k_out
    entries = []  # (row, column, coef)
    for i in range(n):
        t_i = domain.bidder_type_count(i)
        w = rest_weights(weights_frac, i)
        prof = domain.join_rank(i, np.arange(t_i)[:, None], np.arange(w.size))
        # (T_i, R_rest, K + 1): x(prof, o) for each outcome o, then p(prof, i)
        cols = np.concatenate(
            [prof[..., None] * k_out + np.arange(k_out), (n_x + prof * n + i)[..., None]],
            axis=2,
        )
        own = np.arange(interim[i], interim[i + 1]).reshape(t_i, 1, k_out + 1)
        # a rest profile whose weight rounds to zero adds no entries
        keep = np.flatnonzero(w)
        rows, cols = np.broadcast_arrays(own - interim[0], cols[:, keep])
        coef = np.broadcast_to(-w[keep][:, None], cols.shape)
        entries += [
            (own.ravel() - interim[0], own.ravel(), np.ones(own.size)),
            (rows.ravel(), cols.ravel(), coef.ravel()),
        ]
    rows, cols, data = (np.concatenate(a) for a in zip(*entries))
    shape = (int(interim[-1] - interim[0]), int(interim[-1]))
    return sp.coo_matrix((data, (rows, cols)), shape=shape).tocsr()


def _audit_solution(problem: OracleProblem, solution: LpSolution) -> None:
    mech = solution.mechanism
    report = audit_over_domain(mech, problem.prior, problem.model)
    if report.ir_slack < -FEASIBILITY_TOL:
        raise InvariantError(f"oracle output violates IR: slack {report.ir_slack}")
    if problem.ic_mode == "bic" and report.bic_regret > FEASIBILITY_TOL:
        raise InvariantError(
            f"oracle output violates BIC: regret {report.bic_regret}"
        )
    if problem.ic_mode == "dsic" and report.dsic_regret > problem.eta + FEASIBILITY_TOL:
        raise InvariantError(
            f"oracle output violates {problem.eta}-DSIC: regret {report.dsic_regret}"
        )
    recomputed = revenue(mech, problem.prior)
    if abs(recomputed - solution.objective_value) > 1e-8 * (
        1.0 + abs(solution.objective_value)
    ):
        raise InvariantError(
            f"objective {solution.objective_value} != recomputed revenue {recomputed}"
        )


def _profile_ranks(domain: ProfileDomain, maps: list[np.ndarray]) -> np.ndarray:
    """Rank in ``domain`` of the profile that plays type ``maps[i][t]`` of
    bidder i for grid type t, at every full-grid profile in rank order."""
    parts = [rank * stride for rank, stride in zip(maps, domain.bidder_strides())]
    return functools.reduce(np.add.outer, parts).reshape(-1)


def extend_bic(
    mech: MechanismTable,
    prior: ProductPrior,
    model: ValuationModel,
) -> MechanismTable:
    """Algorithm-level best-response extension of a support mechanism."""
    replace = [bic_replacement_map(mech, prior, model, k) for k in range(mech.n)]
    return MechanismTable(
        domain=ProfileDomain.full_grid(mech.domain.spec, mech.n, mech.m),
        space=mech.space,
        probs=mech.rows_probs,
        payments=mech.rows_pay,
        meta={**mech.meta, "extension": "bic_best_response"},
        src=mech.src[_profile_ranks(mech.domain, replace)],
    )


def bic_replacement_map(
    mech: MechanismTable, prior: ProductPrior, model: ValuationModel, k: int
) -> np.ndarray:
    """Support-type rank chosen for each full-grid type of bidder k: its own
    rank on the support; off it, the report of best interim utility among
    those ex-post IR for the type at every rest profile, or among all
    reports when none is. Ties go to the lexicographically smallest type.

    The worst ex-post utility over rest profiles is a running minimum over
    ``expost_columns``, whose ``EXPOST_CELL_BUDGET`` bounds T_full * T_supp
    cells and ``EXPOST_CHUNK_CELLS`` the cells held at once."""
    val_full = model.value_table(mech.space, mech.domain.spec, k)
    utilities, _ = interim_utilities(mech, prior, k, val_full)  # (T_full, T_supp)
    columns = mech.src[rest_columns(mech.domain, k)]
    slabs = expost_columns(mech.rows_probs, mech.rows_pay[:, k], columns, val_full)
    low = functools.reduce(  # (T_full, T_supp): the worst ex-post utility
        np.minimum, (u.min(axis=2) for _, u in slabs)
    )
    safe = low >= -FEASIBILITY_TOL
    safe[~safe.any(axis=1)] = True
    best = np.argmax(np.where(safe, utilities, -np.inf), axis=1)
    to_support = mech.domain.grid_to_domain(k)
    return np.where(to_support >= 0, to_support, best).astype(np.int64)


def extend_dsic(
    mech: MechanismTable,
    space: OutcomeSpace,
    model: ValuationModel,
    closure: ClosureResult,
) -> MechanismTable:
    """Algorithm-level zero-out extension of a support mechanism.

    Each full-grid profile plays one candidate row: a support row, the zero
    outcome at price 0, or a lone off-support bidder k's best reply played
    through k's witness with only k paying. Her best reply and its utility,
    per (full-grid type, rest profile), come from one pass over
    ``expost_columns``, whose ``EXPOST_CELL_BUDGET`` bounds T_full * T_supp
    cells and ``EXPOST_CHUNK_CELLS`` the cells held at once."""
    if not closure.closed or closure.witness is None:
        raise UsageError(
            "outcome space is not weakly downward closed (or the closure "
            "check was not run); verify downward closure first"
        )
    domain = mech.domain
    n, r_supp, k_out = mech.n, domain.num_profiles, space.num_outcomes
    # before the full table: value_table raises CapacityError on a huge grid
    values = [model.value_table(space, domain.spec, k) for k in range(n)]
    full_domain = ProfileDomain.full_grid(domain.spec, n, mech.m)

    # per grid type, its support rank (-1 off the support); per profile, the
    # support rank reading an off-support type as 0, and the off-support count
    # (int indicators: on bools, add.outer is OR)
    to_support = [domain.grid_to_domain(i) for i in range(n)]
    supp = _profile_ranks(domain, [np.maximum(t, 0) for t in to_support])
    off = [(t < 0).astype(np.int64) for t in to_support]
    off_counts = functools.reduce(np.add.outer, off).reshape(-1)
    src = mech.src[supp]  # each profile's candidate row

    # candidate rows: the support table's, then the zero outcome at price 0,
    # then each bidder's lone off-support replies
    probs, payments = [mech.rows_probs], [mech.rows_pay]
    zero = len(mech.rows_probs)
    if closure.zero_outcome is not None:
        probs.append(np.eye(k_out)[[closure.zero_outcome]])
        payments.append(np.zeros((1, n)))

    # two or more off-support bidders: the priceless zero outcome
    many_off = off_counts >= 2
    if closure.zero_outcome is None and many_off.any():
        raise InvariantError(
            "closed space provided no all-zero outcome for the zero-out rule"
        )
    src[many_off] = zero

    # Exactly one off-support bidder: best reply, played via the witness with
    # only her paying. Her reply set includes walking away (zero outcome, zero
    # payment) when the space offers one; without it, a type below the whole
    # support could be forced to pay above her value, breaking the IR the
    # oracle promises.
    one_off = np.flatnonzero(off_counts == 1)
    for k in range(n):
        t, _ = full_domain.split_rank(k, one_off)
        mine = to_support[k][t] < 0
        ranks, t = one_off[mine], t[mine]
        if ranks.size == 0:
            continue
        # per (full-grid type, rest): the best reply, lex-smallest on ties,
        # and its utility
        shape = (len(values[k]), r_supp // domain.bidder_type_count(k))
        best, top = np.empty(shape, dtype=np.int64), np.empty(shape)
        columns = mech.src[rest_columns(domain, k)]
        slabs = expost_columns(mech.rows_probs, mech.rows_pay[:, k], columns, values[k])
        for r0, u in slabs:  # (T_full, T_supp, rest)
            best[:, r0 : r0 + u.shape[2]] = np.argmax(u, axis=1)
            top[:, r0 : r0 + u.shape[2]] = np.max(u, axis=1)
        _, rest = domain.split_rank(k, supp[ranks])
        chosen = mech.src[domain.join_rank(k, best[t, rest], rest)]
        # the witness scatters a row per profile: a BLAS product's summation
        # order can depend on its row count (gemv for one row, gemm for more)
        scattered = mech.rows_probs[chosen] @ np.eye(k_out)[closure.witness[:, k]]
        # one reply row per support row played, so that rows whose payments
        # differ only in the sign of a zero stay apart
        rows, first, reply = np.unique(chosen, return_index=True, return_inverse=True)
        src[ranks] = sum(map(len, probs)) + reply
        if closure.zero_outcome is not None:
            src[ranks[top[t, rest] < 0.0]] = zero
        probs.append(scattered[first])
        payments.append(np.where(np.arange(n) == k, mech.rows_pay[rows], 0.0))

    return MechanismTable(
        domain=full_domain,
        space=space,
        probs=np.concatenate(probs),
        payments=np.concatenate(payments),
        meta={**mech.meta, "extension": "dsic_zero_out"},
        src=src,
    )


def _dump_lp(path: str, problem: OracleProblem, domain: ProfileDomain) -> None:
    """Build the full LP, every row of it, and write it in CPLEX LP text
    format for external checking."""
    lp, n_x, interim = _assemble(problem, domain)
    c, a_ub, b_ub, a_eq, b_eq = lp[:5]
    k_out = problem.space.num_outcomes

    def var(j: int) -> str:
        if j < interim[0]:
            return f"x{j}" if j < n_x else f"p{j - n_x}"
        i = int(np.searchsorted(interim, j, side="right")) - 1
        t, o = divmod(j - int(interim[i]), k_out + 1)
        return f"ix{i}_{t}_{o}" if o < k_out else f"ip{i}_{t}"

    def expr(row: sp.csr_matrix) -> str:
        terms = []
        for j, v in zip(row.indices, row.data):
            sign = "+" if v >= 0 else "-"
            terms.append(f"{sign} {abs(float(v))!r} {var(j)}")
        return " ".join(terms) if terms else "0"

    objective = " ".join(
        f"{'+' if v >= 0 else '-'} {abs(float(v))!r} {var(j)}"
        for j, v in enumerate(c)
        if v != 0.0
    )
    lines = ["Minimize", f" obj: {objective}", "Subject To"]
    lines += [
        f" ub{r}: {expr(a_ub.getrow(r))} <= {float(b_ub[r])!r}"
        for r in range(a_ub.shape[0])
    ]
    lines += [
        f" eq{r}: {expr(a_eq.getrow(r))} = {float(b_eq[r])!r}"
        for r in range(a_eq.shape[0])
    ]
    lines.append("Bounds")
    lines += [f" {var(j)} free" for j in range(n_x, len(c))]
    lines.append("End")
    write_text(path, "\n".join(lines) + "\n")
