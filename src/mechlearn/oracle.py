"""Optimal mechanisms over explicit finite product priors, by LP.

The decision variables are, per support profile, C nonnegative components
and one nonnegative ex-post utility u per bidder. A component is a linear
function of the profile's lottery on which every bidder's value is linear,
and a per-profile feasibility block says which component vectors some
lottery plays:

* in general the K outcomes' probabilities, which sum to one;
* for additive bidders on the ``multi_item`` space, each bidder's expected
  share y[i, j] of each item j, n*m components with ``sum_i y[i, j] <= 1``
  (the per-profile reduced form of Cai, Daskalakis and Weinberg, "An
  algorithmic characterization of multi-dimensional mechanisms", STOC 2012).

Bidder i's values per unit of each component, ``vals[i]``, are 0 off her own
components, so every row below reads the components through ``vals`` alone.
Bidder i pays her value for the profile's components less u(r, i), so the
bound u >= 0 is IR at every profile and the LP has no IR rows. Interim (BIC
mode) or ex-post (DSIC mode) truthfulness holds up to a slack eta for
deviations within the support: eta is the right side of every IC row, in
either mode. The objective is expected revenue under the prior, expected
welfare less expected utility.

The optimum's components become lotteries again: outcome probabilities are
normalized, and item shares are coupled comonotonically, one uniform draw u
giving item j to the bidder whose interval of ``cumsum_i y[i, j]`` holds u
and to nobody past the last. Between consecutive interval ends every item
has one owner, so a row plays at most n*m + 1 outcomes, and each bidder's
expected share of each item is y. Each payment is the bidder's value for the
lottery the row plays less her utility, so the table is IR up to rounding.

In BIC mode each bidder's support type also gets interim variables, its
expected own components and utility over the others' profiles, each defined
by one equality row; the BIC rows read only these (the reduced form of Cai,
Daskalakis and Weinberg, without Border constraints). Truthful type t of
bidder i reporting s gains ``(v_t - v_s) . y(s) + u(s) - u(t)``, on the
report's components and utility at each profile in DSIC mode and on the
interim ones in BIC mode, so an IC row has at most C_i + 2 nonzeros for
bidder i's C_i own components.

HiGHS solves the LP by row generation, since few IC rows bind, and only
the rows HiGHS sees are ever built: ``--lp-dump`` is the one path that
builds every row. One HiGHS model is built once and rows are only ever
appended to it. The first rows are the IC rows violated by the seed, in
which each profile plays the components of its welfare-maximizing outcome
at zero utility; the feasibility rows and then the interim rows come after
them. Each later round appends every inactive row the last optimum
violates by more than ``ROW_TOL`` and re-solves from the last basis, which
the new rows leave valid, so HiGHS continues with the dual simplex instead
of starting over. Rows are only added, so the loop ends; when no inactive
row is violated, the last relaxation's optimum is feasible for the full LP
and therefore optimal for it, and its duals on the added rows certify the
objective.

``_base`` sizes and guards the LP once, before it builds any row: it counts
the full LP's rows and nonzeros, which are ``stats["rows"]`` and
``stats["nnz"]``, and refuses a support table over ``VARIABLE_BUDGET`` cells
or an LP over ``NNZ_BUDGET`` nonzeros, a cap that also bounds the row
generation's masks, one byte per IC row.

In BIC mode every component column is also bounded by 1, which the
feasibility rows imply. A dual simplex puts a boxed column of negative cost
at its bound, so HiGHS starts dual feasible and skips its dual phase 1,
about half the iterations. DSIC mode keeps no box: presolve solves most of
that LP, and with the box the postsolved basis needs a primal cleanup that
costs more than it saves. The certificate adds the box's Lagrangian term,
``min(d_j, 0) * 1`` for each boxed column's reduced cost d_j, to the rows'
duals, so it bounds the objective whatever each column's basis status.

The violated rows are read off the point itself, not off a matrix: a DSIC
row's left side is an ex-post utility gain, which ``expost_columns`` yields
slab by slab as it does for the audit, and a BIC row's is an interim one,
one small product of the point's interim columns.

SciPy, its sparse matrices and its private HiGHS binding, is imported only
inside the functions that build, solve or write an LP (``solve_optimal``,
``_assemble``, ``_base``, ``_inequality_rows``, ``_interim_rows`` and
``_dump_lp``), so
importing this module, or running a command that solves no LP, loads no
SciPy. Call ``load_lp_layer`` to import it ahead of the first solve.

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
from typing import TYPE_CHECKING, Callable, Literal, NamedTuple

import numpy as np

from .errors import CapacityError, InvariantError, UsageError, write_text
from .grid import ProductPrior
from .mechanism import (
    MechanismTable,
    ProfileDomain,
    audit_over_domain,
    domain_values,
    expost_columns,
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

if TYPE_CHECKING:
    import scipy.sparse as sp
    from scipy.optimize._highspy._core import _Highs

__all__ = ["OracleProblem", "LpSolution", "solve_optimal", "extend_bic", "extend_dsic"]

VARIABLE_BUDGET = 500_000
# Caps the full LP's nonzeros, ``stats["nnz"]``, which ``_base`` counts
# before it builds any row. Building them all peaks about 50 bytes each
# above the interpreter (1.97 M nonzeros lifted the process from 81 to
# 179 MB on a DSIC LP): the cap holds ``--lp-dump``'s matrix near 500 MB.
# Row generation may hand HiGHS every row, and its masks hold a byte per
# IC row of at least 2 nonzeros, so the cap keeps them near 5 MB.
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
        if (self.prior.n, self.prior.m) != (self.space.n, self.space.m):
            raise UsageError("prior and outcome space disagree on (n, m)")

    def domain(self) -> ProfileDomain:
        return ProfileDomain(spec=self.prior.spec, supports=self.prior.supports())


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


class _Layout(NamedTuple):
    """The C components of one profile (see the module docstring).

    ``vals[i]`` (T_i, C) is bidder i's value per unit of each component, 0
    off ``own[i]``, her own components, and ``values[i]`` (T_i, K) her
    value for each outcome. The feasibility rows of a profile are ``feas
    @ y == 1`` when ``equal`` and ``feas @ y <= 1`` otherwise, for the
    (f, C) array ``feas``. ``comps`` maps an array of outcome indices to
    their components, one more axis of length C, and ``lottery`` the (R,
    C) components of an LP point to (R, K) lotteries."""

    vals: list[np.ndarray]
    own: list[np.ndarray]
    values: list[np.ndarray]
    feas: np.ndarray
    equal: bool
    comps: Callable[[np.ndarray], np.ndarray]
    lottery: Callable[[np.ndarray], np.ndarray]


class _Lp(NamedTuple):
    """The LP: minimize ``c @ x`` subject to ``a_ub @ x <= b_ub``, ``a_eq @
    x == b_eq`` and the ``(lower, upper)`` rows of ``bounds``. The columns
    are the ``layout`` components of every profile and the utilities, u(r,
    i) at ``n_x + r * n + i``, all nonnegative and the components at most 1
    in BIC mode, then from ``interim[0]`` the free interim columns, bidder
    i's from ``interim[i]``; ``seed`` is the welfare-maximizing point at
    zero utility.

    ``a_ub`` ends with the feasibility rows that are inequalities and
    ``a_eq`` starts with those that are equalities; its last rows define
    the interim columns, one row each, in column order. The IC rows come
    first in ``a_ub``: the solve path leaves them out and builds them on
    demand with ``_inequality_rows``; ``_assemble`` builds them all.
    ``rows`` and ``nnz`` count the full LP's, every IC row included."""

    c: np.ndarray
    a_ub: sp.csr_matrix
    b_ub: np.ndarray
    a_eq: sp.csr_matrix
    b_eq: np.ndarray
    bounds: np.ndarray
    seed: np.ndarray
    layout: _Layout
    interim: np.ndarray
    rows: int
    nnz: int


def load_lp_layer() -> None:
    """Import the SciPy modules that LP building and solving use. Processes
    forked after this call inherit them instead of importing them again."""
    import scipy.sparse  # noqa: F401
    import scipy.optimize._highspy._core  # noqa: F401


def solve_optimal(problem: OracleProblem, lp_dump: str | None = None) -> LpSolution:
    """Revenue-maximal IR + (eta-BIC | eta-DSIC) mechanism on the support."""
    from scipy.optimize._highspy._core import HighsModelStatus, _Highs

    start = time.perf_counter()
    domain = problem.domain()
    if lp_dump is not None:
        _dump_lp(lp_dump, problem, domain)
    base = _base(problem, domain)
    r_profiles, n = domain.num_profiles, domain.n
    n_x = r_profiles * base.layout.feas.shape[1]

    # Row generation (see the module docstring) on one live HiGHS model: the
    # IC rows the seed violates, then the feasibility rows and the interim
    # rows, then each round's violated rows. active[i] marks bidder i's IC
    # rows the model holds, one cell per row.
    active = [np.zeros(_ic_shape(problem, domain, i), dtype=bool) for i in range(n)]

    def new_rows(x: np.ndarray) -> tuple[sp.csr_matrix, np.ndarray]:
        picks = []
        for a, violated in zip(active, _violated_rows(problem, domain, base, x)):
            violated &= ~a
            a |= violated
            picks.append(np.nonzero(violated))
        return _inequality_rows(problem, domain, base, picks)

    highs = _Highs()
    highs.setOptionValue("output_flag", False)
    highs.addVars(base.c.size, base.bounds[:, 0], base.bounds[:, 1])
    highs.changeColsCost(base.c.size, np.arange(base.c.size, dtype=np.int32), base.c)
    a_ub, b_ub = new_rows(base.seed)
    _add_rows(highs, a_ub, -np.inf, b_ub)
    _add_rows(highs, base.a_ub, -np.inf, base.b_ub)
    _add_rows(highs, base.a_eq, base.b_eq, base.b_eq)
    b_rows = [b_ub, base.b_ub, base.b_eq]  # the right sides of the model's rows
    assembled = time.perf_counter()
    nit = rounds = 0
    while True:
        rounds += 1
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
        a_ub, b_ub = new_rows(x)
        if not b_ub.size:
            break
        b_rows.append(b_ub)
        _add_rows(highs, a_ub, -np.inf, b_ub)
    solved = time.perf_counter()

    # each bidder pays her value for the lottery played less her utility
    probs = base.layout.lottery(x[:n_x].reshape(r_profiles, -1))
    ranks = domain.type_ranks()
    payments = -x[n_x : base.interim[0]].reshape(r_profiles, n)
    for i, v in enumerate(base.layout.values):
        payments[:, i] += np.einsum("rk,rk->r", probs, v[ranks[:, i]])
    mech = MechanismTable(
        domain=domain,
        space=problem.space,
        probs=probs,
        payments=payments,
        meta={"ic_mode": problem.ic_mode, "eta": problem.eta},
    )

    objective = -info.objective_function_value
    # the rows' duals and the box's term (see the module docstring)
    dual = float(np.asarray(result.row_dual) @ np.concatenate(b_rows))
    upper = base.bounds[:, 1]
    boxed = np.isfinite(upper)
    dual += float(np.minimum(np.asarray(result.col_dual)[boxed], 0.0) @ upper[boxed])
    fixed_rows = base.a_ub.shape[0] + base.a_eq.shape[0]
    solution = LpSolution(
        mechanism=mech,
        objective_value=objective,
        solver_status="optimal",
        certificate=-dual,
        stats={
            "rows": base.rows,
            "cols": base.c.size,
            "nnz": base.nnz,
            "nit": nit,
            "rounds": rounds,
            "active_rows": sum(int(a.sum()) for a in active) + fixed_rows,
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
    """The full LP with every row built, the component column count and the
    interim column offsets."""
    import scipy.sparse as sp

    base = _base(problem, domain)
    every = []
    for i in range(domain.n):
        rows = np.ones(_ic_shape(problem, domain, i), dtype=bool)
        own = np.arange(len(rows))
        rows[own, own] = False
        every.append(np.nonzero(rows))
    a_ub, b_ub = _inequality_rows(problem, domain, base, every)
    lp = base._replace(
        a_ub=sp.vstack([a_ub, base.a_ub], format="csr"),
        b_ub=np.concatenate([b_ub, base.b_ub]),
    )
    return lp, domain.num_profiles * base.layout.feas.shape[1], base.interim


def _layout(problem: OracleProblem, domain: ProfileDomain) -> _Layout:
    """The components of ``problem``: additive bidders' item shares on the
    ``multi_item`` space, else the outcomes."""
    space, n = problem.space, domain.n
    values = [domain_values(domain, space, problem.model, i) for i in range(n)]
    if space.kind == "multi_item" and problem.model.tag == "additive":
        m = space.m
        shares = space.alloc.reshape(-1, n * m)  # each outcome's item shares
        own = [np.arange(i * m, (i + 1) * m) for i in range(n)]
        vals = [np.zeros((len(v), n * m)) for v in values]
        for i, v in enumerate(vals):
            v[:, own[i]] = domain.bidder_types(i) * domain.spec.epsilon
        return _Layout(
            vals=vals,
            own=own,
            values=values,
            feas=np.tile(np.eye(m), n),  # row j: item j's shares
            equal=False,
            comps=lambda o: shares[o],
            lottery=functools.partial(_coupled, n=n, m=m),
        )
    k_out = space.num_outcomes
    return _Layout(
        vals=values,
        own=[np.arange(k_out)] * n,
        values=values,
        feas=np.ones((1, k_out)),
        equal=True,
        comps=lambda o: (np.asarray(o)[..., None] == np.arange(k_out)).astype(np.float64),
        lottery=_normalized,
    )


def _normalized(probs: np.ndarray) -> np.ndarray:
    """Outcome probabilities of an LP point, clipped at 0 and normalized."""
    probs = np.clip(probs, 0.0, None)
    sums = probs.sum(axis=1)
    if np.max(np.abs(sums - 1.0)) > 1e-6:
        raise InvariantError("solver returned lotteries far from stochastic")
    return probs / sums[:, None]


def _coupled(shares: np.ndarray, n: int, m: int) -> np.ndarray:
    """(R, (n+1)^m) lotteries over the ``multi_item`` outcomes that give
    each bidder i an expected share ``shares[r, i * m + j]`` of each item
    j, by the comonotone coupling (see the module docstring). Shares are
    clipped at 0, and an item's are scaled down if they sum past 1."""
    r_profiles = len(shares)
    y = np.clip(shares.reshape(r_profiles, n, m), 0.0, None)
    total = y.sum(axis=1)  # (R, m)
    if total.max() > 1.0 + 1e-6:
        raise InvariantError("solver returned item shares far from feasible")
    y /= np.maximum(total, 1.0)[:, None, :]
    ends = np.cumsum(y, axis=1)  # (R, n, m): the right ends of the owners' intervals
    cuts = np.minimum(np.sort(ends.reshape(r_profiles, -1), axis=1), 1.0)
    zero, one = np.zeros((r_profiles, 1)), np.ones((r_profiles, 1))
    starts = np.hstack([zero, cuts])  # (R, S): each segment's left end
    widths = np.diff(np.hstack([starts, one]), axis=1)
    # item j's owner on a segment: the number of ends at or before its left
    # end, n for nobody, whose outcome digit is 0
    owner = (ends[:, :, None, :] <= starts[:, None, :, None]).sum(axis=1)  # (R, S, m)
    outcome = np.ravel_multi_index(
        np.moveaxis((owner + 1) % (n + 1), 2, 0), (n + 1,) * m
    )
    probs = np.zeros((r_profiles, (n + 1) ** m))
    np.add.at(probs, (np.arange(r_profiles)[:, None], outcome), widths)
    return probs


def _base(problem: OracleProblem, domain: ProfileDomain) -> _Lp:
    """The LP without its IC rows, and the full LP's row and nonzero counts.
    Raises ``CapacityError`` first over ``VARIABLE_BUDGET`` support-table
    cells (R * K bounds the R * C components), then over ``NNZ_BUDGET``."""
    import scipy.sparse as sp

    n, r_profiles = domain.n, domain.num_profiles
    cells = r_profiles * problem.space.num_outcomes
    if cells > VARIABLE_BUDGET:
        raise CapacityError(
            f"{cells} support-table cells exceed the {VARIABLE_BUDGET} budget"
        )
    layout = _layout(problem, domain)
    n_f, n_comp = layout.feas.shape
    n_x = r_profiles * n_comp
    # BIC mode adds, per bidder i and support type t, the interim columns
    # of her own components, then U_i(t); interim[i] is bidder i's first
    # one and interim[n] the column count
    sizes = [
        domain.bidder_type_count(i) * (len(own) + 1) if problem.ic_mode == "bic" else 0
        for i, own in enumerate(layout.own)
    ]
    interim = n_x + r_profiles * n + np.cumsum([0] + sizes)
    n_vars = int(interim[-1])

    # Exact rational weights, converted to float exactly once; in BIC mode,
    # each bidder's rest profiles' weights, which the interim rows read.
    weights_frac = type_weights(domain, problem.prior)
    weights = [np.array([float(w) for w in ws]) for ws in weights_frac]
    rests = [rest_weights(weights_frac, i) for i in range(n) if problem.ic_mode == "bic"]

    # The full LP's size, counted before any row is built: the IC rows are
    # each bidder's _ic_shape cells off the diagonal, their nonzeros counted
    # by _ub_nnz; then R copies of the feasibility rows and, in BIC mode, an
    # interim definition row per interim column, with its 1 and one entry
    # per own component and utility of each rest profile of nonzero weight.
    n_defs = n_vars - int(interim[0])
    rows = r_profiles * n_f + n_defs
    for i in range(n):
        shape = _ic_shape(problem, domain, i)
        rows += math.prod(shape) - math.prod(shape[1:])
    nnz = _ub_nnz(problem, domain, layout)
    nnz += r_profiles * int(np.count_nonzero(layout.feas))
    nnz += sum(size * (1 + int(np.count_nonzero(w))) for size, w in zip(sizes, rests))
    if nnz > NNZ_BUDGET:
        raise CapacityError(
            f"the oracle LP has up to {nnz} nonzeros, over the {NNZ_BUDGET} budget"
        )

    type_ranks = domain.type_ranks()
    profile_w = np.ones(r_profiles)
    for i in range(n):
        profile_w *= weights[i][type_ranks[:, i]]

    # maximize revenue: expected welfare less expected utility
    welfare = sum(v[type_ranks[:, i]] for i, v in enumerate(layout.vals))  # (R, C)
    c = np.zeros(n_vars)
    c[:n_x] = -(profile_w[:, None] * welfare).ravel()
    c[n_x : interim[0]] = np.repeat(profile_w, n)

    # The feasibility rows of every profile, with right side 1, as
    # equalities or inequalities; then, in BIC mode, one equality row per
    # interim variable, defining it, with right side 0.
    row, col = np.nonzero(layout.feas)
    feas = sp.csr_matrix(
        (
            np.tile(layout.feas[row, col], r_profiles),
            (np.arange(r_profiles)[:, None] * n_comp + col).ravel(),
            np.append(0, np.cumsum(np.tile(np.bincount(row, minlength=n_f), r_profiles))),
        ),
        shape=(r_profiles * n_f, n_vars),
    )
    empty = sp.csr_matrix((0, n_vars))
    a_ub, eq = (empty, [feas]) if layout.equal else (feas, [])
    if problem.ic_mode == "bic":
        eq.append(_interim_rows(domain, rests, layout, interim))
    a_eq = sp.vstack(eq, format="csr") if eq else empty
    b_ub = np.ones(a_ub.shape[0])
    b_eq = np.concatenate([np.ones(a_eq.shape[0] - n_defs), np.zeros(n_defs)])
    # the interim columns are free: bounded at 0, which their definitions
    # imply, HiGHS takes more iterations. The BIC components are boxed at
    # 1, which the feasibility rows imply (see the module docstring).
    bounds = np.tile([0.0, np.inf], (n_vars, 1))
    if problem.ic_mode == "bic":
        bounds[:n_x, 1] = 1.0
    bounds[interim[0] :, 0] = -np.inf

    # The seed: each profile plays the components of its welfare-maximizing
    # outcome at zero utility; the interim columns then follow from their
    # defining rows, which read them with coefficient 1.
    best = np.argmax(sum(v[type_ranks[:, i]] for i, v in enumerate(layout.values)), axis=1)
    seed = np.zeros(n_vars)
    seed[:n_x] = layout.comps(best).ravel()
    seed[interim[0] :] -= a_eq[a_eq.shape[0] - n_defs :] @ seed
    return _Lp(c, a_ub, b_ub, a_eq, b_eq, bounds, seed, layout, interim, rows, nnz)


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
    """Per bidder, the cells (see ``_ic_shape``) of the IC rows whose gain
    at the LP point ``x`` exceeds their right side ``problem.eta`` by more
    than ``ROW_TOL``.

    ``x`` is read as the rows read it, unclipped and unnormalized. A DSIC
    row's left side is the ex-post gain ``u[t, s, rest] - u[t, t, rest]``
    over ``expost_columns`` of every rest column, whose payments are each
    profile's value for its components less its utility; a BIC row's is
    the interim gain, from one product of bidder i's interim columns:
    ``v_t . pi_s - v_s . pi_s + U_s`` less its truthful value ``U_t``,
    where ``pi_s`` is the report's interim own components and ``U_s`` its
    interim utility."""
    n, r_profiles = domain.n, domain.num_profiles
    n_x = r_profiles * base.layout.feas.shape[1]
    out = []
    for i, vals in enumerate(base.layout.vals):
        own = np.arange(len(vals))
        mask = np.empty(_ic_shape(problem, domain, i), dtype=bool)
        cells = mask.reshape(mask.shape[:2] + (-1,))  # (T_i, T_i, 1) in BIC mode
        if problem.ic_mode == "bic":
            width = len(base.layout.own[i]) + 1
            block = x[base.interim[i] : base.interim[i + 1]].reshape(-1, width)
            u = vals[:, base.layout.own[i]] @ block[:, :-1].T  # v_t . pi_s
            u += (block[:, -1] - np.diagonal(u))[None, :]
            slabs = [(0, u[:, :, None])]  # (T_i, T_i, 1)
        else:
            probs = x[:n_x].reshape(r_profiles, -1)
            t, _ = domain.split_rank(i, np.arange(r_profiles))
            pay = np.einsum("rc,rc->r", probs, vals[t])
            pay -= x[n_x : base.interim[0]].reshape(-1, n)[:, i]
            slabs = expost_columns(probs, pay, rest_columns(domain, i), vals)  # (T_i, T_i, rest)
        for r0, u in slabs:
            u -= u[own, own][:, None]
            u -= problem.eta
            np.greater(u, ROW_TOL, out=cells[:, :, r0 : r0 + u.shape[2]])
        out.append(mask)
    return out


def _add_rows(highs: _Highs, a: sp.csr_matrix, lower, upper: np.ndarray) -> None:
    """Append the rows ``lower <= a @ x <= upper`` to a live HiGHS model."""
    lower = np.broadcast_to(np.asarray(lower, dtype=np.float64), upper.shape)
    highs.addRows(
        a.shape[0], lower, upper, a.nnz,
        a.indptr[:-1].astype(np.int32), a.indices.astype(np.int32), a.data,
    )


def _ub_nnz(problem: OracleProblem, domain: ProfileDomain, layout: _Layout) -> int:
    """Nonzeros of the full LP's IC rows, exactly: row (t, s) of bidder i
    holds ``v_t - v_s`` on each own component where the two values differ,
    and two utilities, once per rest profile in DSIC mode."""
    total = 0
    for i, own in enumerate(layout.own):
        t_i = len(layout.vals[i])
        # ordered pairs of types whose values of a component differ: all
        # pairs but those within a group of equal values
        differ = sum(
            t_i * t_i - int(np.sum(np.unique(v, return_counts=True)[1] ** 2))
            for v in layout.vals[i][:, own].T
        )
        rows = 1 if problem.ic_mode == "bic" else domain.num_profiles // t_i
        total += rows * (differ + 2 * t_i * (t_i - 1))
    return total


def _inequality_rows(
    problem: OracleProblem,
    domain: ProfileDomain,
    base: _Lp,
    picks: list[tuple[np.ndarray, ...]],
) -> tuple[sp.csr_matrix, np.ndarray]:
    """Bidder by bidder, the IC rows ``picks[i]`` selects: index arrays of
    (true type, report) in BIC mode or (true type, report, rest) in DSIC
    mode, as ``np.nonzero`` gives them from a mask of ``_ic_shape``. Rows
    come in the order of the full LP's, so every batch HiGHS gets holds the
    rows of the full LP as they are; ``_assemble`` picks every row.

    Row (t, s) reads ``(v_t - v_s) . y(s) + u(s) - u(t) <= problem.eta``:
    the nonzero value differences on the report's own components, +1 on
    its utility and -1 on the truthful one, in column order. Those are the
    columns of the profiles (s, rest) and (t, rest) in DSIC mode and the
    interim columns of s and t in BIC mode."""
    import scipy.sparse as sp

    n, layout, interim = domain.n, base.layout, base.interim
    n_comp = layout.feas.shape[1]
    n_x = domain.num_profiles * n_comp
    blocks = []
    for i, (true, report, *rest) in enumerate(picks):
        own = layout.own[i]
        vals = layout.vals[i][:, own]
        if problem.ic_mode == "bic":
            # bidder i's interim columns of type t start at interim[i] + t * width
            width = len(own) + 1
            comps = (interim[i] + report * width)[:, None] + np.arange(len(own))
            u_report, u_true = (interim[i] + t * width + len(own) for t in (report, true))
        else:
            prof = [domain.join_rank(i, t, rest[0]) for t in (report, true)]
            comps = prof[0][:, None] * n_comp + own
            u_report, u_true = (n_x + p * n + i for p in prof)
        ones = np.ones((true.size, 1))
        data = np.hstack([vals[true] - vals[report], ones, -ones])
        cols = np.hstack([comps, u_report[:, None], u_true[:, None]])
        keep = data != 0.0
        indptr = np.append(0, np.cumsum(np.count_nonzero(keep, axis=1)))
        shape = (true.size, int(interim[-1]))
        blocks.append(sp.csr_matrix((data[keep], cols[keep], indptr), shape=shape))
    a_ub = sp.vstack(blocks, format="csr")
    a_ub.sort_indices()  # each row's terms in column order
    return a_ub, np.full(a_ub.shape[0], problem.eta)


def _interim_rows(
    domain: ProfileDomain,
    rests: list[np.ndarray],
    layout: _Layout,
    interim: np.ndarray,
) -> sp.csr_matrix:
    """One equality row per interim variable, in column order, with right
    side 0: ``pi_i(t, c) - sum_rest w(rest) x(join(i, t, rest), c)`` for
    each of bidder i's own components c, and ``U_i(t) - sum_rest w(rest)
    u(join(i, t, rest), i)``, where ``rests[i]`` holds the ``w(rest)``."""
    import scipy.sparse as sp

    n, r_profiles = domain.n, domain.num_profiles
    n_comp = layout.feas.shape[1]
    n_x = r_profiles * n_comp
    entries = []  # (row, column, coef)
    for i, (own, w) in enumerate(zip(layout.own, rests)):
        t_i = domain.bidder_type_count(i)
        prof = domain.join_rank(i, np.arange(t_i)[:, None], np.arange(w.size))
        # (T_i, R_rest, C_i + 1): x(prof, c) for each own component c, then
        # u(prof, i)
        cols = np.concatenate(
            [prof[..., None] * n_comp + own, (n_x + prof * n + i)[..., None]], axis=2
        )
        defined = np.arange(interim[i], interim[i + 1]).reshape(t_i, 1, len(own) + 1)
        # a rest profile whose weight rounds to zero adds no entries
        keep = np.flatnonzero(w)
        rows, cols = np.broadcast_arrays(defined - interim[0], cols[:, keep])
        coef = np.broadcast_to(-w[keep][:, None], cols.shape)
        entries += [
            (defined.ravel() - interim[0], defined.ravel(), np.ones(defined.size)),
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
    regret = getattr(report, f"{problem.ic_mode}_regret")
    if regret > problem.eta + FEASIBILITY_TOL:
        raise InvariantError(
            f"oracle output violates {problem.eta}-{problem.ic_mode.upper()}: regret {regret}"
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
        # one reply row per support row played, so that rows whose payments
        # differ only in the sign of a zero stay apart
        rows, reply = np.unique(chosen, return_inverse=True)
        src[ranks] = sum(map(len, probs)) + reply
        if closure.zero_outcome is not None:
            src[ranks[top[t, rest] < 0.0]] = zero
        # the witness moves each outcome's probability to its own, summed in
        # outcome order whatever the number of rows
        scattered = np.zeros((len(rows), k_out))
        np.add.at(scattered.T, closure.witness[:, k], mech.rows_probs[rows].T)
        probs.append(scattered)
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
    format for external checking. The components and utilities have the
    format's default bounds, ``>= 0``; the interim columns are free. The
    BIC components' upper bound 1 is left out: the feasibility rows imply
    it, and HiGHS gets it only to start its dual simplex dual feasible."""
    import scipy.sparse as sp

    lp, n_x, interim = _assemble(problem, domain)
    c, a_ub, b_ub, a_eq, b_eq = lp[:5]

    def var(j: int) -> str:
        if j < interim[0]:
            return f"x{j}" if j < n_x else f"u{j - n_x}"
        i = int(np.searchsorted(interim, j, side="right")) - 1
        width = len(lp.layout.own[i])
        t, k = divmod(j - int(interim[i]), width + 1)
        return f"ix{i}_{t}_{k}" if k < width else f"iu{i}_{t}"

    def expr(row: sp.csr_matrix) -> str:
        terms = [
            f"{'+' if v >= 0 else '-'} {abs(float(v))!r} {var(j)}"
            for j, v in zip(row.indices, row.data)
        ]
        return " ".join(terms) if terms else "0"

    lines = ["Minimize", f" obj: {expr(sp.csr_matrix(c))}", "Subject To"]
    lines += [
        f" ub{r}: {expr(a_ub.getrow(r))} <= {float(b_ub[r])!r}"
        for r in range(a_ub.shape[0])
    ]
    lines += [
        f" eq{r}: {expr(a_eq.getrow(r))} = {float(b_eq[r])!r}"
        for r in range(a_eq.shape[0])
    ]
    lines.append("Bounds")
    lines += [f" {var(j)} free" for j in range(int(interim[0]), len(c))]
    lines.append("End")
    write_text(path, "\n".join(lines) + "\n")
