"""The sparse exact simplex against the dense one it replaced.

``_reference_simplex_maximize`` is the previous dense-tableau simplex and
``_reference_brute_force_optimal`` the previous oracle-LP assembly, with one
coefficient loop for BIC rows and another for DSIC rows. Both are kept here
verbatim, but for the right side of the BIC rows, which is eta as in the
DSIC rows. ``brute_force_optimal`` and ``simplex_maximize`` must return the
same rational, not an approximately equal one.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from mechlearn import GridSpec, ValuationModel, enumerate_multi_item
from mechlearn.errors import InvariantError, UsageError
from mechlearn.exactlp import (
    OUTCOME_GUARD,
    PROFILE_GUARD,
    brute_force_optimal,
    simplex_maximize,
)
from mechlearn.grid import ProductPrior
from mechlearn.outcomes import OutcomeSpace, bidder_value

from conftest import product_prior

_Q = Fraction


def _reference_simplex_maximize(c, a_eq, b_eq, a_ub, b_ub, nonneg):
    """Maximize c.x s.t. a_eq x = b_eq, a_ub x <= b_ub, x_j >= 0 for j in
    nonneg (others free). Dense exact simplex with Bland's rule.

    Free variables are split internally. Requires that setting the first
    equality-column of each equality row to its RHS (and everything else to
    zero) is feasible, which holds for the oracle LP because values are
    nonnegative; a guard verifies this and fails loudly otherwise.
    """
    zero = _Q(0)
    one = _Q(1)
    n_orig = len(c)
    free = [j for j in range(n_orig) if j not in nonneg]
    # column layout: originals (free ones get a paired negative), then slacks
    neg_of = {}
    cols = n_orig
    for j in free:
        neg_of[j] = cols
        cols += 1
    n_ub = len(a_ub)
    slack0 = cols
    cols += n_ub

    def expand(row):
        out = [zero] * cols
        for j, v in row.items():
            out[j] = _Q(v)
            if j in neg_of:
                out[neg_of[j]] = -_Q(v)
        return out

    rows = []
    rhs = []
    basis = []
    for r, row in enumerate(a_eq):
        rows.append(expand(row))
        rhs.append(_Q(b_eq[r]))
    for u, row in enumerate(a_ub):
        line = expand(row)
        line[slack0 + u] = one
        rows.append(line)
        rhs.append(_Q(b_ub[u]))
        basis.append(slack0 + u)

    cost = [zero] * cols
    for j, v in enumerate(c):
        cost[j] = _Q(v)
        if j in neg_of:
            cost[neg_of[j]] = -_Q(v)

    # objective row holds z_j - c_j; objective value tracked separately
    zrow = [-x for x in cost]
    zval = zero
    m_eq = len(a_eq)
    basis = [None] * m_eq + basis

    def pivot(pr, pc):
        nonlocal zval
        piv = rows[pr][pc]
        inv = one / piv
        rows[pr] = [x * inv for x in rows[pr]]
        rhs[pr] = rhs[pr] * inv
        for i in range(len(rows)):
            if i != pr and rows[i][pc] != zero:
                f = rows[i][pc]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[pr])]
                rhs[i] = rhs[i] - f * rhs[pr]
        if zrow[pc] != zero:
            f = zrow[pc]
            for j in range(cols):
                zrow[j] = zrow[j] - f * rows[pr][j]
            # entering variable takes value rhs[pr] with reduced cost -f
            zval = zval - f * rhs[pr]
        basis[pr] = pc

    # make each equality row's designated column basic
    for r, row in enumerate(a_eq):
        pc = min(row.keys())
        if rows[r][pc] == zero:
            raise InvariantError("equality row lost its designated basic column")
        pivot(r, pc)
    if any(v < zero for v in rhs):
        raise InvariantError(
            "initial basis is infeasible; the oracle LP should always admit "
            "the constant-outcome zero-payment start"
        )

    # Dantzig's rule first for speed, pure Bland after a while so the run
    # provably terminates even on degenerate instances.
    for iteration in range(200_000):
        entering = None
        if iteration < 500:
            most = zero
            for j in range(cols):
                if zrow[j] < most:
                    most = zrow[j]
                    entering = j
        else:
            for j in range(cols):
                if zrow[j] < zero:
                    entering = j
                    break
        if entering is None:
            return zval
        leaving = None
        best = None
        for i in range(len(rows)):
            if rows[i][entering] > zero:
                ratio = rhs[i] / rows[i][entering]
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leaving]
                ):
                    best = ratio
                    leaving = i
        if leaving is None:
            raise InvariantError("oracle LP is unbounded; assembly must be wrong")
        pivot(leaving, entering)
    raise InvariantError("simplex exceeded its iteration guard")


def _reference_brute_force_optimal(
    prior: ProductPrior,
    space: OutcomeSpace,
    model: ValuationModel,
    ic_mode: str = "bic",
    eta: float = 0.0,
) -> Fraction:
    """Exact optimal objective of the oracle LP on a tiny instance."""
    if ic_mode not in ("bic", "dsic"):
        raise UsageError(f"ic_mode must be 'bic' or 'dsic', got {ic_mode!r}")
    n, m = prior.n, prior.m
    spec = prior.spec
    k_out = space.num_outcomes
    if k_out > OUTCOME_GUARD:
        raise UsageError(
            f"{k_out} outcomes exceed the brute-force guard of {OUTCOME_GUARD}"
        )

    # independent profile enumeration: per-bidder type lists, lex order
    bidder_types = [
        list(itertools.product(*(prior.marginals[i][j].support for j in range(m))))
        for i in range(n)
    ]
    profiles = list(itertools.product(*bidder_types))
    r_profiles = len(profiles)
    if r_profiles > PROFILE_GUARD:
        raise UsageError(
            f"{r_profiles} profiles exceed the brute-force guard of {PROFILE_GUARD}"
        )
    rank = {p: r for r, p in enumerate(profiles)}

    def type_prob(i, t):
        q = Fraction(1)
        for j in range(m):
            q *= prior.marginals[i][j].mass.get(t[j], Fraction(0))
        return q

    def value(i, t, o):
        vec = [spec.value(idx) for idx in t]
        return Fraction(bidder_value(model, space, i, vec, o))

    n_x = r_profiles * k_out

    def xvar(r, o):
        return r * k_out + o

    def pvar(r, i):
        return n_x + r * n + i

    n_vars = n_x + r_profiles * n
    c = [Fraction(0)] * n_vars
    for r, prof in enumerate(profiles):
        w = Fraction(1)
        for i in range(n):
            w *= type_prob(i, prof[i])
        for i in range(n):
            c[pvar(r, i)] = w

    a_eq = []
    b_eq = []
    for r in range(r_profiles):
        a_eq.append({xvar(r, o): Fraction(1) for o in range(k_out)})
        b_eq.append(Fraction(1))

    a_ub = []
    b_ub = []
    for r, prof in enumerate(profiles):
        for i in range(n):
            row = {xvar(r, o): -value(i, prof[i], o) for o in range(k_out)}
            row[pvar(r, i)] = Fraction(1)
            a_ub.append(row)
            b_ub.append(Fraction(0))

    if ic_mode == "bic":
        for i in range(n):
            others = [bidder_types[x] for x in range(n) if x != i]
            for t in bidder_types[i]:
                for t_rep in bidder_types[i]:
                    if t_rep == t:
                        continue
                    row: dict[int, Fraction] = {}
                    for rest in itertools.product(*others):
                        w = Fraction(1)
                        for x, tx in zip(
                            (x for x in range(n) if x != i), rest
                        ):
                            w *= type_prob(x, tx)
                        if w == 0:
                            continue
                        prof_dev = tuple(
                            t_rep if x == i else rest[x - (1 if x > i else 0)]
                            for x in range(n)
                        )
                        prof_tru = tuple(
                            t if x == i else rest[x - (1 if x > i else 0)]
                            for x in range(n)
                        )
                        rd, rt = rank[prof_dev], rank[prof_tru]
                        for o in range(k_out):
                            v = value(i, t, o)
                            if v:
                                row[xvar(rd, o)] = row.get(xvar(rd, o), Fraction(0)) + w * v
                                row[xvar(rt, o)] = row.get(xvar(rt, o), Fraction(0)) - w * v
                        row[pvar(rd, i)] = row.get(pvar(rd, i), Fraction(0)) - w
                        row[pvar(rt, i)] = row.get(pvar(rt, i), Fraction(0)) + w
                    a_ub.append(row)
                    b_ub.append(Fraction(eta))
    else:
        slack = Fraction(eta)
        for i in range(n):
            for r, prof in enumerate(profiles):
                t = prof[i]
                for t_rep in bidder_types[i]:
                    if t_rep == t:
                        continue
                    prof_dev = tuple(
                        t_rep if x == i else prof[x] for x in range(n)
                    )
                    rd = rank[prof_dev]
                    row = {}
                    for o in range(k_out):
                        v = value(i, t, o)
                        if v:
                            row[xvar(rd, o)] = row.get(xvar(rd, o), Fraction(0)) + v
                            row[xvar(r, o)] = row.get(xvar(r, o), Fraction(0)) - v
                    row[pvar(rd, i)] = row.get(pvar(rd, i), Fraction(0)) - Fraction(1)
                    row[pvar(r, i)] = row.get(pvar(r, i), Fraction(0)) + Fraction(1)
                    a_ub.append(row)
                    b_ub.append(slack)

    nonneg = set(range(n_x))
    obj = _reference_simplex_maximize(c, a_eq, b_eq, a_ub, b_ub, nonneg)
    return Fraction(int(obj.numerator), int(obj.denominator))


SPEC = GridSpec(epsilon=0.5, h=2.0)
# non-dyadic denominators: weights drawn from 1..6, normalised by their sum
WEIGHTS = (1, 2, 3, 4, 5, 6)


def _random_cells(rng, n, m):
    """Uneven supports: each cell gets its own size and its own levels, and
    the product stays within a few profiles so the dense reference is quick."""
    budget = 8 if n * m > 1 else 4
    while True:
        sizes = [[int(rng.integers(1, 4)) for _ in range(m)] for _ in range(n)]
        profiles = int(np.prod([s for row in sizes for s in row]))
        if 2 <= profiles <= budget:
            break
    cells = []
    for row in sizes:
        cells.append([])
        for size in row:
            support = sorted(rng.choice(SPEC.levels, size=size, replace=False))
            weights = [int(w) for w in rng.choice(WEIGHTS, size=size)]
            total = sum(weights)
            cells[-1].append(
                {int(k): Fraction(w, total) for k, w in zip(support, weights)}
            )
    return cells


INSTANCE_CASES = [
    (n, m, tag, mode, eta)
    # the eta-BIC rows come last, so that each earlier case keeps its seed
    for modes in ([("bic", 0.0, 4), ("dsic", 0.0, 2), ("dsic", 0.25, 2)], [("bic", 0.25, 2)])
    for n, m in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)]
    for tag in ("additive", "unit_demand")
    if not (m == 1 and tag == "unit_demand")
    for mode, eta, repeats in modes
    for _ in range(repeats)
]


@pytest.mark.parametrize("case", range(len(INSTANCE_CASES)))
def test_brute_force_matches_the_dense_reference(case):
    n, m, tag, mode, eta = INSTANCE_CASES[case]
    rng = np.random.default_rng(case)
    prior = product_prior(SPEC, _random_cells(rng, n, m))
    space = enumerate_multi_item(n, m)
    model = ValuationModel(tag=tag)
    new = brute_force_optimal(prior, space, model, mode, eta)
    old = _reference_brute_force_optimal(prior, space, model, mode, eta)
    assert type(new) is Fraction
    assert new == old


def _rational(rng, low, high, den=6):
    return Fraction(int(rng.integers(low * den, high * den + 1)), den)


def _random_lp(rng):
    """An LP in the solver's contract: blocks of nonnegative x, each summing
    to a positive right-hand side with its first column as the start, plus
    free variables bounded above and below by rows in x. Some rows are tight
    at the start and some are repeated, so pivots are degenerate; a free
    variable's lower bound may be negative, so its optimum may be too."""
    blocks = [int(rng.integers(1, 4)) for _ in range(int(rng.integers(1, 4)))]
    n_x = sum(blocks)
    n_free = int(rng.integers(1, 4))
    n_vars = n_x + n_free
    a_eq, b_eq, start, col = [], [], [Fraction(0)] * n_vars, 0
    for size in blocks:
        a_eq.append({col + j: Fraction(1) for j in range(size)})
        b_eq.append(_rational(rng, 1, 3))
        start[col] = b_eq[-1]
        col += size

    def x_terms(sign):
        return {
            int(j): sign * _rational(rng, -2, 2)
            for j in rng.choice(n_x, size=int(rng.integers(1, n_x + 1)), replace=False)
        }

    def at_start(row):
        return sum((v * start[j] for j, v in row.items()), Fraction(0))

    a_ub, b_ub = [], []
    for p in range(n_x, n_vars):
        for sign in (1, -1):  # p <= a.x + b and p >= a.x - b
            row = x_terms(-sign)
            row[p] = Fraction(sign)
            a_ub.append(row)
            b_ub.append(max(Fraction(0), at_start(row)) + _rational(rng, 0, 1))
    for _ in range(int(rng.integers(0, 4))):
        row = x_terms(1)
        if rng.random() < 0.5:
            row[int(rng.integers(n_x, n_vars))] = _rational(rng, -1, 1)
        tight = max(Fraction(0), at_start(row))
        a_ub.append(row)
        b_ub.append(tight if rng.random() < 0.5 else tight + _rational(rng, 0, 1))
        if rng.random() < 0.5:
            a_ub.append(dict(row))
            b_ub.append(b_ub[-1])
    c = [_rational(rng, -2, 2) for _ in range(n_vars)]
    return c, a_eq, b_eq, a_ub, b_ub, set(range(n_x))


@pytest.mark.parametrize("seed", range(60))
def test_simplex_matches_the_dense_reference(seed):
    lp = _random_lp(np.random.default_rng(seed))
    assert simplex_maximize(*lp) == _reference_simplex_maximize(*lp)
