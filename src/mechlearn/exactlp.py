"""Independent exact-rational verification oracle for tiny LP instances.

This module re-derives the oracle LP from scratch (its own profile
enumeration, its own constraint assembly) and solves it with a dense tableau
simplex over exact rationals using Bland's rule, so it shares no code path
with the floating-point solver it cross-checks. Only meant for tiny
instances; a hard size guard keeps it honest.

Uses gmpy2 rationals when available (identical results, much faster), plain
``fractions.Fraction`` otherwise.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import InvariantError, UsageError
from .grid import ProductPrior
from .outcomes import OutcomeSpace, ValuationModel, bidder_value

try:  # pragma: no cover - exercised implicitly on hosts with gmpy2
    from gmpy2 import mpq as _Q
except ImportError:  # pragma: no cover
    _Q = Fraction

__all__ = ["brute_force_optimal", "simplex_maximize"]

PROFILE_GUARD = 16
OUTCOME_GUARD = 16


def simplex_maximize(c, a_eq, b_eq, a_ub, b_ub, nonneg):
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


def brute_force_optimal(
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
                    b_ub.append(Fraction(0))
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
    obj = simplex_maximize(c, a_eq, b_eq, a_ub, b_ub, nonneg)
    return Fraction(int(obj.numerator), int(obj.denominator))
