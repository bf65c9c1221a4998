"""Explicit mechanism tables over grid type-profiles, and their audits.

A mechanism is a table: one row per type profile in its domain, each row a
lottery over outcomes plus one expected payment per bidder. All revenue,
interim-utility, and incentive-regret quantities are exact expectations over
these finite objects; nothing is ever estimated by simulation here.

The table is held factored: a few candidate rows and, per profile, the
index of the candidate it plays. An extension to the full grid plays a
handful of distinct outcomes, so the writer formats each candidate once
per block, the reader parses each distinct row text once, and the ex-post
audit visits each distinct column of a bidder's view of the index once,
computing the utilities of each candidate a slab of columns plays once.
The file lists every row in full, as it always has.

Profile ranking is mixed-radix and bidder-major: bidder 0's type is the most
significant super-digit. Within one bidder, parameter 0 is the most
significant digit. All enumeration orders derive from this single convention.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .errors import CapacityError, InvariantError, ParseError, UsageError
from .grid import GridSpec, ProductPrior
from .outcomes import OutcomeSpace, ValuationModel, grid_type_ranks

__all__ = [
    "ProfileDomain",
    "MechanismTable",
    "InterimForm",
    "RegretReport",
    "type_axis_first",
    "type_weights",
    "rest_weights",
    "interim_utilities",
    "expost_columns",
    "expost_slabs",
    "rest_columns",
    "distinct_columns",
    "max_gain",
    "revenue",
    "interim_form",
    "regret_report",
    "audit_over_domain",
    "serialize_mechanism",
    "deserialize_mechanism",
]

# cells of one rest column, (T_values, T_k), of the ex-post utility kernel;
# 1e8 doubles are 800 MB
EXPOST_CELL_BUDGET = 10**8
# cells of one slab the ex-post kernel yields, 8 MiB of doubles, unless one
# rest column alone is larger; the full_grid_3x2 audit ran fastest from 2**19
# to 2**21 cells, and about 15% slower at 2**22
EXPOST_CHUNK_CELLS = 2**20
# rows of a table that serialize_mechanism formats at once; besides the text
# it holds only their per-entry strings, a few hundred bytes a row. The
# full_grid_3x2 table serialized as fast with blocks of 2**8 to 2**14 rows
SERIALIZE_BLOCK_ROWS = 2**10
# characters of a mechanism file's rows that deserialize_mechanism parses at
# once, running on to the next row; besides the text and the arrays it holds
# only the split block, several bytes a character. The full_grid_3x2 file
# decoded fastest with blocks of 2**15 to 2**17, and about 20% slower at 2**20
DECODE_BLOCK_CHARS = 2**16
# characters of distinct row entries texts that deserialize_mechanism keeps,
# so that a row repeating one of them is not parsed again; past them, a text
# not kept is parsed as a candidate row of its own. Extended tables hold a
# few hundred distinct texts of a few hundred characters; a table of
# all-distinct rows would otherwise keep a copy of its whole text
DECODE_DISTINCT_CHARS = 2**18


@dataclass(frozen=True)
class ProfileDomain:
    """Which grid profiles a mechanism table covers.

    ``supports[i][j]`` is the sorted tuple of grid indices bidder i may
    report for parameter j; the domain is their Cartesian product.
    """

    spec: GridSpec
    supports: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self) -> None:
        sup = tuple(
            tuple(tuple(int(k) for k in cell) for cell in row)
            for row in self.supports
        )
        object.__setattr__(self, "supports", sup)
        top = self.spec.top_index
        for row in sup:
            for cell in row:
                if not cell:
                    raise UsageError("every support cell must be nonempty")
                if list(cell) != sorted(set(cell)):
                    raise UsageError("support cells must be sorted and duplicate-free")
                if cell[0] < 0 or cell[-1] > top:
                    raise UsageError(f"support {cell} leaves the grid [0, {top}]")

    @classmethod
    def full_grid(cls, spec: GridSpec, n: int, m: int) -> "ProfileDomain":
        cell = tuple(range(spec.levels))
        return cls(spec=spec, supports=tuple((cell,) * m for _ in range(n)))

    @property
    def n(self) -> int:
        return len(self.supports)

    @property
    def m(self) -> int:
        return len(self.supports[0])

    @property
    def is_full_grid(self) -> bool:
        cell = tuple(range(self.spec.levels))
        return all(c == cell for row in self.supports for c in row)

    def bidder_type_count(self, i: int) -> int:
        out = 1
        for cell in self.supports[i]:
            out *= len(cell)
        return out

    @property
    def num_profiles(self) -> int:
        out = 1
        for i in range(self.n):
            out *= self.bidder_type_count(i)
        return out

    def bidder_types(self, i: int) -> np.ndarray:
        """(T_i, m) grid indices of bidder i's domain types, lex order."""
        combos = list(itertools.product(*self.supports[i]))
        return np.asarray(combos, dtype=np.int64)

    def bidder_type_rank(self, i: int, indices: Sequence[int]) -> int:
        rank = 0
        for j, idx in enumerate(indices):
            cell = self.supports[i][j]
            try:
                pos = cell.index(int(idx))
            except ValueError:
                raise UsageError(
                    f"grid index {idx} not in bidder {i} parameter {j} support {cell}"
                ) from None
            rank = rank * len(cell) + pos
        return rank

    def bidder_strides(self) -> np.ndarray:
        sizes = [self.bidder_type_count(i) for i in range(self.n)]
        strides = np.ones(self.n, dtype=np.int64)
        for i in range(self.n - 2, -1, -1):
            strides[i] = strides[i + 1] * sizes[i + 1]
        return strides

    def profile_rank(self, profile: Sequence[Sequence[int]]) -> int:
        strides = self.bidder_strides()
        return int(
            sum(
                self.bidder_type_rank(i, profile[i]) * strides[i]
                for i in range(self.n)
            )
        )

    def split_rank(self, k: int, rank):
        """Bidder k's type rank and the other bidders' rest rank at profile
        rank(s) ``rank``. The rest rank enumerates the others' types in
        bidder order, bidder-major."""
        s, t = int(self.bidder_strides()[k]), self.bidder_type_count(k)
        return (rank // s) % t, (rank // (s * t)) * s + rank % s

    def join_rank(self, k: int, t, rest):
        """Profile rank(s) of bidder k's type rank ``t`` against the others'
        rest rank ``rest``; the inverse of ``split_rank``."""
        s = int(self.bidder_strides()[k])
        return (rest // s) * (s * self.bidder_type_count(k)) + t * s + rest % s

    def type_ranks(self) -> np.ndarray:
        """(R, n) array: bidder i's type rank at each profile rank."""
        ranks = np.arange(self.num_profiles, dtype=np.int64)
        return np.stack([self.split_rank(i, ranks)[0] for i in range(self.n)], axis=1)

    def grid_to_domain(self, i: int) -> np.ndarray:
        """Rank among bidder i's domain types of every grid type, in
        ``grid_type_indices`` order; -1 where the grid type is off the domain."""
        out = np.full(self.spec.levels**self.m, -1, dtype=np.int64)
        types = self.bidder_types(i)
        out[grid_type_ranks(types, self.spec.levels)] = np.arange(len(types))
        return out

    def profiles(self) -> Iterator[tuple[tuple[int, ...], ...]]:
        """All profiles in rank order, as n-tuples of m-tuples of indices."""
        per_bidder = [
            list(itertools.product(*self.supports[i])) for i in range(self.n)
        ]
        for combo in itertools.product(*per_bidder):
            yield combo

    def covers(self, prior: ProductPrior) -> tuple[int, int, int] | None:
        """First (bidder, parameter, grid index) of prior mass outside the
        domain, or None if fully covered."""
        for i in range(self.n):
            for j in range(self.m):
                cell = set(self.supports[i][j])
                for k in prior.marginals[i][j].support:
                    if k not in cell:
                        return (i, j, k)
        return None


class MechanismTable:
    """One lottery row per domain profile, plus expected payments, held
    factored: profile rank r plays candidate row ``src[r]`` of the lotteries
    ``rows_probs`` (C, K) and the payments ``rows_pay`` (C, n).

    ``probs`` and ``payments`` are the candidate rows. Without ``src`` there
    is one per profile, in rank order (``src = arange(R)``), as in a support
    table from the oracle; the extensions pass few candidates and an index.
    The dense tables ``.probs`` (R, K) and ``.payments`` (R, n) are gathers,
    for tests and small callers.
    """

    def __init__(
        self,
        domain: ProfileDomain,
        space: OutcomeSpace,
        probs: np.ndarray,
        payments: np.ndarray,
        meta: dict | None = None,
        src: np.ndarray | None = None,
    ) -> None:
        r, k, n = domain.num_profiles, space.num_outcomes, domain.n
        self.domain, self.space = domain, space
        self.meta = {} if meta is None else meta
        self.rows_probs = np.asarray(probs, dtype=np.float64)
        self.rows_pay = np.asarray(payments, dtype=np.float64)
        self.src = np.arange(r) if src is None else np.asarray(src, dtype=np.int64)
        c = r if src is None else len(self.rows_probs)
        if self.rows_probs.shape != (c, k):
            raise UsageError(f"probs shape {self.rows_probs.shape} != ({c}, {k})")
        if self.rows_pay.shape != (c, n):
            raise UsageError(f"payments shape {self.rows_pay.shape} != ({c}, {n})")
        if self.src.shape != (r,):
            raise UsageError(f"src shape {self.src.shape} != ({r},)")
        if r and not (0 <= self.src.min() and self.src.max() < c):
            raise UsageError(f"src must index the {c} candidate rows")
        if not np.all(np.isfinite(self.rows_probs)):
            raise UsageError("lottery probabilities must be finite")
        if self.rows_probs.size and self.rows_probs.min() < -1e-9:
            raise UsageError("lottery probabilities must be nonnegative")
        sums = self.rows_probs.sum(axis=1)
        off = np.abs(sums - 1.0)[self.src]
        if off.size and np.max(off) > 1e-9:
            bad = int(np.argmax(off))
            raise UsageError(
                f"lottery at profile rank {bad} sums to "
                f"{float(sums[self.src[bad]])!r}, not 1"
            )
        if not np.all(np.isfinite(self.rows_pay)):
            raise UsageError("payments must be finite")
        if (n, domain.m) != (space.n, space.m):
            raise UsageError("domain and outcome space disagree on (n, m)")

    @property
    def n(self) -> int:
        return self.domain.n

    @property
    def m(self) -> int:
        return self.domain.m

    @property
    def probs(self) -> np.ndarray:
        """(R, K) lotteries in profile-rank order."""
        return self._gather(self.rows_probs)

    @property
    def payments(self) -> np.ndarray:
        """(R, n) payments in profile-rank order."""
        return self._gather(self.rows_pay)

    def _gather(self, rows: np.ndarray) -> np.ndarray:
        """``rows[src]``; the candidate array itself when each profile plays
        its own row, so that a support table is not copied."""
        if len(rows) == len(self.src) and np.array_equal(self.src, np.arange(len(rows))):
            return rows
        return rows[self.src]

    def lottery_entries(self, rank: int) -> list[tuple[float, int, np.ndarray]]:
        """Explicit (probability, outcome, payments) entries of one row."""
        row, pay = self.rows_probs[self.src[rank]], self.rows_pay[self.src[rank]]
        return [(float(row[o]), int(o), pay) for o in np.flatnonzero(row > 0.0)]


def type_weights(domain: ProfileDomain, prior: ProductPrior) -> list[list[Fraction]]:
    """Exact prior probability of each of every bidder's domain types, in
    ``bidder_types`` order. Raises if prior mass leaves the domain."""
    missing = domain.covers(prior)
    if missing is not None:
        i, j, k = missing
        profile = [[cells[0] for cells in row] for row in domain.supports]
        profile[i][j] = k
        raise UsageError(
            f"prior support leaves the mechanism domain; first uncovered "
            f"profile {profile} (bidder {i}, parameter {j}, grid index {k})"
        )
    out = []
    for i in range(domain.n):
        weights = []
        for t in domain.bidder_types(i):
            w = Fraction(1)
            for j in range(domain.m):
                w *= prior.marginals[i][j].mass.get(int(t[j]), Fraction(0))
            weights.append(w)
        out.append(weights)
    return out


def rest_weights(weights: Sequence[Sequence], k: int) -> np.ndarray:
    """Prior probability of each rest profile of bidder k, in the order of
    ``ProfileDomain.split_rank``'s rest rank.

    Products are taken in the arithmetic of ``weights``: ``Fraction``
    weights give exact products rounded to float once, float weights give
    float products. The two differ in the last bits, and callers rely on
    which one they get.
    """
    acc = [1]
    for i, ws in enumerate(weights):
        if i != k:
            acc = [a * w for a in acc for w in ws]
    return np.array([float(a) for a in acc])


def type_axis_first(domain: ProfileDomain, k: int, table: np.ndarray) -> np.ndarray:
    """A table with one row per profile rank, ``(R, ...)``, as ``(T_k,
    R_rest, ...)``: bidder k's type axis first, then the rest axis, which
    enumerates other bidders' types in bidder order, consistent with
    ``ProfileDomain.split_rank`` and ``rest_weights``. A view where NumPy
    can make one; the table is read as given, unvalidated."""
    sizes = [domain.bidder_type_count(i) for i in range(domain.n)]
    tail = table.shape[1:]
    return np.moveaxis(table.reshape(*sizes, *tail), k, 0).reshape(sizes[k], -1, *tail)


def interim_utilities(
    mech: MechanismTable, prior: ProductPrior, k: int, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Interim utility ``u[t, r]`` of value row ``values[t]`` reporting
    bidder k's domain type r, the others' types drawn from the prior, and
    the interim expected payment of each report r.

    The lotteries are contracted over the (A, T_k, B, K) table, where A and
    B multiply the type counts of the bidders before and after k, gathered
    from the candidate rows a run of reports at a time, about
    ``EXPOST_CHUNK_CELLS`` cells. A run holds at least two reports (or all
    of them), so that NumPy sums each (report, outcome) over (A, B) in the
    order it sums the whole table: a run of one report lets it merge the A
    and B axes into one and, with one outcome, sum them in another order."""
    weights = [[float(w) for w in ws] for ws in type_weights(mech.domain, prior)]
    w_rest = rest_weights(weights, k)
    t_k, b_n = mech.domain.bidder_type_count(k), int(mech.domain.bidder_strides()[k])
    src = mech.src.reshape(-1, t_k, b_n)
    runs = -(-src.size * mech.space.num_outcomes // EXPOST_CHUNK_CELLS)
    runs = max(1, min(runs, t_k // 2))
    w = w_rest.reshape(-1, b_n)
    cp = np.concatenate([  # (T_k, K)
        np.einsum("asbo,ab->so", mech.rows_probs[run], w)
        for run in np.array_split(src, runs, axis=1)
    ])
    # a column of the gathered payments, strided as the table's would be:
    # NumPy's matmul sums a strided matrix in its own loop and a contiguous
    # one (a middle bidder's, whose rest axes are copied together) with BLAS,
    # in another order
    pay = mech.rows_pay[mech.src][:, k]
    cpay = type_axis_first(mech.domain, k, pay) @ w_rest  # (T_k,)
    return values @ cp.T - cpay[None, :], cpay


def expost_columns(
    probs: np.ndarray, pay: np.ndarray, columns: np.ndarray, values: np.ndarray
) -> Iterator[tuple[int, np.ndarray]]:
    """The ex-post utility tensor ``u[t, s, j] = values[t] @ probs[c] -
    pay[c]`` at ``c = columns[j, s]``, one slab of columns at a time:
    value row ``values[t]`` reporting bidder k's domain type s against the
    others' profile of column j, over the mechanism's randomness only.
    ``columns`` (J, T_k) indexes the rows of ``probs`` (C, K) and ``pay``
    (C,), bidder k's payments.

    Yields ``(j0, u[:, :, j0:j1])`` in column order. Each slab holds whole
    columns, as many as fit in ``EXPOST_CHUNK_CELLS`` cells and at least
    one, and is a fresh array the caller may overwrite. It computes the
    utility of each row it plays once, with the einsum that sums each
    cell's products over outcomes in the order a per-cell einsum does, and
    gathers the cells from those. Raises ``CapacityError`` when one column,
    ``T_values * T_k`` cells, exceeds ``EXPOST_CELL_BUDGET``.
    """
    column = len(values) * columns.shape[1]
    if column > EXPOST_CELL_BUDGET:
        raise CapacityError(
            f"ex-post utility tensor has {column} cells per rest profile, "
            f"over the {EXPOST_CELL_BUDGET} budget"
        )
    step = max(1, EXPOST_CHUNK_CELLS // column)
    for j in range(0, len(columns), step):
        rows = columns[j : j + step].T  # (T_k, columns of the slab)
        used, at = np.unique(rows, return_inverse=True)
        w = np.einsum("co,to->tc", probs[used], values)  # (T_values, rows used)
        w -= pay[used]
        yield j, np.take(w, at.reshape(rows.shape), axis=1)


def rest_columns(domain: ProfileDomain, k: int) -> np.ndarray:
    """(R_rest, T_k) profile ranks: row ``rest`` holds bidder k's types, in
    order, against the others' rest profile ``rest``, in the order of
    ``ProfileDomain.split_rank``."""
    t_k = domain.bidder_type_count(k)
    rest = np.arange(domain.num_profiles // t_k)[:, None]
    return domain.join_rank(k, np.arange(t_k), rest)


def expost_slabs(
    domain: ProfileDomain,
    k: int,
    probs: np.ndarray,
    pay: np.ndarray,
    values: np.ndarray,
) -> Iterator[tuple[int, np.ndarray]]:
    """``expost_columns`` over every rest column of a dense table:
    ``u[t, s, rest]``, where ``probs`` (R, K) and ``pay`` (R,) are the
    lotteries and bidder k's payments in profile-rank order, a support
    table's or the blocks of an LP point. Yields ``(r0, u[:, :, r0:r1])``
    in rest order."""
    yield from expost_columns(probs, pay, rest_columns(domain, k), values)


def distinct_columns(mech: MechanismTable, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rest columns of bidder k's view of ``mech.src``, (J,
    T_k) candidate rows, each once, in the order of its smallest rest rank,
    and those ranks. A rest profile plays the same rows as the first of its
    column, so its ex-post utilities are the same floats."""
    columns = mech.src[rest_columns(mech.domain, k)]
    keys = columns.view(np.dtype((np.void, columns[0].nbytes))).ravel().tolist()
    firsts: dict[bytes, int] = {}  # a column's bytes: its first rest rank
    at = np.fromiter(map(firsts.setdefault, keys, itertools.count()), np.int64, len(keys))
    first = np.flatnonzero(at == np.arange(len(keys)))
    return columns[first], first


def max_gain(u: np.ndarray, truth: np.ndarray) -> tuple[float, tuple[int, ...]]:
    """Largest gain of ``u[t, s]`` or ``u[t, s, rest]`` over the truthful
    report ``u[t, truth[t]]``, and its first index in C order. Overwrites
    ``u`` with the gains."""
    u -= u[np.arange(len(u)), truth][:, None]
    i = int(np.argmax(u))
    return float(u.flat[i]), tuple(int(x) for x in np.unravel_index(i, u.shape))


def _domain_value_table(
    mech: MechanismTable, model: ValuationModel, k: int
) -> np.ndarray:
    types = mech.domain.bidder_types(k)
    return model.values_for(mech.space, k, types * mech.domain.spec.epsilon)


def revenue(
    mech: MechanismTable, prior: ProductPrior, exact: bool = False
) -> float | Fraction:
    """Expected total payment under the prior: the table of per-profile
    payment sums contracted along each bidder's type axis with that bidder's
    type weights, last bidder first.

    With ``exact=True`` the contraction runs in rationals (float payments
    embedded exactly) over the types of nonzero weight, so regrouping the
    sum cannot change the result.
    """
    weights = type_weights(mech.domain, prior)  # raises if mass leaves the domain
    sizes = [mech.domain.bidder_type_count(i) for i in range(mech.n)]
    if exact:
        live = [[t for t, w in enumerate(ws) if w] for ws in weights]
        src = mech.src.reshape(sizes)[np.ix_(*live)]
        used, at = np.unique(src.ravel(), return_inverse=True)
        sums = [sum(map(Fraction, row), Fraction(0)) for row in mech.rows_pay[used].tolist()]
        acc = np.array(sums, dtype=object)[at].reshape(src.shape)
        weights = [[ws[t] for t in ts] for ts, ws in zip(live, weights)]
    else:
        acc = mech.rows_pay.sum(axis=1)[mech.src].reshape(sizes)
        weights = [[float(x) for x in ws] for ws in weights]
    for w in reversed(weights):
        acc = acc @ np.array(w, dtype=acc.dtype)
    return acc if exact else float(acc)


@dataclass(frozen=True)
class InterimForm:
    """Interim utilities and expected payments of one bidder.

    ``utilities[t, r]`` is the expected utility of true type t reporting
    type r, in expectation over the other bidders' prior and the mechanism's
    randomness. ``expected_payment[r]`` is the interim expected payment of a
    report r.
    """

    bidder: int
    types: np.ndarray  # (T, m) grid indices
    utilities: np.ndarray  # (T, T)
    expected_payment: np.ndarray  # (T,)

    def __post_init__(self) -> None:
        if not (
            np.all(np.isfinite(self.utilities))
            and np.all(np.isfinite(self.expected_payment))
        ):
            raise InvariantError("interim quantities must be finite")


def interim_form(
    mech: MechanismTable,
    prior: ProductPrior,
    model: ValuationModel,
    k: int,
) -> InterimForm:
    utilities, cpay = interim_utilities(
        mech, prior, k, _domain_value_table(mech, model, k)
    )
    return InterimForm(
        bidder=k,
        types=mech.domain.bidder_types(k),
        utilities=utilities,
        expected_payment=cpay,
    )


@dataclass(frozen=True)
class RegretReport:
    """Worst-case incentive violations and IR slack over a domain."""

    bic_regret: float
    dsic_regret: float
    ir_slack: float
    bic_witness: dict
    dsic_witness: dict
    ir_witness: dict

    def __str__(self) -> str:  # CLI-friendly
        return (
            f"bic_regret={self.bic_regret!r} at {self.bic_witness}\n"
            f"dsic_regret={self.dsic_regret!r} at {self.dsic_witness}\n"
            f"ir_slack={self.ir_slack!r} at {self.ir_witness}"
        )


def audit_over_domain(
    mech: MechanismTable,
    prior: ProductPrior,
    model: ValuationModel,
) -> RegretReport:
    """Regret and IR metrics with deviations ranging over the mechanism's
    own domain (full grid or a listed support)."""
    bic, bic_wit = 0.0, {}
    dsic, dsic_wit = 0.0, {}
    ir, ir_wit = np.inf, {}
    for k in range(mech.n):
        types = mech.domain.bidder_types(k).tolist()
        own = np.arange(len(types))
        val = _domain_value_table(mech, model, k)
        u, _ = interim_utilities(mech, prior, k, val)
        gain, (t, r) = max_gain(u, own)
        if gain > bic:
            bic = gain
            bic_wit = {"bidder": k, "true_type": types[t], "report": types[r]}

        # per slab of distinct rest columns, the smallest truthful utility
        # and the largest gain (kept negated), each with its first C-order
        # index and the column's smallest rest rank; the smallest (value,
        # index) over the slabs is the whole tensor's first extreme, since a
        # column's first rest rank comes first among those that repeat it
        lows, highs = [], []
        columns, rests = distinct_columns(mech, k)
        slabs = expost_columns(mech.rows_probs, mech.rows_pay[:, k], columns, val)
        for j0, u in slabs:
            truthful = u[own, own]  # (T_k, columns)
            t, j = np.unravel_index(np.argmin(truthful), truthful.shape)
            lows.append((float(truthful[t, j]), int(t), int(rests[j0 + j])))
            gain, (t, s, j) = max_gain(u, own)
            highs.append((-gain, t, s, int(rests[j0 + j])))
        low, t, rest = min(lows)
        if low < ir:
            ir = low
            ir_wit = {"bidder": k, "type": types[t], "rest_rank": rest}
        neg_gain, t, s, rest = min(highs)
        if -neg_gain > dsic:
            dsic = -neg_gain
            dsic_wit = {
                "bidder": k,
                "true_type": types[t],
                "report": types[s],
                "rest_rank": rest,
            }
    return RegretReport(
        bic_regret=bic,
        dsic_regret=dsic,
        ir_slack=ir,
        bic_witness=bic_wit,
        dsic_witness=dsic_wit,
        ir_witness=ir_wit,
    )


def regret_report(
    mech: MechanismTable,
    prior: ProductPrior,
    model: ValuationModel,
) -> RegretReport:
    """Full-grid regret report; partial-domain mechanisms must be extended
    first so that deviations range over all grid types."""
    if not mech.domain.is_full_grid:
        raise UsageError(
            "mechanism domain does not cover the full grid; extend it first"
        )
    return audit_over_domain(mech, prior, model)


# ---------------------------------------------------------------------------
# Serialization: JSON with numbers as strings so reloads are bit-exact.
# ---------------------------------------------------------------------------

_FORMAT = "mechlearn-mechanism/1"


def _num_to_str(x: float) -> str:
    return repr(float(x))


def _num_from_str(s: str, where: str) -> float:
    try:
        if "/" in s:
            return float(Fraction(s))
        return float(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"{where}: bad number {s!r}") from exc


def _profile_texts(dom: ProfileDomain) -> Iterator[str]:
    """Each profile's flat grid indices as ``"i,j,..."`` text, in rank order."""
    types = [
        [",".join(map(str, t)) for t in dom.bidder_types(i).tolist()]
        for i in range(dom.n)
    ]
    return map(",".join, itertools.product(*types))


def _row_heads(probs: np.ndarray, payments: np.ndarray) -> list[str]:
    """The text of each row of ``probs`` and ``payments`` up to its profile:
    ``{"entries":[...],"profile":[``."""
    pay_texts = map(repr, payments.ravel().tolist())
    # one shared iterator, so zip yields each row's n payments in turn
    pays = [
        '"' + '","'.join(row) + '"' for row in zip(*[pay_texts] * payments.shape[1])
    ]
    rank, outcome = np.nonzero(probs != 0.0)
    entries = [
        f'{{"outcome":{o},"p":"{p!r}","pay":[{pays[r]}]}}'
        for r, o, p in zip(rank.tolist(), outcome.tolist(), probs[rank, outcome].tolist())
    ]
    bounds = np.searchsorted(rank, np.arange(len(probs) + 1)).tolist()
    return [
        f'{{"entries":[{",".join(entries[a:b])}],"profile":['
        for a, b in zip(bounds, bounds[1:])
    ]


def serialize_mechanism(mech: MechanismTable) -> str:
    """Canonical text of a mechanism file: compact JSON with sorted keys.

    The rows are written ``SERIALIZE_BLOCK_ROWS`` at a time, and the block
    texts are joined once. A block formats the entries of each candidate row
    it plays once, and each of its rows is that text followed by the row's
    profile. Key order is fixed by hand (``entries`` < ``profile``;
    ``outcome`` < ``p`` < ``pay``), so the text equals ``json.dumps`` of the
    same document with ``sort_keys=True`` byte for byte.
    """
    dom = mech.domain
    header = {
        "format": _FORMAT,
        "n": mech.n,
        "m": mech.m,
        "epsilon": _num_to_str(dom.spec.epsilon),
        "h": _num_to_str(dom.spec.h),
        "space_hash": mech.space.content_hash(),
        "space": json.loads(mech.space.canonical_json()),
        "domain": "full" if dom.is_full_grid else [
            [list(cell) for cell in row] for row in dom.supports
        ],
        "meta": mech.meta,
    }
    head = json.dumps(header, sort_keys=True, separators=(",", ":"))
    parts = [f'{{"header":{head},"rows":[']
    profiles = _profile_texts(dom)
    for a in range(0, dom.num_profiles, SERIALIZE_BLOCK_ROWS):
        used, at = np.unique(mech.src[a : a + SERIALIZE_BLOCK_ROWS], return_inverse=True)
        heads = _row_heads(mech.rows_probs[used], mech.rows_pay[used])
        # the block's rows first: map stops at their end before taking a profile
        rows = map(str.__add__, map(heads.__getitem__, at.tolist()), profiles)
        parts += ("]},".join(rows), "]},")
    parts[-1] = "]}]}"  # in place of the last block's comma
    return "".join(parts)


# The reader follows the writer's layout and key order, with any JSON
# whitespace between tokens.
_LAYOUT = (
    '{"header":{...},"rows":[{"entries":[{"outcome":O,"p":"P",'
    '"pay":["X",...]},...],"profile":[I,...]},...]}'
)
_WS = " \t\n\r"
_HEAD = re.compile(r'[ \t\n\r]*\{[ \t\n\r]*"header"[ \t\n\r]*:[ \t\n\r]*')
_ROWS = ',"rows":['
# A whitespace run that touches a structural character, which is where JSON
# puts whitespace between tokens. Dropping one inside a string changes only
# strings that hold a structural character, which no key or number does.
_LOOSE = re.compile(
    r'[ \t\n\r](?:(?<=[{}\[\]:,][ \t\n\r])[ \t\n\r]*|[ \t\n\r]*(?=[{}\[\]:,]))'
)
_ROW_OPEN = '{"entries":[{"outcome":'  # a row and its first entry
_ROW_BREAK = "]}," + _ROW_OPEN  # the end of one row and the start of the next
_ENTRIES = '{"entries":['  # the start of a row
# the end of a row's entries: its profile, then the next row's start or the
# end of the text
_ROW_END = re.compile(r'\],"profile":\[([^\]]*)\]\}(?:,\{"entries":\[|\Z)')
_STR = r'"[^"\\\x00-\x1f]*"'  # a string with no escapes or control characters


def _entry_pattern(n: int) -> re.Pattern:
    """One entry with n payments. Groups: the outcome, p, the payment
    strings, and what follows: a comma before the next entry of the same
    entries text, NUL before the next text's, nothing at the end."""
    return re.compile(
        r'\{"outcome":(-?(?:0|[1-9][0-9]*)),"p":"([^"\\\x00-\x1f]*)",'
        r'"pay":\[(' + _STR + r'(?:,' + _STR + r'){' + str(n - 1) + r'})\]\}([,\x00]?)'
    )


def _layout_error(what: str) -> ParseError:
    return ParseError(f"mechanism file does not follow the layout {_LAYOUT}: {what}")


def _numbers(texts: Sequence[str], where) -> np.ndarray:
    """float() of each text; when one fails, every text goes through
    ``_num_from_str``, so ``a/b`` parses and a bad number names ``where(i)``."""
    try:
        return np.fromiter(map(float, texts), np.float64, len(texts))
    except ValueError:
        return np.array(
            [_num_from_str(s, where(i)) for i, s in enumerate(texts)], dtype=np.float64
        )


def deserialize_mechanism(text: str) -> MechanismTable:
    """Load a mechanism file; any malformed content raises ParseError.

    The rows are read straight into arrays, a block of about
    ``DECODE_BLOCK_CHARS`` characters at a time, so they must follow the
    writer's layout and key order (``_LAYOUT``), with any JSON whitespace
    between tokens and numbers as ``float()`` text or ``a/b``.
    """
    try:
        return _decode_mechanism(text)
    except ParseError:
        raise
    except (
        UsageError, KeyError, TypeError, ValueError, AttributeError, OverflowError
    ) as exc:
        raise ParseError(f"mechanism file is not valid: {exc}") from exc


def _decode_mechanism(text: str) -> MechanismTable:
    head = _HEAD.match(text)
    if head is None:
        raise _layout_error('it does not open with {"header":')
    header, start = json.JSONDecoder().raw_decode(text, head.end())
    end = len(text)
    while end > start and text[end - 1] in _WS:  # the CLI's trailing newline
        end -= 1

    if header.get("format") != _FORMAT:
        raise ParseError(f"unknown mechanism format {header.get('format')!r}")
    n, m = (_header_int(header, key) for key in ("n", "m"))
    spec = GridSpec(
        epsilon=_num_from_str(header["epsilon"], "header.epsilon"),
        h=_num_from_str(header["h"], "header.h"),
    )
    space_doc = dict(header["space"])
    alloc = [
        [[_num_from_str(x, "space.alloc") for x in row] for row in out]
        for out in space_doc["alloc"]
    ]
    space = OutcomeSpace(
        kind=space_doc["kind"], n=n, m=m, alloc=np.asarray(alloc)
    )
    if header.get("space_hash") != space.content_hash():
        raise ParseError("space_hash does not match the embedded space")

    if any(text.find(c, start, end) >= 0 for c in _WS):
        text = _LOOSE.sub("", text[start:end])
        start, end = 0, len(text)
    if not (text.startswith(_ROWS, start) and text.endswith("]}]}", start, end)):
        raise _layout_error(f"the header is not followed by {_ROWS}...]}} alone")
    start, end = start + len(_ROWS), end - 2
    count = text.count(_ROW_OPEN, start, end)
    if header["domain"] == "full":
        # count before enumerating: a corrupt grid step can be huge
        _check_row_count(spec.levels ** (n * m), count)
        domain = ProfileDomain.full_grid(spec, n, m)
    else:
        domain = ProfileDomain(
            spec=spec,
            supports=tuple(
                tuple(tuple(cell) for cell in row) for row in header["domain"]
            ),
        )
    r, k = domain.num_profiles, space.num_outcomes
    _check_row_count(r, count)
    # room for a candidate per profile, before the parse so that its
    # temporaries are freed above it; np.zeros maps a large array lazily, so
    # the rows no candidate fills are never touched
    probs, payments = np.zeros((r, k)), np.zeros((r, n))
    src = np.empty(r, dtype=np.int64)
    c = _decode_rows(text, start, end, domain, probs, payments, src)
    if c < r:
        probs, payments = probs[:c].copy(), payments[:c].copy()
    return MechanismTable(
        domain=domain,
        space=space,
        probs=probs,
        payments=payments,
        meta=dict(header.get("meta", {})),
        src=src,
    )


def _decode_rows(
    text: str,
    start: int,
    end: int,
    domain: ProfileDomain,
    probs: np.ndarray,
    payments: np.ndarray,
    src: np.ndarray,
) -> int:
    """Decode the rows text ``text[start:end]`` into candidate rows of
    ``probs`` and ``payments`` and each profile's candidate ``src``, one
    block of about ``DECODE_BLOCK_CHARS`` characters at a time; returns the
    number of candidates.

    A block runs on to the next ``_ROW_BREAK``, without the comma after it,
    and is split at ``_ROW_END`` into each row's entries text and profile,
    which must tile it. Rows that repeat an entries text play its candidate
    (see ``DECODE_DISTINCT_CHARS``). The texts a block sees first are joined
    with NUL, which no entry holds, and split with the entry pattern; they
    are checked as the whole text would be: their entries tile them, every
    entry but a text's last ends with a comma, and each text is one run of
    entries. In a text that passes these checks ``_ROW_BREAK`` occurs only
    between rows, since no string or profile can hold it. So blocks accept
    and refuse what one block would, in the same order of checks, and an
    error names the same global row and entry numbers: the first row of a
    text is the first row that can fail with it.
    """
    n = payments.shape[1]
    pattern = _entry_pattern(n)
    codes = {str(o): o for o in range(probs.shape[1])}
    expected_profiles = _profile_texts(domain)  # runs on across blocks
    first_rows: dict[str, int] = {}  # a kept entries text: its first row's rank
    kept = 0  # characters of the kept texts
    row0 = c0 = 0  # ranks of the block's first row and first new candidate
    while start < end:
        stop = text.find(_ROW_BREAK, start + DECODE_BLOCK_CHARS, end)
        stop = end if stop < 0 else stop + len(_ROW_BREAK) - len(_ROW_OPEN)
        # each row's entries text and profile, then what follows the last row
        parts = _ROW_END.split(text[start + len(_ENTRIES) : stop - (stop < end)])
        entries, profiles = parts[:-1:2], parts[1::2]
        if not (
            text.startswith(_ENTRIES, start) and entries and all(profiles) and not parts[-1]
        ):
            raise _layout_error("the rows text is not a list of such rows")
        del parts

        # each row's first row with its entries text, or its own rank
        keep = kept < DECODE_DISTINCT_CHARS
        remember = first_rows.setdefault if keep else first_rows.get
        ranks = itertools.count(row0)
        firsts = np.fromiter(map(remember, entries, ranks), np.int64, len(entries))
        src[row0 : row0 + len(entries)] = firsts
        new = np.flatnonzero(firsts == np.arange(row0, row0 + len(entries)))
        texts = [entries[i] for i in new.tolist()]
        del entries
        if keep:
            kept += sum(map(len, texts))

        # the text between matches, then each match's four groups
        parts = pattern.split("\x00".join(texts))
        outcome, p, pay, sep = (parts[g::5] for g in range(1, 5))
        tiled = not any(parts[::5])
        del parts
        if texts and not (
            tiled and outcome and all(sep[:-1]) and not sep[-1]
            and sep.count("\x00") == len(texts) - 1
        ):
            raise _layout_error("the rows text is not a list of such rows")

        ends = np.fromiter(map(",".__ne__, sep), bool, len(sep))  # a text's last entry
        owner = np.cumsum(ends) - ends  # each entry's text, by its order in texts
        first = np.flatnonzero(np.concatenate([[True], ends[:-1]]))  # each text's entry 0

        def where(j: int) -> str:
            return f"row {row0 + new[owner[j]]} entry {j - first[owner[j]]}"

        expected = list(itertools.islice(expected_profiles, len(profiles)))
        bad = next(itertools.compress(
            itertools.count(), map(str.__ne__, profiles, expected)
        ), None)
        if bad is not None:
            raise ParseError(
                f"row {row0 + bad}: profile [{profiles[bad]}] out of order;"
                f" expected [{expected[bad]}]"
            )
        del expected

        outs = np.fromiter(
            map(codes.get, outcome, itertools.repeat(-1)), np.int64, len(outcome)
        )
        if (outs < 0).any():
            j = int(np.argmax(outs < 0))
            raise ParseError(f"{where(j)}: outcome {outcome[j]} outside the space")
        p = _numbers(p, where)
        pay = ",".join(pay)[1:-1].split('","') if pay else []
        pay = _numbers(pay, lambda i: where(i // n)).reshape(-1, n)
        disagree = (pay != pay[first[owner]]).any(axis=1)
        if disagree.any():
            j = int(np.argmax(disagree))
            raise ParseError(
                f"{where(j)}: payments {pay[j].tolist()} disagree with entry 0"
            )
        # each text's last entry, as a sequential read keeps
        payments[c0 : c0 + len(texts)] = pay[ends]
        np.add.at(probs, (c0 + owner, outs), p)
        total = np.zeros(len(texts))
        np.add.at(total, owner, p)  # in entry order, as a running sum
        off = ~(np.abs(total - 1.0) <= 1e-9)
        if off.any():
            bad = int(np.argmax(off))
            raise ParseError(
                f"row {row0 + new[bad]}: lottery probabilities sum to {float(total[bad])!r}"
            )
        row0 += len(profiles)
        c0 += len(texts)
        start = stop
    # each row's candidate: candidates are the rows that first play them
    src[:] = np.searchsorted(np.flatnonzero(src == np.arange(len(src))), src)
    return c0


def _header_int(header: dict, key: str) -> int:
    value = header[key]
    if type(value) is not int:  # not a float, a string or a bool
        raise ParseError(f"header.{key}: {value!r} is not a JSON integer")
    return value


def _check_row_count(expected: int, got: int) -> None:
    if got != expected:
        raise ParseError(
            f"expected {expected} rows for the declared domain, got {got}"
            f" (a row opens with {_ROW_OPEN}, as in the layout {_LAYOUT})"
        )
