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
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .errors import CapacityError, ParseError, UsageError
from .grid import GridSpec, ProductPrior
from .outcomes import OutcomeSpace, ValuationModel, grid_type_ranks

__all__ = [
    "ProfileDomain",
    "MechanismTable",
    "RegretReport",
    "type_axis_first",
    "type_weights",
    "rest_weights",
    "interim_utilities",
    "expost_columns",
    "rest_columns",
    "distinct_columns",
    "max_gain",
    "domain_values",
    "revenue",
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
# it holds only their per-entry strings and the block's row-text array, a
# few hundred bytes a row. The full_grid_3x2 table serialized fastest with
# blocks of 2**12 to 2**14 rows, and about 25% slower at 2**10
SERIALIZE_BLOCK_ROWS = 2**12
# characters of a mechanism file's rows that deserialize_mechanism parses at
# once, running on to the next row; besides the text and the arrays it holds
# only the split block and the writer's text of its rows, several bytes a
# character. The full_grid_3x2 file decoded fastest with blocks of 2**16 to
# 2**18 (each block has a fixed numpy cost), and about 25% slower at 2**14
DECODE_BLOCK_CHARS = 2**17
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
        # a support cell is sorted, duplicate-free and on the grid, so it is
        # the whole grid when it has as many points
        return all(len(c) == self.spec.levels for row in self.supports for c in row)

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

    def lottery_entries(self, rank: int) -> list[tuple[float, int, np.ndarray]]:
        """Explicit (probability, outcome, payments) entries of one row."""
        row, pay = self.rows_probs[self.src[rank]], self.rows_pay[self.src[rank]]
        return [(float(row[o]), int(o), pay) for o in np.flatnonzero(row > 0.0)]


def _weight_numerators(
    domain: ProfileDomain, prior: ProductPrior
) -> list[tuple[list[int], int]]:
    """Each bidder's type weights as integer numerators, in ``bidder_types``
    order, over one common denominator: the product over parameters of the
    least common denominator of that parameter's masses. Raises if prior
    mass leaves the domain."""
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
        den = 1
        cells = []
        for j, cell in enumerate(domain.supports[i]):
            mass = prior.marginals[i][j].mass
            d = math.lcm(*(q.denominator for q in mass.values()))
            qs = (mass.get(k, 0) for k in cell)
            cells.append([q.numerator * (d // q.denominator) for q in qs])
            den *= d
        out.append(([math.prod(t) for t in itertools.product(*cells)], den))
    return out


def type_weights(domain: ProfileDomain, prior: ProductPrior) -> list[list[Fraction]]:
    """Exact prior probability of each of every bidder's domain types, in
    ``bidder_types`` order. Raises if prior mass leaves the domain."""
    return [
        [Fraction(x, den) for x in nums]
        for nums, den in _weight_numerators(domain, prior)
    ]


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
    weights = [
        [x / den for x in nums] for nums, den in _weight_numerators(mech.domain, prior)
    ]
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


def domain_values(
    domain: ProfileDomain, space: OutcomeSpace, model: ValuationModel, k: int
) -> np.ndarray:
    """Bidder k's (T_k, K) value table over her domain types."""
    return model.values_for(space, k, domain.bidder_types(k) * domain.spec.epsilon)


def revenue(
    mech: MechanismTable, prior: ProductPrior, exact: bool = False
) -> float | Fraction:
    """Expected total payment under the prior: the table of per-profile
    payment sums contracted along each bidder's type axis with that bidder's
    type weights, last bidder first.

    With ``exact=True`` the contraction runs in Python integers over the
    types of nonzero weight: the payments it reads scaled to one
    power-of-two denominator (each float is embedded exactly), each
    bidder's weights to one denominator, and one ``Fraction`` built at the
    end, so regrouping the sum cannot change the result.
    """
    weights = _weight_numerators(mech.domain, prior)  # raises if mass leaves the domain
    sizes = [len(nums) for nums, _ in weights]
    if not exact:
        acc = mech.rows_pay.sum(axis=1)[mech.src].reshape(sizes)
        for nums, den in reversed(weights):
            acc = acc @ np.array([x / den for x in nums])
        return float(acc)
    live = [[t for t, x in enumerate(nums) if x] for nums, _ in weights]
    src = mech.src.reshape(sizes)[np.ix_(*live)]
    used, at = np.unique(src.ravel(), return_inverse=True)
    # payments as integers over one power-of-two denominator
    ratios = [[x.as_integer_ratio() for x in row] for row in mech.rows_pay[used].tolist()]
    den = max(d for row in ratios for _, d in row)
    sums = [sum(p * (den // d) for p, d in row) for row in ratios]
    acc = np.array(sums, dtype=object)[at].reshape(src.shape)
    for ts, (nums, d) in zip(reversed(live), reversed(weights)):
        acc = acc @ np.array([nums[t] for t in ts], dtype=object)
        den *= d
    return Fraction(acc, den)


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
        val = domain_values(mech.domain, mech.space, model, k)
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


def _type_columns(dom: ProfileDomain) -> list[tuple[np.ndarray, int]]:
    """Each bidder's type texts in rank order, as ``"i,j,"``: its flat grid
    indices and the separator that follows them in a row, ``]},`` after the
    last bidder's; and the bidder's rank stride."""
    seps = [","] * (dom.n - 1) + ["]},"]
    return [
        (
            np.array(
                [",".join(map(str, t)) + sep for t in dom.bidder_types(i).tolist()],
                dtype=object,
            ),
            stride,
        )
        for i, (sep, stride) in enumerate(zip(seps, dom.bidder_strides().tolist()))
    ]


def _rows_text(lead: Sequence, types: list[tuple[np.ndarray, int]], a: int, b: int) -> str:
    """The text of rows ``a`` to ``b - 1``, each with the comma after it: a
    ``(rows, len(lead) + n)`` array of the ``lead`` text columns (one string
    for every row, or one a row), then each bidder's type text at each rank
    (``_type_columns``), joined once."""
    cols = np.empty((b - a, len(lead) + len(types)), dtype=object)
    for j, col in enumerate(lead):
        cols[:, j] = col
    ranks = np.arange(a, b)
    for j, (texts, stride) in enumerate(types, len(lead)):
        cols[:, j] = texts[ranks // stride % len(texts)]
    return "".join(cols.ravel().tolist())


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
    it plays once, up to the row's profile (``_row_heads``), and its text is
    one ``_rows_text`` join of each row's candidate text and its bidders'
    type texts. Key order is fixed by hand (``entries`` < ``profile``;
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
    types, r = _type_columns(dom), dom.num_profiles
    for a in range(0, r, SERIALIZE_BLOCK_ROWS):
        b = min(a + SERIALIZE_BLOCK_ROWS, r)
        src = mech.src[a:b]
        # the candidates the block plays, sorted; np.unique takes several
        # times as long on a block of a few thousand rows
        used = np.sort(src)
        used = used[np.append(True, used[1:] != used[:-1])]
        heads = np.array(_row_heads(mech.rows_probs[used], mech.rows_pay[used]), dtype=object)
        parts.append(_rows_text([heads[np.searchsorted(used, src)]], types, a, b))
    parts[-1] = parts[-1][:-1] + "]}"  # the last row has no comma after it
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
_ENTRIES = '{"entries":['  # the start of a row
_PROFILE = '],"profile":['  # the end of a row's entries and the start of its profile
# the end of a row's entries: its profile, then the next row's start or the
# end of the text. No two matches can overlap, so a search from any point
# finds the next match that a split of the whole text finds
_ROW_END = re.compile(r'\],"profile":\[[^\]]*\]\}(?:,\{"entries":\[|\Z)')
# a row's end that another row follows: where a decode block may end
_ROW_BREAK = re.compile(r'\],"profile":\[[^\]]*\]\},\{"entries":\[')
_ENTRY_KEYS = ("outcome", "p", "pay")
# objects as tuples of their (key, value) pairs, so that a repeated key shows
_ENTRIES_DECODER = json.JSONDecoder(object_pairs_hook=tuple)


def _layout_error(what: str) -> ParseError:
    return ParseError(f"mechanism file does not follow the layout {_LAYOUT}: {what}")


def deserialize_mechanism(text: str) -> MechanismTable:
    """Load a mechanism file; any malformed content raises ParseError.

    The rows are read straight into arrays, a block of about
    ``DECODE_BLOCK_CHARS`` characters at a time, so they must follow the
    writer's layout and key order (``_LAYOUT``), with any JSON whitespace
    between tokens and numbers as JSON strings of ``float()`` text or ``a/b``.
    """
    try:
        return _decode_mechanism(text)
    except ParseError:
        raise
    except (
        UsageError, KeyError, TypeError, ValueError, AttributeError, OverflowError,
        RecursionError,  # JSON nested too deeply
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

    A block runs on to the end of the next row, at a ``_ROW_BREAK``,
    without the comma after it, and is split at ``_ROW_END`` into each row's
    entries text, just as a split of the whole rows text would be. The whole
    block must then equal the writer's text of those rows (``_rows_text``)
    with those entries texts, which fixes every profile. Rows that repeat
    an entries text play its candidate (see ``DECODE_DISTINCT_CHARS``); a
    text met for the first time is parsed by ``_decode_entries``. Every
    entries text must be valid JSON on its own, so text that passes is the
    JSON of those rows. An error is for the first row, in row order, whose
    profile is not the expected one (checked before its entries), whose new
    entries text fails, or that does not end as a row, so it does not
    depend on the block size.
    """
    k, n, r = probs.shape[1], payments.shape[1], len(src)
    types = _type_columns(domain)
    first_rows: dict[str, int] = {}  # a kept entries text: its first row's rank
    kept = 0  # characters of the kept texts
    row0 = c0 = 0  # ranks of the block's first row and first new candidate
    while start < end:
        row_break = _ROW_BREAK.search(text, start + DECODE_BLOCK_CHARS, end)
        stop = end if row_break is None else row_break.end() - len(_ENTRIES)
        if not text.startswith(_ENTRIES, start):
            raise _layout_error("the rows text is not a list of such rows")
        # each row's entries text, then what follows the last row, which is
        # empty when the rows tile the block
        entries = _ROW_END.split(text[start + len(_ENTRIES) : stop - (stop < end)])
        tail = entries.pop()
        rows = len(entries)

        # the writer's text of these rows, but for the comma after the file's last
        if row0 + rows <= r and text.startswith(
            _rows_text([_ENTRIES, entries, _PROFILE], types, row0, row0 + rows)[: stop - start],
            start,
            stop,
        ):
            good, error = rows, None
        else:
            good, error = _first_bad_row(text, start, entries, types, row0, r)
        if tail and error is None:  # the row after the last one the split found
            error = _layout_error("the rows text is not a list of such rows")

        # each row's first row with its entries text, or its own rank
        keep = kept < DECODE_DISTINCT_CHARS
        remember = first_rows.setdefault if keep else first_rows.get
        ranks = itertools.count(row0)
        firsts = np.fromiter(map(remember, entries, ranks), np.int64, rows)
        new = np.flatnonzero(firsts == np.arange(row0, row0 + rows)).tolist()
        # the rows before the first bad one, whose error comes after theirs
        for c, i in enumerate(itertools.takewhile(good.__gt__, new), c0):
            probs[c], payments[c] = _decode_entries(entries[i], row0 + i, k, n)
        if error is not None:
            raise error
        if keep:
            kept += sum(len(entries[i]) for i in new)
        src[row0 : row0 + rows] = firsts
        row0 += rows
        c0 += len(new)
        start = stop
    # each row's candidate: candidates are the rows that first play them
    src[:] = np.searchsorted(np.flatnonzero(src == np.arange(len(src))), src)
    return c0


def _first_bad_row(
    text: str,
    start: int,
    entries: list[str],
    types: list[tuple[np.ndarray, int]],
    row0: int,
    r: int,
) -> tuple[int, ParseError]:
    """The first of the rows from ``text[start]`` on, with entries texts
    ``entries`` and ranks from ``row0``, whose profile is not the expected
    one, or that lies past the domain's ``r`` rows; and its error."""
    rows = min(len(entries), r - row0)
    expected = _rows_text([], types, row0, row0 + rows).split("]},")
    at = start
    for i, (entries_text, want) in enumerate(zip(entries, expected[:rows])):
        at += len(_ENTRIES) + len(entries_text) + len(_PROFILE)
        got = text[at : text.index("]", at)]
        if got != want:
            return i, ParseError(
                f"row {row0 + i}: profile [{got}] out of order; expected [{want}]"
            )
        at += len(got) + len("]},")
    return rows, ParseError(f"row {r}: the declared domain has only {r} rows")


def _decode_entries(
    text: str, rank: int, k: int, n: int
) -> tuple[list[float], list[float]]:
    """The lottery over ``k`` outcomes and the ``n`` payments of row
    ``rank``'s entries text, the inside of its ``entries`` list, parsed with
    one ``json.loads`` and read entry by entry as a ``json.loads`` of the
    whole file would be: probabilities summed in entry order, every entry's
    payments equal to entry 0's, and the last entry's kept."""
    try:
        entries = _ENTRIES_DECODER.decode(f"[{text}]")
    except ValueError as exc:
        raise _layout_error(f"row {rank}: the entries are not JSON: {exc}") from exc
    lottery, total = [0.0] * k, 0.0
    for e, entry in enumerate(entries):
        where = f"row {rank} entry {e}"
        if type(entry) is not tuple or len(entry) != 3:
            raise _layout_error(f"{where} does not hold outcome, p and pay alone")
        (ko, o), (kp, p), (kq, pay) = entry
        if (ko, kp, kq) != _ENTRY_KEYS:
            raise _layout_error(f"{where} does not hold outcome, p and pay alone")
        if not (
            type(o) is int and type(p) is str and type(pay) is list
            and len(pay) == n and all(type(x) is str for x in pay)
        ):
            raise _layout_error(f"{where}: need an integer outcome, a string p, {n} payments")
        if not 0 <= o < k:
            raise ParseError(f"{where}: outcome {o} outside the space")
        p = _num_from_str(p, where)
        lottery[o] += p
        total += p
        pay = [_num_from_str(x, where) for x in pay]
        if not e:
            pay0 = pay
        elif pay != pay0:
            raise ParseError(f"{where}: payments {pay} disagree with entry 0")
    if not abs(total - 1.0) <= 1e-9:
        raise ParseError(f"row {rank}: lottery probabilities sum to {total!r}")
    return lottery, pay


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
