"""Explicit mechanism tables over grid type-profiles, and their audits.

A mechanism is a table: one row per type profile in its domain, each row a
lottery over outcomes plus one expected payment per bidder. All revenue,
interim-utility, and incentive-regret quantities are exact expectations over
these finite objects; nothing is ever estimated by simulation here.

Profile ranking is mixed-radix and bidder-major: bidder 0's type is the most
significant super-digit. Within one bidder, parameter 0 is the most
significant digit. All enumeration orders derive from this single convention.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass, field
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
    "axis_views",
    "type_axis_first",
    "type_weights",
    "rest_weights",
    "interim_utilities",
    "expost_slabs",
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
        bidder order, bidder-major, as the rest axis of ``axis_views``."""
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


@dataclass
class MechanismTable:
    """One lottery row per domain profile, plus expected payments."""

    domain: ProfileDomain
    space: OutcomeSpace
    probs: np.ndarray  # (R, K)
    payments: np.ndarray  # (R, n)
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        r, k = self.domain.num_profiles, self.space.num_outcomes
        self.probs = np.asarray(self.probs, dtype=np.float64)
        self.payments = np.asarray(self.payments, dtype=np.float64)
        if self.probs.shape != (r, k):
            raise UsageError(f"probs shape {self.probs.shape} != ({r}, {k})")
        if self.payments.shape != (r, self.domain.n):
            raise UsageError(
                f"payments shape {self.payments.shape} != ({r}, {self.domain.n})"
            )
        if not np.all(np.isfinite(self.probs)):
            raise UsageError("lottery probabilities must be finite")
        if self.probs.size and self.probs.min() < -1e-9:
            raise UsageError("lottery probabilities must be nonnegative")
        sums = self.probs.sum(axis=1)
        if sums.size and np.max(np.abs(sums - 1.0)) > 1e-9:
            bad = int(np.argmax(np.abs(sums - 1.0)))
            raise UsageError(
                f"lottery at profile rank {bad} sums to {float(sums[bad])!r}, not 1"
            )
        if not np.all(np.isfinite(self.payments)):
            raise UsageError("payments must be finite")
        if (self.domain.n, self.domain.m) != (self.space.n, self.space.m):
            raise UsageError("domain and outcome space disagree on (n, m)")

    @property
    def n(self) -> int:
        return self.domain.n

    @property
    def m(self) -> int:
        return self.domain.m

    def lottery_entries(self, rank: int) -> list[tuple[float, int, np.ndarray]]:
        """Explicit (probability, outcome, payments) entries of one row."""
        out = []
        for o in np.flatnonzero(self.probs[rank] > 0.0):
            out.append((float(self.probs[rank, o]), int(o), self.payments[rank]))
        return out


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
    the rest axis of ``axis_views``.

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


def axis_views(mech: MechanismTable, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Lottery and payment tensors with bidder k's type axis first: probs as
    (T_k, R_rest, K) and bidder k's payments as (T_k, R_rest), by
    ``type_axis_first``; for a middle bidder, copies of the table."""
    return (
        type_axis_first(mech.domain, k, mech.probs),
        type_axis_first(mech.domain, k, mech.payments[:, k]),
    )


def interim_utilities(
    mech: MechanismTable, prior: ProductPrior, k: int, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Interim utility ``u[t, r]`` of value row ``values[t]`` reporting
    bidder k's domain type r, the others' types drawn from the prior, and
    the interim expected payment of each report r. The lotteries are
    contracted over the (A, T_k, B, K) view of the table that
    ``expost_slabs`` reads, so nothing of its size is copied."""
    weights = [[float(w) for w in ws] for ws in type_weights(mech.domain, prior)]
    w_rest = rest_weights(weights, k)
    t_k, b_n = mech.domain.bidder_type_count(k), int(mech.domain.bidder_strides()[k])
    probs = mech.probs.reshape(-1, t_k, b_n, mech.probs.shape[1])
    cp = np.einsum("asbo,ab->so", probs, w_rest.reshape(-1, b_n))  # (T_k, K)
    cpay = type_axis_first(mech.domain, k, mech.payments[:, k]) @ w_rest  # (T_k,)
    return values @ cp.T - cpay[None, :], cpay


def expost_slabs(
    domain: ProfileDomain,
    k: int,
    probs: np.ndarray,
    pay: np.ndarray,
    values: np.ndarray,
) -> Iterator[tuple[int, np.ndarray]]:
    """The ex-post utility tensor ``u[t, s, rest]`` of value row
    ``values[t]`` reporting bidder k's domain type s against the others'
    profile rest, over the mechanism's randomness only, one slab at a time.
    ``probs`` (R, K) and ``pay`` (R,) are the lotteries and bidder k's
    payments in profile-rank order: a table's ``probs`` and
    ``payments[:, k]``, or the blocks of an LP point.

    The rest axis enumerates the other bidders' types in bidder order, as
    ``ProfileDomain.split_rank`` does. Slabs are cut from the (A, T_k, B, K)
    view of ``probs``, where A and B multiply the type counts of the bidders
    before and after k, so that rest rank is ``a * B + b``: whole runs of
    ``a`` when a slab holds B rest columns, else a run of ``b`` within one
    ``a``. So a slab copies at most its own lotteries, even for a middle
    bidder, whose rest columns are not adjacent in the table.

    Yields ``(r0, u[:, :, r0:r1])`` in rest order. Each slab holds whole
    rest columns, as many as fit in ``EXPOST_CHUNK_CELLS`` cells and at
    least one, and is a fresh array the caller may overwrite. Raises
    ``CapacityError`` when one rest column, ``T_values * T_k`` cells,
    exceeds ``EXPOST_CELL_BUDGET``.
    """
    t_k, b_n = domain.bidder_type_count(k), int(domain.bidder_strides()[k])
    column = len(values) * t_k
    if column > EXPOST_CELL_BUDGET:
        raise CapacityError(
            f"ex-post utility tensor has {column} cells per rest profile, "
            f"over the {EXPOST_CELL_BUDGET} budget"
        )
    step = max(1, EXPOST_CHUNK_CELLS // column)
    probs = probs.reshape(-1, t_k, b_n, probs.shape[1])
    pay = pay.reshape(-1, t_k, b_n)
    a_step, b_step = max(1, step // b_n), min(step, b_n)
    for a in range(0, len(pay), a_step):
        for b in range(0, b_n, b_step):
            cut = np.s_[a : a + a_step, :, b : b + b_step]
            # (T_k, rest columns, K); a copy only when it spans several a
            lots = probs[cut].swapaxes(0, 1).reshape(t_k, -1, probs.shape[3])
            u = np.einsum("sro,to->tsr", lots, values)
            u -= pay[cut].swapaxes(0, 1).reshape(t_k, -1)
            yield a * b_n + b, u


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
        pays = mech.payments.reshape(*sizes, mech.n)[np.ix_(*live)]
        rows = pays.reshape(-1, mech.n).tolist()
        acc = np.array(
            [sum(map(Fraction, row), Fraction(0)) for row in rows], dtype=object
        ).reshape(pays.shape[:-1])
        weights = [[ws[t] for t in ts] for ts, ws in zip(live, weights)]
    else:
        acc = mech.payments.sum(axis=1).reshape(sizes)
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

        # per slab, the smallest truthful utility and the largest gain (kept
        # negated), each with its first C-order index; the smallest
        # (value, index) over the slabs is the whole tensor's first extreme
        lows, highs = [], []
        slabs = expost_slabs(mech.domain, k, mech.probs, mech.payments[:, k], val)
        for r0, u in slabs:
            truthful = u[own, own]  # (T_k, rest columns)
            t, rest = np.unravel_index(np.argmin(truthful), truthful.shape)
            lows.append((float(truthful[t, rest]), int(t), r0 + int(rest)))
            gain, (t, s, rest) = max_gain(u, own)
            highs.append((-gain, t, s, r0 + rest))
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


def _rows_text(probs: np.ndarray, payments: np.ndarray, profiles: Iterator[str]) -> str:
    """The rows of one block of a table, comma-separated, each taking its
    profile text from ``profiles``."""
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
    # profiles last: zip stops at the end of bounds before taking a profile
    return ",".join(
        f'{{"entries":[{",".join(entries[a:b])}],"profile":[{profile}]}}'
        for a, b, profile in zip(bounds, bounds[1:], profiles)
    )


def serialize_mechanism(mech: MechanismTable) -> str:
    """Canonical text of a mechanism file: compact JSON with sorted keys.

    The rows are written piece by piece from the arrays, ``SERIALIZE_BLOCK_ROWS``
    rows at a time, and the block texts are joined once; their key order is
    fixed by hand (``entries`` < ``profile``; ``outcome`` < ``p`` < ``pay``),
    so the text equals ``json.dumps`` of the same document with
    ``sort_keys=True`` byte for byte.
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
        b = a + SERIALIZE_BLOCK_ROWS
        parts += (_rows_text(mech.probs[a:b], mech.payments[a:b], profiles), ",")
    parts[-1] = "]}"  # in place of the last block's comma
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
_STR = r'"[^"\\\x00-\x1f]*"'  # a string with no escapes or control characters


def _entry_pattern(n: int) -> re.Pattern:
    """One entry with n payments. Groups: the row opener if the entry starts
    a row, the outcome, p, the payment strings, the profile if the entry
    ends a row, and the comma that follows."""
    return re.compile(
        r'(\{"entries":\[)?\{"outcome":(-?(?:0|[1-9][0-9]*)),"p":"([^"\\\x00-\x1f]*)",'
        r'"pay":\[(' + _STR + r'(?:,' + _STR + r'){' + str(n - 1) + r'})\]\}'
        r'(?:\],"profile":\[([^\]]*)\]\})?(,?)'
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
    # the outputs before the parse, so its temporaries are freed above them
    probs = np.zeros((r, k))
    payments = np.zeros((r, n))
    _decode_rows(text, start, end, domain, probs, payments)
    return MechanismTable(
        domain=domain,
        space=space,
        probs=probs,
        payments=payments,
        meta=dict(header.get("meta", {})),
    )


def _decode_rows(
    text: str,
    start: int,
    end: int,
    domain: ProfileDomain,
    probs: np.ndarray,
    payments: np.ndarray,
) -> None:
    """Decode the rows text ``text[start:end]`` into ``probs`` and
    ``payments``, one block of about ``DECODE_BLOCK_CHARS`` characters at a
    time.

    A block runs on to the next ``_ROW_BREAK``, and is checked as the whole
    text would be: its entries tile it, so ``split`` leaves no text between
    them, it opens and ends a row, and every entry but its last ends with a
    comma, the last one too unless the block ends the rows. In a text that
    passes these checks ``_ROW_BREAK`` occurs only between rows, since no
    string or profile can hold it. So blocks accept and refuse what one
    block would, and an error names the same global row and entry numbers.
    """
    n = payments.shape[1]
    pattern = _entry_pattern(n)
    codes = {str(o): o for o in range(probs.shape[1])}
    expected_profiles = _profile_texts(domain)  # runs on across blocks
    row0 = 0  # rank of the block's first row
    while start < end:
        stop = text.find(_ROW_BREAK, start + DECODE_BLOCK_CHARS, end)
        stop = end if stop < 0 else stop + len(_ROW_BREAK) - len(_ROW_OPEN)
        # the text between matches, then each match's six groups
        parts = pattern.split(text[start:stop])
        opener, outcome, p, pay, profile, comma = (parts[g::7] for g in range(1, 7))
        tiled = not any(parts[::7])
        del parts
        opens = np.fromiter(map(bool, opener), bool, len(opener))
        closes = np.fromiter(map(bool, profile), bool, len(profile))
        if not (
            tiled and opener
            and opens[0] and closes[-1] and np.array_equal(opens[1:], closes[:-1])
            and all(comma[:-1]) and bool(comma[-1]) == (stop < end)
        ):
            raise _layout_error("the rows text is not a list of such rows")

        row = np.cumsum(opens) - 1  # each entry's row rank in the block
        first = np.flatnonzero(opens)  # each row's entry 0

        def where(j: int) -> str:
            return f"row {row0 + row[j]} entry {j - first[row[j]]}"

        profiles = list(filter(None, profile))
        del profile
        expected = list(itertools.islice(expected_profiles, len(profiles)))
        bad = next(itertools.compress(
            itertools.count(), map(str.__ne__, profiles, expected)
        ), None)
        if bad is not None:
            raise ParseError(
                f"row {row0 + bad}: profile [{profiles[bad]}] out of order;"
                f" expected [{expected[bad]}]"
            )
        del profiles, expected

        outs = np.fromiter(
            map(codes.get, outcome, itertools.repeat(-1)), np.int64, len(outcome)
        )
        if (outs < 0).any():
            j = int(np.argmax(outs < 0))
            raise ParseError(f"{where(j)}: outcome {outcome[j]} outside the space")
        p = _numbers(p, where)
        pay = _numbers(",".join(pay)[1:-1].split('","'), lambda i: where(i // n))
        pay = pay.reshape(-1, n)
        disagree = (pay != pay[first[row]]).any(axis=1)
        if disagree.any():
            j = int(np.argmax(disagree))
            raise ParseError(
                f"{where(j)}: payments {pay[j].tolist()} disagree with entry 0"
            )
        # each row's last entry, as a sequential read keeps
        payments[row0 : row0 + len(first)] = pay[closes]
        np.add.at(probs, (row0 + row, outs), p)
        total = np.zeros(len(first))
        np.add.at(total, row, p)  # in entry order, as a running sum
        off = ~(np.abs(total - 1.0) <= 1e-9)
        if off.any():
            bad = int(np.argmax(off))
            raise ParseError(
                f"row {row0 + bad}: lottery probabilities sum to {float(total[bad])!r}"
            )
        row0 += len(first)
        start = stop


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
