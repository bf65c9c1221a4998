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
    "type_weights",
    "rest_weights",
    "interim_utilities",
    "expost_utilities",
    "max_gain",
    "revenue",
    "interim_form",
    "regret_report",
    "audit_over_domain",
    "serialize_mechanism",
    "deserialize_mechanism",
]

# cells of the one (T_values, T_k, R_rest) ex-post utility tensor; 1e8
# doubles are 800 MB
EXPOST_CELL_BUDGET = 10**8


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


def axis_views(mech: MechanismTable, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Lottery and payment tensors with bidder k's type axis first.

    Returns probs as (T_k, R_rest, K) and bidder k's payments as
    (T_k, R_rest); the rest axis enumerates other bidders' types in bidder
    order, consistent with ``ProfileDomain.split_rank`` and ``rest_weights``.
    """
    sizes = [mech.domain.bidder_type_count(i) for i in range(mech.n)]
    probs = mech.probs.reshape(*sizes, mech.space.num_outcomes)
    pay = mech.payments[:, k].reshape(*sizes)
    probs = np.moveaxis(probs, k, 0).reshape(sizes[k], -1, mech.space.num_outcomes)
    pay = np.moveaxis(pay, k, 0).reshape(sizes[k], -1)
    return probs, pay


def interim_utilities(
    mech: MechanismTable, prior: ProductPrior, k: int, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Interim utility ``u[t, r]`` of value row ``values[t]`` reporting
    bidder k's domain type r, the others' types drawn from the prior, and
    the interim expected payment of each report r."""
    weights = [[float(w) for w in ws] for ws in type_weights(mech.domain, prior)]
    w_rest = rest_weights(weights, k)
    probs_view, pay_view = axis_views(mech, k)
    cp = np.einsum("sro,r->so", probs_view, w_rest)  # (T_k, K)
    cpay = pay_view @ w_rest  # (T_k,)
    return values @ cp.T - cpay[None, :], cpay


def expost_utilities(mech: MechanismTable, k: int, values: np.ndarray) -> np.ndarray:
    """``u[t, s, rest]``: ex-post utility of value row ``values[t]``
    reporting bidder k's domain type s against the others' profile rest,
    over the mechanism's randomness only. Raises ``CapacityError`` when the
    tensor would exceed ``EXPOST_CELL_BUDGET`` cells."""
    cells = len(values) * mech.domain.num_profiles
    if cells > EXPOST_CELL_BUDGET:
        raise CapacityError(
            f"ex-post utility tensor of bidder {k} has {cells} cells, over the "
            f"{EXPOST_CELL_BUDGET} budget"
        )
    probs_view, pay_view = axis_views(mech, k)
    u = np.einsum("sro,to->tsr", probs_view, values)
    u -= pay_view
    return u


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

        u = expost_utilities(mech, k, val)
        truthful = u[own, own]  # (T_k, R_rest)
        t, rest = np.unravel_index(np.argmin(truthful), truthful.shape)
        if truthful[t, rest] < ir:
            ir = float(truthful[t, rest])
            ir_wit = {"bidder": k, "type": types[t], "rest_rank": int(rest)}
        gain, (t, s, rest) = max_gain(u, own)
        if gain > dsic:
            dsic = gain
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


def serialize_mechanism(mech: MechanismTable) -> str:
    """Canonical text of a mechanism file: compact JSON with sorted keys.

    The rows are written piece by piece from the arrays; their key order is
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
    types = [
        [",".join(map(str, t)) for t in dom.bidder_types(i).tolist()]
        for i in range(dom.n)
    ]
    profiles = map(",".join, itertools.product(*types))  # rank order
    pay_texts = map(repr, mech.payments.ravel().tolist())
    # one shared iterator, so zip yields each row's n payments in turn
    pays = ['"' + '","'.join(row) + '"' for row in zip(*[pay_texts] * dom.n)]
    rank, outcome = np.nonzero(mech.probs != 0.0)
    entries = [
        f'{{"outcome":{o},"p":"{p!r}","pay":[{pays[r]}]}}'
        for r, o, p in zip(
            rank.tolist(), outcome.tolist(), mech.probs[rank, outcome].tolist()
        )
    ]
    bounds = np.searchsorted(rank, np.arange(dom.num_profiles + 1)).tolist()
    rows = ",".join(
        f'{{"entries":[{",".join(entries[a:b])}],"profile":[{profile}]}}'
        for profile, a, b in zip(profiles, bounds, bounds[1:])
    )
    head = json.dumps(header, sort_keys=True, separators=(",", ":"))
    return f'{{"header":{head},"rows":[{rows}]}}'


def deserialize_mechanism(text: str) -> MechanismTable:
    """Load a mechanism file; any malformed content raises ParseError."""
    try:
        doc = json.loads(text)
        return _decode_mechanism(doc["header"], doc["rows"])
    except ParseError:
        raise
    except (
        UsageError, KeyError, TypeError, ValueError, AttributeError, OverflowError
    ) as exc:
        raise ParseError(f"mechanism file is not valid: {exc}") from exc


def _decode_mechanism(header: dict, rows: list) -> MechanismTable:
    if header.get("format") != _FORMAT:
        raise ParseError(f"unknown mechanism format {header.get('format')!r}")
    n, m = int(header["n"]), int(header["m"])
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
    if header["domain"] == "full":
        # count before enumerating: a corrupt grid step can be huge
        _check_row_count(spec.levels ** (n * m), rows)
        domain = ProfileDomain.full_grid(spec, n, m)
    else:
        domain = ProfileDomain(
            spec=spec,
            supports=tuple(
                tuple(tuple(cell) for cell in row) for row in header["domain"]
            ),
        )
    r, k = domain.num_profiles, space.num_outcomes
    _check_row_count(r, rows)
    probs = np.zeros((r, k))
    payments = np.zeros((r, n))
    for rank, (row, profile) in enumerate(zip(rows, domain.profiles())):
        flat = [idx for bidder in profile for idx in bidder]
        if row.get("profile") != flat:
            raise ParseError(
                f"row {rank}: profile {row.get('profile')} out of order; expected {flat}"
            )
        total = 0.0
        for e, entry in enumerate(row.get("entries", [])):
            where = f"row {rank} entry {e}"
            o = int(entry["outcome"])
            if not (0 <= o < k):
                raise ParseError(f"{where}: outcome {o} outside the space")
            p = _num_from_str(entry["p"], where)
            probs[rank, o] += p
            total += p
            pay = [_num_from_str(x, where) for x in entry["pay"]]
            if e and pay != payments[rank].tolist():
                raise ParseError(f"{where}: payments {pay} disagree with entry 0")
            payments[rank] = pay
        if not abs(total - 1.0) <= 1e-9:
            raise ParseError(f"row {rank}: lottery probabilities sum to {total!r}")
    return MechanismTable(
        domain=domain,
        space=space,
        probs=probs,
        payments=payments,
        meta=dict(header.get("meta", {})),
    )


def _check_row_count(expected: int, rows: list) -> None:
    if len(rows) != expected:
        raise ParseError(
            f"expected {expected} rows for the declared domain, got {len(rows)}"
        )
