"""The extension tables against the implementations they replaced.

``_reference_extend_bic``, ``_reference_extend_dsic`` and
``_reference_menu_selection`` are the previous implementations, kept here
verbatim: the DSIC table was zero-filled and then written per case, and the
menu choice was a loop over types. Every table must come out equal byte for
byte, so a ``-0.0`` where the reference has ``0.0`` is a difference, and
wherever a reference raises, the new function raises the same error with the
same text.
"""

import dataclasses
import functools
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mechlearn import (
    GridSpec,
    MechanismTable,
    MechlearnError,
    ProfileDomain,
    ValuationModel,
    enumerate_multi_item,
    extend_bic,
    extend_dsic,
)
from mechlearn import mechanism
from mechlearn.errors import InvariantError, UsageError
from mechlearn.grid import ProductPrior
from mechlearn.learner import Menu, MenuEntry, menu_mechanism, menu_selection
from mechlearn.mechanism import expost_columns, rest_columns
from mechlearn.oracle import bic_replacement_map
from mechlearn.outcomes import (
    ClosureResult,
    OutcomeSpace,
    check_weakly_downward_closed,
    single_parameter_space,
)

from conftest import dense, product_prior


def _reference_extend_bic(
    mech: MechanismTable,
    prior: ProductPrior,
    model: ValuationModel,
) -> MechanismTable:
    """Algorithm-level best-response extension of a support mechanism."""
    replace = [bic_replacement_map(mech, prior, model, k) for k in range(mech.n)]
    strides = mech.domain.bidder_strides()
    parts = [replace[i] * strides[i] for i in range(mech.n)]
    src = functools.reduce(np.add.outer, parts).reshape(-1)
    full_domain = ProfileDomain.full_grid(mech.domain.spec, mech.n, mech.m)
    sup_probs, sup_pay = dense(mech)
    return MechanismTable(
        domain=full_domain,
        space=mech.space,
        probs=sup_probs[src],
        payments=sup_pay[src],
        meta={**mech.meta, "extension": "bic_best_response"},
    )


def _reference_extend_dsic(
    mech: MechanismTable,
    space: OutcomeSpace,
    model: ValuationModel,
    closure: ClosureResult,
) -> MechanismTable:
    """Algorithm-level zero-out extension of a support mechanism.

    A lone off-support bidder's best reply and its utility, per (full-grid
    type, rest profile), come from one pass over ``expost_columns``, whose
    ``EXPOST_CELL_BUDGET`` bounds T_full * T_supp cells and
    ``EXPOST_CHUNK_CELLS`` the cells held at once."""
    if not closure.closed or closure.witness is None:
        raise UsageError(
            "outcome space is not weakly downward closed (or the closure "
            "check was not run); verify downward closure first"
        )
    domain = mech.domain
    spec = domain.spec
    n, m = mech.n, mech.m
    # before the full table: value_table raises CapacityError on a huge grid
    values = [model.value_table(space, spec, k) for k in range(n)]
    k_out = space.num_outcomes
    sup_probs, sup_pay = dense(mech)

    full_domain = ProfileDomain.full_grid(spec, n, m)
    r_full = full_domain.num_profiles
    probs = np.zeros((r_full, k_out))
    payments = np.zeros((r_full, n))

    # bidder i's full-grid type and support type rank (-1 off-support) at
    # each full profile rank, and off counts
    digits = full_domain.type_ranks()  # (R_full, n)
    supp = np.stack(
        [domain.grid_to_domain(i)[digits[:, i]] for i in range(n)], axis=1
    )
    off = supp < 0
    off_counts = off.sum(axis=1)
    # support profile rank, reading an off-support bidder's rank as 0
    src = np.maximum(supp, 0) @ domain.bidder_strides()

    # all bidders on-support: copy the corresponding support row
    on_all = off_counts == 0
    probs[on_all] = sup_probs[src[on_all]]
    payments[on_all] = sup_pay[src[on_all]]

    # two or more off-support bidders: priceless zero outcome
    many_off = off_counts >= 2
    if np.any(many_off):
        if closure.zero_outcome is None:
            raise InvariantError(
                "closed space provided no all-zero outcome for the zero-out rule"
            )
        probs[many_off, closure.zero_outcome] = 1.0

    # Exactly one off-support bidder: best reply, played via the witness.
    # Her reply set includes walking away (zero outcome, zero payment) when
    # the space offers one; without it, a type below the whole support could
    # be forced to pay above her value, breaking the IR the oracle promises.
    for k in range(n):
        group = (off_counts == 1) & off[:, k]
        ranks = np.flatnonzero(group)
        if ranks.size == 0:
            continue
        # per (full-grid type, rest): the best reply, lex-smallest on ties,
        # and its utility
        shape = (len(values[k]), domain.num_profiles // domain.bidder_type_count(k))
        best, top = np.empty(shape, dtype=np.int64), np.empty(shape)
        columns = rest_columns(domain, k)
        slabs = expost_columns(sup_probs, sup_pay[:, k], columns, values[k])
        for r0, u in slabs:  # (T_full, T_supp, rest)
            best[:, r0 : r0 + u.shape[2]] = np.argmax(u, axis=1)
            top[:, r0 : r0 + u.shape[2]] = np.max(u, axis=1)

        _, rest_rank = domain.split_rank(k, src[ranks])
        chosen = best[digits[ranks, k], rest_rank]
        src_rank = domain.join_rank(k, chosen, rest_rank)

        wit = closure.witness[:, k]
        scatter = np.zeros((k_out, k_out))
        scatter[np.arange(k_out), wit] = 1.0
        probs[ranks] = sup_probs[src_rank] @ scatter
        payments[ranks, k] = sup_pay[src_rank, k]
        if closure.zero_outcome is not None:
            declines = top[digits[ranks, k], rest_rank] < 0.0
            out_ranks = ranks[declines]
            probs[out_ranks] = 0.0
            probs[out_ranks, closure.zero_outcome] = 1.0
            payments[out_ranks, k] = 0.0

    return MechanismTable(
        domain=full_domain,
        space=space,
        probs=probs,
        payments=payments,
        meta={**mech.meta, "extension": "dsic_zero_out"},
    )


def _reference_menu_selection(
    menu: Menu, model: ValuationModel, spec: GridSpec
) -> np.ndarray:
    """Chosen entry per grid type: utility argmax, ties toward the highest
    payment, then the earliest entry."""
    u = menu.utilities(model, spec)
    pay = np.array([e.payment for e in menu.entries])
    choice = np.zeros(u.shape[0], dtype=np.int64)
    for t in range(u.shape[0]):
        best = u[t].max()
        cands = np.flatnonzero(u[t] == best)
        choice[t] = int(cands[np.argmax(pay[cands])])
    return choice


def _reference_menu_mechanism(
    menu: Menu, model: ValuationModel, spec: GridSpec
) -> MechanismTable:
    """Single-bidder mechanism that lets every grid type pick from the menu."""
    choice = _reference_menu_selection(menu, model, spec)
    domain = ProfileDomain.full_grid(spec, 1, menu.space.m)
    probs = np.stack([menu.entries[c].probs for c in choice], axis=0)
    payments = np.array([[menu.entries[c].payment] for c in choice])
    return MechanismTable(
        domain=domain,
        space=menu.space,
        probs=probs,
        payments=payments,
        meta={"pipeline": "menu_selection"},
    )


def _outcome(fn, *args):
    """What ``fn(*args)`` returns, or the type and text of what it raises."""
    try:
        return fn(*args)
    except MechlearnError as exc:
        return type(exc), str(exc)


def _assert_same_table(new, old) -> None:
    if isinstance(old, tuple):
        assert new == old
        return
    assert isinstance(new, MechanismTable)
    assert new.domain == old.domain and new.space is old.space
    assert new.meta == old.meta
    for a, b in zip(dense(new), dense(old)):
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()


@st.composite
def _cases(draw):
    """A support mechanism, a prior on its support and a model, on a grid of
    2 to 4 levels; for n = 1, sometimes a space with no outcome worth zero."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    levels = draw(st.integers(2, 4))
    spec = GridSpec(epsilon=0.5, h=0.5 * (levels - 1))
    model = ValuationModel(tag=draw(st.sampled_from(["additive", "unit_demand"])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if n == 1 and draw(st.booleans()):
        # every outcome gives the bidder something of every item
        k_out = draw(st.integers(1, 4))
        space = OutcomeSpace(
            kind="custom", n=1, m=m, alloc=rng.choice([0.5, 1.0], size=(k_out, 1, m))
        )
    else:
        space = enumerate_multi_item(n, m)
    supports = tuple(
        tuple(
            tuple(sorted(draw(st.sets(st.integers(0, levels - 1), min_size=1))))
            for _ in range(m)
        )
        for _ in range(n)
    )
    domain = ProfileDomain(spec=spec, supports=supports)
    r, k_out = domain.num_profiles, space.num_outcomes
    probs = rng.dirichlet(np.full(k_out, 0.5), size=r)
    pure = rng.random(r) < 0.3
    probs[pure] = np.eye(k_out)[rng.integers(0, k_out, size=int(pure.sum()))]
    top = draw(st.sampled_from([0.5, spec.h, 2.0 * m * spec.h]))
    payments = rng.uniform(0.0, top, size=(r, n))
    exact = rng.random((r, n)) < 0.4  # ties, and zeros of either sign
    payments[exact] = rng.choice([0.0, -0.0, 0.5, top], size=int(exact.sum()))
    mech = MechanismTable(domain=domain, space=space, probs=probs, payments=payments)
    cells = []
    for row in supports:
        cells.append([])
        for cell in row:
            weights = rng.integers(1, 4, size=len(cell))
            total = int(weights.sum())
            cells[-1].append({idx: Fraction(int(w), total) for idx, w in zip(cell, weights)})
    prior = product_prior(spec, cells)
    return mech, prior, model


@settings(max_examples=300, deadline=None)
@given(
    case=_cases(),
    closure_edit=st.sampled_from([None, None, None, "no_zero_outcome", "open"]),
    budget=st.sampled_from([None, None, None, 1, 8, 40]),
)
def test_extensions_equal_the_reference(case, closure_edit, budget):
    mech, prior, model = case
    space = mech.space
    closure = check_weakly_downward_closed(space, model, mech.domain.spec)
    if closure_edit == "no_zero_outcome":
        closure = dataclasses.replace(closure, zero_outcome=None)
    elif closure_edit == "open":
        closure = dataclasses.replace(closure, closed=False, witness=None)
    budget = mechanism.EXPOST_CELL_BUDGET if budget is None else budget
    with mock.patch.object(mechanism, "EXPOST_CELL_BUDGET", budget):
        _assert_same_table(
            _outcome(extend_dsic, mech, space, model, closure),
            _outcome(_reference_extend_dsic, mech, space, model, closure),
        )
        _assert_same_table(
            _outcome(extend_bic, mech, prior, model),
            _outcome(_reference_extend_bic, mech, prior, model),
        )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lone_off_support_types_that_decline_equal_the_reference(n, additive):
    # one item on a four-level grid, every bidder on the top type only, and
    # the item sold to bidder 0 at 1.5 wherever she is on the support: a
    # lower type of bidder 0 alone off the support declines, the others
    # reply for free
    spec = GridSpec(epsilon=0.5, h=1.5)
    space = enumerate_multi_item(n, 1)
    domain = ProfileDomain(spec=spec, supports=(((3,),),) * n)
    probs = np.eye(space.num_outcomes)[[1]]
    payments = np.zeros((1, n))
    payments[0, 0] = 1.5
    mech = MechanismTable(domain=domain, space=space, probs=probs, payments=payments)
    closure = check_weakly_downward_closed(space, additive, spec)
    new = extend_dsic(mech, space, additive, closure)
    _assert_same_table(new, _reference_extend_dsic(mech, space, additive, closure))
    full = new.domain
    new_probs, new_pay = dense(new)
    for t in range(3):  # bidder 0 at type t, the others on the support
        rank = full.profile_rank([[t]] + [[3]] * (n - 1))
        assert new_probs[rank, closure.zero_outcome] == 1.0
        assert not new_pay[rank].any()
    assert new_pay[full.profile_rank([[3]] * n), 0] == 1.5


@st.composite
def _menus(draw):
    """A single-bidder space, a model, and a menu whose payments and
    lotteries repeat, so that utilities and payments tie."""
    m = draw(st.integers(1, 2))
    levels = draw(st.integers(2, 5))
    spec = GridSpec(epsilon=0.5, h=0.5 * (levels - 1))
    model = ValuationModel(tag=draw(st.sampled_from(["additive", "unit_demand"])))
    if m == 1 and draw(st.booleans()):
        space = single_parameter_space([[0.5], [1.0]])
    else:
        space = enumerate_multi_item(1, m)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k_out = space.num_outcomes
    entries = []
    for _ in range(draw(st.integers(1, 8))):
        if rng.random() < 0.5:
            probs = np.eye(k_out)[rng.integers(0, k_out)]
        else:
            probs = rng.dirichlet(np.ones(k_out))
        entries.append(MenuEntry(probs=probs, payment=float(rng.integers(0, 2 * levels)) / 4))
    entries += [entries[i] for i in rng.integers(0, len(entries), size=draw(st.integers(0, 3)))]
    return Menu(space=space, entries=tuple(entries)), model, spec


@settings(max_examples=300, deadline=None)
@given(case=_menus())
def test_menu_selection_equals_the_reference(case):
    menu, model, spec = case
    new, old = menu_selection(menu, model, spec), _reference_menu_selection(menu, model, spec)
    assert (new.dtype, new.tobytes()) == (old.dtype, old.tobytes())
    _assert_same_table(
        menu_mechanism(menu, model, spec), _reference_menu_mechanism(menu, model, spec)
    )


def test_extend_dsic_peak_stays_under_twice_its_table(additive):
    # n = 3, m = 1 on a 32-level grid: 32768 profiles of 4 outcomes, four
    # support types a bidder
    spec = GridSpec(epsilon=1.0, h=31.0)
    space = enumerate_multi_item(3, 1)
    domain = ProfileDomain(spec=spec, supports=(((3, 11, 20, 28),),) * 3)
    rng = np.random.default_rng(0)
    mech = MechanismTable(
        domain=domain,
        space=space,
        probs=rng.dirichlet(np.ones(space.num_outcomes), size=domain.num_profiles),
        payments=rng.uniform(0.0, 20.0, size=(domain.num_profiles, 3)),
    )
    closure = check_weakly_downward_closed(space, additive, spec)
    tracemalloc.start()
    try:
        table = extend_dsic(mech, space, additive, closure)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    probs, pay = dense(table)
    assert peak < 2.0 * (probs.nbytes + pay.nbytes)
    _assert_same_table(table, _reference_extend_dsic(mech, space, additive, closure))
