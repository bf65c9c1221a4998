"""Factored mechanism tables: a few candidate rows and a per-profile index.

Every stage reads the factored form, so each is checked against the dense
gather of the same table: the audit against ``_reference_audit``, the
interim contraction against the view-based one it replaced, the file
against a round trip, and the learn against a table-sized allocation.
"""

import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mechlearn import (
    GridSpec,
    MechanismTable,
    PriorCell,
    PriorDescription,
    ProfileDomain,
    ValuationModel,
    deserialize_mechanism,
    enumerate_multi_item,
    learn_dsic,
    sample_prior,
    serialize_mechanism,
)
from mechlearn import mechanism, oracle
from mechlearn.mechanism import (
    audit_over_domain,
    interim_utilities,
    rest_weights,
    type_axis_first,
    type_weights,
)

from conftest import dense, product_prior
from test_audit_reference import _reference_audit


def _reference_interim_utilities(mech, prior, k, values):
    """The interim contraction over views of the dense table, as it was
    before tables were factored."""
    weights = [[float(w) for w in ws] for ws in type_weights(mech.domain, prior)]
    w_rest = rest_weights(weights, k)
    t_k, b_n = mech.domain.bidder_type_count(k), int(mech.domain.bidder_strides()[k])
    probs, pay = dense(mech)
    probs = probs.reshape(-1, t_k, b_n, probs.shape[1])
    cp = np.einsum("asbo,ab->so", probs, w_rest.reshape(-1, b_n))
    cpay = type_axis_first(mech.domain, k, pay[:, k]) @ w_rest
    return values @ cp.T - cpay[None, :], cpay


def _dense(mech: MechanismTable) -> MechanismTable:
    probs, pay = dense(mech)
    return MechanismTable(
        domain=mech.domain, space=mech.space, probs=probs, payments=pay, meta=mech.meta
    )


@st.composite
def _factored_cases(draw):
    """A full-grid table of a few candidate rows, a prior and a model.

    Each profile plays a candidate picked by its bidders' types coarsened
    modulo small numbers, so most rest columns repeat; lotteries are often
    pure and payments half-units, so utilities tie within and across
    columns; two candidates differ only in a ``-0.0`` and ``0.0`` payment."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 2)) if n < 3 else 1
    levels = draw(st.integers(2, 4 if n * m < 4 else 2))
    spec = GridSpec(epsilon=0.5, h=0.5 * (levels - 1))
    domain = ProfileDomain.full_grid(spec, n, m)
    space = enumerate_multi_item(n, m)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k_out, c = space.num_outcomes, draw(st.integers(1, 6))
    probs = rng.dirichlet(np.full(k_out, 0.5), size=c)
    pure = rng.random(c) < 0.5
    probs[pure] = np.eye(k_out)[rng.integers(0, k_out, size=int(pure.sum()))]
    payments = rng.choice([0.0, 0.5, 1.0, 1.5, 0.25 * levels], size=(c, n))
    # the -0.0 twin of candidate 0, kept apart from it
    probs = np.vstack([probs, probs[:1]])
    payments = np.vstack([payments, np.where(payments[:1] == 0.0, -0.0, payments[:1])])
    types = domain.type_ranks()
    coarse = [draw(st.sampled_from([1, 2, domain.bidder_type_count(i)])) for i in range(n)]
    key = sum((types[:, i] % coarse[i]) * int(np.prod(coarse[:i])) for i in range(n))
    src = rng.integers(0, c + 1, size=int(np.prod(coarse)))[key]
    mech = MechanismTable(
        domain=domain, space=space, probs=probs, payments=payments, src=src
    )
    cells = [
        [
            {t: Fraction(int(w), 10) for t, w in enumerate(rng.multinomial(10, [1 / levels] * levels)) if w}
            for _ in range(m)
        ]
        for _ in range(n)
    ]
    model = ValuationModel(tag=draw(st.sampled_from(["additive", "unit_demand"])))
    return mech, product_prior(spec, cells), model


@settings(max_examples=200, deadline=None)
@given(case=_factored_cases(), slab_cells=st.sampled_from([None, 1]))
def test_factored_audit_equals_the_reference_on_the_dense_table(case, slab_cells):
    mech, prior, model = case
    dense = _dense(mech)
    # one column a slab makes ties span slabs
    chunk = mechanism.EXPOST_CHUNK_CELLS if slab_cells is None else slab_cells
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mechanism, "EXPOST_CHUNK_CELLS", chunk)
        assert audit_over_domain(mech, prior, model) == _reference_audit(dense, prior, model)
        for k in range(mech.n):
            values = model.value_table(mech.space, mech.domain.spec, k)
            got = interim_utilities(mech, prior, k, values)
            want = _reference_interim_utilities(dense, prior, k, values)
            assert [a.tobytes() for a in got] == [b.tobytes() for b in want]


def _distinct_entries(text: str) -> int:
    rows = json.loads(text)["rows"]
    return len({json.dumps(row["entries"], sort_keys=True) for row in rows})


@settings(max_examples=100, deadline=None)
@given(
    case=_factored_cases(),
    block=st.sampled_from([None, 40]),
    kept=st.sampled_from([None, 0, 200]),
)
def test_factored_tables_round_trip(case, block, kept):
    mech = case[0]
    text = serialize_mechanism(mech)
    assert text == serialize_mechanism(_dense(mech))
    with pytest.MonkeyPatch.context() as patch:
        if block is not None:
            patch.setattr(mechanism, "DECODE_BLOCK_CHARS", block)
        if kept is not None:
            patch.setattr(mechanism, "DECODE_DISTINCT_CHARS", kept)
        back = deserialize_mechanism(text)
    assert serialize_mechanism(back) == text
    (back_probs, back_pay), (probs, pay) = dense(back), dense(mech)
    assert back_probs.tobytes() == probs.tobytes()
    assert back_pay.tobytes() == pay.tobytes()
    if kept is None:
        # each distinct entries text is one candidate, -0.0 apart from 0.0
        assert len(back.rows_probs) == _distinct_entries(text)
    if kept == 0:
        assert len(back.rows_probs) == mech.domain.num_profiles


def test_learn_and_serialize_allocate_nothing_the_size_of_the_dense_table(additive):
    # n = 2, m = 4 on a three-level grid: 6561 profiles of 81 outcomes, a
    # dense lottery table of 4.25 MB and a file of about 0.6 MB
    cell = PriorCell("uniform", {"low": 0.0, "high": 1.0})
    desc = PriorDescription(n=2, m=4, h=1.0, cells=((cell,) * 4,) * 2)
    samples = sample_prior(desc, 2, 4, 2, seed=3)
    space = enumerate_multi_item(2, 4)
    oracle._highs()  # SciPy's first import is not the learn's to count
    tracemalloc.start()
    try:
        inner = learn_dsic(samples, 0.5, space, additive).inner
        text = serialize_mechanism(inner)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    dense = inner.domain.num_profiles * space.num_outcomes * 8
    assert inner.domain.is_full_grid and dense > 4 * 10**6
    assert len(inner.rows_probs) < inner.domain.num_profiles / 10
    assert peak < dense / 2, f"peak {peak} bytes against a dense table of {dense}"
    assert text == serialize_mechanism(_dense(inner))
