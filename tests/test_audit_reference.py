"""The deviation-gain kernel against the two-tensor audit it replaced.

``_reference_audit`` and ``_reference_lattice_*`` are the previous
implementations, kept here verbatim in their arithmetic: the truthful
ex-post utility from its own ``"tro,to->tr"`` contraction, a separate gain
tensor, and one lattice per bidder. Every report field, every witness and
both lattice regrets must come out equal, not approximately equal.

``expost_utilities`` is the whole-tensor kernel that ``expost_columns``
replaced; the streamed reductions are checked against it with one rest
column per slab, so that ties span slabs.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mechlearn import (
    CapacityError,
    GridSpec,
    MechanismTable,
    OracleProblem,
    PriorCell,
    PriorDescription,
    ProfileDomain,
    ValuationModel,
    enumerate_multi_item,
    extend_bic,
    extend_dsic,
    learn_bic,
    learn_dsic,
    regret_report,
    sample_prior,
    solve_optimal,
)
from mechlearn import mechanism
from mechlearn.grid import round_down_indices
from mechlearn.learner import (
    LearnedMechanism,
    real_lattice_bic_regret,
    real_lattice_dsic_regret,
)
from mechlearn.mechanism import (
    RegretReport,
    audit_over_domain,
    domain_values,
    expost_columns,
    interim_utilities,
    rest_columns,
    serialize_mechanism,
)
from mechlearn.oracle import FEASIBILITY_TOL, bic_replacement_map
from mechlearn.outcomes import check_weakly_downward_closed, grid_type_ranks

from conftest import axis_views, dense, posted_price_table, product_prior


def _old_expost(probs_view, pay_view, values):
    return np.einsum("sro,to->tsr", probs_view, values) - pay_view[None, :, :]


def expost_utilities(mech, k, values):
    """``u[t, s, rest]``: the whole ex-post utility tensor of value row
    ``values[t]`` reporting bidder k's domain type s against the others'
    profile rest, in one allocation."""
    return _old_expost(*axis_views(mech, k), values)


def _reference_replacement_map(mech, prior, model, k):
    val_full = model.value_table(mech.space, mech.domain.spec, k)
    utilities, _ = interim_utilities(mech, prior, k, val_full)
    safe = expost_utilities(mech, k, val_full).min(axis=2) >= -FEASIBILITY_TOL
    safe[~safe.any(axis=1)] = True
    best = np.argmax(np.where(safe, utilities, -np.inf), axis=1)
    to_support = mech.domain.grid_to_domain(k)
    return np.where(to_support >= 0, to_support, best).astype(np.int64)


def _reference_audit(mech, prior, model) -> RegretReport:
    bic_best, bic_wit = 0.0, {}
    dsic_best, dsic_wit = 0.0, {}
    ir_best, ir_wit = np.inf, {}
    for k in range(mech.n):
        types = mech.domain.bidder_types(k)
        u = interim_utilities(
            mech, prior, k, domain_values(mech.domain, mech.space, model, k)
        )[0]
        gain = u - np.diag(u)[:, None]
        t, r = np.unravel_index(np.argmax(gain), gain.shape)
        if gain[t, r] > bic_best:
            bic_best = float(gain[t, r])
            bic_wit = {
                "bidder": k,
                "true_type": types[t].tolist(),
                "report": types[r].tolist(),
            }

        probs_view, pay_view = axis_views(mech, k)
        val = model.values_for(mech.space, k, types * mech.domain.spec.epsilon)
        u_expost = _old_expost(probs_view, pay_view, val)
        truth = np.einsum("tro,to->tr", probs_view, val) - pay_view
        gain_x = u_expost - truth[:, None, :]
        t, s, rest = np.unravel_index(np.argmax(gain_x), gain_x.shape)
        if gain_x[t, s, rest] > dsic_best:
            dsic_best = float(gain_x[t, s, rest])
            dsic_wit = {
                "bidder": k,
                "true_type": types[t].tolist(),
                "report": types[s].tolist(),
                "rest_rank": int(rest),
            }
        t, rest = np.unravel_index(np.argmin(truth), truth.shape)
        if truth[t, rest] < ir_best:
            ir_best = float(truth[t, rest])
            ir_wit = {"bidder": k, "type": types[t].tolist(), "rest_rank": int(rest)}
    return RegretReport(
        bic_regret=max(bic_best, 0.0),
        dsic_regret=max(dsic_best, 0.0),
        ir_slack=float(ir_best),
        bic_witness=bic_wit,
        dsic_witness=dsic_wit,
        ir_witness=ir_wit,
    )


def _old_lattice_points(spec, m, per_coord):
    axis = np.linspace(0.0, spec.h, per_coord)
    mesh = np.meshgrid(*([axis] * m), indexing="ij")
    return np.stack([g.reshape(-1) for g in mesh], axis=1)


def _reference_lattice_bic(mech, prior, model, per_coord):
    inner, spec, worst = mech.inner, mech.spec, 0.0
    for k in range(mech.n):
        pts = _old_lattice_points(spec, mech.m, per_coord)
        val_real = model.values_for(inner.space, k, pts)
        u, _ = interim_utilities(inner, prior, k, val_real)
        idx = np.stack(
            [round_down_indices(pts[:, j], spec) for j in range(mech.m)], axis=1
        )
        truth_rank = grid_type_ranks(idx, spec.levels)
        truthful = u[np.arange(u.shape[0]), truth_rank]
        worst = max(worst, float(np.max(u - truthful[:, None])))
    return max(worst, 0.0)


def _reference_lattice_dsic(mech, model, per_coord):
    inner, spec, worst = mech.inner, mech.spec, 0.0
    for k in range(mech.n):
        probs_view, pay_view = axis_views(inner, k)
        pts = _old_lattice_points(spec, mech.m, per_coord)
        val_real = model.values_for(inner.space, k, pts)
        u = _old_expost(probs_view, pay_view, val_real)
        idx = np.stack(
            [round_down_indices(pts[:, j], spec) for j in range(mech.m)], axis=1
        )
        truth_rank = grid_type_ranks(idx, spec.levels)
        truthful = u[np.arange(u.shape[0]), truth_rank, :]
        worst = max(worst, float(np.max(u - truthful[:, None, :])))
    return max(worst, 0.0)


SPEC = GridSpec(epsilon=0.5, h=1.5)  # four levels
MODELS = (ValuationModel(tag="additive"), ValuationModel(tag="unit_demand"))


def _random_cell(rng, pool):
    size = int(rng.integers(1, len(pool) + 1))
    return tuple(sorted(rng.choice(pool, size=size, replace=False).tolist()))


def _random_case(seed: int):
    """A random table (uneven supports unless full) and a prior inside it.
    Half the tables use point lotteries and half-unit payments, so many
    utilities tie exactly and the first-index tie order is exercised."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    m = int(rng.integers(1, 3)) if n < 3 else 1
    full = seed % 3 == 0
    levels = list(range(SPEC.levels))
    supports = tuple(
        tuple(tuple(levels) if full else _random_cell(rng, levels) for _ in range(m))
        for _ in range(n)
    )
    domain = ProfileDomain(spec=SPEC, supports=supports)
    space = enumerate_multi_item(n, m)
    r, k = domain.num_profiles, space.num_outcomes
    if seed % 2:
        probs = np.eye(k)[rng.integers(0, k, size=r)]
        payments = rng.integers(0, 4, size=(r, n)) * 0.5
    else:
        probs = rng.dirichlet(np.ones(k), size=r)
        payments = rng.uniform(-0.5, 2.0, size=(r, n))
    mech = MechanismTable(domain=domain, space=space, probs=probs, payments=payments)
    cells = [
        [
            {
                idx: Fraction(int(rng.integers(1, 5)))
                for idx in _random_cell(rng, list(cell))
            }
            for cell in row
        ]
        for row in supports
    ]
    for row in cells:
        for cell in row:
            total = sum(cell.values())
            for idx in cell:
                cell[idx] /= total
    return mech, product_prior(SPEC, cells), MODELS[seed % 4 >= 2]


def _assert_reports_equal(new: RegretReport, old: RegretReport) -> None:
    assert new == old
    for name in ("bic_regret", "dsic_regret", "ir_slack"):
        assert type(getattr(new, name)) is float


@pytest.mark.parametrize("seed", range(48))
def test_audit_equals_the_two_tensor_reference(seed):
    mech, prior, model = _random_case(seed)
    _assert_reports_equal(
        audit_over_domain(mech, prior, model), _reference_audit(mech, prior, model)
    )


@pytest.mark.parametrize("seed", [0, 3, 6, 9, 12, 15, 18, 21])
def test_lattice_regrets_equal_the_per_bidder_reference(seed):
    mech, prior, model = _random_case(seed)
    assert mech.domain.is_full_grid
    learned = LearnedMechanism(inner=mech, mode="bic")
    for per_coord in (2, 7):
        assert real_lattice_bic_regret(
            learned, prior, model, per_coord=per_coord
        ) == _reference_lattice_bic(learned, prior, model, per_coord)
        assert real_lattice_dsic_regret(
            learned, model, per_coord=per_coord
        ) == _reference_lattice_dsic(learned, model, per_coord)


def _learning_samples():
    cell = PriorCell(
        "point_masses", {"values": [0.3, 1.1, 1.8], "probs": ["1/4", "1/4", "1/2"]}
    )
    desc = PriorDescription(n=2, m=2, h=2.0, cells=((cell, cell), (cell, cell)))
    return desc, sample_prior(desc, 2, 2, 5, seed=5)


def _oracle_cases():
    additive = ValuationModel(tag="additive")
    spec = GridSpec(epsilon=1.0, h=2.0)
    prior = product_prior(spec, [
        [{1: Fraction(1, 3), 2: Fraction(2, 3)}],
        [{0: Fraction(1, 4), 1: Fraction(1, 4), 2: Fraction(1, 2)}],
    ])
    space = enumerate_multi_item(2, 1)
    closure = check_weakly_downward_closed(space, additive, spec)
    for mode in ("bic", "dsic"):
        problem = OracleProblem(
            prior=prior, space=space, model=additive, ic_mode=mode, eta=0.0
        )
        support = solve_optimal(problem).mechanism
        full = (
            extend_bic(support, prior, additive)
            if mode == "bic"
            else extend_dsic(support, space, additive, closure)
        )
        yield support, prior, additive
        yield full, prior, additive
    desc, samples = _learning_samples()
    for learn in (learn_bic, learn_dsic):
        learned = learn(samples, 0.5, enumerate_multi_item(2, 2), additive)
        yield learned.inner, desc.to_grid_prior(learned.spec), additive


def test_oracle_and_learned_tables_equal_the_reference():
    for mech, prior, model in _oracle_cases():
        _assert_reports_equal(
            audit_over_domain(mech, prior, model), _reference_audit(mech, prior, model)
        )


def test_learned_lattice_regrets_equal_the_reference():
    desc, samples = _learning_samples()
    model = ValuationModel(tag="additive")
    for learn in (learn_bic, learn_dsic):
        learned = learn(samples, 0.5, enumerate_multi_item(2, 2), model)
        prior = desc.to_grid_prior(learned.spec)
        assert real_lattice_bic_regret(
            learned, prior, model, per_coord=9
        ) == _reference_lattice_bic(learned, prior, model, 9)
        assert real_lattice_dsic_regret(
            learned, model, per_coord=9
        ) == _reference_lattice_dsic(learned, model, 9)


class TestExpostBudget:
    # posted_price_table on the quarter grid, m=2: 81 types, one bidder, so
    # the ex-post tensor has 81 * 81 = 6561 cells
    def _case(self):
        spec = GridSpec(epsilon=0.25, h=2.0)
        prior = product_prior(spec, [[{4: 1}, {8: 1}]])
        return posted_price_table(spec, price=1.0, m=2), prior

    def test_regret_report_over_budget_is_capacity_error(self, monkeypatch, additive):
        mech, prior = self._case()
        monkeypatch.setattr(mechanism, "EXPOST_CELL_BUDGET", 6560)
        with pytest.raises(CapacityError, match="6561 cells"):
            regret_report(mech, prior, additive)

    def test_regret_report_at_budget_runs(self, monkeypatch, additive):
        mech, prior = self._case()
        monkeypatch.setattr(mechanism, "EXPOST_CELL_BUDGET", 6561)
        assert regret_report(mech, prior, additive).dsic_regret == 0.0


def _retable(mech, table):
    """``mech`` itself, or on its domain a posted price of 1 for the bundle
    of every item to bidder 0 (the others get nothing and pay nothing), or
    the table that allocates nothing and charges nothing. In the last two,
    utilities do not depend on the rest profile, so every slab reaches the
    same extremes, and in the all-zero table every gain ties at 0."""
    if table == "random":
        return mech
    dom, space = mech.domain, mech.space
    r = dom.num_profiles
    probs = np.zeros((r, space.num_outcomes))
    payments = np.zeros((r, mech.n))
    buys = np.zeros(r, dtype=bool)
    if table == "posted":
        bundle = int(np.flatnonzero(space.alloc[:, 0, :].all(axis=1))[0])
        t0, _ = dom.split_rank(0, np.arange(r))
        buys = dom.bidder_types(0)[t0].sum(axis=1) * dom.spec.epsilon >= 1.0
        probs[buys, bundle] = 1.0
        payments[buys, 0] = 1.0
    probs[~buys, 0] = 1.0
    return MechanismTable(domain=dom, space=space, probs=probs, payments=payments)


@given(
    seed=st.integers(0, 2**16),
    table=st.sampled_from(("random", "posted", "zero")),
    per_coord=st.integers(2, 7),
)
@settings(max_examples=60, deadline=None)
def test_streamed_reductions_equal_the_whole_tensor(seed, table, per_coord):
    mech, prior, model = _random_case(seed)
    mech = _retable(mech, table)
    closure = check_weakly_downward_closed(mech.space, model, SPEC)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mechanism, "EXPOST_CHUNK_CELLS", 10**9)  # one slab
        whole_full = extend_dsic(mech, mech.space, model, closure)
        mp.setattr(mechanism, "EXPOST_CHUNK_CELLS", 1)  # one rest column a slab
        full = extend_dsic(mech, mech.space, model, closure)
        assert serialize_mechanism(full) == serialize_mechanism(whole_full)
        for table_ in (mech, full):
            _assert_reports_equal(
                audit_over_domain(table_, prior, model),
                _reference_audit(table_, prior, model),
            )
        for k in range(mech.n):
            assert np.array_equal(
                bic_replacement_map(mech, prior, model, k),
                _reference_replacement_map(mech, prior, model, k),
            )
        learned = LearnedMechanism(inner=full, mode="dsic")
        assert real_lattice_dsic_regret(
            learned, model, per_coord=per_coord
        ) == _reference_lattice_dsic(learned, model, per_coord)


def test_audit_peak_memory_stays_under_half_the_whole_tensor(monkeypatch, additive):
    # n = 2, m = 2 on the quarter grid: 81 types a bidder, so the whole
    # ex-post tensor has 81**3 cells, 4.25 MB of doubles
    spec = GridSpec(epsilon=0.25, h=2.0)
    domain = ProfileDomain.full_grid(spec, 2, 2)
    space = enumerate_multi_item(2, 2)
    rng = np.random.default_rng(0)
    mech = MechanismTable(
        domain=domain,
        space=space,
        probs=rng.dirichlet(np.ones(space.num_outcomes), size=domain.num_profiles),
        payments=rng.uniform(0.0, 2.0, size=(domain.num_profiles, 2)),
    )
    prior = product_prior(spec, [[{4: 1}, {8: 1}]] * 2)
    whole_bytes = 81**3 * 8
    monkeypatch.setattr(mechanism, "EXPOST_CHUNK_CELLS", 8 * 81 * 81)
    tracemalloc.start()
    try:
        report = audit_over_domain(mech, prior, additive)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < whole_bytes / 2
    assert report == _reference_audit(mech, prior, additive)


def test_middle_bidder_kernels_allocate_nothing_the_size_of_the_table(
    monkeypatch, additive
):
    # n = 3, m = 2 on a five-level grid: 25 types a bidder, 15625 rows of 16
    # outcomes. Bidder 1's rest columns are not adjacent in the table, and
    # each slab below spans two values of bidder 0's type.
    spec = GridSpec(epsilon=1.0, h=4.0)
    domain = ProfileDomain.full_grid(spec, 3, 2)
    space = enumerate_multi_item(3, 2)
    rng = np.random.default_rng(0)
    mech = MechanismTable(
        domain=domain,
        space=space,
        probs=rng.dirichlet(np.ones(space.num_outcomes), size=domain.num_profiles),
        payments=rng.uniform(0.0, 2.0, size=(domain.num_profiles, 3)),
    )
    prior = product_prior(spec, [[{1: 1}, {2: 1}]] * 3)
    values = additive.value_table(space, spec, 1)
    monkeypatch.setattr(mechanism, "EXPOST_CHUNK_CELLS", 2 * 25 * 25 * 25)
    whole = expost_utilities(mech, 1, values)
    probs, pay = dense(mech)
    tracemalloc.start()
    try:
        for r0, u in expost_columns(probs, pay[:, 1], rest_columns(domain, 1), values):
            assert np.array_equal(u, whole[:, :, r0 : r0 + u.shape[2]])
            del u
        interim = interim_utilities(mech, prior, 1, values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < probs.nbytes / 2
    assert r0 > 0  # more than one slab
    assert interim[0].shape == (25, 25)
