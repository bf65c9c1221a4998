import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mechlearn import (
    CapacityError,
    GridSpec,
    UsageError,
    ValuationModel,
    bidder_value,
    check_weakly_downward_closed,
    enumerate_multi_item,
    single_parameter_space,
)
from mechlearn.outcomes import OutcomeSpace, grid_type_indices


class TestEnumeration:
    def test_smallest_case(self):
        space = enumerate_multi_item(1, 1)
        assert space.num_outcomes == 2
        assert np.array_equal(space.alloc[0], [[0.0]])
        assert np.array_equal(space.alloc[1], [[1.0]])

    def test_two_by_two_count_matches_brute_force(self):
        # oracle: count assignments of each item to {nobody, 1, 2} directly
        combos = [
            c
            for c in itertools.product(range(3), repeat=2)
        ]
        assert len(combos) == 9
        assert enumerate_multi_item(2, 2).num_outcomes == 9

    def test_per_item_feasibility(self):
        space = enumerate_multi_item(3, 2)
        sums = space.alloc.sum(axis=1)  # (K, m)
        assert sums.max() <= 1.0

    def test_enumeration_bijection(self):
        space = enumerate_multi_item(2, 3)
        seen = {space.alloc[o].tobytes() for o in range(space.num_outcomes)}
        assert len(seen) == space.num_outcomes

    def test_budget_guard(self):
        with pytest.raises(CapacityError, match="10000000"):
            enumerate_multi_item(9, 7)

    def test_allocation_cells_are_guarded_before_allocating(self):
        # 10^6 outcomes pass the outcome budget, but their allocation table
        # would hold 10^6 * 999 999 cells: 931 GiB for the comparison alone
        import tracemalloc

        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="allocation cells"):
                enumerate_multi_item(999_999, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert enumerate_multi_item(999, 1).alloc.size == 1000 * 999  # at the budget


class TestValues:
    def test_additive_sum(self):
        space = enumerate_multi_item(1, 2)
        model = ValuationModel(tag="additive")
        both = space.num_outcomes - 1
        assert bidder_value(model, space, 0, [1.0, 2.0], both) == 3.0

    def test_empty_allocation_is_worthless(self):
        space = enumerate_multi_item(2, 2)
        model = ValuationModel(tag="additive")
        assert bidder_value(model, space, 0, [5.0, 7.0], 0) == 0.0

    def test_dimension_mismatch(self):
        space = enumerate_multi_item(1, 2)
        model = ValuationModel(tag="additive")
        with pytest.raises(UsageError):
            bidder_value(model, space, 0, [1.0], 1)

    def test_paired_complements_needs_partner(self):
        space = enumerate_multi_item(1, 2)
        model = ValuationModel(tag="paired_complements")
        only_first = None
        both = None
        for o in range(space.num_outcomes):
            row = space.alloc[o, 0]
            if row[0] == 1.0 and row[1] == 0.0:
                only_first = o
            if row[0] == 1.0 and row[1] == 1.0:
                both = o
        assert bidder_value(model, space, 0, [5.0, 0.0], only_first) == 0.0
        assert bidder_value(model, space, 0, [5.0, 0.0], both) == 5.0

    def test_unit_demand_takes_best(self):
        space = enumerate_multi_item(1, 2)
        model = ValuationModel(tag="unit_demand")
        both = space.num_outcomes - 1
        assert bidder_value(model, space, 0, [1.0, 2.0], both) == 2.0

    def test_additive_up_to_k(self):
        space = enumerate_multi_item(1, 2)
        model = ValuationModel(tag="additive_up_to_k", cap=1)
        both = space.num_outcomes - 1
        assert bidder_value(model, space, 0, [1.0, 2.0], both) == 2.0

    def test_monotone_in_parameters_additive(self):
        space = enumerate_multi_item(2, 2)
        model = ValuationModel(tag="additive")
        rng = np.random.default_rng(0)
        for _ in range(200):
            v = rng.uniform(0, 2, size=2)
            o = int(rng.integers(space.num_outcomes))
            j = int(rng.integers(2))
            up = v.copy()
            up[j] += rng.uniform(0, 0.5)
            assert bidder_value(model, space, 0, up, o) >= bidder_value(
                model, space, 0, v, o
            )

    @pytest.mark.parametrize(
        "tag,kwargs",
        [
            ("additive", {}),
            ("unit_demand", {}),
            ("additive_up_to_k", {"cap": 1}),
            ("paired_complements", {}),
        ],
    )
    def test_lipschitz_audit(self, tag, kwargs):
        space = enumerate_multi_item(2, 2)
        model = ValuationModel(tag=tag, **kwargs)
        rng = np.random.default_rng(7)
        h, eps = 2.0, 0.25
        for _ in range(2500):
            v = rng.uniform(0, h, size=2)
            j = int(rng.integers(2))
            delta = rng.uniform(0, eps)
            o = int(rng.integers(space.num_outcomes))
            i = int(rng.integers(2))
            shifted = v.copy()
            shifted[j] = min(shifted[j] + delta, h)
            a = bidder_value(model, space, i, v, o)
            b = bidder_value(model, space, i, shifted, o)
            assert abs(b - a) <= model.lipschitz_l * (shifted[j] - v[j]) + 1e-12
            assert 0.0 <= a <= space.m * model.lipschitz_l * h

    def test_custom_table_round_trip_and_audit(self):
        spec = GridSpec(epsilon=0.5, h=1.0)
        space = enumerate_multi_item(1, 1)
        types = grid_type_indices(spec, 1)
        table = (types * spec.epsilon) @ space.alloc[:, 0, :].T  # additive clone
        model = ValuationModel(tag="custom", table=table, table_spec=spec)
        model.audit_custom_table(space)
        assert bidder_value(model, space, 0, [0.5], 1) == 0.5

    def test_custom_table_audit_rejects_violation(self):
        spec = GridSpec(epsilon=0.5, h=1.0)
        space = enumerate_multi_item(1, 1)
        table = np.array([[0.0, 0.0], [0.0, 0.9], [0.0, 1.0]])  # jump 0.9 > L*eps
        model = ValuationModel(tag="custom", table=table, table_spec=spec)
        with pytest.raises(UsageError, match="Lipschitz"):
            model.audit_custom_table(space)


@st.composite
def _projected_spaces(draw):
    """A custom space of a few drawn outcomes and each one's one-bidder
    projections (its allocation to one bidder, the others' zeroed), without
    the all-zero outcome half the time, in a drawn order; and a model."""
    n, m = draw(st.integers(2, 3)), draw(st.integers(1, 2))
    level = st.sampled_from([0.0, 0.5, 1.0])
    rows = st.lists(st.lists(level, min_size=m, max_size=m), min_size=n, max_size=n)
    base = np.array(draw(st.lists(rows, min_size=1, max_size=3)))
    projections = [base]
    for k in range(n):
        proj = np.zeros_like(base)
        proj[:, k] = base[:, k]
        projections.append(proj)
    alloc = np.unique(np.concatenate(projections), axis=0)
    if draw(st.booleans()):
        alloc = alloc[alloc.reshape(len(alloc), -1).any(axis=1)]
    assume(len(alloc) > 0)
    alloc = alloc[draw(st.permutations(range(len(alloc))))]
    model = ValuationModel(tag=draw(st.sampled_from(["additive", "unit_demand"])))
    return OutcomeSpace(kind="custom", n=n, m=m, alloc=alloc), model


class TestWeakDownwardClosure:
    @given(case=_projected_spaces())
    @settings(max_examples=200, deadline=None)
    def test_a_closed_space_of_two_or_more_bidders_has_a_zero_outcome(self, case):
        # the witness of outcome 0 for bidder 0 keeps only bidder 0's value;
        # its witness for bidder 1 keeps bidder 1's, which is 0: all-zero
        space, model = case
        spec = GridSpec(epsilon=0.5, h=1.0)
        result = check_weakly_downward_closed(space, model, spec)
        if result.closed:
            assert result.zero_outcome is not None
            for i in range(space.n):
                assert not model.value_table(space, spec, i)[:, result.zero_outcome].any()

    def test_multi_item_additive_closed_with_row_witness(self):
        spec = GridSpec(epsilon=0.5, h=1.0)
        space = enumerate_multi_item(2, 2)
        model = ValuationModel(tag="additive")
        result = check_weakly_downward_closed(space, model, spec)
        assert result.closed
        assert result.zero_outcome == 0
        tables = [model.value_table(space, spec, i) for i in range(2)]
        for x in range(space.num_outcomes):
            for k in range(2):
                w = int(result.witness[x, k])
                assert np.array_equal(tables[k][:, w], tables[k][:, x])
                other = 1 - k
                assert np.all(tables[other][:, w] == 0.0)

    def test_shared_outcome_space_not_closed(self):
        # single outcome granting both bidders value: nothing can zero one out
        spec = GridSpec(epsilon=0.5, h=1.0)
        space = OutcomeSpace(
            kind="custom", n=2, m=1, alloc=np.ones((1, 2, 1))
        )
        model = ValuationModel(tag="additive")
        result = check_weakly_downward_closed(space, model, spec)
        assert not result.closed
        assert result.counterexample == (0, 0)

    def test_single_parameter_with_axis_restrictions(self):
        spec = GridSpec(epsilon=0.5, h=1.0)
        space = single_parameter_space([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        model = ValuationModel(tag="additive")
        result = check_weakly_downward_closed(space, model, spec)
        assert result.closed
        # direct search oracle on the 3-outcome instance
        assert int(result.witness[1, 0]) == 1
        assert int(result.witness[2, 0]) == 0
        assert int(result.witness[2, 1]) == 2
