import hashlib
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mechlearn import (
    GridSpec,
    UsageError,
    ValuationModel,
    brute_force_optimal,
    iron,
    learn_single_parameter,
    run_myerson,
    snap_to_support,
)
from mechlearn.learner import real_lattice_dsic_regret
from mechlearn.mechanism import regret_report, revenue
from mechlearn.myerson import NON_PARTICIPANT, MyersonAuction, single_parameter_table
from mechlearn.outcomes import single_parameter_space
from mechlearn.priors import PriorCell, PriorDescription, sample_prior

from conftest import dense, marginal, product_prior


def single_item_space(n):
    rows = [np.zeros(n)] + [np.eye(n)[i] for i in range(n)]
    return single_parameter_space(np.array(rows))


class TestIroning:
    def test_point_mass_full_surplus(self):
        spec = GridSpec(epsilon=1.0, h=2.0)
        iv = iron(marginal(spec, {2: Fraction(1)}))
        assert iv.phi_exact == (Fraction(2),)

    def test_uniform_two_point(self):
        # derived by the discrete virtual value v - (v_next - v)(1 - F)/f and
        # cross-validated below against all monotone allocation rules
        spec = GridSpec(epsilon=1.0, h=2.0)
        iv = iron(marginal(spec, {1: Fraction(1, 2), 2: Fraction(1, 2)}))
        assert iv.phi_exact == (Fraction(0), Fraction(2))
        # oracle: single bidder, the best monotone 0/1 rule with threshold
        # payments earns E[max(phi, 0)] = 1; enumerating rules: sell-to-all
        # at 1 earns 1, sell-to-high at 2 earns 1, sell-never earns 0
        assert max(1.0, 0.5 * 2.0, 0.0) == 1.0
        assert float(sum(q * max(p, 0) for p, q in [(0, Fraction(1, 2)), (2, Fraction(1, 2))])) == 1.0

    def test_top_type_pays_no_information_rent(self):
        rng = np.random.default_rng(31)
        spec = GridSpec(epsilon=0.25, h=2.0)
        for _ in range(25):
            lo, hi = sorted(rng.choice(spec.levels, size=2, replace=False))
            w = int(rng.integers(1, 9))
            iv = iron(
                marginal(spec, {int(lo): Fraction(w, 10), int(hi): Fraction(10 - w, 10)})
            )
            assert iv.phi_exact[-1] == Fraction(spec.value(int(hi)))

    def test_ironed_pool(self):
        # values (4, 5, 10) with masses (1/2, 3/10, 1/5): the revenue curve
        # dips at quantile 1/2, so the hull pools 4 and 5 at slope 5/2
        spec = GridSpec(epsilon=1.0, h=10.0)
        iv = iron(
            marginal(
                spec, {4: Fraction(1, 2), 5: Fraction(3, 10), 10: Fraction(1, 5)}
            )
        )
        assert iv.phi_exact == (Fraction(5, 2), Fraction(5, 2), Fraction(10))

    @given(
        data=st.lists(
            st.tuples(st.integers(0, 8), st.integers(1, 6)),
            min_size=1,
            max_size=5,
            unique_by=lambda t: t[0],
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_phi_nondecreasing(self, data):
        spec = GridSpec(epsilon=0.25, h=2.0)
        total = sum(w for _, w in data)
        iv = iron(
            marginal(spec, {k: Fraction(w, total) for k, w in data})
        )
        assert all(a <= b for a, b in zip(iv.phi_exact, iv.phi_exact[1:]))

    def test_curve_rows_exportable(self):
        from mechlearn.myerson import ironed_curve_rows

        spec = GridSpec(epsilon=1.0, h=2.0)
        rows = ironed_curve_rows(iron(marginal(spec, {1: Fraction(1, 2), 2: Fraction(1, 2)})))
        assert [r["value"] for r in rows] == [1.0, 2.0]
        assert [r["phi"] for r in rows] == [0.0, 2.0]


class TestRunMyerson:
    def _uniform_auction(self, allocate=True):
        spec = GridSpec(epsilon=1.0, h=2.0)
        m = marginal(spec, {1: Fraction(1, 2), 2: Fraction(1, 2)})
        return spec, m, MyersonAuction(
            virtuals=(iron(m),),
            space=single_item_space(1),
            allocate_on_zero_ties=allocate,
        )

    def test_zero_tie_conventions_both_optimal(self):
        # shipped default allocates on the phi=0 tie; both conventions earn
        # the brute-force optimum of 1 on uniform{1,2}
        for allocate in (True, False):
            spec, m, auction = self._uniform_auction(allocate)
            table = single_parameter_table(auction, spec)
            prior = product_prior(spec, [[{1: Fraction(1, 2), 2: Fraction(1, 2)}]])
            space = auction.space
            model = ValuationModel(tag="additive")
            opt = brute_force_optimal(prior, space, model, "bic")
            assert revenue(table, prior) == pytest.approx(float(opt), abs=1e-9)
        # the default convention sells to the low type at price 1
        spec, m, auction = self._uniform_auction(True)
        po = run_myerson(auction, [1.0])
        assert po.outcome == 1 and po.payments[0] == 1.0
        po2 = run_myerson(auction, [2.0])
        assert po2.outcome == 1 and po2.payments[0] == 1.0

    def test_negative_virtual_welfare_no_sale(self):
        spec = GridSpec(epsilon=1.0, h=10.0)
        m = marginal(spec, {1: Fraction(89, 100), 10: Fraction(11, 100)})
        iv = iron(m)
        assert iv.phi_exact[0] < 0
        auction = MyersonAuction(virtuals=(iv, iv), space=single_item_space(2))
        po = run_myerson(auction, [1.0, 1.0])
        assert po.outcome == 0
        assert po.payments.tolist() == [0.0, 0.0]

    def test_off_support_bid_rejected(self):
        spec, m, auction = self._uniform_auction()
        with pytest.raises(UsageError, match="snap_to_support"):
            run_myerson(auction, [1.5])

    def test_allocation_monotone_in_own_bid(self):
        rng = np.random.default_rng(13)
        spec = GridSpec(epsilon=0.25, h=2.0)
        for _ in range(20):
            supports = []
            for _ in range(2):
                size = int(rng.integers(1, 4))
                idx = sorted(rng.choice(spec.levels, size=size, replace=False))
                w = rng.integers(1, 5, size=size)
                supports.append(
                    marginal(
                        spec,
                        {int(k): Fraction(int(x), int(w.sum())) for k, x in zip(idx, w)},
                    )
                )
            auction = MyersonAuction(
                virtuals=tuple(iron(s) for s in supports), space=single_item_space(2)
            )
            alloc = auction.space.alloc[:, :, 0]
            for i in range(2):
                t_i = len(supports[i].support)
                t_other = len(supports[1 - i].support)
                for other in range(t_other):
                    levels = []
                    for mine in range(t_i):
                        pos = [0, 0]
                        pos[i], pos[1 - i] = mine, other
                        levels.append(alloc[auction.priced_outcome(pos).outcome, i])
                    assert all(a <= b + 1e-12 for a, b in zip(levels, levels[1:]))

    def test_payment_is_threshold_bid(self):
        # single item, 0/1 allocations: a winner pays the lowest ladder bid
        # at which she still wins (direct search oracle)
        rng = np.random.default_rng(17)
        spec = GridSpec(epsilon=0.25, h=2.0)
        for _ in range(20):
            margs = []
            for _ in range(2):
                size = int(rng.integers(2, 4))
                idx = sorted(rng.choice(spec.levels, size=size, replace=False))
                w = rng.integers(1, 5, size=size)
                margs.append(
                    marginal(
                        spec,
                        {int(k): Fraction(int(x), int(w.sum())) for k, x in zip(idx, w)},
                    )
                )
            auction = MyersonAuction(
                virtuals=tuple(iron(s) for s in margs), space=single_item_space(2)
            )
            alloc = auction.space.alloc[:, :, 0]
            for pos in itertools.product(range(len(margs[0].support)), range(len(margs[1].support))):
                po = auction.priced_outcome(list(pos))
                for i in range(2):
                    vals = margs[i].support_values()
                    if alloc[po.outcome, i] == 1.0:
                        winning = [
                            vals[t]
                            for t in range(len(vals))
                            if alloc[
                                auction.priced_outcome(
                                    [t if j == i else pos[j] for j in range(2)]
                                ).outcome,
                                i,
                            ]
                            == 1.0
                        ]
                        assert po.payments[i] == pytest.approx(min(winning), abs=1e-12)
                    else:
                        assert po.payments[i] == pytest.approx(0.0, abs=1e-12)

    def test_induced_table_exactly_dsic(self):
        spec = GridSpec(epsilon=0.5, h=2.0)
        m1 = marginal(spec, {1: Fraction(1, 3), 3: Fraction(2, 3)})
        m2 = marginal(spec, {0: Fraction(1, 2), 4: Fraction(1, 2)})
        auction = MyersonAuction(
            virtuals=(iron(m1), iron(m2)), space=single_item_space(2)
        )
        table = single_parameter_table(auction, spec)
        prior = product_prior(
            spec, [[{1: Fraction(1, 3), 3: Fraction(2, 3)}], [{0: Fraction(1, 2), 4: Fraction(1, 2)}]]
        )
        rep = regret_report(table, prior, ValuationModel(tag="additive"))
        assert rep.dsic_regret <= 1e-9
        assert rep.ir_slack >= -1e-9


class TestSnap:
    def test_support_point_maps_to_itself(self):
        spec = GridSpec(epsilon=1.0, h=2.0)
        m = marginal(spec, {1: Fraction(1, 2), 2: Fraction(1, 2)})
        assert m.support_values()[snap_to_support(2.0, m)] == 2.0

    def test_floor_to_support(self):
        spec = GridSpec(epsilon=1.0, h=2.0)
        m = marginal(spec, {1: Fraction(1, 2), 2: Fraction(1, 2)})
        assert m.support_values()[snap_to_support(1.7, m)] == 1.0

    def test_below_support_is_sentinel(self):
        spec = GridSpec(epsilon=1.0, h=2.0)
        m = marginal(spec, {1: Fraction(1, 2), 2: Fraction(1, 2)})
        assert snap_to_support(0.5, m) == NON_PARTICIPANT


class TestLearnSingleParameter:
    def test_point_mass_posts_the_value(self):
        cell = PriorCell("point_masses", {"values": [1.5], "probs": [1]})
        prior = PriorDescription(n=2, m=1, h=2.0, cells=((cell,), (cell,)))
        samples = sample_prior(prior, 2, 1, 20, seed=0)
        learned = learn_single_parameter(samples, 0.25, single_item_space(2))
        assert float(learned.exact_revenue_on_atoms(prior)) == pytest.approx(1.5, abs=1e-12)

    def test_matches_monotone_rule_oracle(self):
        # oracle: best monotone deterministic rule on the 2-point grid,
        # enumerated directly with threshold payments
        spec = GridSpec(epsilon=1.0, h=2.0)
        cell = PriorCell("discrete_on_grid", {"values": [1.0, 2.0], "probs": ["1/2", "1/2"]})
        prior = PriorDescription(n=2, m=1, h=2.0, cells=((cell,), (cell,)))
        values = [1.0, 2.0]
        best = 0.0
        for rule in itertools.product([0, 1, 2], repeat=4):
            # rule maps profile (t1, t2) in {0,1}^2 -> winner (0 = no sale)
            def wins(i, t1, t2):
                return rule[t1 * 2 + t2] == i + 1

            # per-bidder monotonicity: winning at the low type implies
            # winning at the high type, other bid fixed
            if any(wins(0, 0, t2) and not wins(0, 1, t2) for t2 in range(2)):
                continue
            if any(wins(1, t1, 0) and not wins(1, t1, 1) for t1 in range(2)):
                continue
            rev = 0.0
            for t1, t2 in itertools.product(range(2), repeat=2):
                for i, t_own in ((0, t1), (1, t2)):
                    if not wins(i, t1, t2):
                        continue
                    threshold = min(
                        values[t]
                        for t in range(2)
                        if wins(i, *(t, t2) if i == 0 else (t1, t))
                    )
                    rev += 0.25 * threshold
            best = max(best, rev)
        assert best == pytest.approx(1.5, abs=1e-12)
        samples = sample_prior(prior, 2, 1, 800, seed=5)
        learned = learn_single_parameter(samples, 1.0, single_item_space(2))
        got = float(learned.exact_revenue_on_atoms(prior))
        assert got >= best - 1.0  # within epsilon of the best monotone rule
        assert got == pytest.approx(1.5, abs=1e-9)  # equals the BIC optimum here

    def test_exactly_dsic_on_real_lattice(self):
        cell = PriorCell("uniform", {"low": 0.0, "high": 2.0})
        prior = PriorDescription(n=2, m=1, h=2.0, cells=((cell,), (cell,)))
        samples = sample_prior(prior, 2, 1, 40, seed=8)
        learned = learn_single_parameter(samples, 0.25, single_item_space(2))
        assert real_lattice_dsic_regret(learned, ValuationModel(tag="additive"), per_coord=41) <= 1e-9

    def test_rejects_multi_parameter(self):
        cell = PriorCell("uniform", {"low": 0.0, "high": 2.0})
        prior = PriorDescription(n=1, m=2, h=2.0, cells=((cell, cell),))
        samples = sample_prior(prior, 1, 2, 10, seed=0)
        with pytest.raises(UsageError):
            learn_single_parameter(samples, 0.25, single_item_space(1))


class TestMyersonOptimality:
    def test_matches_lp_on_small_instances(self):
        rng = np.random.default_rng(99)
        spec = GridSpec(epsilon=0.25, h=2.0)
        model = ValuationModel(tag="additive")
        for trial in range(6):
            n = 1 + trial % 2
            cells = []
            for _ in range(n):
                size = int(rng.integers(1, 4))
                idx = sorted(rng.choice(spec.levels, size=size, replace=False))
                w = rng.integers(1, 6, size=size)
                cells.append(
                    [{int(k): Fraction(int(x), int(w.sum())) for k, x in zip(idx, w)}]
                )
            prior = product_prior(spec, cells)
            space = single_item_space(n)
            auction = MyersonAuction(
                virtuals=tuple(iron(prior.marginals[i][0]) for i in range(n)),
                space=space,
            )
            table = single_parameter_table(auction, spec)
            got = revenue(table, prior)
            opt = float(brute_force_optimal(prior, space, model, "bic"))
            assert got == pytest.approx(opt, abs=1e-7)


def _pin_auctions():
    """Four auctions whose tables and priced outcomes are pinned by digest:
    one bidder; supports above index 0; three bidders on fractional levels
    with a non-dyadic grid step; and the no-allocation tie convention."""
    one = GridSpec(epsilon=1.0, h=10.0)
    half = GridSpec(epsilon=0.5, h=2.0)
    tenth = GridSpec(epsilon=0.1, h=1.0)
    # as one bidder's virtual value rises the choice walks through several
    # allocation levels, so ladders hold several nonzero inexact terms
    fractional = single_parameter_space(
        [
            [0, 0, 0],
            [1, 0, 0],
            [0.8, 0.5, 0],
            [0.5, 0.8, 0.1],
            [0, 1, 0],
            [0.3, 0.9, 0.2],
            [0.1, 0.3, 0.9],
            [0, 0, 1],
            [0.7, 0, 0.6],
        ]
    )
    halves = single_parameter_space([[0, 0], [1, 0], [0, 1], [0.5, 0.5]])
    return [
        (one, (marginal(one, {4: "1/2", 5: "3/10", 10: "1/5"}),), single_item_space(1), True),
        (
            half,
            (marginal(half, {1: "1/3", 3: "2/3"}), marginal(half, {2: "1/2", 4: "1/2"})),
            single_item_space(2),
            True,
        ),
        (
            tenth,
            (
                marginal(tenth, {3: "2/13", 4: "2/13", 5: "3/13", 6: "3/13", 9: "3/13"}),
                marginal(
                    tenth,
                    {0: "1/19", 3: "4/19", 5: "4/19", 6: "4/19", 7: "2/19", 8: "1/19", 9: "3/19"},
                ),
                marginal(
                    tenth,
                    {1: "2/17", 2: "2/17", 3: "3/17", 4: "3/17", 5: "2/17", 7: "1/17", 8: "4/17"},
                ),
            ),
            fractional,
            True,
        ),
        (
            half,
            (marginal(half, {2: "1/2", 4: "1/2"}), marginal(half, {0: "1/4", 2: "1/4", 4: "1/2"})),
            halves,
            False,
        ),
    ]


@pytest.mark.parametrize(
    "case, table_digest, priced_digest",
    [
        (
            0,
            "2ffc77d367525351b4a333cb100b1a969943536d9afafdccf7e246a9903c015a",
            "e2d7fc9ea0f77c1625303ef97129b6a50e03f62cd36b27e42c445ffd52554f2a",
        ),
        (
            1,
            "d48119946a09f1a9f18eca1522fcc8881b08b66458607c3b0308552e469d55c7",
            "16597f1735222505b2b6c5db9390f6a1f870fe31ed2346d616ab0d8114cd2ea9",
        ),
        (
            2,
            "19ba8a631511ad646b190a478ffe45155aa9f23d24fd322f8b9f57978a3ad36b",
            "437f2d244543b5e458053be726560c253d14cdd1295aecf3a8303e2b0e8f78f7",
        ),
        (
            3,
            "8379738ff8b721eb8973fc00b26d22011830123d438cffcf76b381b4faba44b9",
            "0ad8de560b8393dd20f5f085df8add6a998899bb01315714bbd7492e499fc47c",
        ),
    ],
    ids=["one_bidder", "supports_above_zero", "fractional_levels", "no_allocation_on_ties"],
)
def test_tables_are_pinned(case, table_digest, priced_digest):
    # Digests of the table bytes and of priced_outcome at every position
    # profile, NON_PARTICIPANT included: the tie order and the order in which
    # ladder payments are summed both show in the last bits.
    spec, margs, space, allocate = _pin_auctions()[case]
    auction = MyersonAuction(
        virtuals=tuple(iron(m) for m in margs),
        space=space,
        allocate_on_zero_ties=allocate,
    )
    table = single_parameter_table(auction, spec)
    probs, pay = dense(table)
    got_table = hashlib.sha256(probs.tobytes() + pay.tobytes())
    got_priced = hashlib.sha256()
    for positions in itertools.product(
        *(range(NON_PARTICIPANT, len(m.support)) for m in margs)
    ):
        priced = auction.priced_outcome(list(positions))
        got_priced.update(np.int64(priced.outcome).tobytes() + priced.payments.tobytes())
    assert (got_table.hexdigest(), got_priced.hexdigest()) == (table_digest, priced_digest)


def test_missing_exclusion_fails_only_when_looked_up():
    # every outcome allocates to bidder 0, so no outcome leaves bidder 0 out
    spec = GridSpec(epsilon=0.5, h=1.0)
    space = single_parameter_space([[1, 0], [0.5, 0.5]])
    low = marginal(spec, {0: "1/2", 2: "1/2"})
    high = marginal(spec, {1: "1/2", 2: "1/2"})
    built = single_parameter_table(
        MyersonAuction(virtuals=(iron(low), iron(high)), space=space), spec
    )
    assert dense(built)[0].sum(axis=1).tolist() == [1.0] * built.domain.num_profiles
    auction = MyersonAuction(virtuals=(iron(high), iron(low)), space=space)
    with pytest.raises(UsageError, match="no outcome excludes"):
        single_parameter_table(auction, spec)
    with pytest.raises(UsageError, match="no outcome excludes"):
        auction.priced_outcome([NON_PARTICIPANT, 0])
    assert auction.priced_outcome([0, NON_PARTICIPANT]).outcome == 0


def _reference_priced(auction, positions):
    """Per-query reference for priced_outcome: a scan over the outcomes for
    the first one of greatest (welfare, signed total allocation), then the
    ladder summed upward from the lowest position."""
    alloc = auction.space.alloc[:, :, 0]

    def choose(pos):
        best, best_key = None, None
        for o in range(alloc.shape[0]):
            if any(p == NON_PARTICIPANT and alloc[o, i] != 0.0 for i, p in enumerate(pos)):
                continue
            welfare, total = 0.0, 0.0
            for i, p in enumerate(pos):
                if p != NON_PARTICIPANT:
                    welfare += alloc[o, i] * float(auction.virtuals[i].phi_exact[p])
                    total += alloc[o, i]
            key = (welfare, total if auction.allocate_on_zero_ties else -total)
            if best is None or key > best_key:
                best, best_key = o, key
        if best is None:
            raise UsageError("no outcome excludes the non-participating bidders")
        return best

    chosen = choose(positions)
    payments = np.zeros(auction.n)
    for i, p in enumerate(positions):
        if p == NON_PARTICIPANT:
            continue
        vals = auction.support_values(i)
        ladder = 0.0
        for low in range(p):
            probe = positions[:i] + (low,) + positions[i + 1 :]
            ladder += alloc[choose(probe), i] * (vals[low + 1] - vals[low])
        payments[i] = vals[p] * alloc[chosen, i] - ladder
    return chosen, payments


def test_priced_outcome_matches_the_per_query_reference():
    rng = np.random.default_rng(41)
    spec = GridSpec(epsilon=0.1, h=1.0)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        levels = rng.choice([0.0, 0.25, 1 / 3, 0.5, 0.7, 1.0], size=(int(rng.integers(2, 7)), n))
        if rng.random() < 0.7:
            levels[0] = 0.0
        margs = []
        for _ in range(n):
            idx = sorted(rng.choice(spec.levels, size=int(rng.integers(1, 5)), replace=False))
            w = rng.integers(1, 5, size=len(idx))
            margs.append(marginal(spec, {int(k): Fraction(int(x), int(w.sum())) for k, x in zip(idx, w)}))
        auction = MyersonAuction(
            virtuals=tuple(iron(m) for m in margs),
            space=single_parameter_space(levels),
            allocate_on_zero_ties=bool(rng.random() < 0.5),
        )
        for positions in itertools.product(
            *(range(NON_PARTICIPANT, len(m.support)) for m in margs)
        ):
            try:
                expected = _reference_priced(auction, positions)
            except UsageError:
                with pytest.raises(UsageError, match="no outcome excludes"):
                    auction.priced_outcome(list(positions))
                continue
            got = auction.priced_outcome(list(positions))
            assert (got.outcome, got.payments.tobytes()) == (expected[0], expected[1].tobytes())
