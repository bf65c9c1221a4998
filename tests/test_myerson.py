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
)
from mechlearn.learner import evaluate_on_reals, real_lattice_dsic_regret
from mechlearn.mechanism import regret_report, revenue
from mechlearn.myerson import single_parameter_table
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


def grid_rows(table):
    """The table's lotteries (L, ..., L, K) and payments (L, ..., L, n),
    indexed by each bidder's grid index."""
    probs, pay = dense(table)
    shape = (table.domain.spec.levels,) * table.n
    return probs.reshape(shape + (-1,)), pay.reshape(shape + (-1,))


def random_marginal(rng, spec, low, high):
    size = int(rng.integers(low, high))
    idx = sorted(rng.choice(spec.levels, size=size, replace=False))
    w = rng.integers(1, 5, size=size)
    return marginal(spec, {int(k): Fraction(int(x), int(w.sum())) for k, x in zip(idx, w)})


class TestRunMyerson:
    def test_zero_tie_allocates_and_is_optimal(self):
        # the phi = 0 tie at the low type allocates, and the auction earns
        # the brute-force optimum of 1 on uniform{1,2}
        spec = GridSpec(epsilon=1.0, h=2.0)
        m = marginal(spec, {1: Fraction(1, 2), 2: Fraction(1, 2)})
        table = single_parameter_table((iron(m),), single_item_space(1), spec)
        prior = product_prior(spec, [[{1: Fraction(1, 2), 2: Fraction(1, 2)}]])
        opt = brute_force_optimal(prior, table.space, ValuationModel(tag="additive"), "bic")
        assert revenue(table, prior) == pytest.approx(float(opt), abs=1e-9)
        # both support types buy at price 1; the bid of 0 is below the support
        probs, pay = grid_rows(table)
        assert probs.argmax(axis=-1).tolist() == [0, 1, 1]
        assert pay[:, 0].tolist() == [0.0, 1.0, 1.0]

    def test_negative_virtual_welfare_no_sale(self):
        spec = GridSpec(epsilon=1.0, h=10.0)
        m = marginal(spec, {1: Fraction(89, 100), 10: Fraction(11, 100)})
        iv = iron(m)
        assert iv.phi_exact[0] < 0
        probs, pay = grid_rows(single_parameter_table((iv, iv), single_item_space(2), spec))
        assert probs[1, 1].argmax() == 0
        assert pay[1, 1].tolist() == [0.0, 0.0]

    def test_allocation_monotone_in_own_bid(self):
        rng = np.random.default_rng(13)
        spec = GridSpec(epsilon=0.25, h=2.0)
        space = single_item_space(2)
        for _ in range(20):
            virtuals = tuple(iron(random_marginal(rng, spec, 1, 4)) for _ in range(2))
            probs, _ = grid_rows(single_parameter_table(virtuals, space, spec))
            levels = probs @ space.alloc[:, :, 0]  # (L, L, n)
            for i in range(2):
                assert np.all(np.diff(levels[..., i], axis=i) >= -1e-12)

    def test_payment_is_threshold_bid(self):
        # single item, 0/1 allocations: a winner pays the lowest grid bid at
        # which she still wins, which is a support value (direct search)
        rng = np.random.default_rng(17)
        spec = GridSpec(epsilon=0.25, h=2.0)
        space = single_item_space(2)
        for _ in range(20):
            margs = [random_marginal(rng, spec, 2, 4) for _ in range(2)]
            table = single_parameter_table(tuple(iron(s) for s in margs), space, spec)
            probs, pay = grid_rows(table)
            wins = (probs @ space.alloc[:, :, 0]) == 1.0  # (L, L, n)
            for i in range(2):
                own_wins = np.moveaxis(wins[..., i], i, 0)  # own grid index first
                own_pay = np.moveaxis(pay[..., i], i, 0)
                for other in range(spec.levels):
                    won = own_wins[:, other]
                    expected = np.zeros(spec.levels)
                    if won.any():
                        threshold = spec.values()[won].min()
                        assert threshold in margs[i].support_values()
                        expected[won] = threshold
                    assert own_pay[:, other] == pytest.approx(expected, abs=1e-12)

    def test_induced_table_exactly_dsic(self):
        spec = GridSpec(epsilon=0.5, h=2.0)
        m1 = marginal(spec, {1: Fraction(1, 3), 3: Fraction(2, 3)})
        m2 = marginal(spec, {0: Fraction(1, 2), 4: Fraction(1, 2)})
        table = single_parameter_table((iron(m1), iron(m2)), single_item_space(2), spec)
        prior = product_prior(
            spec, [[{1: Fraction(1, 3), 3: Fraction(2, 3)}], [{0: Fraction(1, 2), 4: Fraction(1, 2)}]]
        )
        rep = regret_report(table, prior, ValuationModel(tag="additive"))
        assert rep.dsic_regret <= 1e-9
        assert rep.ir_slack >= -1e-9


class TestSnap:
    """A learned table answers real bids by rounding them down to the grid,
    where a bid plays the row of the support value at or below it."""

    @pytest.fixture(scope="class")
    def learned(self):
        # the empirical supports are {0.5, 1.5}, grid indices 2 and 6, and
        # the low type's virtual value is positive, so it is served
        cell = PriorCell("discrete_on_grid", {"values": [0.5, 1.5], "probs": ["3/4", "1/4"]})
        prior = PriorDescription(n=2, m=1, h=2.0, cells=((cell,), (cell,)))
        samples = sample_prior(prior, 2, 1, 60, seed=3)
        for i in range(2):
            assert sorted(set(samples.cell(i, 0).tolist())) == [0.5, 1.5]
        return learn_single_parameter(samples, 0.25, single_item_space(2))

    @staticmethod
    def entries(learned, bids):
        return [
            (p, o, pay.tolist())
            for p, o, pay in evaluate_on_reals(learned, [[b] for b in bids])
        ]

    def test_support_point_maps_to_itself(self, learned):
        domain = learned.inner.domain
        for bids in itertools.product([0.5, 1.5], repeat=2):
            rank = domain.profile_rank([[int(b / 0.25)] for b in bids])
            expected = [(p, o, pay.tolist()) for p, o, pay in learned.inner.lottery_entries(rank)]
            assert self.entries(learned, bids) == expected

    def test_floor_to_support(self, learned):
        assert self.entries(learned, [0.5, 0.0]) == [(1.0, 1, [0.5, 0.0])]
        for other in (0.0, 0.5, 1.1, 1.5, 2.0):
            for low, between in ((0.5, 0.51), (0.5, 1.0), (0.5, 1.49), (1.5, 1.8), (1.5, 2.0)):
                assert self.entries(learned, [between, other]) == self.entries(learned, [low, other])
                assert self.entries(learned, [other, between]) == self.entries(learned, [other, low])

    def test_below_support_plays_non_participation(self, learned):
        alloc = learned.inner.space.alloc[:, :, 0]
        for bid in (0.0, 0.3, 0.49):
            for other in (0.0, 0.5, 1.5, 2.0):
                for i, bids in ((0, [bid, other]), (1, [other, bid])):
                    for _, o, pay in self.entries(learned, bids):
                        assert alloc[o, i] == 0.0 and pay[i] == 0.0


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

    def test_rejects_a_space_for_another_bidder_count(self):
        cell = PriorCell("uniform", {"low": 0.0, "high": 2.0})
        prior = PriorDescription(n=2, m=1, h=2.0, cells=((cell,), (cell,)))
        samples = sample_prior(prior, 2, 1, 10, seed=0)
        with pytest.raises(UsageError, match="one IronedVirtuals per bidder"):
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
            table = single_parameter_table(
                tuple(iron(prior.marginals[i][0]) for i in range(n)), space, spec
            )
            got = revenue(table, prior)
            opt = float(brute_force_optimal(prior, space, model, "bic"))
            assert got == pytest.approx(opt, abs=1e-7)


def _pin_auctions():
    """Four auctions whose tables are pinned by digest: one bidder; supports
    above index 0; three bidders on fractional levels with a non-dyadic grid
    step; and a space whose zero-virtual-value ties pick among levels."""
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
        (one, (marginal(one, {4: "1/2", 5: "3/10", 10: "1/5"}),), single_item_space(1)),
        (
            half,
            (marginal(half, {1: "1/3", 3: "2/3"}), marginal(half, {2: "1/2", 4: "1/2"})),
            single_item_space(2),
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
        ),
        (
            half,
            (marginal(half, {2: "1/2", 4: "1/2"}), marginal(half, {0: "1/4", 2: "1/4", 4: "1/2"})),
            halves,
        ),
    ]


@pytest.mark.parametrize(
    "case, table_digest",
    [
        (0, "2ffc77d367525351b4a333cb100b1a969943536d9afafdccf7e246a9903c015a"),
        (1, "d48119946a09f1a9f18eca1522fcc8881b08b66458607c3b0308552e469d55c7"),
        (2, "19ba8a631511ad646b190a478ffe45155aa9f23d24fd322f8b9f57978a3ad36b"),
        (3, "569ba47d54de280180036c685654a88edf0b01f377ba5db2398ec50af437b296"),
    ],
    ids=["one_bidder", "supports_above_zero", "fractional_levels", "zero_ties_allocate"],
)
def test_tables_are_pinned(case, table_digest):
    # Digests of the table bytes: the tie order and the order in which
    # ladder payments are summed both show in the last bits.
    spec, margs, space = _pin_auctions()[case]
    table = single_parameter_table(tuple(iron(m) for m in margs), space, spec)
    probs, pay = dense(table)
    assert hashlib.sha256(probs.tobytes() + pay.tobytes()).hexdigest() == table_digest


def test_missing_exclusion_fails_only_when_looked_up():
    # every outcome allocates to bidder 0, so no outcome leaves bidder 0 out
    spec = GridSpec(epsilon=0.5, h=1.0)
    space = single_parameter_space([[1, 0], [0.5, 0.5]])
    low = marginal(spec, {0: "1/2", 2: "1/2"})
    high = marginal(spec, {1: "1/2", 2: "1/2"})
    built = single_parameter_table((iron(low), iron(high)), space, spec)
    assert dense(built)[0].sum(axis=1).tolist() == [1.0] * built.domain.num_profiles
    with pytest.raises(UsageError, match="no outcome excludes"):
        single_parameter_table((iron(high), iron(low)), space, spec)


BELOW_SUPPORT = -1  # the reference's position of a bid below the support


def _reference_priced(virtuals, alloc, positions):
    """Per-query reference for one position profile: a scan over the
    outcomes for the first one of greatest (welfare, total allocation),
    then the ladder summed upward from the lowest position."""

    def choose(pos):
        best, best_key = None, None
        for o in range(alloc.shape[0]):
            if any(p == BELOW_SUPPORT and alloc[o, i] != 0.0 for i, p in enumerate(pos)):
                continue
            welfare, total = 0.0, 0.0
            for i, p in enumerate(pos):
                if p != BELOW_SUPPORT:
                    welfare += alloc[o, i] * float(virtuals[i].phi_exact[p])
                    total += alloc[o, i]
            key = (welfare, total)
            if best is None or key > best_key:
                best, best_key = o, key
        if best is None:
            raise UsageError("no outcome excludes the non-participating bidders")
        return best

    chosen = choose(positions)
    payments = np.zeros(len(virtuals))
    for i, p in enumerate(positions):
        if p == BELOW_SUPPORT:
            continue
        vals = virtuals[i].marginal.support_values()
        ladder = 0.0
        for low in range(p):
            probe = positions[:i] + (low,) + positions[i + 1 :]
            ladder += alloc[choose(probe), i] * (vals[low + 1] - vals[low])
        payments[i] = vals[p] * alloc[chosen, i] - ladder
    return chosen, payments


def test_table_matches_the_per_query_reference():
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
        rng.random()  # unused; drawing it keeps the instance sequence fixed
        virtuals = tuple(iron(m) for m in margs)
        space = single_parameter_space(levels)
        # each grid index's snapped support position, BELOW_SUPPORT under it
        snapped = [
            np.searchsorted(m.support_values(), spec.values(), side="right") - 1 for m in margs
        ]
        try:
            expected = {
                pos: _reference_priced(virtuals, space.alloc[:, :, 0], pos)
                for pos in itertools.product(*(sorted(set(s.tolist())) for s in snapped))
            }
        except UsageError:
            with pytest.raises(UsageError, match="no outcome excludes"):
                single_parameter_table(virtuals, space, spec)
            continue
        probs, pay = grid_rows(single_parameter_table(virtuals, space, spec))
        for grid in itertools.product(range(spec.levels), repeat=n):
            chosen, payments = expected[tuple(int(s[k]) for s, k in zip(snapped, grid))]
            assert probs[grid].tolist() == np.eye(space.num_outcomes)[chosen].tolist()
            assert pay[grid].tobytes() == payments.tobytes()
