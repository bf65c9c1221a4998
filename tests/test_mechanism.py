import hashlib
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
    OracleProblem,
    ParseError,
    PriorCell,
    PriorDescription,
    ProfileDomain,
    UsageError,
    ValuationModel,
    deserialize_mechanism,
    enumerate_multi_item,
    learn_bic,
    learn_dsic,
    regret_report,
    revenue,
    sample_prior,
    serialize_mechanism,
    solve_optimal,
)
from mechlearn import mechanism
from mechlearn.mechanism import domain_values, interim_utilities
from conftest import axis_views, dense, enumerate_profiles, posted_price_table, product_prior


def two_bidder_posted_price(spec, price):
    """Each bidder may buy one item at `price`; independent decisions."""
    space = enumerate_multi_item(2, 2)
    domain = ProfileDomain.full_grid(spec, 2, 2)
    r = domain.num_profiles
    probs = np.zeros((r, space.num_outcomes))
    payments = np.zeros((r, 2))
    # outcome index: item j digit is (i+1) when bidder i takes item j
    for rank, profile in enumerate(enumerate_profiles(domain)):
        digits = []
        for j in range(2):
            took = 0
            for i in range(2):
                if spec.value(profile[i][j]) >= price and j == i:
                    took = i + 1
            digits.append(took)
        o = digits[0] * 3 + digits[1]
        probs[rank, o] = 1.0
        for i in range(2):
            if digits[i] == i + 1:
                payments[rank, i] = price
    return MechanismTable(domain=domain, space=space, probs=probs, payments=payments)


class TestProfileIndex:
    def test_rank_helpers_agree_with_enumeration(self):
        # uneven supports, three bidders: every helper matches the enumeration
        spec = GridSpec(epsilon=0.5, h=2.0)
        domain = ProfileDomain(
            spec=spec, supports=(((0, 3),), ((1, 2, 4),), ((0, 1, 2, 3),))
        )
        mech = MechanismTable(
            domain=domain,
            space=enumerate_multi_item(3, 1),
            probs=np.eye(4)[np.arange(domain.num_profiles) % 4],
            payments=np.arange(domain.num_profiles * 3.0).reshape(-1, 3),
        )
        profiles = list(enumerate_profiles(domain))
        ranks = np.arange(len(profiles))
        types = domain.type_ranks()
        probs, pay = dense(mech)
        for i in range(3):
            expected = [domain.bidder_type_rank(i, p[i]) for p in profiles]
            assert types[:, i].tolist() == expected
            t, rest = domain.split_rank(i, ranks)
            assert t.tolist() == expected
            assert np.array_equal(domain.join_rank(i, t, rest), ranks)
            probs_view, pay_view = axis_views(mech, i)
            assert np.array_equal(probs_view[t, rest], probs)
            assert np.array_equal(pay_view[t, rest], pay[:, i])
            to_domain = domain.grid_to_domain(i)
            for k in range(spec.levels):
                on = k in domain.supports[i][0]
                assert to_domain[k] == (domain.bidder_type_rank(i, [k]) if on else -1)


class TestRevenue:
    def test_zero_payments(self, quarter_grid, additive):
        mech = posted_price_table(quarter_grid, price=99.0)  # never sells
        prior = product_prior(quarter_grid, [[{4: Fraction(1)}]])
        assert revenue(mech, prior) == 0.0

    def test_point_mass_accepted_price(self, quarter_grid):
        mech = posted_price_table(quarter_grid, price=1.0)
        prior = product_prior(quarter_grid, [[{4: Fraction(1)}]])  # value 1.0
        assert revenue(mech, prior) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_two_point_price_two(self):
        # oracle: enumerate the two profiles by hand: only v=2 pays 2
        spec = GridSpec(epsilon=1.0, h=2.0)
        mech = posted_price_table(spec, price=2.0)
        prior = product_prior(spec, [[{1: Fraction(1, 2), 2: Fraction(1, 2)}]])
        hand = 0.5 * 0.0 + 0.5 * 2.0
        assert revenue(mech, prior) == pytest.approx(hand, abs=1e-12)

    def test_exact_and_float_agree(self):
        spec = GridSpec(epsilon=1.0, h=2.0)
        mech = posted_price_table(spec, price=2.0)
        prior = product_prior(spec, [[{1: Fraction(1, 2), 2: Fraction(1, 2)}]])
        assert float(revenue(mech, prior, exact=True)) == pytest.approx(
            revenue(mech, prior), abs=1e-12
        )

    def test_domain_mismatch_lists_profile(self):
        spec = GridSpec(epsilon=1.0, h=2.0)
        space = enumerate_multi_item(1, 1)
        domain = ProfileDomain(spec=spec, supports=(((0, 1),),))
        mech = MechanismTable(
            domain=domain,
            space=space,
            probs=np.array([[1.0, 0.0], [1.0, 0.0]]),
            payments=np.zeros((2, 1)),
        )
        prior = product_prior(spec, [[{2: Fraction(1)}]])
        with pytest.raises(UsageError, match="uncovered"):
            revenue(mech, prior)


class TestInterimForm:
    def test_single_bidder_equals_expost(self, quarter_grid, additive):
        mech = posted_price_table(quarter_grid, price=1.0)
        prior = product_prior(
            quarter_grid, [[{0: Fraction(1, 4), 4: Fraction(1, 2), 8: Fraction(1, 4)}]]
        )
        utilities, _ = interim_utilities(
            mech, prior, 0, domain_values(mech.domain, mech.space, additive, 0)
        )
        # with n=1 the interim table is the ex-post utility table
        val = additive.value_table(mech.space, quarter_grid, 0)
        probs, pay = dense(mech)
        expost = val @ probs.T - pay[:, 0][None, :]
        assert np.allclose(utilities, expost, atol=1e-12)

    def test_ir_mechanism_has_nonnegative_diagonal(self, quarter_grid, additive):
        mech = posted_price_table(quarter_grid, price=1.0)
        prior = product_prior(quarter_grid, [[{4: Fraction(1, 2), 8: Fraction(1, 2)}]])
        utilities, _ = interim_utilities(
            mech, prior, 0, domain_values(mech.domain, mech.space, additive, 0)
        )
        assert np.diag(utilities).min() >= -1e-12

    def test_two_bidder_matches_enumeration_oracle(self, additive):
        spec = GridSpec(epsilon=1.0, h=2.0)
        mech = two_bidder_posted_price(spec, price=2.0)
        cells = [
            [{0: Fraction(1, 2), 2: Fraction(1, 2)}, {1: Fraction(1)}],
            [{1: Fraction(1, 3), 2: Fraction(2, 3)}, {0: Fraction(1)}],
        ]
        prior = product_prior(spec, cells)
        k = 0
        utilities, _ = interim_utilities(
            mech, prior, k, domain_values(mech.domain, mech.space, additive, k)
        )
        types = mech.domain.bidder_types(k)
        # oracle: direct sum over the other bidder's types
        other_types = mech.domain.bidder_types(1)
        weights = []
        for t in other_types:
            w = Fraction(1)
            for j in range(2):
                w *= prior.marginals[1][j].mass.get(int(t[j]), Fraction(0))
            weights.append(float(w))
        val = additive.value_table(mech.space, spec, k)

        def type_rank(i, t):
            return mech.domain.bidder_type_rank(i, t)

        probs, pay = dense(mech)
        for ti, t_true in enumerate(types):
            vrow = val[ti]
            for ri, t_rep in enumerate(types):
                expected = 0.0
                for w, t_other in zip(weights, other_types):
                    if w == 0.0:
                        continue
                    rank = mech.domain.profile_rank([t_rep, t_other])
                    u = vrow @ probs[rank] - pay[rank, k]
                    expected += w * u
                assert utilities[ti, ri] == pytest.approx(expected, abs=1e-9)

    def test_recompute_reproduces(self, quarter_grid, additive):
        mech = posted_price_table(quarter_grid, price=0.5)
        prior = product_prior(quarter_grid, [[{2: Fraction(1, 2), 6: Fraction(1, 2)}]])
        val = domain_values(mech.domain, mech.space, additive, 0)
        a = interim_utilities(mech, prior, 0, val)
        b = interim_utilities(mech, prior, 0, val)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])


class TestRegretReport:
    def test_truthful_posted_price_no_regret(self, quarter_grid, additive):
        mech = posted_price_table(quarter_grid, price=1.0)
        prior = product_prior(quarter_grid, [[{4: Fraction(1, 2), 8: Fraction(1, 2)}]])
        rep = regret_report(mech, prior, additive)
        assert rep.bic_regret <= 1e-9
        assert rep.dsic_regret <= 1e-9
        assert rep.ir_slack >= -1e-9

    def test_overcharging_breaks_ir(self, quarter_grid, additive):
        spec = quarter_grid
        space = enumerate_multi_item(1, 1)
        domain = ProfileDomain.full_grid(spec, 1, 1)
        r = domain.num_profiles
        probs = np.zeros((r, 2))
        probs[:, 1] = 1.0  # always allocate
        payments = np.array(
            [[spec.value(k) + 1.0] for k in range(spec.levels)]
        )  # charge value + 1
        mech = MechanismTable(domain=domain, space=space, probs=probs, payments=payments)
        prior = product_prior(spec, [[{0: Fraction(1, 2), 8: Fraction(1, 2)}]])
        rep = regret_report(mech, prior, additive)
        assert rep.ir_slack == pytest.approx(-1.0, abs=1e-12)

    def test_partial_domain_rejected(self, additive):
        spec = GridSpec(epsilon=1.0, h=2.0)
        space = enumerate_multi_item(1, 1)
        domain = ProfileDomain(spec=spec, supports=(((0, 1),),))
        mech = MechanismTable(
            domain=domain,
            space=space,
            probs=np.array([[1.0, 0.0], [1.0, 0.0]]),
            payments=np.zeros((2, 1)),
        )
        prior = product_prior(spec, [[{0: Fraction(1)}]])
        with pytest.raises(UsageError, match="extend"):
            regret_report(mech, prior, additive)

    def test_single_bidder_dsic_equals_bic(self, additive):
        rng = np.random.default_rng(5)
        spec = GridSpec(epsilon=0.5, h=1.0)
        space = enumerate_multi_item(1, 1)
        domain = ProfileDomain.full_grid(spec, 1, 1)
        prior = product_prior(spec, [[{0: Fraction(1, 3), 1: Fraction(1, 3), 2: Fraction(1, 3)}]])
        for _ in range(10):
            probs = rng.dirichlet(np.ones(2), size=domain.num_profiles)
            payments = rng.uniform(-0.5, 1.0, size=(domain.num_profiles, 1))
            mech = MechanismTable(domain=domain, space=space, probs=probs, payments=payments)
            rep = regret_report(mech, prior, additive)
            assert rep.dsic_regret == pytest.approx(rep.bic_regret, abs=1e-12)

    def test_expost_regret_dominates_interim(self, additive):
        rng = np.random.default_rng(6)
        spec = GridSpec(epsilon=1.0, h=2.0)
        space = enumerate_multi_item(2, 1)
        domain = ProfileDomain.full_grid(spec, 2, 1)
        prior = product_prior(
            spec,
            [[{0: Fraction(1, 3), 1: Fraction(1, 3), 2: Fraction(1, 3)}]] * 2,
        )
        for _ in range(10):
            probs = rng.dirichlet(np.ones(3), size=domain.num_profiles)
            payments = rng.uniform(-0.5, 1.5, size=(domain.num_profiles, 2))
            mech = MechanismTable(domain=domain, space=space, probs=probs, payments=payments)
            rep = regret_report(mech, prior, additive)
            assert rep.dsic_regret >= rep.bic_regret - 1e-12

    def test_revenue_two_route_consistency(self, quarter_grid, additive):
        mech = posted_price_table(quarter_grid, price=1.0)
        prior = product_prior(quarter_grid, [[{2: Fraction(1, 4), 6: Fraction(3, 4)}]])
        _, expected_payment = interim_utilities(
            mech, prior, 0, domain_values(mech.domain, mech.space, additive, 0)
        )
        weights = [
            float(prior.marginals[0][0].mass.get(int(t[0]), Fraction(0)))
            for t in mech.domain.bidder_types(0)
        ]
        via_interim = float(np.dot(weights, expected_payment))
        assert via_interim == pytest.approx(revenue(mech, prior), abs=1e-9)

    def test_payment_rescaling_scales_revenue(self, quarter_grid):
        rng = np.random.default_rng(3)
        spec = quarter_grid
        space = enumerate_multi_item(1, 1)
        domain = ProfileDomain.full_grid(spec, 1, 1)
        prior = product_prior(spec, [[{0: Fraction(1, 2), 8: Fraction(1, 2)}]])
        probs = rng.dirichlet(np.ones(2), size=domain.num_profiles)
        payments = rng.uniform(0, 1, size=(domain.num_profiles, 1))
        mech = MechanismTable(domain=domain, space=space, probs=probs, payments=payments)
        scaled = MechanismTable(
            domain=domain, space=space, probs=probs, payments=3.0 * payments
        )
        assert revenue(scaled, prior) == pytest.approx(3.0 * revenue(mech, prior), abs=1e-12)

    def test_witnesses_reevaluate_to_reported_values(self, additive):
        rng = np.random.default_rng(21)
        spec = GridSpec(epsilon=1.0, h=2.0)
        space = enumerate_multi_item(2, 1)
        domain = ProfileDomain.full_grid(spec, 2, 1)
        prior = product_prior(
            spec, [[{0: Fraction(1, 3), 1: Fraction(1, 3), 2: Fraction(1, 3)}]] * 2
        )
        probs = rng.dirichlet(np.ones(3), size=domain.num_profiles)
        payments = rng.uniform(-0.5, 1.5, size=(domain.num_profiles, 2))
        mech = MechanismTable(domain=domain, space=space, probs=probs, payments=payments)
        rep = regret_report(mech, prior, additive)

        k = rep.bic_witness["bidder"]
        utilities, _ = interim_utilities(
            mech, prior, k, domain_values(mech.domain, mech.space, additive, k)
        )
        t = mech.domain.bidder_type_rank(k, rep.bic_witness["true_type"])
        r = mech.domain.bidder_type_rank(k, rep.bic_witness["report"])
        assert utilities[t, r] - utilities[t, t] == pytest.approx(
            rep.bic_regret, abs=1e-9
        )

        k = rep.dsic_witness["bidder"]
        val = additive.value_table(space, spec, k)
        t = mech.domain.bidder_type_rank(k, rep.dsic_witness["true_type"])
        s = mech.domain.bidder_type_rank(k, rep.dsic_witness["report"])
        rest = rep.dsic_witness["rest_rank"]

        def rank_of(own, other):
            types = [0, 0]
            types[k], types[1 - k] = own, other
            return types[0] * 3 + types[1]

        u_dev = val[t] @ probs[rank_of(s, rest)] - payments[rank_of(s, rest), k]
        u_tru = val[t] @ probs[rank_of(t, rest)] - payments[rank_of(t, rest), k]
        assert u_dev - u_tru == pytest.approx(rep.dsic_regret, abs=1e-9)

        k = rep.ir_witness["bidder"]
        val = additive.value_table(space, spec, k)
        t = mech.domain.bidder_type_rank(k, rep.ir_witness["type"])
        rest = rep.ir_witness["rest_rank"]
        u = val[t] @ probs[rank_of(t, rest)] - payments[rank_of(t, rest), k]
        assert u == pytest.approx(rep.ir_slack, abs=1e-9)

    def test_invariant_under_outcome_relabeling(self, additive):
        rng = np.random.default_rng(11)
        spec = GridSpec(epsilon=1.0, h=2.0)
        space = enumerate_multi_item(2, 1)
        domain = ProfileDomain.full_grid(spec, 2, 1)
        prior = product_prior(
            spec, [[{0: Fraction(1, 2), 2: Fraction(1, 2)}]] * 2
        )
        probs = rng.dirichlet(np.ones(3), size=domain.num_profiles)
        payments = rng.uniform(0, 1, size=(domain.num_profiles, 2))
        mech = MechanismTable(domain=domain, space=space, probs=probs, payments=payments)
        rep = regret_report(mech, prior, additive)
        perm = np.array([2, 0, 1])
        space_p = type(space)(
            kind="custom", n=2, m=1, alloc=space.alloc[perm]
        )
        mech_p = MechanismTable(
            domain=domain, space=space_p, probs=probs[:, perm], payments=payments
        )
        rep_p = regret_report(mech_p, prior, additive)
        assert rep_p.bic_regret == pytest.approx(rep.bic_regret, abs=1e-12)
        assert rep_p.dsic_regret == pytest.approx(rep.dsic_regret, abs=1e-12)
        assert rep_p.ir_slack == pytest.approx(rep.ir_slack, abs=1e-12)


class TestSerialization:
    def test_round_trip_identity(self, quarter_grid):
        mech = posted_price_table(quarter_grid, price=1.0, m=2)
        text = serialize_mechanism(mech)
        back = deserialize_mechanism(text)
        (back_probs, back_pay), (probs, pay) = dense(back), dense(mech)
        assert np.array_equal(back_probs, probs)
        assert np.array_equal(back_pay, pay)
        assert serialize_mechanism(back) == text

    def test_round_trip_support_domain(self):
        spec = GridSpec(epsilon=1.0, h=2.0)
        space = enumerate_multi_item(1, 1)
        domain = ProfileDomain(spec=spec, supports=(((0, 2),),))
        mech = MechanismTable(
            domain=domain,
            space=space,
            probs=np.array([[1.0, 0.0], [0.25, 0.75]]),
            payments=np.array([[0.0], [1.2]]),
            meta={"note": "tiny"},
        )
        back = deserialize_mechanism(serialize_mechanism(mech))
        assert back.domain.supports == mech.domain.supports
        assert np.array_equal(dense(back)[0], dense(mech)[0])
        assert back.meta["note"] == "tiny"

    def test_rejects_non_stochastic_lottery(self, quarter_grid):
        mech = posted_price_table(quarter_grid, price=1.0)
        text = serialize_mechanism(mech)
        bad = text.replace('"p":"1.0"', '"p":"0.9"', 1)
        with pytest.raises(ParseError, match="sum"):
            deserialize_mechanism(bad)

    def test_nan_lottery_is_rejected_before_it_is_written(self, quarter_grid):
        # NaN fails every comparison, so the range and sum checks let it by;
        # written out it becomes "p":"nan", which no reader accepts.
        mech = posted_price_table(quarter_grid, price=1.0)
        probs, pay = dense(mech)
        probs[0, 1] = np.nan
        with pytest.raises(UsageError, match="finite"):
            MechanismTable(domain=mech.domain, space=mech.space, probs=probs, payments=pay)

    def test_rejects_unknown_format(self):
        with pytest.raises(ParseError):
            deserialize_mechanism('{"header": {"format": "bogus"}, "rows": []}')

    def test_rejects_corrupt_json(self):
        with pytest.raises(ParseError):
            deserialize_mechanism("not json at all")

    def test_rejects_row_count_mismatch(self, quarter_grid):
        import json

        mech = posted_price_table(quarter_grid, price=1.0)
        doc = json.loads(serialize_mechanism(mech))
        doc["rows"] = doc["rows"][:-1]
        with pytest.raises(ParseError, match="rows"):
            deserialize_mechanism(json.dumps(doc))

    def test_rejects_disagreeing_entry_payments(self):
        mech = MechanismTable(
            domain=ProfileDomain.full_grid(GridSpec(epsilon=1.0, h=2.0), 1, 1),
            space=enumerate_multi_item(1, 1),
            probs=np.array([[1.0, 0.0], [0.25, 0.75], [0.5, 0.5]]),
            payments=np.array([[0.0], [1.2], [0.5]]),
        )
        doc = json.loads(serialize_mechanism(mech))
        assert dense(deserialize_mechanism(json.dumps(doc)))[1][1, 0] == 1.2
        doc["rows"][1]["entries"][1]["pay"] = ["99.0"]
        with pytest.raises(ParseError, match="row 1 entry 1: payments"):
            deserialize_mechanism(json.dumps(doc))

    def test_rejects_bad_outcome_index(self, quarter_grid):
        mech = posted_price_table(quarter_grid, price=1.0)
        text = serialize_mechanism(mech)
        bad = text.replace('"outcome":1', '"outcome":9', 1)
        with pytest.raises(ParseError, match="outcome"):
            deserialize_mechanism(bad)

    @pytest.mark.parametrize(
        "where, key",
        # every key but the optional header "meta"
        [("header", k) for k in ("format", "n", "m", "epsilon", "h", "space_hash",
                                 "space", "domain")]
        + [("row", "profile"), ("row", "entries")]
        + [("entry", "p"), ("entry", "outcome"), ("entry", "pay")],
    )
    def test_missing_key_is_parse_error(self, quarter_grid, where, key):
        doc = json.loads(serialize_mechanism(posted_price_table(quarter_grid, price=1.0)))
        row = doc["rows"][-1]
        del {"header": doc["header"], "row": row, "entry": row["entries"][0]}[where][key]
        with pytest.raises(ParseError):
            deserialize_mechanism(json.dumps(doc))


def _pinned_mechanism(name: str) -> MechanismTable:
    additive = ValuationModel(tag="additive")
    if name in ("learned_dsic", "learned_bic"):
        cell = PriorCell("uniform", {"low": 0.0, "high": 2.0})
        desc = PriorDescription(n=2, m=2, h=2.0, cells=((cell, cell), (cell, cell)))
        samples = sample_prior(desc, 2, 2, 3, seed=5)
        learn = learn_dsic if name == "learned_dsic" else learn_bic
        return learn(samples, 0.5, enumerate_multi_item(2, 2), additive).inner
    spec = GridSpec(epsilon=1.0, h=2.0)
    if name == "support_n3":
        prior = product_prior(spec, [
            [{1: Fraction(1, 3), 2: Fraction(2, 3)}],
            [{0: Fraction(1, 4), 1: Fraction(1, 4), 2: Fraction(1, 2)}],
            [{2: 1}],
        ])
        problem = OracleProblem(
            prior=prior, space=enumerate_multi_item(3, 1), model=additive, ic_mode="bic"
        )
        return solve_optimal(problem).mechanism
    # hand-built: a -0.0 payment, a 1/3 lottery and zero-probability outcomes
    probs = np.zeros((9, 4))
    probs[:, 0] = 1.0
    probs[4] = [1 / 3, 0.0, 0.0, 2 / 3]
    probs[8] = [0.0, 0.25, 0.75, 0.0]
    payments = np.zeros((9, 1))
    payments[0, 0] = -0.0
    payments[4, 0] = 1 / 3
    payments[8, 0] = 1.1
    return MechanismTable(
        domain=ProfileDomain.full_grid(spec, 1, 2),
        space=enumerate_multi_item(1, 2),
        probs=probs,
        payments=payments,
        meta={"note": "hand-built", "bound": 0.1},
    )


@pytest.mark.parametrize(
    "name, digest",
    [
        ("learned_dsic", "5777a925bb18b9ed11f5b45e79e0f0ac7144c07a7729ccc004f7232a40811c17"),
        ("learned_bic", "6d08f4512fd58239b34095d2df59f3d9372662f63d690b03e6b0acec712d02dc"),
        ("support_n3", "834b524ef1975c052bf18e25cbe35f54fd12f17eb168dbfde904895720257128"),
        ("hand_built", "a4a1f221fb7946664a9389603e88fe093cf18028f8c4e36ae50f180c2927630a"),
    ],
)
def test_serialized_bytes_are_pinned(name, digest):
    # Every byte of the canonical mechanism file: key order, number text,
    # row and entry order, and which zero-probability outcomes are left out.
    text = serialize_mechanism(_pinned_mechanism(name))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("rows", [1, 7])
@pytest.mark.parametrize("name", ["learned_dsic", "learned_bic", "support_n3", "hand_built"])
def test_serialized_bytes_do_not_depend_on_the_row_block(monkeypatch, name, rows):
    mech = _pinned_mechanism(name)
    monkeypatch.setattr(mechanism, "SERIALIZE_BLOCK_ROWS", mech.domain.num_profiles)
    whole = serialize_mechanism(mech)  # one block, as the pinned digests are
    monkeypatch.setattr(mechanism, "SERIALIZE_BLOCK_ROWS", rows)
    assert serialize_mechanism(mech) == whole


def test_serialize_peak_memory_stays_under_two_and_a_half_texts():
    # n = 3, m = 2 on a five-level grid: 15625 rows of one or two entries
    spec = GridSpec(epsilon=1.0, h=4.0)
    domain = ProfileDomain.full_grid(spec, 3, 2)
    space = enumerate_multi_item(3, 2)
    r, k = domain.num_profiles, space.num_outcomes
    rng = np.random.default_rng(0)
    probs = np.zeros((r, k))
    probs[np.arange(r), rng.integers(0, k, r)] = 0.5
    probs[np.arange(r), rng.integers(0, k, r)] += 0.5
    mech = MechanismTable(
        domain=domain, space=space, probs=probs,
        payments=rng.uniform(0.0, 2.0, size=(r, 3)),
    )
    tracemalloc.start()
    try:
        text = serialize_mechanism(mech)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * len(text)


def _small_documents() -> list[str]:
    spec = GridSpec(epsilon=1.0, h=2.0)
    support = MechanismTable(
        domain=ProfileDomain(spec=spec, supports=(((0, 2),),)),
        space=enumerate_multi_item(1, 1),
        probs=np.array([[1.0, 0.0], [0.25, 0.75]]),
        payments=np.array([[0.0], [1.2]]),
    )
    return [serialize_mechanism(posted_price_table(spec, price=1.0, m=2)),
            serialize_mechanism(support)]


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_document_raises_only_parse_error(data):
    doc = json.loads(data.draw(st.sampled_from(_small_documents())))
    node = doc
    while True:  # walk down to a random container, then mutate one child
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict)
                                        else range(len(node))))
        child = node[key]
        if not (isinstance(child, (dict, list)) and child and data.draw(st.booleans())):
            break
        node = child
    if data.draw(st.booleans()):
        del node[key]
    else:
        node[key] = data.draw(_JSON_VALUES)
    try:
        deserialize_mechanism(json.dumps(doc))
    except ParseError:
        pass
