from fractions import Fraction

import numpy as np
import pytest

from mechlearn import (
    GridSpec,
    Menu,
    MenuEntry,
    UsageError,
    enumerate_multi_item,
    evaluate_on_reals,
    learn_bic,
    learn_dsic,
    mechanism_to_menu,
    nudge_to_ic,
    serialize_mechanism,
)
from mechlearn.learner import (
    menu_mechanism,
    menu_selection,
    real_lattice_bic_regret,
    real_lattice_dsic_regret,
)
from mechlearn.mechanism import (
    audit_over_domain,
    deserialize_mechanism,
    regret_report,
    revenue,
)
from mechlearn.outcomes import OutcomeSpace
from mechlearn.priors import PriorCell, PriorDescription, sample_prior

from conftest import dense, posted_price_table, product_prior


def u12_description(n, m):
    cell = PriorCell(
        "discrete_on_grid", {"values": [1.0, 2.0], "probs": ["1/2", "1/2"]}
    )
    return PriorDescription(n=n, m=m, h=2.0, cells=tuple((cell,) * m for _ in range(n)))


def offgrid_description(n, m):
    cell = PriorCell(
        "point_masses",
        {"values": [0.3, 1.1, 1.85], "probs": ["1/3", "1/3", "1/3"]},
    )
    return PriorDescription(n=n, m=m, h=2.0, cells=tuple((cell,) * m for _ in range(n)))


class TestLearnBic:
    def test_point_mass_posts_rounded_value(self, additive):
        cell = PriorCell("point_masses", {"values": [1.3], "probs": [1]})
        prior = PriorDescription(n=1, m=1, h=2.0, cells=((cell,),))
        samples = sample_prior(prior, 1, 1, 25, seed=0)
        learned = learn_bic(samples, 0.25, enumerate_multi_item(1, 1), additive)
        assert float(learned.exact_revenue_on_atoms(prior)) == pytest.approx(
            1.25, abs=1e-9
        )

    def test_inner_exactly_bic_for_empirical_prior(self, additive):
        from mechlearn.learner import _empirical_prior

        prior = u12_description(1, 2)
        space = enumerate_multi_item(1, 2)
        samples = sample_prior(prior, 1, 2, 120, seed=2)
        learned = learn_bic(samples, 0.25, space, additive)
        emp = _empirical_prior(samples, learned.spec)
        rep = regret_report(learned.inner, emp, additive)
        assert rep.bic_regret <= 1e-8

    def test_regret_bound_against_rounded_truth(self, additive):
        # guarantee: 2*m*eps regret against the rounded true prior, holding
        # on seeded runs at this sample size
        prior = u12_description(1, 2)
        space = enumerate_multi_item(1, 2)
        for seed in range(5):
            samples = sample_prior(prior, 1, 2, 500, seed=seed)
            learned = learn_bic(samples, 0.25, space, additive)
            grid_prior = prior.to_grid_prior(learned.spec)
            rep = regret_report(learned.inner, grid_prior, additive)
            assert rep.bic_regret <= 2 * 2 * 0.25 + 1e-8

    def test_wrapper_bic_regret_on_real_lattice(self, additive):
        prior = u12_description(1, 2)
        space = enumerate_multi_item(1, 2)
        samples = sample_prior(prior, 1, 2, 500, seed=3)
        learned = learn_bic(samples, 0.25, space, additive)
        grid_prior = prior.to_grid_prior(learned.spec)
        bound = 4 * 2 * 0.25
        assert real_lattice_bic_regret(learned, grid_prior, additive, per_coord=10) <= bound + 1e-8

    def test_revenue_transfer_identity_exact(self, additive):
        prior = offgrid_description(1, 2)
        space = enumerate_multi_item(1, 2)
        samples = sample_prior(prior, 1, 2, 90, seed=4)
        learned = learn_bic(samples, 0.25, space, additive)
        lhs = learned.exact_revenue_on_atoms(prior)
        rhs = revenue(learned.inner, prior.to_grid_prior(learned.spec), exact=True)
        assert lhs == rhs

    def test_pipeline_deterministic_byte_for_byte(self, additive):
        prior = u12_description(1, 2)
        space = enumerate_multi_item(1, 2)
        samples = sample_prior(prior, 1, 2, 200, seed=6)
        a = learn_bic(samples, 0.25, space, additive)
        b = learn_bic(samples, 0.25, space, additive)
        assert serialize_mechanism(a.inner) == serialize_mechanism(b.inner)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP open item 2: extend_bic keeps the best interim reply of "
        "a type with no ex-post IR-safe report, which can charge above its value",
    )
    def test_learned_tables_are_ir_over_the_full_grid(self, additive):
        # the learned_bic serializer pin's instance, over 40 sampling seeds,
        # audited under the uniform prior on the full grid
        cell = PriorCell("uniform", {"low": 0.0, "high": 2.0})
        desc = PriorDescription(n=2, m=2, h=2.0, cells=((cell, cell), (cell, cell)))
        spec = GridSpec(epsilon=0.5, h=2.0)
        uniform = {k: Fraction(1, spec.levels) for k in range(spec.levels)}
        grid_prior = product_prior(spec, [[uniform] * 2] * 2)
        space = enumerate_multi_item(2, 2)
        failing = []
        for seed in range(40):
            samples = sample_prior(desc, 2, 2, 3, seed=seed)
            learned = learn_bic(samples, 0.5, space, additive)
            if audit_over_domain(learned.inner, grid_prior, additive).ir_slack < -1e-8:
                failing.append(seed)
        assert failing == []


class TestLearnDsic:
    def test_point_mass_no_regret(self, additive):
        cell = PriorCell("point_masses", {"values": [1.3], "probs": [1]})
        prior = PriorDescription(n=2, m=1, h=2.0, cells=((cell,), (cell,)))
        samples = sample_prior(prior, 2, 1, 25, seed=0)
        learned = learn_dsic(samples, 0.25, enumerate_multi_item(2, 1), additive)
        rep = regret_report(learned.inner, prior.to_grid_prior(learned.spec), additive)
        assert rep.dsic_regret <= 1e-9
        assert rep.ir_slack >= -1e-9

    def test_seeded_runs_meet_declared_bounds(self, additive):
        prior = offgrid_description(2, 2)
        space = enumerate_multi_item(2, 2)
        bound = 4 * 2 * 0.25
        for seed in range(3):
            samples = sample_prior(prior, 2, 2, 60, seed=seed)
            learned = learn_dsic(samples, 0.25, space, additive)
            grid_prior = prior.to_grid_prior(learned.spec)
            rep = regret_report(learned.inner, grid_prior, additive)
            assert rep.dsic_regret <= bound + 1e-8
            assert rep.ir_slack >= -1e-8
            lhs = learned.exact_revenue_on_atoms(prior)
            rhs = revenue(learned.inner, grid_prior, exact=True)
            assert lhs == rhs
            assert real_lattice_dsic_regret(learned, additive, per_coord=6) <= bound + 1e-8

    def test_refuses_non_closed_space(self, additive):
        space = OutcomeSpace(kind="custom", n=2, m=1, alloc=np.ones((1, 2, 1)))
        cell = PriorCell("point_masses", {"values": [1.0], "probs": [1]})
        prior = PriorDescription(n=2, m=1, h=2.0, cells=((cell,), (cell,)))
        samples = sample_prior(prior, 2, 1, 5, seed=0)
        with pytest.raises(UsageError, match="downward closed"):
            learn_dsic(samples, 0.25, space, additive)


class TestEvaluateOnReals:
    def _learned(self, additive):
        prior = u12_description(1, 2)
        samples = sample_prior(prior, 1, 2, 60, seed=1)
        return learn_bic(samples, 0.25, enumerate_multi_item(1, 2), additive)

    def test_grid_bids_match_inner_lookup(self, additive):
        learned = self._learned(additive)
        rank = learned.inner.domain.profile_rank([[4, 8]])
        entries = evaluate_on_reals(learned, [[1.0, 2.0]])
        assert entries == learned.inner.lottery_entries(rank)

    def test_rounding_idempotent(self, additive):
        learned = self._learned(additive)
        assert evaluate_on_reals(learned, [[1.13, 0.77]]) == evaluate_on_reals(
            learned, [[1.0, 0.75]]
        )

    def test_out_of_range_bid_rejected(self, additive):
        learned = self._learned(additive)
        from mechlearn import DomainError

        with pytest.raises(DomainError):
            evaluate_on_reals(learned, [[2.5, 0.0]])


class TestMenus:
    def test_posted_price_menu_has_two_entries(self, quarter_grid, additive):
        mech = posted_price_table(quarter_grid, price=1.0)
        menu = mechanism_to_menu(mech, additive)
        assert len(menu.entries) == 2
        assert menu.entries[0].payment == 0.0

    def test_constant_mechanism_menu(self, quarter_grid, additive):
        mech = posted_price_table(quarter_grid, price=0.0)  # always sells at 0... free bundle
        menu = mechanism_to_menu(mech, additive)
        # zero entry plus the single distinct (bundle, 0) row
        assert len(menu.entries) == 2

    def test_reselection_reproduces_ic_source(self, additive):
        prior = u12_description(1, 2)
        samples = sample_prior(prior, 1, 2, 150, seed=9)
        learned = learn_bic(samples, 0.25, enumerate_multi_item(1, 2), additive)
        menu = mechanism_to_menu(learned.inner, additive)
        rebuilt = menu_mechanism(menu, additive, learned.spec)
        val = additive.value_table(learned.inner.space, learned.spec, 0)
        (src_probs, src_pay), (new_probs, new_pay) = dense(learned.inner), dense(rebuilt)
        u_src = np.einsum("to,ro->tr", val, src_probs) - src_pay[:, 0][None, :]
        u_new = np.einsum("to,ro->tr", val, new_probs) - new_pay[:, 0][None, :]
        assert np.allclose(np.diag(u_new), np.diag(u_src), atol=1e-9)

    def test_menu_requires_entries(self):
        space = enumerate_multi_item(1, 1)
        with pytest.raises(UsageError):
            Menu(space=space, entries=())


class TestNudge:
    def _menu(self, price):
        space = enumerate_multi_item(1, 1)
        zero = MenuEntry(probs=np.array([1.0, 0.0]), payment=0.0)
        sale = MenuEntry(probs=np.array([0.0, 1.0]), payment=price)
        return Menu(space=space, entries=(zero, sale))

    def test_zero_epsilon_keeps_payments(self, additive):
        menu = self._menu(1.5)
        out = nudge_to_ic(menu, additive, 0.0)
        assert [e.payment for e in out.entries] == [0.0, 1.5]

    def test_single_entry_price_scaled(self, additive):
        menu = self._menu(1.5)
        out = nudge_to_ic(menu, additive, 0.04)
        assert out.entries[1].payment == pytest.approx((1 - 0.2) * 1.5, abs=1e-12)

    def test_negative_epsilon_rejected(self, additive):
        with pytest.raises(UsageError):
            nudge_to_ic(self._menu(1.0), additive, -0.1)

    def test_selection_breaks_ties_toward_high_payment(self, additive):
        spec = GridSpec(epsilon=1.0, h=2.0)
        space = enumerate_multi_item(1, 1)
        menu = Menu(
            space=space,
            entries=(
                MenuEntry(probs=np.array([1.0, 0.0]), payment=0.0),
                MenuEntry(probs=np.array([0.0, 1.0]), payment=1.0),
            ),
        )
        choice = menu_selection(menu, additive, spec)
        # the type whose value equals the price is indifferent: buy anyway
        assert choice.tolist() == [0, 1, 1]
        # equal utility and equal payment: earliest entry wins
        dup = Menu(space=space, entries=(menu.entries[0], menu.entries[0]))
        assert menu_selection(dup, additive, spec)[0] == 0

    def test_random_eps_ic_menus_bound(self, additive):
        rng = np.random.default_rng(123)
        spec = GridSpec(epsilon=0.25, h=2.0)
        space = enumerate_multi_item(1, 2)
        full = {k: Fraction(1, spec.levels) for k in range(spec.levels)}
        prior = product_prior(spec, [[dict(full), dict(full)]])
        for eps in (0.01, 0.09):
            for _ in range(30):
                entries = [MenuEntry(probs=np.eye(space.num_outcomes)[0], payment=0.0)]
                for _ in range(int(rng.integers(1, 5))):
                    w = rng.random(space.num_outcomes)
                    w /= w.sum()
                    entries.append(
                        MenuEntry(probs=w, payment=float(rng.uniform(0, 3)))
                    )
                menu = Menu(space=space, entries=tuple(entries))
                u = menu.utilities(additive, spec)
                pay = np.array([e.payment for e in menu.entries])
                assign = np.zeros(u.shape[0], dtype=int)
                for t in range(u.shape[0]):
                    ok = np.flatnonzero((u[t] >= u[t].max() - eps) & (u[t] >= 0))
                    assign[t] = int(rng.choice(ok))
                rev0 = float(pay[assign].mean())  # uniform evaluation prior
                nudged = nudge_to_ic(menu, additive, eps)
                mech = menu_mechanism(nudged, additive, spec)
                rep = regret_report(mech, prior, additive)
                assert rep.bic_regret <= 1e-9
                assert rep.ir_slack >= -1e-9
                rev1 = revenue(mech, prior)
                assert rev1 >= (1 - np.sqrt(eps)) * (rev0 - np.sqrt(eps)) - 1e-9

    def test_learned_single_bidder_nudged_to_exact_ic(self, additive):
        # epsilon small enough that 4*m*eps < 1, so the discount factor is
        # positive and the bound is meaningful
        eps = 0.05
        cell = PriorCell(
            "discrete_on_grid",
            {"values": [0.0, 1.0, 2.0], "probs": ["1/4", "1/2", "1/4"]},
        )
        prior = PriorDescription(n=1, m=2, h=2.0, cells=((cell, cell),))
        samples = sample_prior(prior, 1, 2, 300, seed=21)
        learned = learn_bic(samples, eps, enumerate_multi_item(1, 2), additive)
        from mechlearn.learner import _empirical_prior

        emp = _empirical_prior(samples, learned.spec)
        menu = mechanism_to_menu(learned.inner, additive)
        eps_ic = 4 * 2 * eps
        nudged = nudge_to_ic(menu, additive, eps_ic)
        mech = menu_mechanism(nudged, additive, learned.spec)
        rep = regret_report(mech, emp, additive)
        assert rep.bic_regret <= 1e-9
        base = menu_mechanism(menu, additive, learned.spec)
        rev0 = revenue(base, emp)
        rev1 = revenue(mech, emp)
        assert rev1 >= (1 - np.sqrt(eps_ic)) * (rev0 - np.sqrt(eps_ic)) - 1e-9


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("epsilon", [0.1, 0.3, 1 / 3])
def test_declared_regret_bounds_are_2m_and_4m_epsilon_bit_for_bit(additive, m, epsilon):
    cell = PriorCell("point_masses", {"values": [0.5, 1.0], "probs": ["1/2", "1/2"]})
    prior = PriorDescription(n=1, m=m, h=1.0, cells=((cell,) * m,))
    samples = sample_prior(prior, 1, m, 20, seed=1)
    space = enumerate_multi_item(1, m)
    bic = learn_bic(samples, epsilon, space, additive).inner
    dsic = learn_dsic(samples, epsilon, space, additive).inner
    for mech, key, bound in (
        (bic, "bic_regret_bound", 2.0 * m * epsilon),
        (dsic, "dsic_regret_bound", 4.0 * m * epsilon),
    ):
        for meta in (mech.meta, deserialize_mechanism(serialize_mechanism(mech)).meta):
            assert meta[key].hex() == bound.hex()
