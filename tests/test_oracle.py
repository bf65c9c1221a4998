import hashlib
import itertools
from fractions import Fraction

import numpy as np
import pytest

from mechlearn import (
    CapacityError,
    GridSpec,
    MechanismTable,
    ProfileDomain,
    UsageError,
    brute_force_optimal,
    check_weakly_downward_closed,
    enumerate_multi_item,
    extend_bic,
    extend_dsic,
    revenue,
    solve_optimal,
)
from mechlearn.mechanism import audit_over_domain
from mechlearn.oracle import OracleProblem, bic_replacement_map

from conftest import product_prior


def u12_prior(spec, n, m):
    cell = {spec.top_index // 2: Fraction(1, 2), spec.top_index: Fraction(1, 2)}
    return product_prior(spec, [[dict(cell) for _ in range(m)] for _ in range(n)])


class TestSolveOptimal:
    def test_point_mass_extracts_full_surplus(self, additive):
        spec = GridSpec(epsilon=1.0, h=2.0)
        prior = product_prior(spec, [[{2: Fraction(1)}]])
        space = enumerate_multi_item(1, 1)
        sol = solve_optimal(
            OracleProblem(prior=prior, space=space, model=additive, ic_mode="bic")
        )
        assert sol.objective_value == pytest.approx(2.0, abs=1e-8)

    def test_uniform_two_type_single_item(self, additive):
        # oracle re-derivation: a single-bidder single-item IC menu is a
        # posted price; enumerate both support prices
        spec = GridSpec(epsilon=1.0, h=2.0)
        prior = u12_prior(spec, 1, 1)
        space = enumerate_multi_item(1, 1)
        menu_best = max(1.0 * 1.0, 0.5 * 2.0)
        assert menu_best == 1.0
        sol = solve_optimal(
            OracleProblem(prior=prior, space=space, model=additive, ic_mode="bic")
        )
        assert sol.objective_value == pytest.approx(1.0, abs=1e-8)

    def test_two_items_matches_brute_force(self, additive):
        spec = GridSpec(epsilon=1.0, h=2.0)
        prior = u12_prior(spec, 1, 2)
        space = enumerate_multi_item(1, 2)
        sol = solve_optimal(
            OracleProblem(prior=prior, space=space, model=additive, ic_mode="bic")
        )
        exact = brute_force_optimal(prior, space, additive, "bic")
        assert sol.objective_value == pytest.approx(float(exact), abs=1e-7)

    def test_zero_prior_zero_revenue(self, additive):
        spec = GridSpec(epsilon=1.0, h=2.0)
        prior = product_prior(spec, [[{0: Fraction(1)}]])
        space = enumerate_multi_item(1, 1)
        sol = solve_optimal(
            OracleProblem(prior=prior, space=space, model=additive, ic_mode="bic")
        )
        assert sol.objective_value == pytest.approx(0.0, abs=1e-8)
        assert float(brute_force_optimal(prior, space, additive, "bic")) == 0.0

    def test_dsic_zero_slack_at_most_bic(self, additive):
        spec = GridSpec(epsilon=1.0, h=2.0)
        prior = u12_prior(spec, 2, 1)
        space = enumerate_multi_item(2, 1)
        bic = solve_optimal(
            OracleProblem(prior=prior, space=space, model=additive, ic_mode="bic")
        )
        dsic = solve_optimal(
            OracleProblem(
                prior=prior, space=space, model=additive, ic_mode="dsic", eta=0.0
            )
        )
        assert dsic.objective_value <= bic.objective_value + 1e-8

    def test_objective_equals_recomputed_revenue(self, additive):
        spec = GridSpec(epsilon=0.5, h=2.0)
        prior = product_prior(
            spec, [[{1: Fraction(1, 3), 3: Fraction(1, 3), 4: Fraction(1, 3)}]]
        )
        space = enumerate_multi_item(1, 1)
        sol = solve_optimal(
            OracleProblem(prior=prior, space=space, model=additive, ic_mode="bic")
        )
        assert revenue(sol.mechanism, prior) == pytest.approx(
            sol.objective_value, abs=1e-8
        )

    def test_deterministic_bit_identical(self, additive):
        spec = GridSpec(epsilon=0.5, h=2.0)
        prior = product_prior(
            spec, [[{0: Fraction(1, 4), 2: Fraction(1, 2), 4: Fraction(1, 4)}]] * 2
        )
        space = enumerate_multi_item(2, 1)
        problem = OracleProblem(prior=prior, space=space, model=additive, ic_mode="bic")
        a = solve_optimal(problem)
        b = solve_optimal(problem)
        assert np.array_equal(a.mechanism.probs, b.mechanism.probs)
        assert np.array_equal(a.mechanism.payments, b.mechanism.payments)

    def test_budget_guard(self, additive):
        spec = GridSpec(epsilon=0.05, h=2.0)
        full = {k: Fraction(1, spec.levels) for k in range(spec.levels)}
        prior = product_prior(spec, [[dict(full), dict(full)]] * 2)
        space = enumerate_multi_item(2, 2)
        with pytest.raises(CapacityError):
            solve_optimal(
                OracleProblem(prior=prior, space=space, model=additive, ic_mode="bic")
            )

    def test_eta_must_be_nonnegative(self, additive):
        spec = GridSpec(epsilon=1.0, h=2.0)
        prior = u12_prior(spec, 1, 1)
        space = enumerate_multi_item(1, 1)
        with pytest.raises(UsageError):
            OracleProblem(
                prior=prior, space=space, model=additive, ic_mode="dsic", eta=-0.1
            )

    def test_lp_dump_written(self, additive, tmp_path):
        spec = GridSpec(epsilon=1.0, h=2.0)
        prior = u12_prior(spec, 1, 1)
        space = enumerate_multi_item(1, 1)
        path = tmp_path / "dump.lp"
        solve_optimal(
            OracleProblem(prior=prior, space=space, model=additive, ic_mode="bic"),
            lp_dump=str(path),
        )
        text = path.read_text()
        assert text.startswith("Minimize") and "Subject To" in text

    def test_random_tiny_instances_agree_with_brute_force(self, additive):
        rng = np.random.default_rng(2024)
        spec = GridSpec(epsilon=0.5, h=2.0)
        for trial in range(10):
            if trial % 2 == 0:
                n, m = 1, 1
                sizes = [[int(rng.integers(2, 5))]]
            else:
                n, m = 2, 1
                sizes = [[2], [2]]
            cells = []
            for i in range(n):
                row = []
                for j in range(m):
                    support = sorted(
                        rng.choice(spec.levels, size=sizes[i][j], replace=False)
                    )
                    weights = rng.integers(1, 5, size=len(support))
                    total = int(weights.sum())
                    row.append(
                        {
                            int(k): Fraction(int(w), total)
                            for k, w in zip(support, weights)
                        }
                    )
                cells.append(row)
            prior = product_prior(spec, cells)
            space = enumerate_multi_item(n, m)
            mode = "bic" if trial % 3 else "dsic"
            eta = 0.25 if mode == "dsic" else 0.0
            problem = OracleProblem(
                prior=prior, space=space, model=additive, ic_mode=mode, eta=eta
            )
            sol = solve_optimal(problem)
            exact = brute_force_optimal(prior, space, additive, mode, eta)
            assert sol.objective_value == pytest.approx(float(exact), abs=1e-7)
            rep = audit_over_domain(sol.mechanism, prior, additive)
            assert rep.ir_slack >= -1e-8
            if mode == "bic":
                assert rep.bic_regret <= 1e-8
            else:
                assert rep.dsic_regret <= eta + 1e-8

    def test_mass_shift_upward_never_hurts(self, additive):
        # single bidder, single item: consolidating mass at higher values
        # weakly raises the optimum
        rng = np.random.default_rng(77)
        spec = GridSpec(epsilon=0.5, h=2.0)
        space = enumerate_multi_item(1, 1)
        for _ in range(20):
            support = sorted(rng.choice(spec.levels, size=3, replace=False))
            w = rng.integers(1, 4, size=3)
            total = int(w.sum())
            cell = {int(k): Fraction(int(x), total) for k, x in zip(support, w)}
            lo, hi = support[0], support[2]
            shift = cell[lo] / 2
            shifted = dict(cell)
            shifted[lo] -= shift
            shifted[hi] += shift
            shifted = {k: v for k, v in shifted.items() if v > 0}
            base = brute_force_optimal(
                product_prior(spec, [[cell]]), space, additive, "bic"
            )
            up = brute_force_optimal(
                product_prior(spec, [[shifted]]), space, additive, "bic"
            )
            assert up >= base

    @pytest.mark.parametrize(
        "name, mode, digest",
        [
            ("n2m2", "bic", "2512cdf73d97b10bad02dd82490d3faeaea534faebea76fa77f8bbb00527f11c"),
            ("n2m2", "dsic", "8d2f0fe1af40c6bcb2f4cf500c19cb5ad2da3d5666112df88626b4819e2d5510"),
            ("n3m1", "bic", "ac8c1f0ffa7ee3d38aefa900282db3fd6d1f7b56249eb65ddf296bf88d40584c"),
            ("n3m1", "dsic", "42eccb12e74ba4c926ce45891fda41c9812f8d247d7f65e8174c252535a31ad6"),
        ],
    )
    def test_lp_dump_is_pinned(self, additive, tmp_path, name, mode, digest):
        # Every coefficient, bound and row order of the assembled LP, as
        # the text dump shows them; a change here changes what HiGHS solves.
        spec = GridSpec(epsilon=1.0, h=2.0)
        cells = {
            "n2m2": [
                [{1: Fraction(1, 3), 2: Fraction(2, 3)}, {0: Fraction(1, 2), 2: Fraction(1, 2)}],
                [{1: Fraction(1, 5), 2: Fraction(4, 5)}, {1: Fraction(1, 7), 2: Fraction(6, 7)}],
            ],
            "n3m1": [
                [{1: Fraction(1, 3), 2: Fraction(2, 3)}],
                [{0: Fraction(1, 2), 2: Fraction(1, 2)}],
                [{1: Fraction(1, 5), 2: Fraction(4, 5)}],
            ],
        }[name]
        n, m = len(cells), len(cells[0])
        path = tmp_path / "dump.lp"
        solve_optimal(
            OracleProblem(
                prior=product_prior(spec, cells),
                space=enumerate_multi_item(n, m),
                model=additive,
                ic_mode=mode,
                eta=0.5 if mode == "dsic" else 0.0,
            ),
            lp_dump=str(path),
        )
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestExtendBic:
    def _support_solution(self, additive):
        spec = GridSpec(epsilon=1.0, h=2.0)
        prior = u12_prior(spec, 1, 1)  # support {1, 2}
        space = enumerate_multi_item(1, 1)
        sol = solve_optimal(
            OracleProblem(prior=prior, space=space, model=additive, ic_mode="bic")
        )
        return spec, prior, space, sol

    def test_on_support_rows_unchanged(self, additive):
        spec, prior, space, sol = self._support_solution(additive)
        full = extend_bic(sol.mechanism, prior, additive)
        for t in (1, 2):
            src = sol.mechanism.domain.profile_rank([[t]])
            dst = full.domain.profile_rank([[t]])
            assert np.array_equal(full.probs[dst], sol.mechanism.probs[src])
            assert np.array_equal(full.payments[dst], sol.mechanism.payments[src])

    def test_single_bidder_gets_favorite_row(self, additive):
        spec, prior, space, sol = self._support_solution(additive)
        full = extend_bic(sol.mechanism, prior, additive)
        val = additive.value_table(space, spec, 0)
        supp_ranks = [sol.mechanism.domain.profile_rank([[t]]) for t in (1, 2)]
        for k in range(spec.levels):
            utilities = [
                val[k] @ sol.mechanism.probs[r] - sol.mechanism.payments[r, 0]
                for r in supp_ranks
            ]
            best = max(utilities)
            dst = full.domain.profile_rank([[k]])
            got = val[k] @ full.probs[dst] - full.payments[dst, 0]
            assert got == pytest.approx(best, abs=1e-12)

    def test_tie_broken_lexicographically(self, additive):
        # two support rows with identical utility for the off-support type
        spec = GridSpec(epsilon=1.0, h=2.0)
        space = enumerate_multi_item(1, 1)
        domain = ProfileDomain(spec=spec, supports=(((0, 2),),))
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])  # type 0: nothing, type 2: item
        payments = np.array([[0.0], [1.0]])  # type 1 utility ties at 0
        mech = MechanismTable(domain=domain, space=space, probs=probs, payments=payments)
        prior = product_prior(spec, [[{0: Fraction(1, 2), 2: Fraction(1, 2)}]])
        rep = bic_replacement_map(mech, prior, additive, 0)
        assert rep[1] == 0  # lexicographically smaller of the tied replies
        assert rep[0] == 0 and rep[2] == 1  # on-support types untouched


class TestExtendDsic:
    def _two_bidder_solution(self, additive):
        spec = GridSpec(epsilon=1.0, h=2.0)
        prior = u12_prior(spec, 2, 1)  # supports {1, 2} each
        space = enumerate_multi_item(2, 1)
        sol = solve_optimal(
            OracleProblem(
                prior=prior, space=space, model=additive, ic_mode="dsic", eta=0.5
            )
        )
        closure = check_weakly_downward_closed(space, additive, spec)
        return spec, prior, space, sol, closure

    def test_on_support_rows_unchanged(self, additive):
        spec, prior, space, sol, closure = self._two_bidder_solution(additive)
        full = extend_dsic(sol.mechanism, space, additive, closure)
        for ta, tb in itertools.product((1, 2), repeat=2):
            src = sol.mechanism.domain.profile_rank([[ta], [tb]])
            dst = full.domain.profile_rank([[ta], [tb]])
            assert np.array_equal(full.probs[dst], sol.mechanism.probs[src])
            assert np.array_equal(full.payments[dst], sol.mechanism.payments[src])

    def test_two_off_support_bidders_zeroed(self, additive):
        spec, prior, space, sol, closure = self._two_bidder_solution(additive)
        full = extend_dsic(sol.mechanism, space, additive, closure)
        dst = full.domain.profile_rank([[0], [0]])  # both off-support
        assert full.payments[dst].tolist() == [0.0, 0.0]
        assert full.probs[dst, closure.zero_outcome] == 1.0

    def test_other_bidder_zeroed_whatever_she_bids(self, additive):
        spec, prior, space, sol, closure = self._two_bidder_solution(additive)
        full = extend_dsic(sol.mechanism, space, additive, closure)
        val = additive.value_table(space, spec, 1)
        for other_bid in range(spec.levels):
            dst = full.domain.profile_rank([[0], [other_bid]])  # bidder 0 off
            assert full.payments[dst, 1] == 0.0
            assert val[other_bid] @ full.probs[dst] == pytest.approx(0.0, abs=1e-12)

    def test_walk_away_preserves_ir(self, additive):
        # support {2} sells at 2; type 0 must not be forced to pay
        spec = GridSpec(epsilon=1.0, h=2.0)
        space = enumerate_multi_item(2, 1)
        prior = product_prior(spec, [[{2: Fraction(1)}]] * 2)
        sol = solve_optimal(
            OracleProblem(
                prior=prior, space=space, model=additive, ic_mode="dsic", eta=0.0
            )
        )
        closure = check_weakly_downward_closed(space, additive, spec)
        full = extend_dsic(sol.mechanism, space, additive, closure)
        rep = audit_over_domain(full, product_prior(spec, [[{0: Fraction(1, 2), 2: Fraction(1, 2)}]] * 2), additive)
        assert rep.ir_slack >= -1e-8

    def test_missing_closure_is_an_error(self, additive):
        spec, prior, space, sol, closure = self._two_bidder_solution(additive)
        from mechlearn.outcomes import ClosureResult

        broken = ClosureResult(
            closed=False, witness=None, counterexample=(0, 0), zero_outcome=None
        )
        with pytest.raises(UsageError, match="downward"):
            extend_dsic(sol.mechanism, space, additive, broken)


class TestSimplexDirect:
    def test_tiny_known_lp(self):
        from mechlearn.exactlp import simplex_maximize

        # max x0 + x1 st x0 + x1 = 1 (via eq), x1 - x0 <= 0.5, x >= 0
        # (the start point x0=1 must be feasible, per the solver's contract)
        c = [Fraction(1), Fraction(1)]
        a_eq = [{0: Fraction(1), 1: Fraction(1)}]
        b_eq = [Fraction(1)]
        a_ub = [{0: Fraction(-1), 1: Fraction(1)}]
        b_ub = [Fraction(1, 2)]
        out = simplex_maximize(c, a_eq, b_eq, a_ub, b_ub, nonneg={0, 1})
        assert Fraction(int(out.numerator), int(out.denominator)) == 1

    def test_free_variable_lp(self):
        from mechlearn.exactlp import simplex_maximize

        # max p st x = 1, p - 2x <= 0, x >= 0, p free -> p = 2
        c = [Fraction(0), Fraction(1)]
        a_eq = [{0: Fraction(1)}]
        b_eq = [Fraction(1)]
        a_ub = [{1: Fraction(1), 0: Fraction(-2)}]
        b_ub = [Fraction(0)]
        out = simplex_maximize(c, a_eq, b_eq, a_ub, b_ub, nonneg={0})
        assert Fraction(int(out.numerator), int(out.denominator)) == 2

    def test_guards(self, additive):
        spec = GridSpec(epsilon=0.25, h=2.0)
        big = {k: Fraction(1, 9) for k in range(9)}
        prior = product_prior(spec, [[dict(big)], [dict(big)]])
        space = enumerate_multi_item(2, 1)
        with pytest.raises(UsageError, match="guard"):
            brute_force_optimal(prior, space, additive, "bic")
