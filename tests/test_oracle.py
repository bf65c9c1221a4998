import hashlib
import itertools
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from mechlearn import (
    CapacityError,
    GridSpec,
    MechanismTable,
    ProfileDomain,
    UsageError,
    ValuationModel,
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

from conftest import dense, product_prior
from test_audit_reference import expost_utilities


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
        (a_probs, a_pay), (b_probs, b_pay) = dense(a.mechanism), dense(b.mechanism)
        assert np.array_equal(a_probs, b_probs)
        assert np.array_equal(a_pay, b_pay)

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

    def test_highs_binding_solves_and_certifies(self):
        # The oracle drives HiGHS through scipy's private binding; a scipy
        # release that moves or changes it fails here first. minimize
        # -x0 - 2 x1 s.t. x0 + x1 <= 4, x0 - x1 == 1, x >= 0: the optimum
        # is x = (2.5, 1.5), objective -5.5, duals (-1.5, 0.5).
        from scipy.optimize._highspy._core import HighsModelStatus, _Highs

        highs = _Highs()
        highs.setOptionValue("output_flag", False)
        highs.addVars(2, np.zeros(2), np.full(2, np.inf))
        highs.changeColsCost(2, np.arange(2, dtype=np.int32), np.array([-1.0, -2.0]))
        # the <= row first, then the == row, as the oracle adds them
        starts, index = np.array([0], dtype=np.int32), np.array([0, 1], dtype=np.int32)
        for lower, upper, coefs in ((-np.inf, 4.0, [1.0, 1.0]), (1.0, 1.0, [1.0, -1.0])):
            highs.addRows(1, np.array([lower]), np.array([upper]), 2, starts, index,
                          np.array(coefs))
        highs.run()
        assert highs.getModelStatus() == HighsModelStatus.kOptimal
        assert highs.getInfo().objective_function_value == pytest.approx(-5.5)
        solution = highs.getSolution()
        np.testing.assert_allclose(solution.col_value, [2.5, 1.5])
        np.testing.assert_allclose(solution.row_dual, [-1.5, 0.5])
        assert np.asarray(solution.row_dual) @ [4.0, 1.0] == pytest.approx(-5.5)
        # A column boxed in [0, 1] of cost -3, with the row x2 - x0 <= 0
        # appended, ends at its upper bound: x = (2.5, 1.5, 1), objective
        # -8.5. Its reduced cost -3 enters the dual objective as the term
        # min(col_dual, 0) * ub that the oracle's certificate adds.
        highs.addVars(1, np.zeros(1), np.ones(1))
        highs.changeColsCost(1, np.array([2], dtype=np.int32), np.array([-3.0]))
        highs.addRows(1, np.array([-np.inf]), np.array([0.0]), 2, starts,
                      np.array([0, 2], dtype=np.int32), np.array([-1.0, 1.0]))
        highs.run()
        assert highs.getModelStatus() == HighsModelStatus.kOptimal
        assert highs.getInfo().objective_function_value == pytest.approx(-8.5)
        solution = highs.getSolution()
        np.testing.assert_allclose(solution.col_value, [2.5, 1.5, 1.0])
        np.testing.assert_allclose(solution.col_dual, [0.0, 0.0, -3.0], atol=1e-12)
        ub = np.array([np.inf, np.inf, 1.0])
        boxed = np.isfinite(ub)
        dual = np.asarray(solution.row_dual) @ [4.0, 1.0, 0.0]
        dual += np.minimum(np.asarray(solution.col_dual)[boxed], 0.0) @ ub[boxed]
        assert dual == pytest.approx(-8.5)

    def test_bic_certificate_counts_the_shares_held_at_one(self, additive):
        # The BIC LP boxes each item share at 1, and at this optimum shares
        # sit at 1: the certificate holds only with the box's dual term.
        spec = GridSpec(epsilon=1.0, h=2.0)
        prior = u12_prior(spec, 2, 2)
        space = enumerate_multi_item(2, 2)
        sol = solve_optimal(
            OracleProblem(prior=prior, space=space, model=additive, ic_mode="bic")
        )
        probs, _ = dense(sol.mechanism)
        shares = probs @ space.alloc.reshape(space.num_outcomes, -1)
        assert shares.max() == pytest.approx(1.0, abs=1e-12)
        assert sol.objective_value == pytest.approx(3.1875, abs=1e-9)
        assert abs(sol.certificate - sol.objective_value) <= 1e-9

    @pytest.mark.parametrize("mode, top", [("bic", 1.0), ("dsic", np.inf)])
    def test_base_bounds(self, additive, mode, top):
        # components in [0, 1] in BIC mode and [0, inf) in DSIC mode,
        # utilities in [0, inf), interim columns free
        from mechlearn.oracle import _base

        spec = GridSpec(epsilon=1.0, h=2.0)
        prior = u12_prior(spec, 2, 2)
        problem = OracleProblem(
            prior=prior, space=enumerate_multi_item(2, 2), model=additive, ic_mode=mode
        )
        domain = problem.domain()
        base = _base(problem, domain)
        n_x = domain.num_profiles * base.layout.feas.shape[1]
        interim = int(base.interim[0])
        np.testing.assert_array_equal(base.bounds[:n_x], [[0.0, top]] * n_x)
        np.testing.assert_array_equal(
            base.bounds[n_x:interim], [[0.0, np.inf]] * (interim - n_x)
        )
        free = base.bounds[interim:]
        assert (len(free) > 0) == (mode == "bic")
        assert np.all(free == [-np.inf, np.inf])

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
            ("n2m2", "bic", "6ac9fbccf9225031193dede439e5b5af555f3d1a92149a1483e10b4831049505"),
            ("n2m2", "dsic", "52cdef0c47f30c9ee0ccc893d05025f96030ca62a8c6cb78e7095529a0b80f8c"),
            ("n3m1", "bic", "280bb721108b90ec192cfd7f6f705d415eab17ea52236cc5b83dbf8b8061c5fe"),
            ("n3m1", "dsic", "991ee09906805527c807217b80fd1a3df261f07fbecbe5d45273e878d3bbd02f"),
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

    @pytest.mark.parametrize(
        "name, mode",
        [("n2m2", "bic"), ("n2m2", "dsic"), ("n3m1", "bic"), ("n3m1", "dsic"),
         ("n2m2_unit_demand", "bic")],
    )
    def test_lp_dump_round_trips_through_highs(self, tmp_path, name, mode):
        # HiGHS reads the dump back as the LP the oracle solved: as many rows
        # and columns and the same optimum, so a pinned digest pins that LP.
        from scipy.optimize._highspy._core import HighsModelStatus, HighsStatus, _Highs

        path = tmp_path / "dump.lp"
        sol = solve_optimal(_lp_dump_instance(name, mode), lp_dump=str(path))
        highs = _Highs()
        highs.setOptionValue("output_flag", False)
        assert highs.readModel(str(path)) == HighsStatus.kOk
        assert (highs.getNumRow(), highs.getNumCol()) == (sol.stats["rows"], sol.stats["cols"])
        highs.run()
        assert highs.getModelStatus() == HighsModelStatus.kOptimal
        objective = -highs.getInfo().objective_function_value
        assert objective == pytest.approx(sol.objective_value, rel=1e-9, abs=0.0)


def _lp_dump_instance(name, mode):
    # the instances of test_lp_dump_is_pinned; a name ending in
    # "_unit_demand" takes that model, whose LP has outcome components
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
    }[name[:4]]
    n, m = len(cells), len(cells[0])
    return OracleProblem(
        prior=product_prior(spec, cells),
        space=enumerate_multi_item(n, m),
        model=ValuationModel(tag="unit_demand" if name.endswith("unit_demand") else "additive"),
        ic_mode=mode,
        eta=0.5 if mode == "dsic" else 0.0,
    )


def _dump_rows(path):
    """{row name: variable names} of an ``--lp-dump`` file's constraints."""
    rows = {}
    lines = path.read_text().splitlines()
    for line in lines[lines.index("Subject To") + 1 : lines.index("Bounds")]:
        name, body = line.strip().split(": ", 1)
        tokens = body.rsplit(" ", 2)[0].split()
        rows[name] = tokens[2::3]
    return rows


def _dump_free(path):
    """The variables an ``--lp-dump`` file declares free; every other one
    has the format's default bounds, ``>= 0``."""
    lines = path.read_text().splitlines()
    bounds = lines[lines.index("Bounds") + 1 : lines.index("End")]
    assert all(line.endswith(" free") for line in bounds)
    return [line.split()[0] for line in bounds]


def _components(problem):
    """Components per profile and each bidder's own ones: for additive
    bidders on the multi-item space the n * m item shares, bidder i's m
    being hers; otherwise the K outcomes, every one each bidder's."""
    n, m, k_out = problem.space.n, problem.space.m, problem.space.num_outcomes
    if problem.model.tag == "additive":
        return n * m, [m] * n
    return k_out, [k_out] * n


class TestInterimLp:
    @pytest.mark.parametrize("name", ["n2m2", "n3m1", "n2m2_unit_demand", "n3m1_unit_demand"])
    def test_bic_rows_read_only_interim_variables(self, tmp_path, name):
        problem = _lp_dump_instance(name, "bic")
        domain = problem.domain()
        n_comp, own = _components(problem)
        path = tmp_path / "dump.lp"
        sol = solve_optimal(problem, lp_dump=str(path))
        rows = _dump_rows(path)
        # no IR rows: the IC rows come first, each reading the report's
        # interim components and utility and the truthful utility
        ic_rows = sum(
            domain.bidder_type_count(i) * (domain.bidder_type_count(i) - 1)
            for i in range(domain.n)
        )
        ic = [rows[f"ub{r}"] for r in range(ic_rows)]
        for names in ic:
            assert len(names) <= max(own) + 2
            assert sum(v.startswith("iu") for v in names) == 2
            assert all(v.startswith(("ix", "iu")) for v in names)
        # the feasibility rows, one per profile and item, <= 1, after the IC
        # rows; or one per profile, = 1, before the interim definitions
        additive = problem.model.tag == "additive"
        n_ub, n_eq = (sum(k.startswith(kind) for k in rows) for kind in ("ub", "eq"))
        feas = (
            [rows[f"ub{r}"] for r in range(ic_rows, n_ub)]
            if additive
            else [rows[f"eq{r}"] for r in range(domain.num_profiles)]
        )
        assert len(feas) == domain.num_profiles * (domain.m if additive else 1)
        for names in feas:
            assert len(names) == (domain.n if additive else n_comp)
            assert all(v.startswith("x") for v in names)
        # one defining row per interim variable, in column order, the last rows
        interim = sum(domain.bidder_type_count(i) * (c + 1) for i, c in enumerate(own))
        eq = [rows[f"eq{r}"] for r in range(n_eq - interim, n_eq)]
        assert ic_rows + len(feas) + len(eq) == len(rows)  # and no others
        assert [names[-1] for names in eq[: own[0] + 2]] == [
            *(f"ix0_0_{c}" for c in range(own[0])), "iu0_0", "ix0_1_0"
        ]
        # the interim variables are free; the components x and utilities u
        # are >= 0
        assert _dump_free(path) == [names[-1] for names in eq]
        assert sol.stats["rows"] == len(rows)
        assert sol.stats["nnz"] == sum(len(names) for names in rows.values())

    @pytest.mark.parametrize("mode", ["bic", "dsic"])
    def test_stats_describe_the_lp(self, tmp_path, mode):
        for name in ("n2m2", "n2m2_unit_demand"):
            problem = _lp_dump_instance(name, mode)
            domain = problem.domain()
            n_comp, own = _components(problem)
            path = tmp_path / "dump.lp"
            stats = solve_optimal(problem, lp_dump=str(path)).stats
            assert set(stats) == {
                "rows", "cols", "nnz", "nit", "rounds", "active_rows",
                "assemble_s", "solve_s", "audit_s",
            }
            interim = sum(domain.bidder_type_count(i) * (c + 1) for i, c in enumerate(own))
            base = domain.num_profiles * (n_comp + domain.n)
            assert stats["cols"] == base + (interim if mode == "bic" else 0)
            # rows and nnz describe the full LP, as dumped, not the generated subset
            rows = _dump_rows(path)
            assert stats["rows"] == len(rows)
            assert stats["nnz"] == sum(len(names) for names in rows.values())
            assert 1 <= stats["rounds"] and stats["active_rows"] <= stats["rows"]
            assert stats["nit"] > 0
            assert min(stats["assemble_s"], stats["solve_s"], stats["audit_s"]) >= 0

    def test_stats_stay_out_of_the_mechanism_file(self):
        from mechlearn import LpSolution, serialize_mechanism

        sol = solve_optimal(_lp_dump_instance("n3m1", "bic"))
        bare = LpSolution(
            mechanism=sol.mechanism,
            objective_value=sol.objective_value,
            solver_status=sol.solver_status,
            certificate=sol.certificate,
        )
        assert bare.stats == {} and sol.stats
        assert serialize_mechanism(sol.mechanism) == serialize_mechanism(bare.mechanism)
        assert set(sol.mechanism.meta) == {"ic_mode", "eta"}

    @pytest.mark.parametrize("mode", ["bic", "dsic"])
    def test_nnz_budget_raises_capacity_error(self, monkeypatch, mode):
        from mechlearn import oracle

        problem = _lp_dump_instance("n2m2", mode)
        bound = oracle._base(problem, problem.domain()).nnz
        monkeypatch.setattr(oracle, "NNZ_BUDGET", bound - 1)
        with pytest.raises(CapacityError, match="nonzeros"):
            solve_optimal(problem)
        monkeypatch.setattr(oracle, "NNZ_BUDGET", bound)
        solve_optimal(problem)

    @pytest.mark.parametrize("name", ["n2m2", "n3m1", "n2m2_unit_demand", "n3m1_unit_demand"])
    def test_nnz_bound_is_exact_in_dsic_mode(self, tmp_path, name):
        # DSIC and feasibility entries never share a (row, column), so the
        # count _base makes before any IC row exists is the dumped LP's:
        # each row's nonzero value differences and its two utilities
        problem = _lp_dump_instance(name, "dsic")
        path = tmp_path / "dump.lp"
        stats = solve_optimal(problem, lp_dump=str(path)).stats
        rows = _dump_rows(path)
        assert stats["rows"] == len(rows)
        assert stats["nnz"] == sum(len(names) for names in rows.values())

    def test_nnz_count_skips_rest_profiles_of_zero_weight(self):
        # bidder 0's rest profile (0, 0) weighs 10^-400, 0.0 as a float, so
        # its interim rows hold no entry for it
        from mechlearn.oracle import _assemble

        tiny = Fraction(1, 10**200)
        rare = {0: tiny, 2: 1 - tiny}
        cells = [[{1: Fraction(1, 3), 2: Fraction(2, 3)}], [rare], [rare]]
        problem = OracleProblem(
            prior=product_prior(GridSpec(epsilon=1.0, h=2.0), cells),
            space=enumerate_multi_item(3, 1),
            model=ValuationModel(tag="additive"),
            ic_mode="bic",
        )
        lp, _, _ = _assemble(problem, problem.domain())
        assert lp.nnz == lp.a_ub.nnz + lp.a_eq.nnz

    @pytest.mark.parametrize("mode", ["bic", "dsic"])
    def test_nnz_budget_refuses_before_any_row_is_built(self, monkeypatch, tmp_path, mode):
        # the IC rows and the BIC interim rows are the ones whose size no
        # other budget bounds
        from mechlearn import oracle

        def no_rows(*args):
            raise AssertionError("a row was built")

        problem = _lp_dump_instance("n2m2", mode)
        bound = oracle._base(problem, problem.domain()).nnz
        monkeypatch.setattr(oracle, "NNZ_BUDGET", bound - 1)
        monkeypatch.setattr(oracle, "_inequality_rows", no_rows)
        monkeypatch.setattr(oracle, "_interim_rows", no_rows)
        path = tmp_path / "dump.lp"
        for lp_dump in (None, str(path)):
            with pytest.raises(CapacityError, match="the oracle LP has up to"):
                solve_optimal(problem, lp_dump=lp_dump)
        assert not path.exists()

    def test_nnz_budget_admits_the_shipped_configs(self):
        # A learned prior's support lies inside the rounded true support, so
        # the LP of the true grid prior bounds every LP a config can build.
        from mechlearn import oracle
        from mechlearn.experiments import build_instance

        root = Path(__file__).resolve().parent.parent
        paths = sorted((root / "configs").glob("*.json"))
        paths += sorted((root / "perfbench" / "configs").glob("*.json"))
        checked = 0
        for path in paths:
            config = json.loads(path.read_text())
            instance = config.get("instance", config)
            if "space" not in instance:
                continue
            bundle = build_instance(instance)
            prior = bundle.prior.to_grid_prior(bundle.spec)
            for mode in ("bic", "dsic"):
                problem = OracleProblem(
                    prior=prior, space=bundle.space, model=bundle.model, ic_mode=mode
                )
                bound = oracle._base(problem, problem.domain()).nnz
                assert bound <= oracle.NNZ_BUDGET, (path.name, mode, bound)
                checked += 1
        assert checked >= 14

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
        (full_probs, full_pay), (sup_probs, sup_pay) = dense(full), dense(sol.mechanism)
        for t in (1, 2):
            src = sol.mechanism.domain.profile_rank([[t]])
            dst = full.domain.profile_rank([[t]])
            assert np.array_equal(full_probs[dst], sup_probs[src])
            assert np.array_equal(full_pay[dst], sup_pay[src])

    def test_single_bidder_gets_favorite_row(self, additive):
        spec, prior, space, sol = self._support_solution(additive)
        full = extend_bic(sol.mechanism, prior, additive)
        (full_probs, full_pay), (sup_probs, sup_pay) = dense(full), dense(sol.mechanism)
        val = additive.value_table(space, spec, 0)
        supp_ranks = [sol.mechanism.domain.profile_rank([[t]]) for t in (1, 2)]
        for k in range(spec.levels):
            utilities = [
                val[k] @ sup_probs[r] - sup_pay[r, 0]
                for r in supp_ranks
            ]
            best = max(utilities)
            dst = full.domain.profile_rank([[k]])
            got = val[k] @ full_probs[dst] - full_pay[dst, 0]
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


    def _overcharging_mech(self, type0_price):
        # bidder 0's support {0, 2} against bidder 1's {1, 2}: reporting 2
        # wins the item for 0 or 1.5, so the off-support value 1 gains 0.25
        # in the interim but loses 0.5 against bidder 1's type 2
        spec = GridSpec(epsilon=1.0, h=2.0)
        space = enumerate_multi_item(2, 1)  # outcomes: none, bidder 0, bidder 1
        domain = ProfileDomain(spec=spec, supports=(((0, 2),), ((1, 2),)))
        probs = np.array([[1.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [0, 1.0, 0]])
        payments = np.array(
            [[type0_price, 0.0], [type0_price, 0.0], [0.0, 0.0], [1.5, 0.0]]
        )
        mech = MechanismTable(domain=domain, space=space, probs=probs, payments=payments)
        half = {0: Fraction(1, 2), 2: Fraction(1, 2)}
        prior = product_prior(spec, [[half], [{1: Fraction(1, 2), 2: Fraction(1, 2)}]])
        return spec, mech, prior

    def test_best_reply_is_ir_safe(self, additive):
        spec, mech, prior = self._overcharging_mech(type0_price=0.0)
        assert bic_replacement_map(mech, prior, additive, 0).tolist() == [0, 0, 1]
        full = extend_bic(mech, prior, additive)
        uniform = {k: Fraction(1, 3) for k in range(3)}
        rep = audit_over_domain(full, product_prior(spec, [[uniform]] * 2), additive)
        assert rep.ir_slack >= -1e-8

    def test_no_ir_safe_reply_keeps_best_interim(self, additive):
        # reporting 0 now costs 0.5 at every rest profile: nothing is safe
        _, mech, prior = self._overcharging_mech(type0_price=0.5)
        assert bic_replacement_map(mech, prior, additive, 0).tolist() == [0, 1, 1]

    @given(
        m=st.integers(1, 2),
        cells=st.lists(
            st.lists(
                st.dictionaries(st.integers(0, 2), st.integers(1, 4), min_size=1, max_size=3),
                min_size=2,
                max_size=2,
            ),
            min_size=2,
            max_size=2,
        ),
        unit_demand=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_extension_is_ir_when_every_type_has_a_safe_reply(self, m, cells, unit_demand):
        spec = GridSpec(epsilon=1.0, h=2.0)
        cells = [
            [{k: Fraction(w, sum(c.values())) for k, w in c.items()} for c in row[:m]]
            for row in cells
        ]
        prior = product_prior(spec, cells)
        model = ValuationModel(tag="unit_demand" if unit_demand else "additive")
        space = enumerate_multi_item(2, m)
        mech = solve_optimal(
            OracleProblem(prior=prior, space=space, model=model, ic_mode="bic")
        ).mechanism
        for k in range(2):
            val = model.value_table(space, spec, k)
            off = mech.domain.grid_to_domain(k) < 0
            safe = expost_utilities(mech, k, val[off]).min(axis=2) >= -1e-8
            assume(safe.any(axis=1).all())
        full = extend_bic(mech, prior, model)
        uniform = {k: Fraction(1, spec.levels) for k in range(spec.levels)}
        rep = audit_over_domain(full, product_prior(spec, [[uniform] * m] * 2), model)
        assert rep.ir_slack >= -1e-8


def _full_x(problem, sol, lp):
    """The LP point of a solution: the components its lotteries play and
    each bidder's value for the lottery less her payment, then the interim
    columns their defining rows, the last equality rows, give."""
    mech = sol.mechanism
    probs, pay = dense(mech)
    x = np.zeros(lp.c.size)
    comps = probs @ lp.layout.comps(np.arange(problem.space.num_outcomes))
    ranks = mech.domain.type_ranks()
    value = np.stack(
        [np.sum(probs * v[ranks[:, i]], axis=1) for i, v in enumerate(lp.layout.values)],
        axis=1,
    )
    base = np.concatenate([comps.ravel(), (value - pay).ravel()])
    x[: base.size] = base
    x[base.size :] -= lp.a_eq[lp.a_eq.shape[0] - (x.size - base.size) :] @ x
    return x


class TestRowGeneration:
    @given(
        m=st.integers(1, 2),
        cells=st.lists(
            st.lists(
                st.dictionaries(st.integers(0, 2), st.integers(1, 4), min_size=1, max_size=3),
                min_size=2,
                max_size=2,
            ),
            min_size=1,
            max_size=2,
        ),
        mode=st.sampled_from(["bic", "dsic"]),
        eta=st.sampled_from([0.0, 0.5]),
        unit_demand=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_generated_rows_agree_with_the_full_lp(self, m, cells, mode, eta, unit_demand):
        from mechlearn import oracle
        from mechlearn.exactlp import OUTCOME_GUARD

        spec = GridSpec(epsilon=1.0, h=2.0)
        cells = [
            [{k: Fraction(w, sum(c.values())) for k, w in c.items()} for c in row[:m]]
            for row in cells
        ]
        prior = product_prior(spec, cells)
        model = ValuationModel(tag="unit_demand" if unit_demand else "additive")
        space = enumerate_multi_item(len(cells), m)
        eta = eta if mode == "dsic" else 0.0
        problem = OracleProblem(prior=prior, space=space, model=model, ic_mode=mode, eta=eta)
        sol = solve_optimal(problem)

        # every row in one linprog call: the reference the generated rows must meet
        lp, _, _ = oracle._assemble(problem, problem.domain())
        full = linprog(
            lp.c, A_ub=lp.a_ub, b_ub=lp.b_ub, A_eq=lp.a_eq, b_eq=lp.b_eq,
            bounds=lp.bounds, method="highs",
        )
        assert full.status == 0
        assert sol.objective_value == pytest.approx(-full.fun, rel=1e-9, abs=1e-12)
        assert 1 <= sol.stats["rounds"] and sol.stats["active_rows"] <= sol.stats["rows"]
        x = _full_x(problem, sol, lp)
        assert np.max(lp.a_ub @ x - lp.b_ub, initial=0.0) <= oracle.FEASIBILITY_TOL
        assert np.min(x - lp.bounds[:, 0]) >= -oracle.FEASIBILITY_TOL  # u >= 0 is IR
        if problem.domain().num_profiles <= 8 and space.num_outcomes <= OUTCOME_GUARD:
            exact = brute_force_optimal(prior, space, model, mode, eta)
            assert sol.objective_value == pytest.approx(float(exact), rel=1e-9, abs=1e-12)

    @given(
        m=st.integers(1, 2),
        cells=st.lists(
            st.lists(
                st.dictionaries(st.integers(0, 2), st.integers(1, 4), min_size=1, max_size=3),
                min_size=2,
                max_size=2,
            ),
            min_size=2,
            max_size=3,
        ),
        mode=st.sampled_from(["bic", "dsic"]),
        eta=st.sampled_from([0.0, 0.5]),
        unit_demand=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_separation_selects_the_rows_the_full_lp_violates(
        self, m, cells, mode, eta, unit_demand
    ):
        # At the seed and at each round's optimum, the IC rows read off the
        # point are those the full matrix finds violated, built as the full
        # LP holds them, in its order.
        from unittest import mock

        from mechlearn import oracle

        spec = GridSpec(epsilon=1.0, h=2.0)
        cells = [
            [{k: Fraction(w, sum(c.values())) for k, w in c.items()} for c in row[:m]]
            for row in cells
        ]
        model = ValuationModel(tag="unit_demand" if unit_demand else "additive")
        problem = OracleProblem(
            prior=product_prior(spec, cells),
            space=enumerate_multi_item(len(cells), m),
            model=model,
            ic_mode=mode,
            eta=eta if mode == "dsic" else 0.0,
        )
        seen = []  # (x, per-bidder violated cells) of every separation

        def recording(problem, domain, base, x):
            masks = violated_rows(problem, domain, base, x)
            seen.append((x.copy(), [mask.copy() for mask in masks]))
            return masks

        violated_rows = oracle._violated_rows
        with mock.patch.object(oracle, "_violated_rows", recording):
            sol = solve_optimal(problem)
        assert len(seen) == sol.stats["rounds"] + 1

        domain = problem.domain()
        lp, _, _ = oracle._assemble(problem, domain)
        base = oracle._base(problem, domain)
        ic_rows = lp.a_ub.shape[0] - base.a_ub.shape[0]  # the feasibility rows follow
        for x, masks in seen:
            # the reference: every IC row of the full matrix, by matvec
            ref = np.flatnonzero(lp.a_ub[:ic_rows] @ x - lp.b_ub[:ic_rows] > oracle.ROW_TOL)
            a_ub, b_ub = oracle._inequality_rows(
                problem, domain, base, [np.nonzero(mask) for mask in masks]
            )
            want = lp.a_ub[ref]
            assert a_ub.shape == want.shape
            assert np.array_equal(a_ub.indptr, want.indptr)
            assert np.array_equal(a_ub.indices, want.indices)
            assert np.array_equal(a_ub.data, want.data)
            assert np.array_equal(b_ub, lp.b_ub[ref])

    def test_solve_builds_no_full_inequality_matrix(self, additive):
        # n = 2, m = 2, 36 types a bidder: the DSIC LP's full a_ub has 95 904
        # rows and 557 280 nonzeros; the solve path builds only the rows HiGHS
        # sees, about 14 000 here
        import tracemalloc

        from mechlearn import oracle

        spec = GridSpec(epsilon=0.25, h=2.0)
        cell = {k: Fraction(k - 1, 21) for k in range(2, 8)}
        problem = OracleProblem(
            prior=product_prior(spec, [[dict(cell), dict(cell)]] * 2),
            space=enumerate_multi_item(2, 2),
            model=additive,
            ic_mode="dsic",
            eta=0.5,
        )
        assert all(problem.domain().bidder_type_count(i) == 36 for i in range(2))
        tracemalloc.start()
        try:
            solve_optimal(problem)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        a_ub = oracle._assemble(problem, problem.domain())[0].a_ub
        full = a_ub.data.nbytes + a_ub.indices.nbytes + a_ub.indptr.nbytes
        assert peak < full / 2, (peak, full)

    def test_sweep_instances_solve_in_one_round(self):
        # The seed is enough on 23 of the 24 priors: the first optimum
        # violates no other row, so the many short solves of a sweep pay no
        # second run() of the HiGHS model. On s = 50, seed 0 the first
        # optimum sells both items to type (0.5, 2) at 2.5 and to type
        # (2, 1) at 2, and the seed holds no row for the first reporting
        # the second, since it values the bundle less: one more round.
        from mechlearn.experiments import build_instance
        from mechlearn.learner import _empirical_prior
        from mechlearn.priors import sample_prior

        root = Path(__file__).resolve().parent.parent
        config = json.loads((root / "perfbench" / "configs" / "sweep_bic.json").read_text())
        bundle = build_instance(config["instance"])
        for s, seed in itertools.product(config["s_values"], config["seeds"]):
            samples = sample_prior(bundle.prior, bundle.n, bundle.m, s, seed)
            prior = _empirical_prior(samples, bundle.spec)
            problem = OracleProblem(prior=prior, space=bundle.space, model=bundle.model)
            want = 2 if (s, seed) == (50, 0) else 1
            assert solve_optimal(problem).stats["rounds"] == want, (s, seed)


class TestItemLayout:
    """Additive bidders on the multi-item space: the LP's components are
    the bidders' item shares, coupled back into lotteries."""

    @given(
        n=st.integers(1, 3),
        m=st.integers(1, 2),
        cells=st.lists(
            st.dictionaries(st.integers(0, 2), st.integers(1, 4), min_size=1, max_size=3),
            min_size=6,
            max_size=6,
        ),
        mode=st.sampled_from(["bic", "dsic"]),
        eta=st.sampled_from([0.0, 0.5]),
    )
    @settings(max_examples=60, deadline=None)
    def test_objective_equals_the_exact_simplex(self, n, m, cells, mode, eta):
        from mechlearn.exactlp import OUTCOME_GUARD, PROFILE_GUARD

        additive = ValuationModel(tag="additive")
        spec = GridSpec(epsilon=1.0, h=2.0)
        cells = [
            [{k: Fraction(w, sum(c.values())) for k, w in c.items()} for c in cells[i::n][:m]]
            for i in range(n)
        ]
        prior = product_prior(spec, cells)
        space = enumerate_multi_item(n, m)
        eta = eta if mode == "dsic" else 0.0
        problem = OracleProblem(prior=prior, space=space, model=additive, ic_mode=mode, eta=eta)
        assume(problem.domain().num_profiles <= PROFILE_GUARD)
        assert space.num_outcomes <= OUTCOME_GUARD
        sol = solve_optimal(problem)
        assert sol.stats["cols"] == problem.domain().num_profiles * (n * m + n) + (
            sum(problem.domain().bidder_type_count(i) for i in range(n)) * (m + 1)
            if mode == "bic" else 0
        )
        exact = brute_force_optimal(prior, space, additive, mode, eta)
        assert sol.objective_value == pytest.approx(float(exact), rel=1e-9, abs=1e-12)
        rows = sol.mechanism.rows_probs
        assert np.count_nonzero(rows, axis=1).max() <= n * m + 1

    @given(
        n=st.integers(1, 3),
        m=st.integers(1, 3),
        weights=st.lists(
            st.one_of(st.integers(0, 3).map(float), st.floats(0.0, 1.0)),
            min_size=4 * 3 * 5,
            max_size=4 * 3 * 5,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_coupled_lotteries_play_the_shares(self, n, m, weights):
        # Five profiles of shares y[i, j], each item's with what nobody gets:
        # exact ties, zeros and whole items come up as well as floats.
        from mechlearn.oracle import _coupled

        w = np.array(weights).reshape(5, 4, 3)[:, : n + 1, :m]
        total = w.sum(axis=1, keepdims=True)
        y = np.divide(w, total, out=np.zeros_like(w), where=total > 0)[:, :n]
        probs = _coupled(y.reshape(5, n * m), n, m)
        space = enumerate_multi_item(n, m)
        assert probs.shape == (5, space.num_outcomes) and probs.min() >= 0.0
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        shares = probs @ space.alloc.reshape(-1, n * m)
        np.testing.assert_allclose(shares, y.reshape(5, n * m), rtol=0, atol=1e-12)
        assert np.count_nonzero(probs, axis=1).max() <= n * m + 1


class TestEtaBic:
    """eta is the right side of every IC row in both modes."""

    def test_shipped_instance_matches_its_dsic_optima(self):
        # one bidder: her interim and ex-post rows are the same rows
        from mechlearn.experiments import build_instance, grid_problem

        root = Path(__file__).resolve().parent.parent
        bundle = build_instance(json.loads((root / "configs" / "instance.json").read_text()))
        for eta, exact in [(0.0, Fraction(9, 4)), (0.25, Fraction(39, 16)), (1.0, Fraction(11, 4))]:
            for mode in ("bic", "dsic"):
                problem = grid_problem(bundle, mode, eta)
                assert brute_force_optimal(
                    problem.prior, bundle.space, bundle.model, mode, eta
                ) == exact
                assert solve_optimal(problem).objective_value == pytest.approx(float(exact), rel=1e-9)

    @given(
        n=st.integers(1, 2),
        m=st.integers(1, 2),
        cells=st.lists(
            st.dictionaries(st.integers(0, 2), st.integers(1, 4), min_size=1, max_size=3),
            min_size=4,
            max_size=4,
        ),
        slack=st.sampled_from(["0", "epsilon", "2m epsilon"]),
        unit_demand=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_objective_equals_the_exact_simplex(self, n, m, cells, slack, unit_demand):
        from mechlearn.exactlp import OUTCOME_GUARD, PROFILE_GUARD

        spec = GridSpec(epsilon=0.5, h=1.0)
        eta = {"0": 0.0, "epsilon": spec.epsilon, "2m epsilon": 2 * m * spec.epsilon}[slack]
        kept = 4 // (n * m) + 1  # two types a cell when n * m = 4: 16 profiles
        rows = [[dict(list(c.items())[:kept]) for c in cells[i * m : (i + 1) * m]] for i in range(n)]
        cells = [[{k: Fraction(w, sum(c.values())) for k, w in c.items()} for c in row]
                 for row in rows]
        prior = product_prior(spec, cells)
        space = enumerate_multi_item(n, m)
        model = ValuationModel(tag="unit_demand" if unit_demand else "additive")
        problems = {
            mode: OracleProblem(prior=prior, space=space, model=model, ic_mode=mode, eta=eta)
            for mode in ("bic", "dsic")
        }
        assert problems["bic"].domain().num_profiles <= PROFILE_GUARD
        assert space.num_outcomes <= OUTCOME_GUARD
        bic, dsic = (solve_optimal(problems[mode]) for mode in ("bic", "dsic"))
        exact = brute_force_optimal(prior, space, model, "bic", eta)
        assert bic.objective_value == pytest.approx(float(exact), rel=1e-9, abs=1e-12)
        report = audit_over_domain(bic.mechanism, prior, model)
        assert report.bic_regret <= eta + 1e-8
        # every eta-DSIC mechanism is eta-BIC, and with one bidder the rows agree
        assert bic.objective_value >= dsic.objective_value * (1 - 1e-9) - 1e-12
        if n == 1:
            assert bic.objective_value == pytest.approx(dsic.objective_value, rel=1e-9, abs=1e-12)


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
        (full_probs, full_pay), (sup_probs, sup_pay) = dense(full), dense(sol.mechanism)
        for ta, tb in itertools.product((1, 2), repeat=2):
            src = sol.mechanism.domain.profile_rank([[ta], [tb]])
            dst = full.domain.profile_rank([[ta], [tb]])
            assert np.array_equal(full_probs[dst], sup_probs[src])
            assert np.array_equal(full_pay[dst], sup_pay[src])

    def test_two_off_support_bidders_zeroed(self, additive):
        spec, prior, space, sol, closure = self._two_bidder_solution(additive)
        full = extend_dsic(sol.mechanism, space, additive, closure)
        dst = full.domain.profile_rank([[0], [0]])  # both off-support
        probs, pay = dense(full)
        assert pay[dst].tolist() == [0.0, 0.0]
        assert probs[dst, closure.zero_outcome] == 1.0

    def test_other_bidder_zeroed_whatever_she_bids(self, additive):
        spec, prior, space, sol, closure = self._two_bidder_solution(additive)
        full = extend_dsic(sol.mechanism, space, additive, closure)
        val = additive.value_table(space, spec, 1)
        probs, pay = dense(full)
        for other_bid in range(spec.levels):
            dst = full.domain.profile_rank([[0], [other_bid]])  # bidder 0 off
            assert pay[dst, 1] == 0.0
            assert val[other_bid] @ probs[dst] == pytest.approx(0.0, abs=1e-12)

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
