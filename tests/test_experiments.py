import itertools
import os
import warnings
from fractions import Fraction

import numpy as np
import pytest

from mechlearn import (
    ConfigError,
    GridSpec,
    MechanismTable,
    ProfileDomain,
    UsageError,
    enumerate_multi_item,
    serialize_mechanism,
)
from mechlearn.mechanism import deserialize_mechanism
from mechlearn.experiments import (
    MODES,
    ExperimentConfig,
    concentration_bound,
    concentration_experiment,
    config_hash,
    profile_function_from_config,
    run_sweep,
)

from conftest import marginal


def sweep_config(mode="bic", s_values=(20, 60), seeds=(0, 1, 2)):
    return {
        "instance": {
            "n": 1,
            "m": 2,
            "epsilon": 0.25,
            "h": 2.0,
            "space": {"kind": "multi_item"},
            "model": {"tag": "additive"},
            "prior": {
                "family": "discrete_on_grid",
                "params": {"values": [1.0, 2.0], "probs": ["1/2", "1/2"]},
            },
        },
        "mode": mode,
        "s_values": list(s_values),
        "seeds": list(seeds),
    }


class TestConcentration:
    def test_constant_function_never_deviates(self):
        spec = GridSpec(epsilon=0.5, h=1.0)
        m = marginal(spec, {0: Fraction(1, 2), 2: Fraction(1, 2)})
        f = np.full((2, 2), 0.7)
        out = concentration_experiment(
            [m, m], s=50, epsilon=0.01, trials=500, f_values=f, h_f=1.0, seed=0
        )
        assert out.frequency == 0.0

    def test_frequency_within_tail_bound(self):
        spec = GridSpec(epsilon=0.5, h=1.0)
        m = marginal(spec, {0: Fraction(1, 4), 1: Fraction(1, 2), 2: Fraction(1, 4)})
        vals = m.support_values()
        f = np.add.outer(vals, vals) / 2.0  # range [0, 1]
        s, eps = 6000, 0.05
        out = concentration_experiment(
            [m, m], s=s, epsilon=eps, trials=4000, f_values=f, h_f=1.0, seed=5
        )
        assert out.bound == concentration_bound(1.0, eps, s)
        assert out.frequency <= out.bound + 3 * out.binomial_se

    def test_frequency_matches_exact_binomial_oracle(self):
        # one 2-point marginal with f = indicator of the high value makes
        # the violation event an exact binomial tail; the experiment's
        # frequency must land within sampling error of it
        from scipy.stats import binom

        spec = GridSpec(epsilon=0.5, h=1.0)
        m = marginal(spec, {0: Fraction(1, 2), 2: Fraction(1, 2)})
        f = np.array([0.0, 1.0])
        s, eps, trials = 100, 0.07, 40_000
        ks = np.arange(s + 1)
        exact = float(binom.pmf(ks[np.abs(ks / s - 0.5) > eps], s, 0.5).sum())
        out = concentration_experiment(
            [m], s=s, epsilon=eps, trials=trials, f_values=f, h_f=1.0, seed=11
        )
        se = np.sqrt(exact * (1 - exact) / trials)
        assert abs(out.frequency - exact) <= 4 * se

    def test_range_violation_rejected(self):
        spec = GridSpec(epsilon=0.5, h=1.0)
        m = marginal(spec, {0: Fraction(1, 2), 2: Fraction(1, 2)})
        with pytest.raises(UsageError, match="range"):
            concentration_experiment(
                [m], s=10, epsilon=0.1, trials=10,
                f_values=np.array([0.0, 2.0]), h_f=1.0, seed=0,
            )

    def test_shape_mismatch_rejected(self):
        spec = GridSpec(epsilon=0.5, h=1.0)
        m = marginal(spec, {0: Fraction(1, 2), 2: Fraction(1, 2)})
        with pytest.raises(UsageError, match="shape"):
            concentration_experiment(
                [m, m], s=10, epsilon=0.1, trials=10,
                f_values=np.zeros((2, 3)), h_f=1.0, seed=0,
            )

    def test_deterministic_given_seed(self):
        spec = GridSpec(epsilon=0.5, h=1.0)
        m = marginal(spec, {0: Fraction(1, 2), 2: Fraction(1, 2)})
        vals = m.support_values()
        f = np.add.outer(vals, vals) / 2.0
        a = concentration_experiment([m, m], 100, 0.02, 300, f, 1.0, seed=9)
        b = concentration_experiment([m, m], 100, 0.02, 300, f, 1.0, seed=9)
        assert a == b

    def test_builtin_profile_functions(self, tmp_path):
        spec = GridSpec(epsilon=0.5, h=1.0)
        m = marginal(spec, {0: Fraction(1, 2), 2: Fraction(1, 2)})
        f, hf = profile_function_from_config({"kind": "constant", "value": 0.3}, [m, m])
        assert f.shape == (2, 2) and np.all(f == 0.3)
        f2, hf2 = profile_function_from_config({"kind": "scaled_sum"}, [m, m])
        assert hf2 == 1.0 and f2.max() <= 1.0
        with pytest.raises(ConfigError):
            profile_function_from_config({"kind": "nope"}, [m])


class TestSweep:
    def test_point_mass_gap_zero_everywhere(self, tmp_path):
        cfg = sweep_config()
        cfg["instance"]["prior"] = {
            "family": "discrete_on_grid",
            "params": {"values": [1.5], "probs": [1]},
        }
        config = ExperimentConfig.from_json(cfg)
        result = run_sweep(config, out_dir=str(tmp_path / "out"))
        assert all(abs(r["gap"]) <= 1e-9 for r in result.rows)
        assert all(s["frac_within_eps"] == 1.0 for s in result.summary)

    def test_rows_sorted_and_schema(self, tmp_path):
        config = ExperimentConfig.from_json(sweep_config())
        result = run_sweep(config, out_dir=str(tmp_path / "out"))
        keys = [(r["s"], r["seed"]) for r in result.rows]
        assert keys == sorted(keys)
        lines = (tmp_path / "out" / "rows.csv").read_text().splitlines()
        assert lines[0].startswith("# ") and "config_hash=" in lines[0]
        assert lines[1] == "s,seed,learned_revenue,benchmark_revenue,gap,regret,ir_slack"
        assert len(lines) == 2 + len(result.rows)

    def test_rerun_reproduces_files_byte_for_byte(self, tmp_path):
        config = ExperimentConfig.from_json(sweep_config(s_values=(20,), seeds=(0, 1)))
        run_sweep(config, out_dir=str(tmp_path / "a"))
        run_sweep(config, out_dir=str(tmp_path / "b"))
        for name in ("rows.csv", "summary.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_continuous_prior_rejected(self):
        cfg = sweep_config()
        cfg["instance"]["prior"] = {"family": "uniform", "params": {"low": 0.0, "high": 2.0}}
        config = ExperimentConfig.from_json(cfg)
        with pytest.raises(ConfigError, match="grid-supported"):
            run_sweep(config)

    def test_offgrid_atoms_rejected_for_exact_benchmark(self):
        cfg = sweep_config()
        cfg["instance"]["prior"] = {
            "family": "point_masses",
            "params": {"values": [0.3, 1.1], "probs": [0.5, 0.5]},
        }
        config = ExperimentConfig.from_json(cfg)
        with pytest.raises(ConfigError, match="grid-supported"):
            run_sweep(config)

    def test_dsic_mode_runs(self, tmp_path):
        cfg = sweep_config(mode="dsic", s_values=(20,), seeds=(0,))
        cfg["instance"]["n"] = 2
        cfg["instance"]["m"] = 1
        result = run_sweep(ExperimentConfig.from_json(cfg), out_dir=str(tmp_path / "d"))
        assert result.rows[0]["regret"] <= 4 * 1 * 0.25 + 1e-8
        assert result.rows[0]["ir_slack"] >= -1e-8

    def test_single_parameter_mode_runs(self, tmp_path):
        cfg = sweep_config(mode="single_parameter", s_values=(50,), seeds=(0, 1))
        cfg["instance"]["n"] = 2
        cfg["instance"]["m"] = 1
        cfg["instance"]["space"] = {"kind": "single_parameter"}
        result = run_sweep(ExperimentConfig.from_json(cfg), out_dir=str(tmp_path / "s"))
        assert all(r["regret"] <= 1e-9 for r in result.rows)

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json({"mode": "bic"})
        bad = sweep_config()
        bad["mode"] = "nope"
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json(bad)
        bad2 = sweep_config(s_values=())
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json(bad2)

    def test_config_hash_stable(self):
        a = config_hash(sweep_config())
        b = config_hash(sweep_config())
        assert a == b and len(a) == 12

    def test_gap_bound_at_recommended_sample_count(self):
        # end-to-end check: at the recommended S (delta = 0.1), at least
        # 90% of seeds reach gap <= (2+n)*m*eps + 2*n*m*sqrt(7*L*H*eps);
        # the bound is loose at desk scale, the point is wiring the formula
        # into the pipeline end to end
        import math

        from mechlearn import (
            brute_force_optimal,
            enumerate_multi_item,
            learn_bic,
            recommended_sample_count,
        )
        from mechlearn.outcomes import ValuationModel
        from mechlearn.priors import PriorCell, PriorDescription, sample_prior

        n, m, L, H, eps = 1, 2, 1.0, 2.0, 0.25
        s = recommended_sample_count(n, m, L, H, eps, 0.1)
        cell = PriorCell(
            "discrete_on_grid", {"values": [1.0, 2.0], "probs": ["1/2", "1/2"]}
        )
        prior = PriorDescription(n=n, m=m, h=H, cells=((cell, cell),))
        space = enumerate_multi_item(n, m)
        model = ValuationModel(tag="additive")
        spec = GridSpec(epsilon=eps, h=H)
        benchmark = float(
            brute_force_optimal(prior.to_grid_prior(spec), space, model, "bic")
        )
        bound = (2 + n) * m * eps + 2 * n * m * math.sqrt(7 * L * H * eps)
        hits = 0
        seeds = range(5)
        for seed in seeds:
            samples = sample_prior(prior, n, m, s, seed=seed)
            learned = learn_bic(samples, eps, space, model)
            gap = benchmark - float(learned.exact_revenue_on_atoms(prior))
            hits += gap <= bound
        assert hits / len(seeds) >= 0.9

    @pytest.mark.parametrize("mode", MODES)
    def test_regret_above_the_declared_bound_warns_in_every_mode(self, monkeypatch, mode):
        from dataclasses import replace

        from mechlearn import experiments

        cfg = sweep_config(mode=mode, s_values=(20,), seeds=(0,))
        if mode == "single_parameter":
            cfg["instance"].update(n=2, m=1, space={"kind": "single_parameter"})
        config = ExperimentConfig.from_json(cfg)
        monkeypatch.delenv("MECHLEARN_WORKERS", raising=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # within the declared bound: silent
            run_sweep(config)
        report = experiments.regret_report
        monkeypatch.setattr(experiments, "regret_report", lambda *args: replace(
            report(*args), bic_regret=10.0, dsic_regret=10.0
        ))
        # 2*m*eps for BIC, 4*m*eps for DSIC, exact for single-parameter
        bound = {"bic": 1.0, "dsic": 2.0, "single_parameter": 0.0}[mode]
        with pytest.warns(UserWarning, match=rf"regret 10.0 above the declared {bound} bound"):
            (row,) = run_sweep(config).rows
        assert row["regret"] == 10.0

    def test_worker_pool_matches_sequential(self, tmp_path):
        config = ExperimentConfig.from_json(sweep_config(s_values=(20,), seeds=(0, 1)))
        run_sweep(config, out_dir=str(tmp_path / "seq"))
        os.environ["MECHLEARN_WORKERS"] = "2"
        try:
            run_sweep(config, out_dir=str(tmp_path / "par"))
        finally:
            del os.environ["MECHLEARN_WORKERS"]
        assert (tmp_path / "seq" / "rows.csv").read_bytes() == (
            tmp_path / "par" / "rows.csv"
        ).read_bytes()

    @pytest.mark.parametrize("mode", ["bic", "dsic"])
    def test_benchmark_past_the_brute_force_guard_is_the_float_lp(self, monkeypatch, mode):
        from mechlearn import exactlp, experiments

        bundle = ExperimentConfig.from_json(sweep_config(mode=mode)).bundle
        problem = experiments.grid_problem(bundle, mode)
        exact = exactlp.brute_force_optimal(
            problem.prior, bundle.space, bundle.model, problem.ic_mode, problem.eta
        )
        assert experiments.exact_benchmark(bundle, mode) == float(exact)

        def no_brute_force(*args):
            pytest.fail("past the guard the benchmark is the float LP")

        monkeypatch.setattr(exactlp, "PROFILE_GUARD", 0)
        monkeypatch.setattr(exactlp, "brute_force_optimal", no_brute_force)
        assert experiments.exact_benchmark(bundle, mode) == pytest.approx(
            float(exact), rel=1e-9
        )


def _revenue_by_profile_loop(mech, marginals):
    """Reference for the ``mechanism_revenue`` profile function: one
    ``profile_rank`` per support profile."""
    pay = mech.rows_pay.sum(axis=1)[mech.src]
    supports = [m.support for m in marginals]
    f = np.zeros(tuple(len(s) for s in supports))
    for combo in itertools.product(*(range(len(s)) for s in supports)):
        profile = [
            [supports[i * mech.m + j][combo[i * mech.m + j]] for j in range(mech.m)]
            for i in range(mech.n)
        ]
        f[combo] = pay[mech.domain.profile_rank(profile)]
    return f


class TestMechanismRevenueFunction:
    def _table(self, domain, seed):
        space = enumerate_multi_item(domain.n, domain.m)
        rng = np.random.default_rng(seed)
        rows = domain.num_profiles
        probs = rng.dirichlet(np.ones(space.num_outcomes), size=rows)
        payments = rng.uniform(0.0, 2.0, size=(rows, domain.n))
        return MechanismTable(domain=domain, space=space, probs=probs, payments=payments)

    def _f(self, tmp_path, mech, marginals):
        path = tmp_path / "mech.json"
        path.write_text(serialize_mechanism(mech))
        obj = {"kind": "mechanism_revenue", "mechanism": str(path)}
        return profile_function_from_config(obj, marginals)

    def test_full_grid_table_matches_the_loop(self, tmp_path):
        spec = GridSpec(epsilon=0.5, h=2.0)
        mech = self._table(ProfileDomain.full_grid(spec, 2, 2), seed=1)
        masses = [{0: 1, 3: 1}, {1: 1, 2: 1, 4: 1}, {4: 1}, {0: 1, 1: 1, 2: 1}]
        marginals = [marginal(spec, {k: Fraction(1, len(d)) for k in d}) for d in masses]
        mech = deserialize_mechanism(serialize_mechanism(mech))
        f, _ = self._f(tmp_path, mech, marginals)
        assert np.array_equal(f, _revenue_by_profile_loop(mech, marginals))
        assert f.shape == (2, 3, 1, 3)

    def test_support_table_matches_the_loop(self, tmp_path):
        spec = GridSpec(epsilon=0.25, h=2.0)
        supports = (((1, 3, 4), (0, 2)), ((2, 5, 8), (1, 6)))
        mech = self._table(ProfileDomain(spec=spec, supports=supports), seed=2)
        masses = [{1: 1, 4: 1}, {0: 1, 2: 1}, {2: 1, 5: 1, 8: 1}, {6: 1}]
        marginals = [marginal(spec, {k: Fraction(1, len(d)) for k in d}) for d in masses]
        mech = deserialize_mechanism(serialize_mechanism(mech))
        f, _ = self._f(tmp_path, mech, marginals)
        assert np.array_equal(f, _revenue_by_profile_loop(mech, marginals))

    def test_support_index_outside_the_domain_is_usage_error(self, tmp_path):
        spec = GridSpec(epsilon=0.25, h=2.0)
        supports = (((1, 3), (0, 2)),)
        mech = self._table(ProfileDomain(spec=spec, supports=supports), seed=3)
        marginals = [marginal(spec, {1: 1}), marginal(spec, {0: 0.5, 5: 0.5})]
        with pytest.raises(UsageError, match="grid index 5 not in bidder 0 parameter 1"):
            self._f(tmp_path, mech, marginals)
