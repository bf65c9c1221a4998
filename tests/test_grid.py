import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mechlearn import (
    ConfigError,
    DiscreteMarginal,
    DomainError,
    GridSpec,
    SampleSet,
    UsageError,
    empirical_marginal,
    recommended_sample_count,
    round_down,
)
from mechlearn.priors import PriorCell, PriorDescription, sample_prior


class TestGridSpec:
    def test_levels_exact_multiple(self):
        spec = GridSpec(epsilon=0.25, h=2.0)
        assert spec.levels == 9
        assert spec.top_index == 8

    def test_partial_top_cell(self):
        # h is not a multiple of epsilon: top point is floor(h/eps)*eps
        spec = GridSpec(epsilon=0.3, h=1.0)
        assert spec.top_index == 3
        assert spec.value(spec.top_index) <= 1.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            GridSpec(epsilon=0.0, h=1.0)
        with pytest.raises(DomainError):
            GridSpec(epsilon=2.0, h=1.0)
        with pytest.raises(DomainError):
            GridSpec(epsilon=1.0, h=-1.0)


class TestRoundDown:
    def test_zero_maps_to_zero(self):
        assert round_down(0.0, GridSpec(epsilon=0.25, h=2.0)).index == 0

    def test_grid_points_are_fixed_points(self):
        assert round_down(0.75, GridSpec(epsilon=0.25, h=2.0)).index == 3

    def test_interior_value(self):
        # independent oracle: floor(74/25) by integer arithmetic
        assert math.floor(Fraction(74, 100) / Fraction(25, 100)) == 2
        assert round_down(0.74, GridSpec(epsilon=0.25, h=2.0)).index == 2

    def test_out_of_range_named_in_error(self):
        spec = GridSpec(epsilon=0.25, h=2.0)
        with pytest.raises(DomainError, match="2.5"):
            round_down(2.5, spec)
        with pytest.raises(DomainError):
            round_down(-0.1, spec)

    @pytest.mark.parametrize("epsilon", [0.25, 0.3, 0.1])
    def test_lattice_scan_bounds(self, epsilon):
        # half-open cells w.r.t. the actual grid points; the epsilon-width
        # form of the upper bound holds to float tolerance (one ulp at cell
        # boundaries of non-dyadic steps)
        spec = GridSpec(epsilon=epsilon, h=2.0)
        for k in range(0, 2001):
            v = k / 1000.0
            g = round_down(v, spec)
            value = spec.value(g.index)
            assert value <= v
            if g.index < spec.top_index:
                assert v < spec.value(g.index + 1)
                assert v <= value + epsilon + 1e-12

    @pytest.mark.parametrize("epsilon", [0.25, 0.3, 0.1, 0.07])
    def test_idempotent_on_grid_points(self, epsilon):
        spec = GridSpec(epsilon=epsilon, h=2.0)
        for k in range(spec.levels):
            assert round_down(spec.value(k), spec).index == k

    @given(
        v=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
        eps=st.sampled_from([0.25, 0.3, 0.1, 0.05, 0.33]),
    )
    @settings(max_examples=300, deadline=None)
    def test_property_bracketing(self, v, eps):
        spec = GridSpec(epsilon=eps, h=2.0)
        g = round_down(v, spec)
        assert 0 <= g.index <= spec.top_index
        assert spec.value(g.index) <= v


class TestEmpiricalMarginal:
    def test_point_mass(self):
        spec = GridSpec(epsilon=1.0, h=2.0)
        marg = empirical_marginal([0.0, 0.0], spec)
        assert marg.mass == {0: Fraction(1)}

    def test_hand_rounding(self):
        spec = GridSpec(epsilon=1.0, h=2.0)
        marg = empirical_marginal([0.3, 1.7, 1.2, 0.9], spec)
        assert marg.mass == {0: Fraction(1, 2), 1: Fraction(1, 2)}

    def test_top_point_is_own_floor(self):
        spec = GridSpec(epsilon=1.0, h=2.0)
        assert empirical_marginal([2.0], spec).mass == {2: Fraction(1)}

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            empirical_marginal([], GridSpec(epsilon=1.0, h=2.0))

    @given(
        samples=st.lists(
            st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_masses_sum_to_exactly_one(self, samples):
        spec = GridSpec(epsilon=0.25, h=2.0)
        marg = empirical_marginal(samples, spec)
        assert sum(marg.mass.values(), Fraction(0)) == 1
        assert marg.exact


class TestDiscreteMarginal:
    def test_rejects_negative_mass(self):
        spec = GridSpec(epsilon=1.0, h=2.0)
        with pytest.raises(DomainError):
            DiscreteMarginal(spec, {0: Fraction(3, 2), 1: Fraction(-1, 2)})

    def test_rejects_bad_total(self):
        spec = GridSpec(epsilon=1.0, h=2.0)
        with pytest.raises(DomainError):
            DiscreteMarginal(spec, {0: Fraction(1, 2)})

    def test_float_masses_embedded_exactly(self):
        spec = GridSpec(epsilon=1.0, h=2.0)
        marg = DiscreteMarginal(spec, {0: 0.5, 2: 0.5})
        assert marg.exact  # 0.5 is dyadic, so the sum is exactly 1


class TestSamplePrior:
    def test_point_mass_degenerate(self):
        cell = PriorCell("point_masses", {"values": [1.0], "probs": [1]})
        prior = PriorDescription(n=3, m=1, h=2.0, cells=((cell,),) * 3)
        out = sample_prior(prior, 3, 1, 3, seed=0)
        assert np.all(out.values == 1.0)

    def test_same_seed_reproduces(self):
        cell = PriorCell("uniform", {"low": 0.0, "high": 2.0})
        prior = PriorDescription(n=2, m=2, h=2.0, cells=((cell, cell),) * 2)
        a = sample_prior(prior, 2, 2, 50, seed=9)
        b = sample_prior(prior, 2, 2, 50, seed=9)
        assert np.array_equal(a.values, b.values)
        c = sample_prior(prior, 2, 2, 50, seed=10)
        assert not np.array_equal(a.values, c.values)

    def test_uniform_mean_clt(self):
        cell = PriorCell("uniform", {"low": 0.0, "high": 2.0})
        prior = PriorDescription(n=1, m=1, h=2.0, cells=((cell,),))
        out = sample_prior(prior, 1, 1, 10_000, seed=4)
        assert abs(out.values.mean() - 1.0) < 0.05

    def test_trunc_exp_range_and_mean(self):
        cell = PriorCell("trunc_exp", {"scale": 0.7, "low": 0.0, "high": 2.0})
        prior = PriorDescription(n=1, m=1, h=2.0, cells=((cell,),))
        out = sample_prior(prior, 1, 1, 20_000, seed=4)
        assert out.values.min() >= 0.0 and out.values.max() <= 2.0
        assert abs(out.values.mean() - cell.mean()) < 0.05

    def test_unsupported_family(self):
        from mechlearn import ConfigError

        with pytest.raises(ConfigError):
            PriorCell("lognormal", {"mu": 0.0})

    def test_rounded_frequencies_match_pushforward(self):
        # chi-square at alpha=0.001 over 1e5 draws, off-grid atoms
        from scipy.stats import chi2

        spec = GridSpec(epsilon=0.25, h=2.0)
        cell = PriorCell(
            "point_masses",
            {"values": [0.3, 0.9, 1.1, 1.85], "probs": [0.2, 0.3, 0.4, 0.1]},
        )
        prior = PriorDescription(n=1, m=1, h=2.0, cells=((cell,),))
        draws = sample_prior(prior, 1, 1, 100_000, seed=123).values.reshape(-1)
        rounded = empirical_marginal(draws, spec)
        target = cell.grid_pushforward(spec)
        stat = 0.0
        s = draws.size
        for k in target.support:
            expected = float(target.mass[k]) * s
            observed = float(rounded.mass.get(k, Fraction(0))) * s
            stat += (observed - expected) ** 2 / expected
        assert stat < chi2.ppf(1 - 0.001, df=len(target.support) - 1)


class TestSampleSetCsv:
    def test_round_trip(self, tmp_path):
        cell = PriorCell("uniform", {"low": 0.0, "high": 2.0})
        prior = PriorDescription(n=2, m=2, h=2.0, cells=((cell, cell),) * 2)
        out = sample_prior(prior, 2, 2, 7, seed=3)
        path = tmp_path / "samples.csv"
        out.to_csv(str(path))
        back = SampleSet.from_csv(str(path), h=2.0)
        assert np.array_equal(back.values, out.values)

    def test_missing_directory_is_config_error(self, tmp_path):
        out = SampleSet(n=1, m=1, s=1, h=1.0, values=np.zeros((1, 1, 1)))
        with pytest.raises(ConfigError, match="cannot write"):
            out.to_csv(str(tmp_path / "nodir" / "samples.csv"))


class TestRecommendedSampleCount:
    @staticmethod
    def _rhs(s, n, m, L, H, eps, delta):
        levels = math.ceil(H / eps)
        lead = 8.0 * n * n * m * m * L * L * H * H / (eps * eps)
        return lead * (
            math.log(4 * n * m * L * H / eps)
            + math.log(1 / delta)
            + math.log(n)
            + 2 * m * math.log(levels)
            + n * m * levels * math.log(s + 1)
        )

    def test_frozen_scalar_instance(self):
        # value computed by an independent scalar fixed-point iteration
        # before the build
        assert recommended_sample_count(1, 1, 1, 1, 0.5, 0.1) == 594

    @pytest.mark.parametrize(
        "args",
        [(1, 1, 1, 1, 0.5, 0.1), (2, 2, 1, 2, 0.25, 0.05), (1, 2, 1.5, 1, 0.4, 0.2)],
    )
    def test_minimality(self, args):
        s = recommended_sample_count(*args)
        assert s >= self._rhs(s, *args)
        assert (s - 1) < self._rhs(s - 1, *args)

    def test_monotone_in_parameters(self):
        base = recommended_sample_count(1, 1, 1, 1, 0.5, 0.1)
        assert recommended_sample_count(2, 1, 1, 1, 0.5, 0.1) >= base
        assert recommended_sample_count(1, 2, 1, 1, 0.5, 0.1) >= base
        assert recommended_sample_count(1, 1, 1, 2, 0.5, 0.1) >= base
        assert recommended_sample_count(1, 1, 1, 1, 0.25, 0.1) >= base
        assert recommended_sample_count(1, 1, 1, 1, 0.5, 0.01) >= base

    def test_rejects_bad_delta(self):
        with pytest.raises(DomainError):
            recommended_sample_count(1, 1, 1, 1, 0.5, 1.5)
