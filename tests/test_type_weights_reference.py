"""Integer type weights against the per-type ``Fraction`` loop they replaced.

``_reference_type_weights`` is the previous ``type_weights``: one
``Fraction`` product over the parameters for every domain type.
``type_weights`` must return the same rationals, type for type, on
marginals built from float probabilities (power-of-two denominators), from
sample counts (k/s masses) and with zero-mass grid points, on domains
wider than the prior's support.
"""

from fractions import Fraction

import numpy as np
import pytest

from mechlearn import DiscreteMarginal, GridSpec, ProductPrior, ProfileDomain
from mechlearn.grid import empirical_marginal
from mechlearn.mechanism import type_weights

SPEC = GridSpec(epsilon=0.25, h=2.0)


def _reference_type_weights(domain, prior):
    out = []
    for i in range(domain.n):
        weights = []
        for t in domain.bidder_types(i):
            w = Fraction(1)
            for j in range(domain.m):
                w *= prior.marginals[i][j].mass.get(int(t[j]), Fraction(0))
            weights.append(w)
        out.append(weights)
    return out


def _float_marginal(rng):
    """Float probabilities over a few grid points, some of them zero: each
    mass is the exact rational of its float, over a power of two."""
    k = int(rng.integers(1, 5))
    points = sorted(rng.choice(SPEC.levels, size=k, replace=False).tolist())
    raw = rng.random(k)
    if k > 1:  # a zero mass, never the last, which takes up the rounding
        raw[int(rng.integers(k - 1))] = 0.0
    probs = (raw / raw.sum()).tolist()
    probs[-1] = 1.0 - sum(probs[:-1])
    return DiscreteMarginal(SPEC, dict(zip(points, probs)))


def _sample_marginal(rng):
    s = int(rng.integers(1, 60))
    return empirical_marginal(rng.uniform(0.0, SPEC.h, size=s), SPEC)


def _zero_mass_marginal(rng):
    """k/s masses with explicit zero entries at other grid points."""
    marg = _sample_marginal(rng)
    mass = dict(marg.mass)
    for k in rng.choice(SPEC.levels, size=3).tolist():
        mass.setdefault(k, Fraction(0))
    return DiscreteMarginal(SPEC, mass)


KINDS = {
    "float": _float_marginal,
    "samples": _sample_marginal,
    "zero_mass": _zero_mass_marginal,
}


def _prior_and_domain(rng, n, m, kinds):
    cells = tuple(
        tuple(KINDS[kinds[(i * m + j) % len(kinds)]](rng) for j in range(m))
        for i in range(n)
    )
    prior = ProductPrior(n=n, m=m, marginals=cells)
    supports = []
    for row in cells:
        out = []
        for marg in row:
            extra = rng.choice(SPEC.levels, size=int(rng.integers(0, 3))).tolist()
            out.append(tuple(sorted(set(marg.mass) | set(extra))))
        supports.append(tuple(out))
    return prior, ProfileDomain(spec=SPEC, supports=tuple(supports))


CASES = [
    (n, m, kinds, seed)
    for n, m in ((1, 1), (1, 3), (2, 2), (3, 1))
    for kinds in (("float",), ("samples",), ("zero_mass",), ("float", "samples", "zero_mass"))
    for seed in range(3)
]


@pytest.mark.parametrize("n, m, kinds, seed", CASES)
def test_type_weights_match_the_fraction_loop(n, m, kinds, seed):
    rng = np.random.default_rng(100 * n + 10 * m + seed + 1000 * len(kinds))
    prior, domain = _prior_and_domain(rng, n, m, kinds)
    got = type_weights(domain, prior)
    want = _reference_type_weights(domain, prior)
    assert got == want
    assert all(type(w) is Fraction for ws in got for w in ws)

