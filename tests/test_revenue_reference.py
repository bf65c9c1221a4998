"""Exact revenue against the two per-profile loops it replaced.

``_reference_revenue`` walks the grid prior's support profiles and
``_reference_atoms`` walks every atom profile of the finite true prior,
rounding each through the wrapper. Both are the previous implementations,
each with its own ``itertools`` enumeration. ``revenue(exact=True)`` and
``exact_revenue_on_atoms`` must return the same rational, not an
approximately equal one.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from mechlearn import (
    GridSpec,
    MechanismTable,
    PriorCell,
    PriorDescription,
    ProfileDomain,
    enumerate_multi_item,
    revenue,
)
from mechlearn.learner import LearnedMechanism

SPEC = GridSpec(epsilon=0.25, h=1.0)
# off-grid atoms, several rounding to one grid index (0.5, 0.55, 0.6 -> 2)
ATOM_VALUES = [0.0, 0.1, 0.25, 0.3, 0.5, 0.55, 0.6, 0.75, 0.9, 1.0]
PAYMENTS = [0.0, -0.0, 1 / 3, 2 / 3, 0.25, 0.7, 1.1]


def _reference_revenue(mech, prior) -> Fraction:
    per_bidder = [
        list(itertools.product(*(prior.cell(i, j).support for j in range(prior.m))))
        for i in range(prior.n)
    ]
    total = Fraction(0)
    for profile in itertools.product(*per_bidder):
        p = Fraction(1)
        for i in range(prior.n):
            for j in range(prior.m):
                p *= prior.cell(i, j).mass.get(int(profile[i][j]), Fraction(0))
        if p == 0:
            continue
        rank = mech.domain.profile_rank(profile)
        paysum = sum((Fraction(float(x)) for x in mech.payments[rank]), Fraction(0))
        total += p * paysum
    return total


def _reference_atoms(learned, prior) -> Fraction:
    flat = [prior.cell(i, j).atoms() for i in range(prior.n) for j in range(prior.m)]
    total = Fraction(0)
    for combo in itertools.product(*flat):
        prob = Fraction(1)
        for _, q in combo:
            prob *= q
        values = np.array([v for v, _ in combo]).reshape(prior.n, prior.m)
        rank = learned.grid_rank(values)
        paysum = sum(
            (Fraction(float(x)) for x in learned.inner.payments[rank]), Fraction(0)
        )
        total += prob * paysum
    return total


def _random_prior(rng, n, m) -> PriorDescription:
    """Point masses with 1-3 atoms per cell, some of zero probability, and
    probabilities over denominators that floats cannot carry exactly."""
    cells = []
    for _ in range(n):
        row = []
        for _ in range(m):
            k = int(rng.integers(1, 4))
            values = [float(v) for v in rng.choice(ATOM_VALUES, size=k)]
            counts = [int(c) for c in rng.integers(0, 3, size=k)]
            counts[int(rng.integers(k))] += 1  # at least one atom has mass
            total = sum(counts)
            probs = [str(Fraction(c, total)) for c in counts]
            row.append(PriorCell("point_masses", {"values": values, "probs": probs}))
        cells.append(tuple(row))
    return PriorDescription(n=n, m=m, h=SPEC.h, cells=tuple(cells))


def _random_table(rng, domain) -> MechanismTable:
    space = enumerate_multi_item(domain.n, domain.m)
    r = domain.num_profiles
    probs = np.zeros((r, space.num_outcomes))
    probs[:, 0] = 1.0
    payments = rng.choice(PAYMENTS, size=(r, domain.n))
    return MechanismTable(domain=domain, space=space, probs=probs, payments=payments)


def _uneven_domain(rng, grid_prior) -> ProfileDomain:
    """The prior's support plus a random, per-cell different set of extra
    grid indices, so that some domain types carry zero weight."""
    supports = []
    for i in range(grid_prior.n):
        row = []
        for j in range(grid_prior.m):
            extra = rng.choice(SPEC.levels, size=int(rng.integers(0, 3))).tolist()
            row.append(tuple(sorted(set(grid_prior.cell(i, j).support) | set(extra))))
        supports.append(tuple(row))
    return ProfileDomain(spec=SPEC, supports=tuple(supports))


CASES = [(n, m, seed) for n in (1, 2, 3) for m in (1, 2) for seed in range(5)]


@pytest.mark.parametrize("n, m, seed", CASES)
def test_exact_revenue_matches_the_profile_loops(n, m, seed):
    rng = np.random.default_rng(1000 * n + 100 * m + seed)
    prior = _random_prior(rng, n, m)
    grid_prior = prior.to_grid_prior(SPEC)

    full = _random_table(rng, ProfileDomain.full_grid(SPEC, n, m))
    learned = LearnedMechanism(inner=full, mode="bic")
    on_atoms = learned.exact_revenue_on_atoms(prior)
    assert type(on_atoms) is Fraction
    assert on_atoms == _reference_atoms(learned, prior)
    assert revenue(full, grid_prior, exact=True) == _reference_revenue(full, grid_prior)

    table = _random_table(rng, _uneven_domain(rng, grid_prior))
    exact = revenue(table, grid_prior, exact=True)
    assert type(exact) is Fraction
    assert exact == _reference_revenue(table, grid_prior)
