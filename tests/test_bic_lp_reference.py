"""The interim-variable BIC LP against the profile-form LP it replaced.

``_profile_form_objective`` is the previous formulation, kept here in its
arithmetic: every BIC row writes out each rest profile, with coefficient
``w(rest) * v[o]`` on the lottery variables and ``-w(rest)`` on the
payments, and there are no interim variables. Both LPs have the same
feasible mechanisms, so their optima must agree; the exact-rational simplex
is a third opinion wherever the instance fits under its guard.
"""

from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

from mechlearn import (
    GridSpec,
    ValuationModel,
    brute_force_optimal,
    enumerate_multi_item,
    solve_optimal,
)
from mechlearn.exactlp import OUTCOME_GUARD, PROFILE_GUARD
from mechlearn.mechanism import rest_weights, type_weights
from mechlearn.oracle import OracleProblem

from conftest import product_prior


def _profile_form_objective(problem: OracleProblem) -> float:
    domain = problem.domain()
    n, r_profiles = domain.n, domain.num_profiles
    k_out = problem.space.num_outcomes
    n_x = r_profiles * k_out
    weights_frac = type_weights(domain, problem.prior)
    weights = [np.array([float(w) for w in ws]) for ws in weights_frac]
    type_ranks = domain.type_ranks()
    profile_w = np.ones(r_profiles)
    for i in range(n):
        profile_w *= weights[i][type_ranks[:, i]]
    vals = [
        problem.model.values_for(
            problem.space, i, domain.bidder_types(i) * domain.spec.epsilon
        )
        for i in range(n)
    ]
    c = np.zeros(n_x + r_profiles * n)
    for i in range(n):
        c[n_x + np.arange(r_profiles) * n + i] = -profile_w

    ranks, bidders = np.arange(r_profiles)[:, None], np.arange(n)
    terms = [(ranks * n + bidders, ranks, bidders, type_ranks, -1.0)]
    row0 = r_profiles * n
    for i in range(n):
        t_i = domain.bidder_type_count(i)
        true, report = np.nonzero(~np.eye(t_i, dtype=bool))
        true, pair = true[:, None], np.arange(true.size)[:, None]
        rest = np.arange(r_profiles // t_i)
        w = rest_weights(weights_frac, i)
        terms.append((row0 + pair, domain.join_rank(i, report[:, None], rest), i, true, w))
        terms.append((row0 + pair, domain.join_rank(i, true, rest), i, true, -w))
        row0 += true.size
    row, prof, bidder, t, coef = (
        np.concatenate(col)
        for col in zip(*(map(np.ravel, np.broadcast_arrays(*term)) for term in terms))
    )
    keep = np.flatnonzero(coef)
    row, prof, bidder, t, coef = (a[keep] for a in (row, prof, bidder, t, coef))
    offsets = np.cumsum([0] + [len(v) for v in vals])
    v = np.concatenate(vals)[offsets[bidder] + t]
    term, o = np.nonzero(v)
    a_ub = sp.coo_matrix(
        (
            np.concatenate([coef[term] * v[term, o], -coef]),
            (
                np.concatenate([row[term], row]),
                np.concatenate([prof[term] * k_out + o, n_x + prof * n + bidder]),
            ),
        ),
        shape=(row0, c.size),
    ).tocsr()
    a_eq = sp.csr_matrix(
        (np.ones(n_x), np.arange(n_x), np.arange(0, n_x + 1, k_out)),
        shape=(r_profiles, c.size),
    )
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=np.zeros(row0),
        A_eq=a_eq,
        b_eq=np.ones(r_profiles),
        bounds=[(0.0, None)] * n_x + [(None, None)] * (r_profiles * n),
        method="highs",
    )
    assert res.status == 0
    return -float(res.fun)


def _random_problem(rng: np.random.Generator, trial: int) -> OracleProblem:
    spec = GridSpec(epsilon=0.5, h=2.0)
    n = 2 + trial % 2
    m = 1 if n == 3 else 1 + (trial // 2) % 2
    cells = []
    for _ in range(n):
        row = []
        for _ in range(m):
            size = int(rng.integers(1, 4))  # uneven supports, sizes 1-3
            support = sorted(rng.choice(spec.levels, size=size, replace=False))
            w = rng.integers(1, 6, size=size)
            row.append({int(k): Fraction(int(x), int(w.sum())) for k, x in zip(support, w)})
        cells.append(row)
    model = ValuationModel(tag="unit_demand" if trial % 3 == 0 else "additive")
    return OracleProblem(
        prior=product_prior(spec, cells),
        space=enumerate_multi_item(n, m),
        model=model,
        ic_mode="bic",
    )


@pytest.mark.parametrize("trial", range(24))
def test_interim_lp_matches_profile_form(trial):
    problem = _random_problem(np.random.default_rng(1000 + trial), trial)
    got = solve_optimal(problem).objective_value
    want = _profile_form_objective(problem)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-12)
    domain = problem.domain()
    if (
        domain.num_profiles <= PROFILE_GUARD
        and problem.space.num_outcomes <= OUTCOME_GUARD
    ):
        exact = brute_force_optimal(problem.prior, problem.space, problem.model, "bic")
        assert got == pytest.approx(float(exact), rel=1e-9, abs=1e-9)


def test_some_trials_reach_the_exact_simplex():
    # the guard check above must not skip every trial
    reached = 0
    for trial in range(24):
        problem = _random_problem(np.random.default_rng(1000 + trial), trial)
        reached += (
            problem.domain().num_profiles <= PROFILE_GUARD
            and problem.space.num_outcomes <= OUTCOME_GUARD
        )
    assert reached >= 6
