"""Acceptance suite: one criterion per test, one PASS/FAIL line printed each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
Every tolerance is pinned here, not computed; runtime budgets are asserted.
"""

import time
from fractions import Fraction

import numpy as np

from mechlearn import (
    GridSpec,
    ValuationModel,
    brute_force_optimal,
    enumerate_multi_item,
    iron,
    learn_bic,
    learn_dsic,
    nudge_to_ic,
    serialize_mechanism,
    solve_optimal,
)
from mechlearn.cli import cli_dispatch
from mechlearn.experiments import (
    ExperimentConfig,
    concentration_experiment,
    run_sweep,
)
from mechlearn.learner import Menu, MenuEntry, menu_mechanism
from mechlearn.mechanism import audit_over_domain, regret_report, revenue
from mechlearn.myerson import MyersonAuction, single_parameter_table
from mechlearn.oracle import OracleProblem
from mechlearn.outcomes import single_parameter_space
from mechlearn.priors import PriorCell, PriorDescription, sample_prior

from conftest import dense, product_prior


def report(criterion: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} ({detail})", flush=True)
    assert ok, f"{criterion}: {detail}"


def random_cell(rng, spec, size):
    support = sorted(rng.choice(spec.levels, size=size, replace=False))
    weights = rng.integers(1, 6, size=size)
    total = int(weights.sum())
    return {int(k): Fraction(int(w), total) for k, w in zip(support, weights)}


def test_criterion_1_oracle_correctness():
    """solve_optimal matches the exact-rational brute force on 50 tiny
    instances, and its mechanisms pass IR and BIC audits."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240)
    spec = GridSpec(epsilon=0.5, h=2.0)
    model = ValuationModel(tag="additive")
    worst = 0.0
    for trial in range(50):
        kind = trial % 5
        if kind in (0, 1):
            n, m = 1, 1
            sizes = [[int(rng.integers(2, 5))]]
        elif kind == 2:
            n, m = 1, 2
            sizes = [[int(rng.integers(2, 4)), int(rng.integers(2, 4))]]
        elif kind == 3:
            n, m = 2, 1
            sizes = [[int(rng.integers(2, 5))], [int(rng.integers(2, 4))]]
        else:
            n, m = 2, 2
            sizes = [[2, 2], [2, 2]]
        while True:
            profiles = 1
            for row in sizes:
                for s in row:
                    profiles *= s
            if profiles <= 16:
                break
            sizes[0][0] -= 1
        cells = [[random_cell(rng, spec, s) for s in row] for row in sizes]
        prior = product_prior(spec, cells)
        space = enumerate_multi_item(n, m)
        assert space.num_outcomes <= 16
        sol = solve_optimal(
            OracleProblem(prior=prior, space=space, model=model, ic_mode="bic")
        )
        exact = float(brute_force_optimal(prior, space, model, "bic"))
        worst = max(worst, abs(sol.objective_value - exact))
        assert abs(sol.objective_value - exact) <= 1e-7
        audit = audit_over_domain(sol.mechanism, prior, model)
        assert audit.ir_slack >= -1e-8
        assert audit.bic_regret <= 1e-8
    elapsed = time.perf_counter() - t0
    report(
        "1 oracle-correctness",
        worst <= 1e-7 and elapsed < 60.0,
        f"50 instances, worst objective gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_myerson_optimality():
    """The virtual-welfare auction earns exactly the BIC LP optimum on all
    single-item instances in a fixed 20-prior family."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(66001)
    spec = GridSpec(epsilon=0.25, h=2.0)
    model = ValuationModel(tag="additive")
    worst = 0.0
    for trial in range(20):
        n = 1 + trial % 2
        cells = [[random_cell(rng, spec, int(rng.integers(1, 4)))] for _ in range(n)]
        prior = product_prior(spec, cells)
        rows = [np.zeros(n)] + [np.eye(n)[i] for i in range(n)]
        space = single_parameter_space(np.array(rows))
        auction = MyersonAuction(
            virtuals=tuple(iron(prior.marginals[i][0]) for i in range(n)),
            space=space,
        )
        table = single_parameter_table(auction, spec)
        got = revenue(table, prior)
        opt = float(brute_force_optimal(prior, space, model, "bic"))
        worst = max(worst, abs(got - opt))
        assert abs(got - opt) <= 1e-7
    elapsed = time.perf_counter() - t0
    report(
        "2 myerson-optimality",
        worst <= 1e-7 and elapsed < 30.0,
        f"20 priors, worst revenue gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_dsic_learner_invariants():
    """40 seeded learn_dsic runs: (4*m*eps)-DSIC, IR, and the exact
    revenue-transfer identity."""
    t0 = time.perf_counter()
    eps, m = 0.25, 2
    bound = 4 * m * eps
    cell = PriorCell(
        "point_masses",
        {"values": [0.3, 1.1, 1.85], "probs": ["1/3", "1/3", "1/3"]},
    )
    prior = PriorDescription(n=2, m=2, h=2.0, cells=((cell, cell), (cell, cell)))
    space = enumerate_multi_item(2, 2)
    model = ValuationModel(tag="additive")
    worst_regret, worst_ir = 0.0, 0.0
    for seed in range(40):
        samples = sample_prior(prior, 2, 2, 60, seed=seed)
        learned = learn_dsic(samples, eps, space, model)
        grid_prior = prior.to_grid_prior(learned.spec)
        rep = regret_report(learned.inner, grid_prior, model)
        assert rep.dsic_regret <= bound + 1e-8
        assert rep.ir_slack >= -1e-8
        lhs = learned.exact_revenue_on_atoms(prior)
        rhs = revenue(learned.inner, grid_prior, exact=True)
        assert lhs == rhs  # exact rational identity
        worst_regret = max(worst_regret, rep.dsic_regret)
        worst_ir = min(worst_ir, rep.ir_slack)
    elapsed = time.perf_counter() - t0
    report(
        "3 dsic-learner-invariants",
        elapsed < 600.0,
        f"40 runs, worst dsic regret {worst_regret:.3f} <= {bound}, "
        f"worst ir {worst_ir:.1e}, identity exact, {elapsed:.1f}s",
    )


def test_criterion_4_revenue_gap_at_desk_scale():
    """Learned-vs-benchmark revenue gap on the grid-supported true prior:
    small at S=2000 and non-increasing in S within two standard errors."""
    t0 = time.perf_counter()
    eps = 0.25
    cell = PriorCell(
        "discrete_on_grid", {"values": [1.0, 2.0], "probs": ["1/2", "1/2"]}
    )
    prior = PriorDescription(n=1, m=2, h=2.0, cells=((cell, cell),))
    space = enumerate_multi_item(1, 2)
    model = ValuationModel(tag="additive")
    spec = GridSpec(epsilon=eps, h=2.0)
    benchmark = float(
        brute_force_optimal(prior.to_grid_prior(spec), space, model, "bic")
    )
    gaps = {}
    for s in (50, 200, 2000):
        rows = []
        for seed in range(40):
            samples = sample_prior(prior, 1, 2, s, seed=seed)
            learned = learn_bic(samples, eps, space, model)
            rows.append(benchmark - float(learned.exact_revenue_on_atoms(prior)))
        gaps[s] = np.array(rows)
    frac = float(np.mean(gaps[2000] <= eps))
    assert frac >= 0.95
    means = {s: g.mean() for s, g in gaps.items()}
    ses = {s: g.std(ddof=1) / np.sqrt(len(g)) for s, g in gaps.items()}
    for lo, hi in ((50, 200), (200, 2000)):
        slack = 2.0 * float(np.hypot(ses[lo], ses[hi]))
        assert means[hi] <= means[lo] + slack
    elapsed = time.perf_counter() - t0
    report(
        "4 revenue-gap-desk-scale",
        frac >= 0.95 and elapsed < 900.0,
        f"benchmark {benchmark}, frac(gap<=eps)@2000 = {frac:.2f}, "
        f"means {means[50]:.4f}/{means[200]:.4f}/{means[2000]:.4f}, {elapsed:.1f}s",
    )


def test_criterion_5_nudge():
    """On 100 random IR + eps-IC menus per eps, the nudged mechanism is
    exactly IC and loses at most the guaranteed revenue factor."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(3141)
    spec = GridSpec(epsilon=0.25, h=2.0)
    space = enumerate_multi_item(1, 2)
    model = ValuationModel(tag="additive")
    full = {k: Fraction(1, spec.levels) for k in range(spec.levels)}
    prior = product_prior(spec, [[dict(full), dict(full)]])
    worst_regret, worst_margin = 0.0, np.inf
    for eps in (0.01, 0.04, 0.09):
        for _ in range(100):
            entries = [MenuEntry(probs=np.eye(space.num_outcomes)[0], payment=0.0)]
            for _ in range(int(rng.integers(1, 6))):
                w = rng.random(space.num_outcomes)
                w /= w.sum()
                entries.append(MenuEntry(probs=w, payment=float(rng.uniform(0, 3))))
            menu = Menu(space=space, entries=tuple(entries))
            u = menu.utilities(model, spec)
            pay = np.array([e.payment for e in menu.entries])
            assign = np.zeros(u.shape[0], dtype=int)
            for t in range(u.shape[0]):
                ok = np.flatnonzero((u[t] >= u[t].max() - eps) & (u[t] >= 0.0))
                assign[t] = int(rng.choice(ok))
            rev0 = float(pay[assign].mean())  # uniform evaluation prior
            nudged = nudge_to_ic(menu, model, eps)
            mech = menu_mechanism(nudged, model, spec)
            rep = regret_report(mech, prior, model)
            rev1 = revenue(mech, prior)
            bound = (1.0 - np.sqrt(eps)) * (rev0 - np.sqrt(eps))
            assert rep.bic_regret <= 1e-9
            assert rev1 >= bound - 1e-9
            worst_regret = max(worst_regret, rep.bic_regret)
            worst_margin = min(worst_margin, rev1 - bound)
    elapsed = time.perf_counter() - t0
    report(
        "5 nudge-exact-ic",
        elapsed < 120.0,
        f"300 menus, worst regret {worst_regret:.1e}, "
        f"worst revenue margin {worst_margin:.4f}, {elapsed:.1f}s",
    )


def test_criterion_6_concentration():
    """Empirical violation frequency stays within the analytic tail bound
    plus three binomial standard errors, in three settings."""
    t0 = time.perf_counter()
    spec = GridSpec(epsilon=0.25, h=2.0)
    m3 = product_prior(
        spec, [[{0: Fraction(1, 4), 4: Fraction(1, 2), 8: Fraction(1, 4)}]]
    ).marginals[0][0]

    results = []
    # constant function: zero variance
    f_const = np.full((3,), 0.5)
    results.append(
        concentration_experiment(
            [m3], s=100, epsilon=0.05, trials=10_000, f_values=f_const, h_f=1.0, seed=1
        )
    )
    # scaled coordinate average, tight bound regime
    vals = m3.support_values()
    f_sum = np.add.outer(vals, vals) / 4.0  # range [0, 1]
    results.append(
        concentration_experiment(
            [m3, m3], s=8000, epsilon=0.1, trials=10_000, f_values=f_sum, h_f=1.0, seed=2
        )
    )
    # revenue of a fixed LP mechanism, as in the uniform-convergence step
    cell = PriorCell(
        "discrete_on_grid", {"values": [1.0, 2.0], "probs": ["1/2", "1/2"]}
    )
    prior = PriorDescription(n=1, m=2, h=2.0, cells=((cell, cell),))
    space = enumerate_multi_item(1, 2)
    model = ValuationModel(tag="additive")
    grid_prior = prior.to_grid_prior(spec)
    sol = solve_optimal(
        OracleProblem(prior=grid_prior, space=space, model=model, ic_mode="bic")
    )
    mech = sol.mechanism
    pay = dense(mech)[1]
    marg = grid_prior.marginals[0]
    supports = [marg[0].support, marg[1].support]
    f_mech = np.zeros((len(supports[0]), len(supports[1])))
    for a, ka in enumerate(supports[0]):
        for b, kb in enumerate(supports[1]):
            f_mech[a, b] = pay[mech.domain.profile_rank([[ka, kb]])].sum()
    h_f = float(f_mech.max())
    results.append(
        concentration_experiment(
            [marg[0], marg[1]],
            s=4000,
            epsilon=0.5,
            trials=10_000,
            f_values=f_mech,
            h_f=h_f,
            seed=3,
        )
    )
    assert results[0].frequency == 0.0
    for r in results:
        assert r.frequency <= r.bound + 3 * r.binomial_se
    elapsed = time.perf_counter() - t0
    report(
        "6 concentration",
        elapsed < 300.0,
        "freq/bound: "
        + ", ".join(f"{r.frequency:.2e}/{min(r.bound, 9.99):.2e}" for r in results)
        + f", {elapsed:.1f}s",
    )


def test_criterion_7_determinism(tmp_path):
    """Re-running every pipeline with identical seeds reproduces mechanism
    and result files byte for byte."""
    t0 = time.perf_counter()
    import json

    instance = {
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
    }
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(instance))
    pairs = []
    for name in ("m1.json", "m2.json"):
        assert cli_dispatch(
            ["learn-bic", "--config", str(inst), "--s", "120", "--seed", "7",
             "--out", str(tmp_path / name)]
        ) == 0
    pairs.append(("learn-bic", (tmp_path / "m1.json").read_bytes(),
                  (tmp_path / "m2.json").read_bytes()))

    cell = PriorCell(
        "point_masses", {"values": [0.3, 1.1, 1.85], "probs": ["1/3", "1/3", "1/3"]}
    )
    prior = PriorDescription(n=2, m=2, h=2.0, cells=((cell, cell), (cell, cell)))
    space = enumerate_multi_item(2, 2)
    model = ValuationModel(tag="additive")
    texts = []
    for _ in range(2):
        samples = sample_prior(prior, 2, 2, 60, seed=17)
        texts.append(serialize_mechanism(learn_dsic(samples, 0.25, space, model).inner))
    pairs.append(("learn-dsic", texts[0], texts[1]))

    cfg = ExperimentConfig.from_json(
        {"instance": instance, "mode": "bic", "s_values": [30], "seeds": [0, 1]}
    )
    run_sweep(cfg, out_dir=str(tmp_path / "s1"))
    run_sweep(cfg, out_dir=str(tmp_path / "s2"))
    for name in ("rows.csv", "summary.csv"):
        pairs.append(
            (f"sweep {name}", (tmp_path / "s1" / name).read_bytes(),
             (tmp_path / "s2" / name).read_bytes())
        )
    ok = all(a == b for _, a, b in pairs)
    elapsed = time.perf_counter() - t0
    report(
        "7 determinism",
        ok,
        f"{len(pairs)} artifact pairs byte-identical, {elapsed:.1f}s",
    )
