import json

import pytest

from mechlearn import GridSpec, serialize_mechanism
from mechlearn.cli import cli_dispatch

from conftest import posted_price_table


INSTANCE = {
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


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "inst.json").write_text(json.dumps(INSTANCE))
    prior = {"n": 1, "m": 2, "h": 2.0, **INSTANCE["prior"]}
    (tmp_path / "prior.json").write_text(json.dumps(prior))
    return tmp_path


def test_oracle_eval_verify_round_trip(workdir, capsys):
    mech = workdir / "mech.json"
    assert cli_dispatch(
        ["oracle", "--config", str(workdir / "inst.json"), "--mode", "bic",
         "--out", str(mech), "--lp-dump", str(workdir / "dump.lp")]
    ) == 0
    out = capsys.readouterr().out
    assert "objective 2.25" in out
    assert (workdir / "dump.lp").read_text().startswith("Minimize")
    assert cli_dispatch(["eval", "--mech", str(mech), "--prior", str(workdir / "prior.json")]) == 0
    assert capsys.readouterr().out.strip() == "2.25"
    assert cli_dispatch(["verify", "--mech", str(mech), "--prior", str(workdir / "prior.json")]) == 0


def test_learn_bic_writes_reproducible_mechanism(workdir):
    a, b = workdir / "a.json", workdir / "b.json"
    args = ["learn-bic", "--config", str(workdir / "inst.json"), "--s", "60", "--seed", "3"]
    assert cli_dispatch(args + ["--out", str(a)]) == 0
    assert cli_dispatch(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_learn_from_samples_csv(workdir):
    from mechlearn.priors import prior_from_config, sample_prior

    prior = prior_from_config(json.loads((workdir / "prior.json").read_text()))
    samples = sample_prior(prior, 1, 2, 40, seed=11)
    samples.to_csv(str(workdir / "samples.csv"))
    out = workdir / "m.json"
    assert cli_dispatch(
        ["learn-bic", "--config", str(workdir / "inst.json"),
         "--samples", str(workdir / "samples.csv"), "--out", str(out)]
    ) == 0
    assert out.exists()


def test_learn_single_and_myerson_csv(workdir, tmp_path):
    inst = dict(INSTANCE)
    inst.update({"m": 1, "space": {"kind": "single_parameter"}})
    inst["prior"] = {
        "family": "discrete_on_grid",
        "params": {"values": [1.0, 2.0], "probs": ["1/2", "1/2"]},
    }
    inst["n"] = 2
    path = tmp_path / "sp.json"
    path.write_text(json.dumps(inst))
    out = tmp_path / "sp_mech.json"
    assert cli_dispatch(
        ["learn-single", "--config", str(path), "--s", "50", "--seed", "0", "--out", str(out)]
    ) == 0
    csv_out = tmp_path / "virtuals.csv"
    assert cli_dispatch(["myerson", "--config", str(path), "--out", str(csv_out)]) == 0
    lines = csv_out.read_text().splitlines()
    assert lines[1] == "bidder,value,quantile,revenue_curve,hull,phi"
    assert len(lines) == 2 + 4  # two bidders, two support points each


def test_nudge_subcommand(workdir):
    mech = workdir / "learned.json"
    assert cli_dispatch(
        ["learn-bic", "--config", str(workdir / "inst.json"), "--s", "60",
         "--seed", "3", "--out", str(mech)]
    ) == 0
    out = workdir / "nudged.json"
    assert cli_dispatch(
        ["nudge", "--mech", str(mech), "--epsilon", "0.04", "--out", str(out)]
    ) == 0
    assert cli_dispatch(
        ["verify", "--mech", str(out), "--prior", str(workdir / "prior.json")]
    ) == 0


def test_sweep_golden_reproduction(workdir, tmp_path):
    cfg = {
        "instance": INSTANCE,
        "mode": "bic",
        "s_values": [20],
        "seeds": [0, 1],
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli_dispatch(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "o1")]) == 0
    assert cli_dispatch(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "o2")]) == 0
    assert (tmp_path / "o1" / "rows.csv").read_bytes() == (tmp_path / "o2" / "rows.csv").read_bytes()
    assert (tmp_path / "o1" / "summary.csv").read_bytes() == (tmp_path / "o2" / "summary.csv").read_bytes()


def test_sweep_reproduces_shipped_golden_files(tmp_path):
    # the shipped example config regenerates the checked-in result files
    # byte for byte (seeds pinned in the config)
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent
    assert cli_dispatch(
        ["sweep", "--config", str(root / "configs" / "sweep.json"),
         "--out", str(tmp_path / "run")]
    ) == 0
    for name in ("rows.csv", "summary.csv"):
        golden = (root / "tests" / "golden" / f"sweep_{name.replace('.csv', '')}.csv")
        assert (tmp_path / "run" / name).read_bytes() == golden.read_bytes()


def test_concentrate_subcommand(tmp_path):
    cfg = {
        "epsilon": 0.5,
        "h": 1.0,
        "marginals": [
            {"values": [0.0, 1.0], "probs": ["1/2", "1/2"]},
            {"values": [0.0, 1.0], "probs": ["1/2", "1/2"]},
        ],
        "s": 500,
        "epsilon_dev": 0.1,
        "trials": 200,
        "f": {"kind": "scaled_sum"},
    }
    path = tmp_path / "conc.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "conc.csv"
    assert cli_dispatch(["concentrate", "--config", str(path), "--seed", "1", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1] == "trials,violations,frequency,bound,binomial_se"


def test_exact_eval_matches_monte_carlo(workdir, capsys):
    # the eval subcommand's exact revenue agrees with a 1e6-sample
    # Monte-Carlo estimate within four standard errors
    import numpy as np

    mech_path = workdir / "learned.json"
    assert cli_dispatch(
        ["learn-bic", "--config", str(workdir / "inst.json"), "--s", "60",
         "--seed", "3", "--out", str(mech_path)]
    ) == 0
    capsys.readouterr()
    assert cli_dispatch(
        ["eval", "--mech", str(mech_path), "--prior", str(workdir / "prior.json")]
    ) == 0
    exact = float(capsys.readouterr().out.strip().splitlines()[-1])

    from mechlearn.mechanism import deserialize_mechanism

    mech = deserialize_mechanism(mech_path.read_text())
    rng = np.random.default_rng(2718)
    n_draws = 1_000_000
    picks = rng.integers(0, 2, size=(n_draws, 2))  # uniform over {1.0, 2.0}
    idx = 4 + 4 * picks  # grid indices of 1.0 and 2.0 at eps 0.25
    ranks = idx[:, 0] * mech.domain.spec.levels + idx[:, 1]
    draws = mech.payments[:, 0][ranks]
    se = draws.std(ddof=1) / np.sqrt(n_draws)
    assert abs(draws.mean() - exact) <= 4 * se


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert cli_dispatch(["oracle", "--bogus"]) == 1

    def test_missing_seed_is_usage_error(self, workdir):
        assert cli_dispatch(
            ["learn-bic", "--config", str(workdir / "inst.json"), "--s", "5",
             "--out", str(workdir / "x.json")]
        ) == 1

    def test_capacity_error_is_exit_two(self, tmp_path):
        # 16 distinct rounded values per cell: 16^4 profiles x 9 outcomes
        # crosses the 5e5 lottery-variable budget
        inst = dict(INSTANCE)
        inst.update({"n": 2, "m": 2, "epsilon": 0.05})
        inst["prior"] = {
            "family": "point_masses",
            "params": {
                "values": [0.05 * k + 0.01 for k in range(16)],
                "probs": ["1/16"] * 16,
            },
        }
        path = tmp_path / "big.json"
        path.write_text(json.dumps(inst))
        assert cli_dispatch(
            ["oracle", "--config", str(path), "--out", str(tmp_path / "o.json")]
        ) == 2

    def test_corrupt_mechanism_file_is_usage_error(self, workdir):
        bad = workdir / "bad.json"
        bad.write_text("{}")
        assert cli_dispatch(
            ["eval", "--mech", str(bad), "--prior", str(workdir / "prior.json")]
        ) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--mech", "{w}/missing.json", "--prior", "{w}/prior.json"],
            ["verify", "--mech", "{w}/missing.json", "--prior", "{w}/prior.json"],
            ["nudge", "--mech", "{w}/missing.json", "--epsilon", "0.1",
             "--out", "{w}/o.json"],
            ["eval", "--mech", "{w}", "--prior", "{w}/prior.json"],
            ["eval", "--mech", "{w}/no_n.json", "--prior", "{w}/prior.json"],
            ["eval", "--mech", "{w}/no_outcome.json", "--prior", "{w}/prior.json"],
            ["sweep", "--config", "{w}", "--out", "{w}/sweep"],
            ["learn-bic", "--config", "{w}/inst.json", "--samples", "{w}/missing.csv",
             "--out", "{w}/o.json"],
            ["concentrate", "--config", "{w}/conc.json", "--seed", "1",
             "--out", "{w}/c.csv"],
        ],
    )
    def test_unreadable_input_is_usage_error(self, workdir, capsys, argv):
        doc = json.loads(serialize_mechanism(posted_price_table(GridSpec(0.25, 2.0), 1.0)))
        del doc["header"]["n"]
        (workdir / "no_n.json").write_text(json.dumps(doc))
        doc["header"]["n"] = 1
        del doc["rows"][0]["entries"][0]["outcome"]
        (workdir / "no_outcome.json").write_text(json.dumps(doc))
        (workdir / "conc.json").write_text(json.dumps({
            "epsilon": 0.5, "h": 1.0, "s": 10, "epsilon_dev": 0.1, "trials": 5,
            "marginals": [{"values": [0.5], "probs": ["1"]}],
            "f": {"kind": "mechanism_revenue", "mechanism": str(workdir / "missing.json")},
        }))
        assert cli_dispatch([a.format(w=workdir) for a in argv]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["learn-bic", "--config", "{w}/inst.json", "--s", "20", "--seed", "1",
             "--out", "{w}/nodir/o.json"],
            ["concentrate", "--config", "{w}/conc.json", "--seed", "1",
             "--out", "{w}/nodir/c.csv"],
            ["sweep", "--config", "{w}/sweep.json", "--out", "{w}/inst.json"],
            ["oracle", "--config", "{w}/inst.json", "--out", "{w}/o.json",
             "--lp-dump", "{w}/nodir/d.lp"],
        ],
    )
    def test_unwritable_output_is_usage_error(self, workdir, capsys, argv):
        (workdir / "conc.json").write_text(json.dumps({
            "epsilon": 0.5, "h": 1.0, "s": 10, "epsilon_dev": 0.1, "trials": 5,
            "marginals": [{"values": [0.5], "probs": ["1"]}], "f": {"kind": "scaled_sum"},
        }))
        (workdir / "sweep.json").write_text(json.dumps(
            {"instance": INSTANCE, "mode": "bic", "s_values": [5], "seeds": [0]}
        ))
        assert cli_dispatch([a.format(w=workdir) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {argv[-1].format(w=workdir)}: cannot write: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--mech", "{w}/posted.json", "--prior", "{w}/off_grid.json"],
            ["verify", "--mech", "{w}/posted.json", "--prior", "{w}/off_grid.json",
             "--config", "{w}/inst.json"],
        ],
    )
    def test_off_grid_discrete_prior_is_usage_error(self, workdir, capsys, argv):
        mech = posted_price_table(GridSpec(0.25, 2.0), 1.0, m=2)
        (workdir / "posted.json").write_text(serialize_mechanism(mech))
        (workdir / "off_grid.json").write_text(json.dumps({
            "n": 1, "m": 2, "h": 2.0, "family": "discrete_on_grid",
            "params": {"values": [1.1, 2.0], "probs": ["1/2", "1/2"]},
        }))
        assert cli_dispatch([a.format(w=workdir) for a in argv]) == 1
        assert "is not a grid point" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "body, message",
        [
            ("0,0,0,abc", "line 2: could not convert"),
            ("0,0", "line 2: expected 4 fields"),
            ("0,0,-5,1.0", "line 2: negative index"),
            ("0,0,0,1.0\n0,1,0,1.0,7", "line 3: expected 4 fields"),
            ("0,0,0,1.0\n3,1,0,1.0", "samples cover 2 of 4x2 cells"),
            ("0,0,999999999999,1.0", "ragged sample counts"),
            ("0,0,0,nan\n0,1,0,1.0", "must lie in"),
        ],
        ids=["not_a_number", "short_row", "negative_index", "long_row",
             "missing_cell", "huge_index", "nan_value"],
    )
    def test_malformed_sample_csv_is_usage_error(self, workdir, capsys, body, message):
        samples = workdir / "samples.csv"
        samples.write_text(f"bidder,parameter,sample_index,value\n{body}\n")
        assert cli_dispatch(
            ["learn-bic", "--config", str(workdir / "inst.json"), "--samples",
             str(samples), "--out", str(workdir / "o.json")]
        ) == 1
        assert message in capsys.readouterr().err

    def test_verify_declared_bound_violation_is_exit_three(self, workdir):
        from mechlearn.mechanism import deserialize_mechanism, serialize_mechanism

        mech_path = workdir / "learned.json"
        assert cli_dispatch(
            ["learn-bic", "--config", str(workdir / "inst.json"), "--s", "40",
             "--seed", "1", "--out", str(mech_path)]
        ) == 0
        mech = deserialize_mechanism(mech_path.read_text())
        # tamper: declare an impossible regret bound
        mech.meta["bic_regret_bound"] = -1.0
        mech.payments[:, :] = mech.payments - 0.7  # also break nothing else
        mech.meta["dsic_regret_bound"] = 0.0
        tampered = workdir / "tampered.json"
        tampered.write_text(serialize_mechanism(mech))
        code = cli_dispatch(
            ["verify", "--mech", str(tampered), "--prior", str(workdir / "prior.json")]
        )
        assert code == 3

    def test_verify_over_the_expost_budget_is_exit_two(
        self, workdir, capsys, monkeypatch
    ):
        from mechlearn import mechanism

        mech = posted_price_table(GridSpec(epsilon=0.25, h=2.0), 1.0, m=2)
        mech_path = workdir / "posted.json"
        mech_path.write_text(serialize_mechanism(mech))
        # 81 types of one bidder: the ex-post tensor has 6561 cells
        monkeypatch.setattr(mechanism, "EXPOST_CELL_BUDGET", 6560)
        code = cli_dispatch(
            ["verify", "--mech", str(mech_path), "--prior", str(workdir / "prior.json"),
             "--config", str(workdir / "inst.json")]
        )
        assert code == 2
        assert "capacity error: ex-post utility tensor" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["bic", "dsic"])
    def test_oracle_over_the_nnz_budget_is_exit_two(
        self, workdir, capsys, monkeypatch, mode
    ):
        from mechlearn import oracle

        argv = ["oracle", "--config", str(workdir / "inst.json"), "--mode", mode,
                "--out", str(workdir / "o.json")]
        assert cli_dispatch(argv) == 0
        capsys.readouterr()
        # 4 profiles, 4 outcomes: the LP's nnz bound is in the hundreds
        monkeypatch.setattr(oracle, "NNZ_BUDGET", 100)
        assert cli_dispatch(argv) == 2
        assert "capacity error: the oracle LP has up to" in capsys.readouterr().err
