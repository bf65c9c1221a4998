import json

import numpy as np
import pytest

from mechlearn import (
    GridSpec,
    MechanismTable,
    ProfileDomain,
    enumerate_multi_item,
    serialize_mechanism,
)
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

CONCENTRATE = {
    "epsilon": 0.5, "h": 1.0, "s": 10, "epsilon_dev": 0.1, "trials": 5,
    "marginals": [{"values": [0.5], "probs": ["1"]}], "f": {"kind": "scaled_sum"},
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
        "argv",
        [
            ["eval", "--mech", "{w}/posted.json", "--prior", "{w}/prior.json"],
            ["verify", "--mech", "{w}/posted.json", "--prior", "{w}/prior.json",
             "--config", "{w}/inst.json"],
        ],
    )
    @pytest.mark.parametrize(
        "key, value", [("n", "1"), ("n", 1.5), ("n", True), ("m", "2"), ("m", 2.0)]
    )
    def test_header_size_not_a_json_integer_is_usage_error(
        self, workdir, capsys, argv, key, value
    ):
        # the file is valid with "n": 1 and "m": 2, which int() would recover
        doc = json.loads(serialize_mechanism(posted_price_table(GridSpec(0.25, 2.0), 1.0, m=2)))
        doc["header"][key] = value
        (workdir / "posted.json").write_text(json.dumps(doc))
        assert cli_dispatch([a.format(w=workdir) for a in argv]) == 1
        assert capsys.readouterr().err == (
            f"error: header.{key}: {value!r} is not a JSON integer\n"
        )

    @pytest.mark.parametrize(
        "command, body",
        [
            *[(command, {**INSTANCE, key: value})
              for command in ("learn-bic", "oracle", "myerson")
              for key, value in [("n", "abc"), ("epsilon", "x"), ("space", "x"),
                                 ("prior", "x"), ("n", 0)]],
            *[("learn-bic", {**INSTANCE, "prior": {
                "family": "point_masses", "params": {"values": values, "probs": probs}}})
              for values, probs in [([1.0, 2.0], ["3/2", "-1/2"]),
                                    ([1.0, 2.0], ["a", "b"]),
                                    ([1.0, 2.0], ["1/0", "1"]),
                                    (["x", 1.0], ["1/2", "1/2"])]],
            ("sweep", {"instance": INSTANCE, "mode": "bic", "s_values": ["x"], "seeds": [0]}),
            ("sweep", {"instance": INSTANCE, "mode": "bic", "s_values": [5], "seeds": 3}),
            ("prior", [INSTANCE["prior"]]),
            ("prior", {"n": "x", "m": 2, "h": 2.0, **INSTANCE["prior"]}),
            *[("concentrate", {k: v for k, v in CONCENTRATE.items() if k != key})
              for key in CONCENTRATE],
            ("concentrate", {**CONCENTRATE, "f": "x"}),
            *[(command, body)
              for command in ("verify", "nudge")
              for body in [{k: v for k, v in INSTANCE.items() if k != "model"},
                           {**INSTANCE, "model": "additive"},
                           [INSTANCE]]],
        ],
    )
    def test_malformed_config_is_usage_error(self, workdir, capsys, command, body):
        (workdir / "posted.json").write_text(
            serialize_mechanism(posted_price_table(GridSpec(0.25, 2.0), 1.0, m=2))
        )
        bad = workdir / "bad.json"
        bad.write_text(json.dumps(body))
        argv = {
            "learn-bic": ["--config", "{b}", "--s", "5", "--seed", "1", "--out", "{w}/o.json"],
            "oracle": ["--config", "{b}", "--out", "{w}/o.json"],
            "myerson": ["--config", "{b}", "--out", "{w}/o.csv"],
            "sweep": ["--config", "{b}", "--out", "{w}/sweep"],
            "prior": ["--mech", "{w}/posted.json", "--prior", "{b}"],
            "concentrate": ["--config", "{b}", "--seed", "1", "--out", "{w}/c.csv"],
            "verify": ["--mech", "{w}/posted.json", "--prior", "{w}/prior.json",
                       "--config", "{b}"],
            "nudge": ["--mech", "{w}/posted.json", "--epsilon", "0.1", "--config", "{b}",
                      "--out", "{w}/o.json"],
        }[command]
        command = "eval" if command == "prior" else command
        assert cli_dispatch([command] + [a.format(w=workdir, b=bad) for a in argv]) == 1
        assert capsys.readouterr().err.startswith("error: ")

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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["learn-bic", "--config", "{w}/inst.json", "--s", "5", "--seed", "-3",
              "--out", "{w}/o.json"], "seed >= 0"),
            (["learn-dsic", "--config", "{w}/inst.json", "--s", "-1", "--seed", "1",
              "--out", "{w}/o.json"], "s >= 1"),
            (["concentrate", "--config", "{w}/conc.json", "--seed", "-1",
              "--out", "{w}/c.csv"], "seed >= 0"),
            (["sweep", "--config", "{w}/sweep.json", "--out", "{w}/sweep"],
             "seeds must be nonnegative"),
        ],
        ids=["learn_seed", "learn_s", "concentrate_seed", "sweep_seed"],
    )
    def test_negative_seed_or_sample_count_is_usage_error(
        self, workdir, capsys, monkeypatch, argv, message
    ):
        from mechlearn import experiments

        def no_benchmark(*args):
            pytest.fail("a bad sweep config must fail before the exact benchmark")

        monkeypatch.setattr(experiments, "exact_benchmark", no_benchmark)
        (workdir / "conc.json").write_text(json.dumps(CONCENTRATE))
        (workdir / "sweep.json").write_text(json.dumps(
            {"instance": INSTANCE, "mode": "bic", "s_values": [5], "seeds": [0, -1]}
        ))
        assert cli_dispatch([a.format(w=workdir) for a in argv]) == 1
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

    def test_verify_streams_a_tensor_over_the_expost_budget(
        self, workdir, capsys, monkeypatch
    ):
        from mechlearn import mechanism

        (workdir / "inst2.json").write_text(json.dumps({**INSTANCE, "n": 2, "m": 1}))
        prior = {"n": 2, "m": 1, "h": 2.0, **INSTANCE["prior"]}
        (workdir / "prior2.json").write_text(json.dumps(prior))
        mech = workdir / "two.json"
        assert cli_dispatch(
            ["learn-dsic", "--config", str(workdir / "inst2.json"), "--s", "40",
             "--seed", "1", "--out", str(mech)]
        ) == 0
        argv = ["verify", "--mech", str(mech), "--prior", str(workdir / "prior2.json")]
        capsys.readouterr()
        assert cli_dispatch(argv) == 0
        report = capsys.readouterr().out
        # 9 types a bidder: the whole ex-post tensor has 9**3 = 729 cells, and
        # one rest column 81
        monkeypatch.setattr(mechanism, "EXPOST_CELL_BUDGET", 81)
        assert cli_dispatch(argv) == 0
        assert capsys.readouterr().out == report
        monkeypatch.setattr(mechanism, "EXPOST_CELL_BUDGET", 80)
        assert cli_dispatch(argv) == 2
        assert "has 81 cells per rest profile" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "verify"])
    @pytest.mark.parametrize(
        "n, m", [(1, 2), (2, 1), (3, 2)], ids=["fewer_bidders", "fewer_params", "more_bidders"]
    )
    def test_prior_of_another_shape_is_usage_error(self, workdir, capsys, command, n, m):
        spec = GridSpec(epsilon=1.0, h=2.0)
        domain = ProfileDomain.full_grid(spec, 2, 2)
        space = enumerate_multi_item(2, 2)
        probs = np.zeros((domain.num_profiles, space.num_outcomes))
        probs[:, 0] = 1.0  # nothing allocated, nothing charged
        mech = MechanismTable(
            domain=domain, space=space, probs=probs,
            payments=np.zeros((domain.num_profiles, 2)),
        )
        (workdir / "two.json").write_text(serialize_mechanism(mech))
        for name, shape in (("same", (2, 2)), ("other", (n, m))):
            prior = {"n": shape[0], "m": shape[1], "h": 2.0, **INSTANCE["prior"]}
            (workdir / f"{name}.json").write_text(json.dumps(prior))
        argv = [command, "--mech", str(workdir / "two.json")]
        if command == "verify":
            argv += ["--config", str(workdir / "inst.json")]
        files = sorted(workdir.iterdir())
        assert cli_dispatch(argv + ["--prior", str(workdir / "other.json")]) == 1
        out, err = capsys.readouterr()
        assert err == "error: prior and mechanism disagree on (n, m)\n"
        assert out == ""
        assert sorted(workdir.iterdir()) == files
        assert cli_dispatch(argv + ["--prior", str(workdir / "same.json")]) == 0

    @pytest.mark.parametrize(
        "command, body, message",
        [
            *[("concentrate", {**CONCENTRATE, key: value}, message)
              for key, message in [("h_f", "h_f must be positive and finite"),
                                   ("epsilon_dev", "need finite epsilon > 0")]
              for value in [float("nan"), float("inf")]],
            # a value of 100 where m*L*h is 4: a finite constant refuses the table
            *[(command, {**INSTANCE, "model": {
                "tag": "custom", "lipschitz_l": value,
                "table": [[0.0, 0.0, 0.0, 100.0]] + [[0.0] * 4] * 80}}, message)
              for command in ("learn-bic", "oracle")
              for value, message in [
                  (float("nan"), "lipschitz_l must be positive and finite, got nan"),
                  (float("inf"), "lipschitz_l must be positive and finite, got inf"),
                  (1.0, "custom table values leave [0, 4.0]")]],
        ],
    )
    def test_non_finite_number_is_usage_error(
        self, workdir, capsys, command, body, message
    ):
        bad = workdir / "bad.json"
        bad.write_text(json.dumps(body))
        argv = {
            "concentrate": ["--seed", "1", "--out", "{w}/c.csv"],
            "learn-bic": ["--s", "5", "--seed", "1", "--out", "{w}/o.json"],
            "oracle": ["--out", "{w}/o.json"],
        }[command]
        assert cli_dispatch(
            [command, "--config", str(bad)] + [a.format(w=workdir) for a in argv]
        ) == 1
        assert message in capsys.readouterr().err
        files = sorted(p.name for p in workdir.iterdir())
        assert files == ["bad.json", "inst.json", "prior.json"]

    @pytest.mark.parametrize(
        "command, body, message",
        [
            ("learn-bic", INSTANCE, f"1x2x{10**30} samples are {2 * 10**30} values"),
            ("sweep", {"instance": INSTANCE, "mode": "bic", "s_values": [10**30],
                       "seeds": [0]}, f"1x2x{10**30} samples are {2 * 10**30} values"),
            ("concentrate", {**CONCENTRATE, "trials": 10**20},
             f"{10**20} trials over supports of sizes (1,) draw {10**20} counts"),
        ],
    )
    def test_allocation_over_its_budget_is_exit_two(
        self, workdir, capsys, command, body, message
    ):
        # each size is one numpy refuses at once, should the guard be missing
        bad = workdir / "big.json"
        bad.write_text(json.dumps(body))
        argv = {
            "learn-bic": ["--s", str(10**30), "--seed", "1", "--out", "{w}/o.json"],
            "sweep": ["--out", "{w}/sweep"],
            "concentrate": ["--seed", "1", "--out", "{w}/c.csv"],
        }[command]
        assert cli_dispatch(
            [command, "--config", str(bad)] + [a.format(w=workdir) for a in argv]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("capacity error: ") and message in err

    @pytest.mark.parametrize(
        "command, body, message",
        [
            *[("learn-bic", {**INSTANCE, key: value}, f"{key}: {value!r} is not an integer")
              for key, value in [("n", 1.5), ("n", True), ("m", 2.0), ("m", "2")]],
            ("learn-bic", {**INSTANCE, "model": {"tag": "additive_up_to_k", "k": 1.9}},
             "k: 1.9 is not an integer"),
            *[("sweep", {"instance": INSTANCE, "mode": "bic", "s_values": [5],
                         "seeds": [0], key: value}, message)
              for key, value, message in [
                  ("s_values", "12", "s_values: '12' is not a list"),
                  ("s_values", [2.5], "s_values: 2.5 is not an integer"),
                  ("s_values", [True], "s_values: True is not an integer"),
                  ("seeds", [True], "seeds: True is not an integer"),
                  ("seeds", "0", "seeds: '0' is not a list"),
                  ("seeds", [0, 1.0], "seeds: 1.0 is not an integer")]],
            ("sweep", {"instance": {**INSTANCE, "n": 1.0}, "mode": "bic",
                       "s_values": [5], "seeds": [0]}, "n: 1.0 is not an integer"),
            *[("concentrate", {**CONCENTRATE, key: value}, f"{key}: {value!r} is not an integer")
              for key, value in [("s", 10.5), ("s", "10"), ("trials", True), ("trials", 5.0)]],
            ("prior", {"n": 1.0, "m": 2, "h": 2.0, **INSTANCE["prior"]},
             "n: 1.0 is not an integer"),
        ],
    )
    def test_non_integer_config_field_is_usage_error(
        self, workdir, capsys, command, body, message
    ):
        (workdir / "posted.json").write_text(
            serialize_mechanism(posted_price_table(GridSpec(0.25, 2.0), 1.0, m=2))
        )
        bad = workdir / "bad.json"
        bad.write_text(json.dumps(body))
        argv = {
            "learn-bic": ["learn-bic", "--config", "{b}", "--s", "5", "--seed", "1",
                          "--out", "{w}/o.json"],
            "sweep": ["sweep", "--config", "{b}", "--out", "{w}/sweep"],
            "concentrate": ["concentrate", "--config", "{b}", "--seed", "1",
                            "--out", "{w}/c.csv"],
            "prior": ["eval", "--mech", "{w}/posted.json", "--prior", "{b}"],
        }[command]
        assert cli_dispatch([a.format(w=workdir, b=bad) for a in argv]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.out == ""
        assert sorted(p.name for p in workdir.iterdir()) == [
            "bad.json", "inst.json", "posted.json", "prior.json"
        ]

    def test_oracle_eta_in_bic_mode_is_usage_error(self, workdir, capsys):
        out = workdir / "o.json"
        argv = ["oracle", "--config", str(workdir / "inst.json"), "--mode", "bic",
                "--out", str(out)]
        assert cli_dispatch(argv + ["--eta", "0.5"]) == 1
        assert "eta" in capsys.readouterr().err
        assert not out.exists()
        assert cli_dispatch(argv + ["--eta", "0"]) == 0

    @pytest.mark.parametrize("eta", ["nan", "inf"])
    def test_oracle_non_finite_eta_is_usage_error(self, workdir, capsys, eta):
        out = workdir / "o.json"
        argv = ["oracle", "--config", str(workdir / "inst.json"), "--mode", "dsic",
                "--out", str(out), "--eta", eta]
        assert cli_dispatch(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: eta must be finite and nonnegative, got {eta}\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("key", ["bic_regret_bound", "dsic_regret_bound"])
    @pytest.mark.parametrize(
        "value",
        ["abc", None, [1], float("nan"), 10**400],
        ids=["string", "null", "list", "nan", "beyond_float"],
    )
    def test_verify_malformed_declared_bound_is_parse_error(
        self, workdir, capsys, key, value
    ):
        mech = posted_price_table(GridSpec(epsilon=0.25, h=2.0), 1.0, m=2)
        path = workdir / "declared.json"
        argv = ["verify", "--mech", str(path), "--prior", str(workdir / "prior.json"),
                "--config", str(workdir / "inst.json")]
        mech.meta[key] = value
        path.write_text(serialize_mechanism(mech))
        assert cli_dispatch(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: mechanism meta {key} must be a finite number, got {value!r}\n"
        )
        assert captured.out == ""
        # a posted price is truthful: an integer bound of 0 holds
        mech.meta[key] = 0
        path.write_text(serialize_mechanism(mech))
        assert cli_dispatch(argv) == 0
        assert "declared invariants hold" in capsys.readouterr().out

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


@pytest.mark.parametrize(
    "command, body, key, value",
    [
        ("learn-bic", {**INSTANCE, "model": {"tag": "additive", "lipschitz_l": "2"}},
         "lipschitz_l", "2"),
        ("learn-bic", {**INSTANCE, "model": {"tag": "additive", "lipschitz_l": True}},
         "lipschitz_l", True),
        ("learn-bic", {**INSTANCE, "epsilon": "0.25"}, "epsilon", "0.25"),
        ("learn-bic", {**INSTANCE, "h": True}, "h", True),
        ("learn-bic", {**INSTANCE, "h": 10**400}, "h", 10**400),
        ("prior", {"n": 1, "m": 2, "h": "2.0", **INSTANCE["prior"]}, "h", "2.0"),
        ("concentrate", {**CONCENTRATE, "epsilon": False}, "epsilon", False),
        ("concentrate", {**CONCENTRATE, "h": "1.0"}, "h", "1.0"),
        ("concentrate", {**CONCENTRATE, "epsilon_dev": "0.1"}, "epsilon_dev", "0.1"),
        ("concentrate", {**CONCENTRATE, "h_f": True}, "h_f", True),
    ],
    ids=["lipschitz_l_string", "lipschitz_l_bool", "instance_epsilon", "instance_h",
         "instance_h_too_large", "prior_h", "concentrate_epsilon", "concentrate_h",
         "concentrate_epsilon_dev", "concentrate_h_f"],
)
def test_real_config_field_must_be_a_number(workdir, capsys, command, body, key, value):
    (workdir / "posted.json").write_text(
        serialize_mechanism(posted_price_table(GridSpec(0.25, 2.0), 1.0, m=2))
    )
    bad = workdir / "bad.json"
    bad.write_text(json.dumps(body))
    argv = {
        "learn-bic": ["learn-bic", "--config", "{b}", "--s", "5", "--seed", "1",
                      "--out", "{w}/o.json"],
        "prior": ["eval", "--mech", "{w}/posted.json", "--prior", "{b}"],
        "concentrate": ["concentrate", "--config", "{b}", "--seed", "1",
                        "--out", "{w}/c.csv"],
    }[command]
    assert cli_dispatch([a.format(w=workdir, b=bad) for a in argv]) == 1
    reason = "is too large" if value == 10**400 else "is not a number"
    assert capsys.readouterr().err == f"error: {key}: {value!r} {reason}\n"
    assert not (workdir / "o.json").exists() and not (workdir / "c.csv").exists()
