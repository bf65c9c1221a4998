import json

import numpy as np
import pytest

from mechlearn import (
    GridSpec,
    MechanismTable,
    ProfileDomain,
    deserialize_mechanism,
    enumerate_multi_item,
    serialize_mechanism,
)
from mechlearn._version import TOOL_VERSION
from mechlearn.cli import cli_dispatch
from mechlearn.experiments import MODES, ExperimentConfig, run_sweep

from conftest import dense, posted_price_table


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


def _lower_top_payment(src, dst):
    """Copy the mechanism file ``src`` to ``dst`` with its largest payment
    halved at that one profile: a type whose value lies above the new price
    gains by reporting that profile's type."""
    mech = deserialize_mechanism(src.read_text())
    probs, pay = dense(mech)
    pay[np.unravel_index(np.argmax(pay), pay.shape)] /= 2
    dst.write_text(serialize_mechanism(MechanismTable(
        domain=mech.domain, space=mech.space, probs=probs, payments=pay, meta=mech.meta
    )))


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


def test_learn_from_samples_csv(workdir, capsys):
    from mechlearn.priors import prior_from_config, sample_prior

    prior = prior_from_config(json.loads((workdir / "prior.json").read_text()))
    samples = sample_prior(prior, 1, 2, 40, seed=11)
    samples.to_csv(str(workdir / "samples.csv"))
    out = workdir / "m.json"
    argv = ["learn-bic", "--config", str(workdir / "inst.json"),
            "--samples", str(workdir / "samples.csv"), "--out", str(out)]
    assert cli_dispatch(argv) == 0
    meta = deserialize_mechanism(out.read_text()).meta
    assert (meta["samples"], meta["seed"]) == (40, None)  # the file records no seed
    out.unlink()
    capsys.readouterr()
    assert cli_dispatch(argv + ["--seed", "5"]) == 1
    assert capsys.readouterr().err == (
        "error: --seed does not apply to --samples, which were drawn already\n"
    )
    assert not out.exists()


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


def test_nudge_subcommand(workdir, capsys):
    mech = workdir / "learned.json"
    assert cli_dispatch(
        ["learn-bic", "--config", str(workdir / "inst.json"), "--s", "60",
         "--seed", "3", "--out", str(mech)]
    ) == 0
    out = workdir / "nudged.json"
    assert cli_dispatch(
        ["nudge", "--mech", str(mech), "--epsilon", "0.04", "--out", str(out)]
    ) == 0
    assert deserialize_mechanism(out.read_text()).meta["dsic_regret_bound"] == 0.0
    verify = ["verify", "--prior", str(workdir / "prior.json"), "--mech"]
    capsys.readouterr()
    assert cli_dispatch(verify + [str(out)]) == 0
    assert capsys.readouterr().out.endswith("declared invariants hold\n")
    _lower_top_payment(out, workdir / "tampered.json")
    assert cli_dispatch(verify + [str(workdir / "tampered.json")]) == 3
    assert "dsic_regret" in capsys.readouterr().err


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
    draws = dense(mech)[1][:, 0][ranks]
    se = draws.std(ddof=1) / np.sqrt(n_draws)
    assert abs(draws.mean() - exact) <= 4 * se


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert cli_dispatch(["oracle", "--bogus"]) == 1

    def test_repeated_calls_report_usage_and_version_alike(self, capsys):
        """One parser serves every in-process call: each usage error prints
        the same usage line and message, and ``--version`` prints and exits
        the same way, every time, whatever ran before."""
        seen = []
        for _ in range(2):
            for argv in (["oracle", "--bogus"], ["eval", "--mech", "x"], []):
                assert cli_dispatch(argv) == 1
                seen.append(capsys.readouterr())
            with pytest.raises(SystemExit) as exc:
                cli_dispatch(["--version"])
            assert exc.value.code == 0
            seen.append(capsys.readouterr())
        assert seen[:4] == seen[4:]
        assert seen[0].err.startswith("usage: mechlearn oracle ")
        assert "required: --prior" in seen[1].err
        assert seen[3].out == f"{TOOL_VERSION}\n" and seen[3].err == ""

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
            ["learn-bic", "--config", "{w}/deep.json", "--s", "5", "--seed", "1",
             "--out", "{w}/o.json"],
            ["eval", "--mech", "{w}/posted.json", "--prior", "{w}/deep.json"],
            ["sweep", "--config", "{w}/deep.json", "--out", "{w}/sweep"],
        ],
        ids=["config", "prior", "sweep"],
    )
    def test_json_nested_too_deeply_is_usage_error(self, workdir, capsys, argv):
        deep = '{"n":' + "[" * 100_000 + "]" * 100_000 + "}"
        (workdir / "deep.json").write_text(deep)
        mech = posted_price_table(GridSpec(0.25, 2.0), 1.0, m=2)
        (workdir / "posted.json").write_text(serialize_mechanism(mech))
        assert cli_dispatch([a.format(w=workdir) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {workdir / 'deep.json'}: invalid JSON: maximum recursion")
        assert not (workdir / "o.json").exists() and not (workdir / "sweep").exists()

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
        mech.rows_pay -= 0.7  # also break nothing else
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

    def test_oracle_eta_in_bic_mode_runs_and_declares_its_bound(self, workdir, capsys):
        # eta is the right side of the BIC rows as of the DSIC ones; with one
        # bidder the two modes are the same LP
        out = workdir / "o.json"
        argv = ["oracle", "--config", str(workdir / "inst.json"), "--out", str(out)]
        verify = ["verify", "--mech", str(out), "--prior", str(workdir / "prior.json")]
        for eta, objective in (("0.25", "2.4375"), ("0", "2.25")):
            assert cli_dispatch(argv + ["--mode", "bic", "--eta", eta]) == 0
            assert capsys.readouterr().out.startswith(f"objective {objective}\n")
            assert deserialize_mechanism(out.read_text()).meta["bic_regret_bound"] == float(eta)
            assert cli_dispatch(verify) == 0
            assert capsys.readouterr().out.endswith("declared invariants hold\n")
            assert cli_dispatch(argv + ["--mode", "dsic", "--eta", eta]) == 0
            assert capsys.readouterr().out.startswith(f"objective {objective}\n")

    @pytest.mark.parametrize(
        "value, message",
        [(float("nan"), "f must map into the declared range [0, 1.0]; observed [nan, nan]"),
         ("0.5", "value: '0.5' is not a number"),
         (True, "value: True is not a number")],
        ids=["nan", "string", "bool"],
    )
    def test_concentrate_bad_constant_f_is_usage_error(self, workdir, capsys, value, message):
        conc = workdir / "conc.json"
        conc.write_text(json.dumps(
            {**CONCENTRATE, "f": {"kind": "constant", "value": value}, "h_f": 1.0}
        ))
        out = workdir / "c.csv"
        argv = ["concentrate", "--config", str(conc), "--seed", "1", "--out", str(out)]
        assert cli_dispatch(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize(
        "command, body, message",
        [
            # 201^6 profiles: 513 TB of int64 ranks
            *[(command, {**INSTANCE, "n": 3, "epsilon": 0.01, "prior": {
                "family": "point_masses", "params": {"values": [1.0], "probs": ["1"]}}},
               "the full grid has 201^6 profiles, over the 1000000 budget")
              for command in ("learn-bic", "learn-dsic")],
            # 9^12 profiles: a 2 TB Myerson table
            ("learn-single", {**INSTANCE, "n": 12, "m": 1, "space": {"kind": "single_parameter"}},
             "the full grid has 9^12 profiles, over the 1000000 budget"),
            # an 8 TB identity matrix of allocations
            ("learn-single", {**INSTANCE, "n": 10**6, "m": 1,
                              "space": {"kind": "single_parameter"}},
             "a single-item space for 1000000 bidders has 1000001000000 allocations"),
        ],
        ids=["learn_bic", "learn_dsic", "learn_single_n12", "learn_single_space"],
    )
    def test_full_grid_over_the_enumeration_budget_is_exit_two(
        self, workdir, capsys, monkeypatch, command, body, message
    ):
        from mechlearn import learner

        def no_lp(*args):
            pytest.fail("a table over the budget must be refused before the LP")

        monkeypatch.setattr(learner, "solve_optimal", no_lp)
        big = workdir / "big.json"
        big.write_text(json.dumps(body))
        out = workdir / "o.json"
        argv = [command, "--config", str(big), "--s", "5", "--seed", "1", "--out", str(out)]
        assert cli_dispatch(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("capacity error: ") and message in err
        assert not out.exists()

    def test_myerson_position_table_over_its_budget_is_exit_two(self, workdir, capsys):
        # 2^19 grid profiles pass the full-grid budget, but 19 bidders with
        # two support values each have 3^19 position profiles: 173 GiB of
        # welfare over 20 outcomes
        import tracemalloc

        big = workdir / "big.json"
        big.write_text(json.dumps({
            **INSTANCE, "n": 19, "m": 1, "epsilon": 1.0, "h": 1.0,
            "space": {"kind": "single_parameter"},
            "prior": {"family": "discrete_on_grid",
                      "params": {"values": [0.0, 1.0], "probs": ["1/2", "1/2"]}},
        }))
        out = workdir / "o.json"
        argv = ["learn-single", "--config", str(big), "--s", "50", "--seed", "1",
                "--out", str(out)]
        tracemalloc.start()
        try:
            assert cli_dispatch(argv) == 2
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert err == (
            f"capacity error: the Myerson position table has {3**19 * 20} cells, "
            "over the 100000000 budget\n"
        )
        assert peak < 64 << 20 and not out.exists()

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
        # 4 profiles, 2 items: the LP's nnz bound is 72 (bic) or 48 (dsic)
        monkeypatch.setattr(oracle, "NNZ_BUDGET", 40)
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


def test_eval_is_exact_on_a_full_grid_table_whatever_its_mode_meta(workdir, capsys):
    mech, renamed = workdir / "m.json", workdir / "x.json"
    prior = ["--prior", str(workdir / "prior.json")]
    assert cli_dispatch(
        ["learn-bic", "--config", str(workdir / "inst.json"), "--s", "50", "--seed", "3",
         "--out", str(mech)]
    ) == 0
    text = mech.read_text()
    assert '"mode":"bic"' in text
    renamed.write_text(text.replace('"mode":"bic"', '"mode":"x"'))
    capsys.readouterr()
    assert cli_dispatch(["eval", "--mech", str(mech)] + prior) == 0
    expected = capsys.readouterr().out
    assert cli_dispatch(["eval", "--mech", str(renamed)] + prior) == 0
    assert capsys.readouterr().out == expected
    assert cli_dispatch(["verify", "--mech", str(renamed)] + prior) == 0


@pytest.mark.parametrize("epsilon", ["4", "inf", "nan"])
def test_nudge_epsilon_outside_the_unit_interval_is_usage_error(workdir, capsys, epsilon):
    mech, out = workdir / "m.json", workdir / "nudged.json"
    assert cli_dispatch(
        ["learn-bic", "--config", str(workdir / "inst.json"), "--s", "50", "--seed", "3",
         "--out", str(mech)]
    ) == 0
    capsys.readouterr()
    argv = ["nudge", "--mech", str(mech), "--epsilon", epsilon, "--out", str(out)]
    assert cli_dispatch(argv) == 1
    assert capsys.readouterr().err.startswith("error: epsilon must be in [0, 1], got ")
    assert not out.exists()


def test_nudge_epsilon_one_zeroes_every_payment(workdir, capsys):
    mech, out = workdir / "m.json", workdir / "nudged.json"
    assert cli_dispatch(
        ["learn-bic", "--config", str(workdir / "inst.json"), "--s", "50", "--seed", "3",
         "--out", str(mech)]
    ) == 0
    assert cli_dispatch(["nudge", "--mech", str(mech), "--epsilon", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli_dispatch(["eval", "--mech", str(out), "--prior", str(workdir / "prior.json")]) == 0
    assert capsys.readouterr().out == "0.0\n"


SINGLE_INSTANCE = {**INSTANCE, "n": 2, "m": 1, "space": {"kind": "single_parameter"}}


@pytest.mark.parametrize("mode", MODES)
def test_cli_and_sweep_run_one_pipeline(tmp_path, capsys, mode):
    """The eval of a learn-* file is the sweep's learned revenue for the
    same (s, seed)."""
    instance = SINGLE_INSTANCE if mode == "single_parameter" else INSTANCE
    command = {"bic": "learn-bic", "dsic": "learn-dsic", "single_parameter": "learn-single"}
    (tmp_path / "inst.json").write_text(json.dumps(instance))
    prior = {"n": instance["n"], "m": instance["m"], "h": 2.0, **instance["prior"]}
    (tmp_path / "prior.json").write_text(json.dumps(prior))
    mech = tmp_path / "m.json"
    assert cli_dispatch(
        [command[mode], "--config", str(tmp_path / "inst.json"), "--s", "30", "--seed", "2",
         "--out", str(mech)]
    ) == 0
    capsys.readouterr()
    assert cli_dispatch(["eval", "--mech", str(mech), "--prior", str(tmp_path / "prior.json")]) == 0
    learned = float(capsys.readouterr().out)
    config = {"instance": instance, "mode": mode, "s_values": [30], "seeds": [2]}
    (row,) = run_sweep(ExperimentConfig.from_json(config)).rows
    assert repr(learned) == repr(row["learned_revenue"])


def test_learn_single_declares_exact_dsic(tmp_path, capsys):
    import hashlib

    (tmp_path / "inst.json").write_text(json.dumps(SINGLE_INSTANCE))
    prior = {"n": 2, "m": 1, "h": 2.0, **SINGLE_INSTANCE["prior"]}
    (tmp_path / "prior.json").write_text(json.dumps(prior))
    mech, tampered = tmp_path / "sp.json", tmp_path / "tampered.json"
    assert cli_dispatch(
        ["learn-single", "--config", str(tmp_path / "inst.json"), "--s", "200", "--seed", "7",
         "--out", str(mech)]
    ) == 0
    text = mech.read_text().rstrip("\n")
    rows = text[text.index('"rows":'):]
    assert hashlib.sha256(rows.encode()).hexdigest() == (
        "da7780f452bf06b878feea909076f2789e589e634b2e2430c989e5bc491b981a"
    )
    meta = deserialize_mechanism(text).meta
    assert (meta["samples"], meta["seed"], meta["dsic_regret_bound"]) == (200, 7, 0.0)
    assert (meta["mode"], meta["pipeline"]) == ("dsic", "single_parameter")
    verify = ["verify", "--prior", str(tmp_path / "prior.json"), "--mech"]
    capsys.readouterr()
    assert cli_dispatch(verify + [str(mech)]) == 0
    assert capsys.readouterr().out.endswith("declared invariants hold\n")
    _lower_top_payment(mech, tampered)
    assert cli_dispatch(verify + [str(tampered)]) == 3
    assert "dsic_regret" in capsys.readouterr().err


def test_learn_from_samples_csv_refuses_a_sample_count(workdir, capsys):
    from mechlearn.priors import prior_from_config, sample_prior

    prior = prior_from_config(json.loads((workdir / "prior.json").read_text()))
    sample_prior(prior, 1, 2, 40, seed=11).to_csv(str(workdir / "samples.csv"))
    out = workdir / "m.json"
    argv = ["learn-bic", "--config", str(workdir / "inst.json"),
            "--samples", str(workdir / "samples.csv"), "--out", str(out)]
    assert cli_dispatch(argv + ["--s", "500"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --s does not apply to --samples, which were drawn already\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "mode_args, key, bound",
    [(["--mode", "bic"], "bic_regret_bound", 0.0),
     (["--mode", "dsic", "--eta", "0.5"], "dsic_regret_bound", 0.5)],
    ids=["bic", "dsic"],
)
def test_verify_checks_an_oracle_file_against_its_eta(workdir, capsys, mode_args, key, bound):
    mech, tampered = workdir / "o.json", workdir / "tampered.json"
    assert cli_dispatch(
        ["oracle", "--config", str(workdir / "inst.json"), "--out", str(mech)] + mode_args
    ) == 0
    assert deserialize_mechanism(mech.read_text()).meta[key] == bound
    verify = ["verify", "--prior", str(workdir / "prior.json"), "--mech"]
    capsys.readouterr()
    assert cli_dispatch(verify + [str(mech)]) == 0
    assert capsys.readouterr().out.endswith("declared invariants hold\n")
    _lower_top_payment(mech, tampered)
    assert cli_dispatch(verify + [str(tampered)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("invariant failure: ") and f"> declared {bound}" in err
    assert key.replace("_bound", "") in err


@pytest.mark.parametrize("where", ["meta", "entry"])
def test_mechanism_json_nested_too_deeply_is_exit_one(workdir, capsys, where):
    deep = "[" * 100_000 + "]" * 100_000
    text = serialize_mechanism(posted_price_table(GridSpec(epsilon=0.25, h=2.0), 1.0, m=2))
    if where == "meta":
        text = text.replace('"meta":{}', '"meta":{"a":' + deep + "}", 1)
    else:
        text = text.replace('"p":"1.0"', '"p":' + deep, 1)
    assert deep in text
    (workdir / "m.json").write_text(text)
    argv = ["verify", "--mech", str(workdir / "m.json"), "--prior", str(workdir / "prior.json")]
    assert cli_dispatch(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: mechanism file is not valid: maximum recursion")


@pytest.mark.parametrize(
    "n, m, space",
    [
        (1, 2, {"kind": "custom", "allocations": [[[0, 0]], [[1, 0]], [[0, 1]], [[1, 1]]]}),
        (2, 1, {"kind": "single_parameter", "allocations": [[0, 0], [1, 0], [0, 1]]}),
    ],
    ids=["custom", "single_parameter_allocations"],
)
def test_oracle_on_a_listed_outcome_space_verifies(tmp_path, capsys, n, m, space):
    (tmp_path / "inst.json").write_text(json.dumps({**INSTANCE, "n": n, "m": m, "space": space}))
    prior = {"n": n, "m": m, "h": 2.0, **INSTANCE["prior"]}
    (tmp_path / "prior.json").write_text(json.dumps(prior))
    mech = tmp_path / "o.json"
    assert cli_dispatch(
        ["oracle", "--config", str(tmp_path / "inst.json"), "--mode", "bic", "--out", str(mech)]
    ) == 0
    assert deserialize_mechanism(mech.read_text()).space.kind == space["kind"]
    capsys.readouterr()
    assert cli_dispatch(
        ["verify", "--prior", str(tmp_path / "prior.json"), "--mech", str(mech)]
    ) == 0
    assert capsys.readouterr().out.endswith("declared invariants hold\n")


_STATS_KEYS = {"rows", "cols", "nnz", "nit", "rounds", "active_rows",
               "assemble_s", "solve_s", "audit_s"}


@pytest.mark.parametrize(
    "argv",
    [
        ["learn-bic", "--s", "20", "--seed", "1"],
        ["learn-dsic", "--s", "20", "--seed", "1"],
        ["oracle", "--mode", "bic"],
        ["oracle", "--mode", "dsic"],
    ],
)
def test_stats_json_stays_out_of_the_mechanism_file(workdir, capsys, argv):
    argv = argv[:1] + ["--config", str(workdir / "inst.json")] + argv[1:]
    plain, with_stats = workdir / "plain.json", workdir / "with_stats.json"
    stats = workdir / "stats.json"
    assert cli_dispatch(argv + ["--out", str(plain)]) == 0
    assert cli_dispatch(argv + ["--out", str(with_stats), "--stats-json", str(stats)]) == 0
    assert with_stats.read_bytes() == plain.read_bytes()
    text = stats.read_text()
    assert text.endswith("}\n") and text.count("\n") == 1  # one JSON object
    values = json.loads(text)
    assert set(values) == _STATS_KEYS
    assert values["rounds"] >= 1 and values["nit"] >= 0
    assert values["active_rows"] <= values["rows"]


@pytest.mark.parametrize(
    "argv",
    [
        ["learn-bic", "--config", "{w}/inst.json", "--s", "20", "--seed", "1",
         "--out", "{w}/o.json", "--stats-json", "{w}/nodir/s.json"],
        ["oracle", "--config", "{w}/inst.json", "--out", "{w}/o.json",
         "--stats-json", "{w}/nodir/s.json"],
    ],
)
def test_unwritable_stats_json_is_usage_error(workdir, capsys, argv):
    assert cli_dispatch([a.format(w=workdir) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {workdir}/nodir/s.json: cannot write: ")


def test_learn_single_has_no_stats_json(workdir, capsys):
    argv = ["learn-single", "--config", str(workdir / "inst.json"), "--s", "5",
            "--seed", "1", "--out", str(workdir / "o.json"),
            "--stats-json", str(workdir / "s.json")]
    assert cli_dispatch(argv) == 1
    assert "--stats-json" in capsys.readouterr().err
    assert not (workdir / "s.json").exists()
