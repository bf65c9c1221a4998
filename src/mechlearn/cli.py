"""Command-line interface.

Exit codes: 0 success, 1 usage/config error, 2 capacity error, 3 internal
invariant failure (including a mechanism failing its declared bounds under
``verify``). Every sampling subcommand requires --seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Sequence

from ._version import TOOL_VERSION
from .errors import (
    CapacityError,
    ConfigError,
    InvariantError,
    MechlearnError,
    ParseError,
    UsageError,
    config_errors,
    config_int,
    config_real,
    read_text,
    write_text,
)
from .experiments import (
    ExperimentConfig,
    build_instance,
    concentration_experiment,
    config_hash,
    grid_problem,
    learn,
    profile_function_from_config,
    run_sweep,
    write_rows_csv,
)
from .grid import GridSpec, SampleSet
from .learner import nudge_to_ic
from .mechanism import (
    audit_over_domain,
    deserialize_mechanism,
    regret_report,
    revenue,
    serialize_mechanism,
)
from .myerson import iron, ironed_curve_rows
from .oracle import FEASIBILITY_TOL, solve_optimal
from .outcomes import model_from_config
from .priors import PriorCell, prior_from_config, sample_prior

__all__ = ["cli_dispatch", "main"]


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems via exit code 1."""

    def error(self, message: str):  # noqa: D401 - argparse hook
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _load_json(path: str) -> dict:
    text = read_text(path)
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nested too deeply
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    write_text(path, text, "" if text.endswith("\n") else "\n")


def _write_stats(path: str | None, stats: dict) -> None:
    """Write the oracle's solver statistics to ``path`` as one JSON object,
    if a path is given; they never enter the mechanism file."""
    if path is not None:
        _write_text(path, json.dumps(stats))


def _load_instance(path: str):
    """The instance config at ``path`` and the bundle it describes."""
    instance = _load_json(path)
    with config_errors(path):
        return instance, build_instance(instance)


def _load_model(args, mech):
    """The valuation model config named by --config, else by the mechanism's
    meta, and the model it describes."""
    with config_errors(args.config or args.mech):
        if args.config:
            model_cfg = _load_json(args.config)["model"]
        else:
            model_cfg = mech.meta.get("model")
        if model_cfg is None:
            raise UsageError(
                "mechanism file carries no model; pass --config with the instance"
            )
        model = model_from_config(model_cfg, spec=mech.domain.spec, space=mech.space)
    return model_cfg, model


def _get_samples(args, bundle) -> SampleSet:
    if args.samples:
        for flag, value in (("--seed", args.seed), ("--s", args.s)):
            if value is not None:
                raise UsageError(
                    f"{flag} does not apply to --samples, which were drawn already"
                )
        return SampleSet.from_csv(args.samples, h=bundle.spec.h)
    if args.seed is None:
        raise UsageError("--seed is required when sampling from the prior")
    if args.s is None:
        raise UsageError("--s (samples per cell) is required when sampling")
    return sample_prior(bundle.prior, bundle.n, bundle.m, args.s, args.seed)


def _write_mechanism(path: str, mech, **meta) -> None:
    """Write ``mech`` to ``path``, its meta extended by ``meta`` and the
    tool version."""
    mech.meta.update(meta, tool_version=TOOL_VERSION)
    _write_text(path, serialize_mechanism(mech))


def _cmd_learn(args) -> int:
    instance, bundle = _load_instance(args.config)
    learned = learn(args.mode, _get_samples(args, bundle), bundle)
    meta = {"config_hash": config_hash(instance), "model": instance["model"]}
    _write_mechanism(args.out, learned.inner, **meta)
    _write_stats(args.stats_json, learned.stats)
    print(f"wrote {args.out} (mode={learned.mode}, rows={learned.inner.domain.num_profiles})")
    return 0


def _cmd_oracle(args) -> int:
    instance, bundle = _load_instance(args.config)
    problem = grid_problem(bundle, args.mode, args.eta)
    solution = solve_optimal(problem, lp_dump=args.lp_dump)
    _write_mechanism(  # the oracle audits its own table against this bound
        args.out,
        solution.mechanism,
        config_hash=config_hash(instance),
        model=instance["model"],
        objective=repr(solution.objective_value),
        **{f"{problem.ic_mode}_regret_bound": problem.eta},
    )
    _write_stats(args.stats_json, solution.stats)
    print(f"objective {solution.objective_value!r}")
    print(f"wrote {args.out}")
    return 0


def _cmd_myerson(args) -> int:
    instance, bundle = _load_instance(args.config)
    if bundle.m != 1:
        raise UsageError("myerson requires an m = 1 instance")
    prior = bundle.prior.to_grid_prior(bundle.spec)
    rows = []
    for i in range(bundle.n):
        iv = iron(prior.marginals[i][0])
        for row in ironed_curve_rows(iv):
            rows.append({"bidder": i, **row})
    write_rows_csv(
        args.out,
        ["bidder", "value", "quantile", "revenue_curve", "hull", "phi"],
        rows,
        {"config_hash": config_hash(instance), "tool_version": TOOL_VERSION},
    )
    print(f"wrote {args.out}")
    return 0


def _cmd_nudge(args) -> int:
    mech = deserialize_mechanism(read_text(args.mech))
    model_cfg, model = _load_model(args, mech)
    _write_mechanism(  # every type picks its best entry: exactly DSIC and IR
        args.out,
        nudge_to_ic(mech, model, args.epsilon),
        dsic_regret_bound=0.0,
        model=model_cfg,
        nudge_epsilon=repr(args.epsilon),
        source=args.mech,
    )
    print(f"wrote {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    obj = _load_json(args.config)
    with config_errors(args.config):
        config = ExperimentConfig.from_json(obj)
    result = run_sweep(config, out_dir=args.out)
    for row in result.summary:
        print(
            f"s={row['s']} mean_gap={row['mean_gap']!r} "
            f"frac_within_eps={row['frac_within_eps']!r}"
        )
    print(f"benchmark {result.benchmark!r}; wrote {args.out}/rows.csv")
    return 0


def _cmd_concentrate(args) -> int:
    cfg = _load_json(args.config)
    with config_errors(args.config):
        spec = GridSpec(
            epsilon=config_real(cfg["epsilon"], "epsilon"), h=config_real(cfg["h"], "h")
        )
        marginals = [
            PriorCell("point_masses", cell).grid_pushforward(spec)
            for cell in cfg["marginals"]
        ]
        f_values, h_f = profile_function_from_config(cfg["f"], marginals)
        h_f = config_real(cfg.get("h_f", h_f), "h_f")
        s, trials = (config_int(cfg[key], key) for key in ("s", "trials"))
        epsilon = config_real(cfg["epsilon_dev"], "epsilon_dev")
    result = concentration_experiment(
        marginals,
        s=s,
        epsilon=epsilon,
        trials=trials,
        f_values=f_values,
        h_f=h_f,
        seed=int(args.seed),
    )
    meta = {
        "config_hash": config_hash(cfg),
        "tool_version": TOOL_VERSION,
        "seed": args.seed,
    }
    write_rows_csv(
        args.out,
        ["trials", "violations", "frequency", "bound", "binomial_se"],
        [result.__dict__],
        meta,
    )
    print(
        f"frequency {result.frequency!r} vs bound {result.bound!r} "
        f"({result.violations}/{result.trials})"
    )
    return 0


def _load_mech_and_prior(args):
    """The mechanism at --mech and the prior at --prior, which must agree on
    (n, m)."""
    mech = deserialize_mechanism(read_text(args.mech))
    obj = _load_json(args.prior)
    with config_errors(args.prior):
        prior = prior_from_config(obj)
    if (prior.n, prior.m) != (mech.n, mech.m):
        raise UsageError("prior and mechanism disagree on (n, m)")
    return mech, prior


def _cmd_eval(args) -> int:
    mech, prior = _load_mech_and_prior(args)
    grid_prior = prior.to_grid_prior(mech.domain.spec)
    print(repr(float(revenue(mech, grid_prior, exact=mech.domain.is_full_grid))))
    return 0


def _declared_bounds(meta: dict) -> dict[str, float]:
    """The regret bounds a mechanism's meta declares, by key; a bound that
    is not a finite number raises ParseError naming its key."""
    bounds = {}
    for key in ("bic_regret_bound", "dsic_regret_bound"):
        if key not in meta:
            continue
        value = meta[key]
        try:  # bool is not a number here, nor is a numeric string
            bound = float(value) if type(value) in (int, float) else math.nan
        except OverflowError:  # an integer beyond float range
            bound = math.inf
        if not math.isfinite(bound):
            raise ParseError(f"mechanism meta {key} must be a finite number, got {value!r}")
        bounds[key] = bound
    return bounds


def _cmd_verify(args) -> int:
    mech, prior = _load_mech_and_prior(args)
    bounds = _declared_bounds(mech.meta)
    prior = prior.to_grid_prior(mech.domain.spec)
    _, model = _load_model(args, mech)
    if mech.domain.is_full_grid:
        report = regret_report(mech, prior, model)
    else:
        print("note: support-domain mechanism; deviations range over the support")
        report = audit_over_domain(mech, prior, model)
    print(report)
    failures = []
    if report.ir_slack < -FEASIBILITY_TOL:
        failures.append(f"ir_slack {report.ir_slack} < -1e-8")
    for name, regret in (("bic", report.bic_regret), ("dsic", report.dsic_regret)):
        key = f"{name}_regret_bound"
        if key in bounds and regret > bounds[key] + FEASIBILITY_TOL:
            failures.append(f"{name}_regret {regret} > declared {mech.meta[key]}")
    if failures:
        raise InvariantError("; ".join(failures))
    print("declared invariants hold")
    return 0


@functools.cache  # no argument has a mutable default, so one parser serves every call
def _build_parser() -> _Parser:
    parser = _Parser(prog="mechlearn", description=__doc__)
    parser.add_argument("--version", action="version", version=TOOL_VERSION)
    sub = parser.add_subparsers(dest="command", required=True)

    stats_help = "write the oracle LP's solver statistics as JSON"

    def add_learn(name: str, mode: str, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(mode=mode, stats_json=None)  # mode: one of experiments.MODES
        if mode != "single_parameter":  # no LP, so no solver statistics
            p.add_argument("--stats-json", help=stats_help)
        p.add_argument("--config", required=True, help="instance JSON")
        p.add_argument("--s", type=int, help="samples per (bidder, parameter)")
        p.add_argument("--seed", type=int, help="sampling seed (required unless --samples)")
        p.add_argument("--samples", help="CSV of pre-drawn samples")
        p.add_argument("--out", required=True, help="output mechanism JSON")
        return p

    add_learn("learn-bic", "bic", "learn an interim-truthful mechanism from samples")
    add_learn("learn-dsic", "dsic", "learn an ex-post-truthful mechanism from samples")
    add_learn(
        "learn-single", "single_parameter", "learn a single-parameter Myersonian auction"
    )

    p = sub.add_parser("oracle", help="solve the LP on an explicit grid prior")
    p.add_argument("--config", required=True)
    p.add_argument("--mode", choices=("bic", "dsic"), default="bic")
    p.add_argument(
        "--eta", type=float, help="IC slack, the right side of every IC row "
        "(default 0 in bic mode, 2*m*epsilon in dsic mode)"
    )
    p.add_argument("--lp-dump", help="write the LP in text form")
    p.add_argument("--stats-json", help=stats_help)
    p.add_argument("--out", required=True)

    p = sub.add_parser("myerson", help="export ironed virtual values as CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("nudge", help="exact-IC payment rescaling, single bidder")
    p.add_argument("--mech", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--config", help="instance JSON supplying the model")
    p.add_argument("--out", required=True)

    p = sub.add_parser("sweep", help="sample-complexity sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("concentrate", help="empirical concentration experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="exact expected revenue of a mechanism")
    p.add_argument("--mech", required=True)
    p.add_argument("--prior", required=True)

    p = sub.add_parser("verify", help="recompute regrets and check declared bounds")
    p.add_argument("--mech", required=True)
    p.add_argument("--prior", required=True)
    p.add_argument("--config", help="instance JSON supplying the model")
    return parser


_COMMANDS = {
    "learn-bic": _cmd_learn,
    "learn-dsic": _cmd_learn,
    "learn-single": _cmd_learn,
    "oracle": _cmd_oracle,
    "myerson": _cmd_myerson,
    "nudge": _cmd_nudge,
    "sweep": _cmd_sweep,
    "concentrate": _cmd_concentrate,
    "eval": _cmd_eval,
    "verify": _cmd_verify,
}


def cli_dispatch(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 3
    except MechlearnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
