"""Command-line interface.

Exit codes: 0 success, 1 usage/config error, 2 capacity error, 3 internal
invariant failure (including a mechanism failing its declared bounds under
``verify``). Every sampling subcommand requires --seed.
"""

from __future__ import annotations

import argparse
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
    profile_function_from_config,
    run_sweep,
    write_rows_csv,
)
from .grid import GridSpec, SampleSet
from .learner import (
    LearnedMechanism,
    learn_bic,
    learn_dsic,
    mechanism_to_menu,
    menu_mechanism,
    nudge_to_ic,
)
from .mechanism import (
    audit_over_domain,
    deserialize_mechanism,
    regret_report,
    revenue,
    serialize_mechanism,
)
from .myerson import iron, ironed_curve_rows, learn_single_parameter
from .oracle import OracleProblem, solve_optimal
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
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    write_text(path, text, "" if text.endswith("\n") else "\n")


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
        return SampleSet.from_csv(args.samples, h=bundle.spec.h)
    if args.seed is None:
        raise UsageError("--seed is required when sampling from the prior")
    if args.s is None:
        raise UsageError("--s (samples per cell) is required when sampling")
    return sample_prior(bundle.prior, bundle.n, bundle.m, args.s, args.seed)


def _learn_common(args, pipeline: str) -> int:
    instance, bundle = _load_instance(args.config)
    samples = _get_samples(args, bundle)
    if pipeline == "bic":
        learned = learn_bic(samples, bundle.spec.epsilon, bundle.space, bundle.model)
    elif pipeline == "dsic":
        learned = learn_dsic(samples, bundle.spec.epsilon, bundle.space, bundle.model)
    else:
        learned = learn_single_parameter(samples, bundle.spec.epsilon, bundle.space)
    learned.inner.meta.update(
        {
            "config_hash": config_hash(instance),
            "tool_version": TOOL_VERSION,
            "model": instance["model"],
        }
    )
    _write_text(args.out, serialize_mechanism(learned.inner))
    print(f"wrote {args.out} (mode={learned.mode}, rows={learned.inner.domain.num_profiles})")
    return 0


def _cmd_oracle(args) -> int:
    instance, bundle = _load_instance(args.config)
    prior = bundle.prior.to_grid_prior(bundle.spec)
    eta = args.eta
    if args.mode == "dsic" and eta is None:
        eta = 2.0 * bundle.m * bundle.spec.epsilon
    problem = OracleProblem(
        prior=prior,
        space=bundle.space,
        model=bundle.model,
        ic_mode=args.mode,
        eta=eta or 0.0,
    )
    solution = solve_optimal(problem, lp_dump=args.lp_dump)
    solution.mechanism.meta.update(
        {
            "config_hash": config_hash(instance),
            "tool_version": TOOL_VERSION,
            "model": instance["model"],
            "objective": repr(solution.objective_value),
        }
    )
    _write_text(args.out, serialize_mechanism(solution.mechanism))
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
    if mech.n != 1:
        raise UsageError("nudge applies to single-bidder mechanisms only")
    model_cfg, model = _load_model(args, mech)
    menu = mechanism_to_menu(mech, model)
    nudged = nudge_to_ic(menu, model, args.epsilon)
    out = menu_mechanism(nudged, model, mech.domain.spec)
    out.meta.update(
        {
            "tool_version": TOOL_VERSION,
            "model": model_cfg,
            "nudge_epsilon": repr(args.epsilon),
            "source": args.mech,
        }
    )
    _write_text(args.out, serialize_mechanism(out))
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
    spec = mech.domain.spec
    if mech.domain.is_full_grid and prior.finite:
        wrapper = LearnedMechanism(
            inner=mech, mode=str(mech.meta.get("mode", "bic"))
        )
        value = wrapper.exact_revenue_on_atoms(prior)
        print(repr(float(value)))
        return 0
    grid_prior = prior.to_grid_prior(spec)
    print(repr(float(revenue(mech, grid_prior))))
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
    if report.ir_slack < -1e-8:
        failures.append(f"ir_slack {report.ir_slack} < -1e-8")
    for name, regret in (("bic", report.bic_regret), ("dsic", report.dsic_regret)):
        key = f"{name}_regret_bound"
        if key in bounds and regret > bounds[key] + 1e-8:
            failures.append(f"{name}_regret {regret} > declared {mech.meta[key]}")
    if failures:
        raise InvariantError("; ".join(failures))
    print("declared invariants hold")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="mechlearn", description=__doc__)
    parser.add_argument("--version", action="version", version=TOOL_VERSION)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_learn(name: str, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="instance JSON")
        p.add_argument("--s", type=int, help="samples per (bidder, parameter)")
        p.add_argument("--seed", type=int, help="sampling seed (required unless --samples)")
        p.add_argument("--samples", help="CSV of pre-drawn samples")
        p.add_argument("--out", required=True, help="output mechanism JSON")
        return p

    add_learn("learn-bic", "learn an interim-truthful mechanism from samples")
    add_learn("learn-dsic", "learn an ex-post-truthful mechanism from samples")
    add_learn("learn-single", "learn a single-parameter Myersonian auction")

    p = sub.add_parser("oracle", help="solve the LP on an explicit grid prior")
    p.add_argument("--config", required=True)
    p.add_argument("--mode", choices=("bic", "dsic"), default="bic")
    p.add_argument(
        "--eta", type=float, help="DSIC slack (default 2*m*epsilon; bic mode takes only 0)"
    )
    p.add_argument("--lp-dump", help="write the LP in text form")
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
    "learn-bic": lambda args: _learn_common(args, "bic"),
    "learn-dsic": lambda args: _learn_common(args, "dsic"),
    "learn-single": lambda args: _learn_common(args, "single"),
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
