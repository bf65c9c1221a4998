"""The mechlearn layers the benchmark traces, and the counters each one
reports. Counters are derived from the arguments and results a wrapper
sees, so they measure work done, not time."""

from __future__ import annotations

import math

from tracer import Layer, Tracer


def _lp_size(args, kwargs, solution) -> dict:
    problem = args[0] if args else kwargs["problem"]
    domain = solution.mechanism.domain
    profiles = domain.num_profiles
    types = [domain.bidder_type_count(i) for i in range(domain.n)]
    if problem.ic_mode == "bic":
        ic_rows = sum(t * (t - 1) for t in types)
    else:  # one row per (true type, report, others' profile)
        ic_rows = sum(t * (t - 1) * (profiles // t) for t in types)
    return {
        "oracle.lp_vars": profiles * (solution.mechanism.space.num_outcomes + domain.n),
        "oracle.ic_rows_full": ic_rows,
    }


def _expost_cells(args, kwargs, report) -> dict:
    mech = args[0] if args else kwargs["mech"]
    domain = mech.domain
    # sum over bidders k of T_k^2 * R_rest * K, with R_rest = R / T_k
    cells = sum(
        domain.bidder_type_count(k) * domain.num_profiles * mech.space.num_outcomes
        for k in range(domain.n)
    )
    return {"mechanism.audit_over_domain.expost_cells": cells}


def _serialized_bytes(args, kwargs, text) -> dict:
    return {"mechanism.serialize_mechanism.bytes": len(text.encode("utf-8"))}


def _atoms(args, kwargs, total) -> dict:
    prior = args[1] if len(args) > 1 else kwargs["prior"]
    atoms = math.prod(len(c.atoms()) for row in prior.cells for c in row)
    return {"learner.exact_revenue_on_atoms.atoms": atoms}


def _table_profiles(args, kwargs, table) -> dict:
    return {"myerson.single_parameter_table.profiles": table.domain.num_profiles}


LAYERS = [
    Layer("cli", "cli_dispatch"),
    Layer("priors", "sample_prior"),
    Layer("grid", "empirical_marginal"),
    Layer("outcomes", "check_weakly_downward_closed"),
    Layer("experiments", "build_instance"),
    Layer("experiments", "exact_benchmark"),
    Layer("oracle", "solve_optimal", _lp_size),
    Layer("oracle", "extend_bic"),
    Layer("oracle", "extend_dsic"),
    Layer("mechanism", "audit_over_domain", _expost_cells),
    Layer("mechanism", "regret_report"),
    Layer("mechanism", "serialize_mechanism", _serialized_bytes),
    Layer("mechanism", "deserialize_mechanism"),
    Layer("learner", "LearnedMechanism.exact_revenue_on_atoms", _atoms),
    Layer("exactlp", "brute_force_optimal"),
    Layer("myerson", "single_parameter_table", _table_profiles),
    Layer("myerson", "iron"),
]

COUNTERS = [
    "oracle.lp_vars",
    "oracle.ic_rows_full",
    "mechanism.audit_over_domain.expost_cells",
    "mechanism.serialize_mechanism.bytes",
    "learner.exact_revenue_on_atoms.atoms",
    "myerson.single_parameter_table.profiles",
]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer value of one traced pass, except the tracing
    overhead, which needs an untraced pass to compare with."""
    out = {name: 0 for name in COUNTERS}
    out.update(tracer.summary(LAYERS))
    out["oracle.solve_optimal.audit_s"] = tracer.total_s(
        "mechanism.audit_over_domain", parent="oracle.solve_optimal"
    )
    out["mechanism.regret_report.total_s"] = tracer.total_s("mechanism.regret_report")
    return out


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"
