"""Sample-complexity sweeps and concentration experiments.

Sweeps learn a mechanism per (sample count, seed) cell, evaluate it exactly
on the grid-supported true prior, and compare against the exact LP benchmark
on that prior, so the reported revenue gap carries zero benchmark error.

Result files are deterministic byte-for-byte across reruns with the same
config: every row derives from seeded pure functions, rows are sorted before
writing, and floats are serialized via repr. Wall-clock timings are therefore
written to a separate sidecar file that is excluded from the determinism
contract.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import time
import warnings
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from ._version import TOOL_VERSION
from .errors import (
    CapacityError,
    ConfigError,
    DomainError,
    UsageError,
    config_int,
    config_ints,
    config_real,
    read_text,
    write_text,
)
from .grid import DiscreteMarginal, GridSpec, SampleSet
from .learner import MODES, LearnedMechanism, _learn, regret_slack
from .mechanism import deserialize_mechanism, regret_report
from .oracle import FEASIBILITY_TOL, OracleProblem, solve_optimal
from .outcomes import OutcomeSpace, ValuationModel, model_from_config, space_from_config
from .priors import PriorDescription, prior_from_config, sample_prior

__all__ = [
    "MODES",
    "ExperimentConfig",
    "SweepResult",
    "ConcentrationResult",
    "learn",
    "grid_problem",
    "run_sweep",
    "concentration_experiment",
    "config_hash",
    "write_rows_csv",
]

# Caps trials * (support sizes summed over marginals), the sample counts a
# concentration experiment draws at once: each takes 16 bytes, as a count and
# as a frequency, so the cap holds it near 1.6 GB.
CONCENTRATION_BUDGET = 10**8


def config_hash(obj: Mapping[str, Any]) -> str:
    canon = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class InstanceBundle:
    """Everything an instance config describes, materialized."""

    n: int
    m: int
    spec: GridSpec
    space: OutcomeSpace
    model: ValuationModel
    prior: PriorDescription


def build_instance(instance: Mapping[str, Any]) -> InstanceBundle:
    for key in ("n", "m", "epsilon", "h", "space", "model", "prior"):
        if key not in instance:
            raise ConfigError(f"instance config missing {key!r}")
    n, m = (config_int(instance[key], key) for key in ("n", "m"))
    if n < 1 or m < 1:
        raise ConfigError(f"instance needs n >= 1 and m >= 1, got n={n}, m={m}")
    spec = GridSpec(
        epsilon=config_real(instance["epsilon"], "epsilon"),
        h=config_real(instance["h"], "h"),
    )
    space = space_from_config(instance["space"], n, m)
    model = model_from_config(instance["model"], spec=spec, space=space)
    prior_obj = dict(instance["prior"])
    prior_obj.setdefault("n", n)
    prior_obj.setdefault("m", m)
    prior_obj.setdefault("h", instance["h"])
    prior = prior_from_config(prior_obj)
    if (prior.n, prior.m) != (n, m):
        raise ConfigError("prior dimensions disagree with the instance")
    if float(prior.h) != spec.h:
        raise ConfigError("prior h disagrees with the instance grid")
    return InstanceBundle(
        n=n,
        m=m,
        spec=spec,
        space=space,
        model=model,
        prior=prior,
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated sweep description and the instance it describes."""

    bundle: InstanceBundle
    mode: str
    s_values: tuple[int, ...]
    seeds: tuple[int, ...]
    raw: dict

    @classmethod
    def from_json(cls, obj: Mapping[str, Any]) -> "ExperimentConfig":
        for key in ("instance", "mode", "s_values", "seeds"):
            if key not in obj:
                raise ConfigError(f"sweep config missing {key!r}")
        mode = obj["mode"]
        if mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
        s_values, seeds = (config_ints(obj[key], key) for key in ("s_values", "seeds"))
        if not s_values or not seeds:
            raise ConfigError("s_values and seeds must be nonempty")
        if any(s < 1 for s in s_values):
            raise ConfigError("sample counts must be positive")
        if any(seed < 0 for seed in seeds):
            raise ConfigError("seeds must be nonnegative")
        return cls(
            bundle=build_instance(obj["instance"]),
            mode=mode,
            s_values=s_values,
            seeds=seeds,
            raw=dict(obj),
        )

    def hash(self) -> str:
        return config_hash(self.raw)


def learn(mode: str, samples: SampleSet, bundle: InstanceBundle) -> LearnedMechanism:
    """The table pipeline ``mode``, one of ``MODES``, learns from
    ``samples`` on the instance's grid, outcome space and model."""
    return _learn(samples, bundle.spec.epsilon, bundle.space, bundle.model, mode)


def grid_problem(
    bundle: InstanceBundle, ic_mode: str, eta: float | None = None
) -> OracleProblem:
    """The oracle problem on the grid pushforward of the instance's true
    prior. A DSIC ``eta`` defaults to the learner's ``regret_slack``."""
    if ic_mode == "dsic" and eta is None:
        eta = regret_slack(bundle.m, bundle.spec.epsilon)
    return OracleProblem(
        prior=bundle.prior.to_grid_prior(bundle.spec),
        space=bundle.space,
        model=bundle.model,
        ic_mode=ic_mode,
        eta=eta or 0.0,
    )


def exact_benchmark(bundle: InstanceBundle, mode: str) -> float:
    """Optimal objective on the grid-supported true prior, exactly when the
    brute-force guard allows, by the float LP otherwise."""
    problem = grid_problem(bundle, "dsic" if mode == "dsic" else "bic")
    from .exactlp import OUTCOME_GUARD, PROFILE_GUARD, brute_force_optimal

    if (
        problem.domain().num_profiles <= PROFILE_GUARD
        and bundle.space.num_outcomes <= OUTCOME_GUARD
    ):
        return float(
            brute_force_optimal(
                problem.prior, bundle.space, bundle.model, problem.ic_mode, problem.eta
            )
        )
    return solve_optimal(problem).objective_value


@dataclass
class SweepResult:
    config_hash: str
    mode: str
    epsilon: float
    benchmark: float
    rows: list[dict]
    summary: list[dict]
    timings: list[dict]


def run_sweep(config: ExperimentConfig, out_dir: str | None = None) -> SweepResult:
    bundle = config.bundle
    if not bundle.prior.grid_supported(bundle.spec):
        raise ConfigError(
            "sweeps need a grid-supported true prior so the benchmark is "
            "exact; use Monte-Carlo evaluation for off-grid priors"
        )
    benchmark = exact_benchmark(bundle, config.mode)
    grid_prior = bundle.prior.to_grid_prior(bundle.spec)

    rows = []
    timings = []
    for s, seed in itertools.product(config.s_values, config.seeds):
        t0 = time.perf_counter()
        samples = sample_prior(bundle.prior, bundle.n, bundle.m, s, seed)
        learned = learn(config.mode, samples, bundle)
        learned_revenue = float(learned.exact_revenue_on_atoms(bundle.prior, grid_prior))
        report = regret_report(learned.inner, grid_prior, bundle.model)
        wall = time.perf_counter() - t0
        ic_mode = learned.inner.meta["mode"]
        regret = getattr(report, f"{ic_mode}_regret")
        bound = learned.inner.meta[f"{ic_mode}_regret_bound"]
        if regret > bound + FEASIBILITY_TOL:
            warnings.warn(
                f"single-run regret {regret} above the declared {bound} "
                f"bound at (s={s}, seed={seed})",
                stacklevel=2,
            )
        rows.append(
            {
                "s": s,
                "seed": seed,
                "learned_revenue": learned_revenue,
                "regret": regret,
                "ir_slack": report.ir_slack,
                "benchmark_revenue": benchmark,
                "gap": benchmark - learned_revenue,
            }
        )
        timings.append({"s": s, "seed": seed, "wall_time_s": wall})
    rows.sort(key=lambda r: (r["s"], r["seed"]))
    timings.sort(key=lambda r: (r["s"], r["seed"]))

    summary = []
    eps = bundle.spec.epsilon
    for s in sorted(set(config.s_values)):
        gaps = np.array([r["gap"] for r in rows if r["s"] == s])
        se = float(gaps.std(ddof=1) / math.sqrt(len(gaps))) if len(gaps) > 1 else 0.0
        summary.append(
            {
                "s": s,
                "mean_gap": float(gaps.mean()),
                "se_gap": se,
                "frac_within_eps": float(np.mean(gaps <= eps)),
            }
        )

    result = SweepResult(
        config_hash=config.hash(),
        mode=config.mode,
        epsilon=eps,
        benchmark=benchmark,
        rows=rows,
        summary=summary,
        timings=timings,
    )
    if out_dir is not None:
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"{out_dir}: cannot write: {exc}") from exc
        meta = {
            "config_hash": result.config_hash,
            "tool_version": TOOL_VERSION,
            "mode": config.mode,
            "benchmark": repr(benchmark),
        }
        write_rows_csv(
            os.path.join(out_dir, "rows.csv"),
            ["s", "seed", "learned_revenue", "benchmark_revenue", "gap", "regret", "ir_slack"],
            result.rows,
            meta,
        )
        write_rows_csv(
            os.path.join(out_dir, "summary.csv"),
            ["s", "mean_gap", "se_gap", "frac_within_eps"],
            result.summary,
            meta,
        )
        write_rows_csv(
            os.path.join(out_dir, "timing.csv"),
            ["s", "seed", "wall_time_s"],
            result.timings,
            meta,
        )
    return result


def write_rows_csv(
    path: str, fields: Sequence[str], rows: Sequence[Mapping[str, Any]], meta: Mapping[str, Any]
) -> None:
    """CSV with a deterministic comment header embedding provenance."""
    head = " ".join(f"{k}={meta[k]}" for k in sorted(meta))
    lines = [f"# {head}", ",".join(fields)]
    for row in rows:
        cells = []
        for f in fields:
            v = row[f]
            cells.append(repr(float(v)) if isinstance(v, float) else str(v))
        lines.append(",".join(cells))
    write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Concentration of empirical product expectations.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConcentrationResult:
    trials: int
    violations: int
    frequency: float
    bound: float
    binomial_se: float


def concentration_bound(h_f: float, epsilon: float, s: int) -> float:
    return (4.0 * h_f / epsilon) * math.exp(-(epsilon**2) * s / (8.0 * h_f**2))


def concentration_experiment(
    marginals: Sequence[DiscreteMarginal],
    s: int,
    epsilon: float,
    trials: int,
    f_values: np.ndarray,
    h_f: float,
    seed: int,
) -> ConcentrationResult:
    """Frequency of |empirical - true expectation| > epsilon across trials.

    ``f_values`` holds f on the support-profile grid (axis i enumerates
    marginal i's support in sorted order) with declared range [0, h_f]. Each
    trial draws s samples per marginal; drawing multinomial counts directly
    is distribution-identical to drawing and tallying individual samples.
    """
    f = np.asarray(f_values, dtype=np.float64)
    sizes = tuple(len(m.support) for m in marginals)
    if f.shape != sizes:
        raise UsageError(f"f_values shape {f.shape} != support sizes {sizes}")
    if not 0 < h_f < math.inf:  # NaN fails it too
        raise UsageError(f"h_f must be positive and finite, got {h_f}")
    if not (f.min() >= -1e-12 and f.max() <= h_f + 1e-12):  # NaN fails it too
        raise UsageError(
            f"f must map into the declared range [0, {h_f}]; "
            f"observed [{f.min()}, {f.max()}]"
        )
    if not 0 < epsilon < math.inf or not 1 <= s < 2**63 or trials < 1 or seed < 0:
        raise UsageError("need finite epsilon > 0, 1 <= s < 2**63, trials >= 1, seed >= 0")
    if not marginals:
        raise UsageError("need at least one marginal")
    try:
        bound = concentration_bound(h_f, epsilon, s)
    except OverflowError:  # epsilon**2 or h_f**2
        raise DomainError(f"the bound overflows at h_f {h_f} and epsilon {epsilon}") from None
    if trials * sum(sizes) > CONCENTRATION_BUDGET:
        raise CapacityError(
            f"{trials} trials over supports of sizes {sizes} draw "
            f"{trials * sum(sizes)} counts, over the {CONCENTRATION_BUDGET} budget"
        )

    true_probs = [m.probs_float(m.support) for m in marginals]
    expected_true = f.copy()
    for p in reversed(true_probs):
        expected_true = expected_true @ p
    expected_true = float(expected_true)

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    letters = "abcdefghijklmnopqrstuvwxyz"
    if len(marginals) > len(letters):
        raise UsageError("too many marginals for the einsum contraction")
    subs = ",".join(f"t{letters[i]}" for i in range(len(marginals)))
    spec = f"{subs},{letters[: len(marginals)]}->t"

    emp = []
    for p in true_probs:
        counts = rng.multinomial(s, p / p.sum(), size=trials)
        emp.append(counts / float(s))
    expected_emp = np.einsum(spec, *emp, f)
    deviations = np.abs(expected_emp - expected_true)
    violations = int(np.sum(deviations > epsilon))
    freq = violations / trials
    se = math.sqrt(max(freq * (1.0 - freq), 1.0 / trials) / trials)
    return ConcentrationResult(
        trials=trials,
        violations=violations,
        frequency=freq,
        bound=bound,
        binomial_se=se,
    )


def profile_function_from_config(
    obj: Mapping[str, Any], marginals: Sequence[DiscreteMarginal]
) -> tuple[np.ndarray, float]:
    """Builtin bounded functions on support profiles for the CLI."""
    kind = obj.get("kind")
    sizes = tuple(len(m.support) for m in marginals)
    if kind == "constant":
        c = config_real(obj.get("value", 0.0), "value")
        if c < 0:
            raise ConfigError("constant f must be nonnegative")
        return np.full(sizes, c), max(c, 1.0)
    if kind == "scaled_sum":
        h = marginals[0].spec.h
        grids = np.meshgrid(
            *[m.support_values() for m in marginals], indexing="ij"
        )
        total = np.zeros(sizes)
        for g in grids:
            total = total + g
        return total / (len(marginals) * h), 1.0
    if kind == "mechanism_revenue":
        mech = deserialize_mechanism(read_text(obj["mechanism"]))
        if len(marginals) != mech.n * mech.m:
            raise ConfigError(
                "mechanism_revenue needs one marginal per (bidder, parameter)"
            )
        pay = mech.rows_pay.sum(axis=1)[mech.src]
        if pay.min() < 0:
            raise UsageError("mechanism payments are negative; f must be in [0, H_f]")
        # profile ranks run over the (bidder, parameter) cells in lex order
        cells = [cell for row in mech.domain.supports for cell in row]
        positions = []
        for q, (cell, marginal) in enumerate(zip(cells, marginals)):
            missing = sorted(set(marginal.support) - set(cell))
            if missing:
                raise UsageError(
                    f"grid index {missing[0]} not in bidder {q // mech.m} "
                    f"parameter {q % mech.m} support {cell}"
                )
            positions.append([cell.index(k) for k in marginal.support])
        f = pay.reshape([len(cell) for cell in cells])[np.ix_(*positions)]
        return f, float(pay.max()) if pay.max() > 0 else 1.0
    raise ConfigError(f"unknown profile function kind {kind!r}")
