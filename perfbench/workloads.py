"""Workloads: the CLI operations each one runs, and the checks on their
outputs.

Inputs come from a pool of ``POOL`` input sets, picked by the workload seed
modulo ``POOL``; the references the checks compare against are stored for
every set in ``reference/`` and regenerated by ``make_reference.py``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "configs"
REFERENCE = HERE / "reference"
POOL = 10
REL_TOL = 1e-9  # "same objective", as the ROADMAP defines it


@dataclass(frozen=True)
class Op:
    """One CLI call. ``key`` names its reference entries; ``out`` is the
    file or directory the call writes, if any."""

    kind: str  # learn | eval | verify | sweep
    key: str
    argv: tuple[str, ...]
    out: Path | None = None

    @property
    def label(self) -> str:
        return f"{self.argv[0]} {self.key}"


@dataclass(frozen=True)
class OpResult:
    rc: int
    stdout: str
    stderr: str
    seconds: float


@dataclass(frozen=True)
class Verdict:
    status: str  # ok | known_failure | wrong
    message: str = ""
    value: float | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    configs: tuple[Path, ...]
    ops: Callable[[int, Path], list[Op]]  # (input set, work dir) -> ops


def _lp_2x2_ops(k: int, work: Path) -> list[Op]:
    # LP assembly and HiGHS do ~95% of the work, BIC and DSIC side by side.
    # Two sampling seeds per pass halve the spread that comes from the LP's
    # dependence on the sample.
    ops = []
    for seed in (k, (k + 1) % POOL):
        for mode in ("bic", "dsic"):
            key = f"lp_2x2/{seed}/{mode}"
            mech = work / f"lp_2x2_{seed}_{mode}.json"
            prior = ("--prior", str(CONFIGS / "lp_2x2_prior.json"))
            ops += [
                Op("learn", key, (f"learn-{mode}", "--config", str(CONFIGS / "lp_2x2.json"),
                                  "--s", "2000", "--seed", str(seed), "--out", str(mech)), mech),
                Op("eval", key, ("eval", "--mech", str(mech)) + prior),
                Op("verify", key, ("verify", "--mech", str(mech)) + prior),
            ]
    return ops


def _full_grid_3x2_ops(k: int, work: Path) -> list[Op]:
    # A 64-profile LP, then a 262144-profile table: serialization, the audit
    # kernels and memory do the work. h=1.75 keeps the peak under 0.7 GB.
    key = f"full_grid_3x2/{k}/dsic"
    mech = work / f"full_grid_3x2_{k}.json"
    return [
        Op("learn", key, ("learn-dsic", "--config", str(CONFIGS / "full_grid_3x2.json"),
                          "--s", "500", "--seed", str(k), "--out", str(mech)), mech),
        Op("verify", key, ("verify", "--mech", str(mech),
                           "--prior", str(CONFIGS / "full_grid_3x2_prior.json"))),
    ]


def _sweep_small_ops(k: int, work: Path) -> list[Op]:
    # Many short cells: per-call costs, the exact-rational simplex (9
    # profiles; 16 would take ~100 s) and the Python-loop Myerson table.
    ops = []
    for name in ("sweep_bic", "sweep_single"):
        config = json.loads((CONFIGS / f"{name}.json").read_text(encoding="utf-8"))
        per_set = len(config["seeds"])
        config["seeds"] = [k * per_set + j for j in range(per_set)]
        path = work / f"{name}_{k}.json"
        path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
        out = work / f"{name}_{k}"
        ops.append(Op("sweep", f"sweep_small/{k}/{config['mode']}",
                      ("sweep", "--config", str(path), "--out", str(out)), out))
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "lp_2x2",
            (CONFIGS / "lp_2x2.json", CONFIGS / "lp_2x2_prior.json"),
            _lp_2x2_ops,
        ),
        Workload(
            "full_grid_3x2",
            (CONFIGS / "full_grid_3x2.json", CONFIGS / "full_grid_3x2_prior.json"),
            _full_grid_3x2_ops,
        ),
        Workload(
            "sweep_small",
            (CONFIGS / "sweep_bic.json", CONFIGS / "sweep_single.json"),
            _sweep_small_ops,
        ),
    )
}


# ---------------------------------------------------------------------------
# Output checks.
# ---------------------------------------------------------------------------

SWEEP_CSVS = ("rows.csv", "summary.csv")


def load_reference() -> dict:
    return json.loads((REFERENCE / "reference.json").read_text(encoding="utf-8"))


def oracle_objective(mech_file: Path) -> float:
    """``meta.oracle_objective`` of a mechanism file, parsing only its
    header (the rows of a full-grid table run to tens of megabytes)."""
    text = mech_file.read_text(encoding="utf-8")
    prefix = '{"header":'
    if not text.startswith(prefix):
        raise ValueError(f"{mech_file}: unexpected mechanism layout")
    header, _ = json.JSONDecoder().raw_decode(text, len(prefix))
    return float(header["meta"]["oracle_objective"])


def sweep_rows(out_dir: Path) -> list[dict[str, str]]:
    lines = (out_dir / "rows.csv").read_text(encoding="utf-8").splitlines()
    fields = lines[1].split(",")
    return [dict(zip(fields, line.split(","))) for line in lines[2:]]


def failure_key(op: Op) -> str:
    return f"{op.kind} {op.key}"


def _close(value: float, ref: float) -> bool:
    return math.isclose(value, ref, rel_tol=REL_TOL, abs_tol=0.0)


def check(op: Op, result: OpResult, ref: dict) -> Verdict:
    """Compare one call's exit code and outputs with the references."""
    if result.rc != 0:
        message = f"{op.label}: exit {result.rc}: {result.stderr.strip()}"
        known = ref["known_failures"].get(failure_key(op))
        if known == {"exit": result.rc, "stderr": result.stderr}:
            report = " | ".join(result.stdout.strip().splitlines())
            return Verdict("known_failure", f"{message} | {report}")
        return Verdict("wrong", message)
    if op.kind == "learn":
        value = oracle_objective(op.out)
        expected = ref["objectives"][op.key]
        if not _close(value, expected):
            return Verdict("wrong", f"{op.label}: oracle objective {value!r} != {expected!r}", value)
        return Verdict("ok", value=value)
    if op.kind == "eval":
        return Verdict("ok", value=float(result.stdout.strip().splitlines()[-1]))
    if op.kind == "sweep":
        mode = op.key.rsplit("/", 1)[-1]
        expected = ref["benchmark_revenue"][mode]
        for row in sweep_rows(op.out):
            if not _close(float(row["benchmark_revenue"]), expected):
                return Verdict("wrong", f"{op.label}: benchmark_revenue "
                                        f"{row['benchmark_revenue']} != {expected!r}")
        if op.key in ref["byte_identical"]:
            for name in SWEEP_CSVS:
                if (op.out / name).read_bytes() != (REFERENCE / op.key / name).read_bytes():
                    return Verdict("wrong", f"{op.label}: {name} differs from the reference")
    return Verdict("ok")


def digest(op: Op) -> str:
    """Hash of what the call wrote: the mechanism file, or a sweep's
    deterministic CSVs (the timing sidecar is left out)."""
    if op.out is None:
        return ""
    paths = [op.out / n for n in SWEEP_CSVS] if op.kind == "sweep" else [op.out]
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()
