"""Benchmark of the mechlearn CLI, driven in-process through
``mechlearn.cli.cli_dispatch``.

    python3 perfbench/run.py --workload lp_2x2 --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: it imports the program from
``src/``, writes scratch files under ``.perfbench_work/`` and removes them
at exit. One process runs one workload with a single thread of load (BLAS
is capped at one thread and sweeps run in-process).

With ``--trace 0`` it reports the end-to-end metrics: ``wall_s``, the
median time of one pass over the workload's operations; ``setup_s``, the
median over several child processes of the time from process start to the
first operation (imports and config reads); and ``peak_rss_mb`` of this
process. With ``--trace 1`` it spends half the time on untraced passes and
half on traced ones and reports per-layer self times and counts, plus
``trace.overhead_s``.

Every call's exit code and outputs are checked against ``reference/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from layers import LAYERS, layer_metrics, unit
from tracer import Tracer
from workloads import POOL, WORKLOADS, Op, OpResult, check, digest, load_reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PROBE = Path(__file__).resolve().parent / "probe.py"
SETUP_PROBES = 7
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
)
BLAS_THREADS = 1


@dataclass
class PassResult:
    op_seconds: list[float]
    fingerprint: list[tuple[str, int, str]]
    layers: dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return sum(self.op_seconds)


@dataclass
class Tally:
    """Outcome of every operation run so far."""

    reference: dict
    attempted: int = 0
    failures: Counter = field(default_factory=Counter)  # message -> times seen
    wrong: int = 0
    problems: list[str] = field(default_factory=list)  # run-level check failures
    values: dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def record(self, op: Op, result: OpResult) -> None:
        self.attempted += 1
        try:
            verdict = check(op, result, self.reference)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            verdict_status, message = "wrong", f"{op.label}: output check failed: {exc!r}"
        else:
            verdict_status, message = verdict.status, verdict.message
            if verdict.value is not None:
                self.values[f"{op.kind} {op.key}"] = verdict.value
        if verdict_status != "ok":
            self.failures[f"[{verdict_status}] {message}"] += 1
            self.wrong += verdict_status == "wrong"

    @property
    def correct(self) -> bool:
        return self.wrong == 0 and not self.problems


def run_op(cli, op: Op) -> OpResult:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.cli_dispatch(list(op.argv))
        except Exception:  # a traceback is a program bug; keep measuring
            traceback.print_exc()
            rc = -1
    return OpResult(rc, out.getvalue(), err.getvalue(), time.perf_counter() - start)


def run_pass(cli, ops: list[Op], tally: Tally) -> PassResult:
    """One pass over the operations; only the CLI calls are timed."""
    op_seconds = []
    fingerprint = []
    for op in ops:
        result = run_op(cli, op)
        op_seconds.append(result.seconds)
        tally.record(op, result)
        try:
            fingerprint.append((op.label, result.rc, digest(op) if result.rc == 0 else ""))
        except OSError as exc:
            fingerprint.append((op.label, result.rc, f"unreadable: {exc}"))
    return PassResult(op_seconds, fingerprint)


def run_passes(cli, ops, tally, budget: float, tracer=None) -> list[PassResult]:
    """Passes until the next one would end after ``budget`` seconds (at
    least one)."""
    passes: list[PassResult] = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        result = run_pass(cli, ops, tally)
        if tracer is not None:
            result.layers = layer_metrics(tracer)
        passes.append(result)
        elapsed = time.perf_counter() - start
        if elapsed + min(p.seconds for p in passes) > budget:
            return passes


def probe_setup(configs) -> float:
    """Seconds from starting a fresh interpreter to the point where it has
    imported mechlearn and read the workload's configs."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(PROBE), str(SRC), *map(str, configs)],
        stdout=subprocess.PIPE,
        text=True,
    ) as child:
        line = child.stdout.readline()
        seconds = time.perf_counter() - start
        child.stdout.read()
        rc = child.wait(timeout=60)
    if rc != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit {rc}")
    return seconds


def environment() -> dict:
    import numpy
    import scipy

    try:
        import gmpy2  # noqa: F401
    except ImportError:
        has_gmpy2 = False
    else:
        has_gmpy2 = True
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "gmpy2": has_gmpy2,
        "exactlp_arithmetic": "gmpy2.mpq" if has_gmpy2 else "fractions.Fraction",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "mechlearn_workers": os.environ["MECHLEARN_WORKERS"],
    }


def consistent(passes: list[PassResult], tally: Tally) -> None:
    """Every pass, traced or not, must give the same exit codes and output
    bytes, and every traced pass the same counts."""
    first = passes[0]
    for p in passes[1:]:
        if p.fingerprint != first.fingerprint:
            diff = [a for a, b in zip(first.fingerprint, p.fingerprint) if a != b]
            tally.problems.append(f"passes disagree on exit codes or output bytes: {diff[:3]}")
            break
    traced = [p.layers for p in passes if p.layers]
    for layers in traced[1:]:
        for name, value in layers.items():
            if not name.endswith("_s") and value != traced[0][name]:
                tally.problems.append(f"count {name} differs between traced passes")


def layer_report(traced: list[PassResult], wall_s: float) -> dict[str, float]:
    """Median of each per-layer value over the traced passes, and the
    tracing overhead against the untraced median ``wall_s``."""
    metrics = {
        name: statistics.median(p.layers[name] for p in traced) for name in traced[0].layers
    }
    metrics["trace.overhead_s"] = statistics.median(p.seconds for p in traced) - wall_s
    for name, value in sorted(metrics.items(), key=lambda kv: -kv[1]):
        if name.endswith(".self_s") and value > 0:
            print(f"layer {name} = {value:.4f} s")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1,
                        help=f"workload seed; input set = seed mod {POOL} (default 1)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mechlearn" / "cli.py").is_file():
        print(f"error: no mechlearn sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ["MECHLEARN_WORKERS"] = "1"

    workload = WORKLOADS[args.workload]
    input_set = args.seed % POOL
    setups = [] if args.trace else [probe_setup(workload.configs) for _ in range(SETUP_PROBES)]

    sys.path.insert(0, str(SRC))
    from mechlearn import cli

    tally = Tally(load_reference())
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        ops = workload.ops(input_set, work)
        if args.trace:
            plain = run_passes(cli, ops, tally, args.seconds / 2)
            tracer = Tracer()
            with tracer.installed(LAYERS):
                traced = run_passes(cli, ops, tally, args.seconds / 2, tracer)
            consistent(plain + traced, tally)
        else:
            plain = run_passes(cli, ops, tally, args.seconds)
            consistent(plain, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it

    wall_s = statistics.median(p.seconds for p in plain)
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} input set {input_set}: "
          f"{len(ops)} operations per pass, "
          f"untraced passes {[round(p.seconds, 3) for p in plain]}")
    if setups:
        print(f"set-up probes {[round(t, 3) for t in setups]} s")
    for i, op in enumerate(ops):
        print(f"op {op.label}: {[round(p.op_seconds[i], 3) for p in plain]} s")
    for key, value in sorted(tally.values.items()):
        print(f"value {key} = {value!r}")
    for message, times in tally.failures.items():
        print(f"failure x{times}: {message}")
    for problem in tally.problems:
        print(f"wrong: {problem}")
    print(f"fail_share {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted!r}")

    if args.trace:
        metrics = layer_report(traced, wall_s)
    else:
        metrics = {
            "wall_s": wall_s,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": v, "unit": "MB" if name == "peak_rss_mb" else unit(name)}
            for name, v in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
