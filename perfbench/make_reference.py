"""Regenerate ``reference/`` from the program in ``src/``.

    python3 perfbench/make_reference.py

Runs every operation of every input set once and stores what the checks
compare against: each learned mechanism's oracle objective, each sweep's
benchmark revenue, the single-parameter sweep CSVs, and the exit code and
error text of every call that fails. Regenerate only when a change to the
program is meant to change these answers, and say so in the change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from run import BLAS_THREAD_VARS, BLAS_THREADS, SRC, WORK, run_op
from workloads import (
    POOL,
    REFERENCE,
    SWEEP_CSVS,
    WORKLOADS,
    failure_key,
    oracle_objective,
    sweep_rows,
)


def main() -> int:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ["MECHLEARN_WORKERS"] = "1"
    sys.path.insert(0, str(SRC))
    from mechlearn import cli

    ref: dict = {
        "objectives": {},
        "benchmark_revenue": {},
        "byte_identical": [],
        "known_failures": {},
    }
    seen: set[str] = set()
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        for workload in WORKLOADS.values():
            for k in range(POOL):
                for op in workload.ops(k, Path(tmp)):
                    if failure_key(op) in seen:
                        continue
                    seen.add(failure_key(op))
                    result = run_op(cli, op)
                    print(f"{op.label}: exit {result.rc} in {result.seconds:.2f} s", flush=True)
                    if result.rc != 0:
                        ref["known_failures"][failure_key(op)] = {
                            "exit": result.rc,
                            "stderr": result.stderr,
                        }
                    elif op.kind == "learn":
                        ref["objectives"][op.key] = oracle_objective(op.out)
                    elif op.kind == "sweep":
                        mode = op.key.rsplit("/", 1)[-1]
                        values = {float(r["benchmark_revenue"]) for r in sweep_rows(op.out)}
                        ref["benchmark_revenue"].setdefault(mode, values.pop())
                        if mode == "single_parameter":
                            ref["byte_identical"].append(op.key)
                            (REFERENCE / op.key).mkdir(parents=True, exist_ok=True)
                            for name in SWEEP_CSVS:
                                shutil.copyfile(op.out / name, REFERENCE / op.key / name)
    WORK.rmdir()
    (REFERENCE / "reference.json").write_text(
        json.dumps(ref, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
