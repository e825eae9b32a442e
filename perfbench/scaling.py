"""Scaling probe for mc-3node-pool: a diagnostic, not a gate.

    python3 perfbench/scaling.py [--seconds S] [--seed N]

Reports mc-3node-pool trials/s at workers {1, nproc} x BLAS threads
{unset, 1}. The BLAS thread variables are set (or removed) only in the
environment of the child process that runs each cell, never here.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

import run
import workloads


def child(seconds: float, seed: int, serial: bool) -> None:
    """Closed loop of mc-3node-pool ops; prints one JSON line with trials/s."""
    cli = run.import_package()
    os.makedirs(run.OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="scaling-", dir=run.OUT_DIR)
    try:
        workload = workloads.Mc3NodePool(seed, tmp)
        workload.setup()
        runner = run.Runner(cli, workload)
        runner.run_op(0, serial=serial)  # warm-up
        busy, trials, k = 0.0, 0, 1
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            busy += sum(sec for _, sec in runner.run_op(k, serial=serial))
            trials += workload.work(k)
            k += 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({"trials_per_s": trials / busy, "ops": k - 1,
                      "failed": runner.failed}))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--child", choices=("serial", "pool"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        child(args.seconds, args.seed, args.child == "serial")
        return 0

    cells = []
    for blas in ("unset", "1"):
        env = {k: v for k, v in os.environ.items() if k not in workloads.BLAS_THREAD_VARS}
        if blas == "1":
            env.update({var: "1" for var in workloads.BLAS_THREAD_VARS})
        for mode, workers in (("serial", 1), ("pool", workloads.nproc())):
            proc = subprocess.run(
                [sys.executable, __file__, "--child", mode,
                 "--seconds", str(args.seconds), "--seed", str(args.seed)],
                env=env, capture_output=True, text=True, check=True,
            )
            cell = json.loads(proc.stdout.strip().splitlines()[-1])
            cell.update(workers=workers, blas_threads=blas)
            cells.append(cell)
            print(f"workers={workers:<3} blas_threads={blas:<6} "
                  f"{cell['trials_per_s']:8.2f} trials/s  ({cell['ops']} ops, "
                  f"{cell['failed']} failed)", flush=True)
    print(json.dumps({"workload": "mc-3node-pool", "cells": cells,
                      "environment": run.environment()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
