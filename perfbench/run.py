"""granger-mdl benchmark: drives ``granger_mdl.cli.main`` in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. One closed-loop caller issues the
workload's ops back to back for ``--seconds`` seconds and checks every
output. ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs a
fixed list of ops untraced and then traced, and prints the per-layer
metrics. The last line of stdout is the result JSON; the line before it
holds the details (environment, per-call statistics, output digest).
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")
# set-up samples per run, spread over the run so that their median does
# not hang on the host's speed during one short spell
SETUP_REPEATS = 7
# A stdlib-only interpreter start: the same kind of work as set-up (process
# start, module loading, C extensions) but none of the program or numpy.
BASELINE_CODE = ("import argparse, asyncio, csv, dataclasses, decimal, email.parser, "
                 "fractions, http.client, json, logging, pathlib, sqlite3, statistics, "
                 "tempfile, typing, unittest, xml.dom.minidom")
# setup_s is in seconds of a machine on which BASELINE_CODE starts in this time.
BASELINE_REF_S = 0.15
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "GRANGER_MDL_THREADS")
END_TO_END_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "op_ms_p50_norm": "ms",
    "op_ms_tail_norm": "ms", "work_per_s_norm": "1/s",
}
# The _norm metrics are in ms of a machine on which calibration_ms() reads this.
CAL_REF_MS = 4.0
# Sized so that the LAPACK part of calibration_ms() takes about as long as the rest.
CAL_MATRIX = np.random.default_rng(0).standard_normal((200, 40))


def import_package():
    """Import the checkout's own package; exit with an error if it is not there."""
    if not os.path.isfile(os.path.join(SRC, "granger_mdl", "cli.py")):
        sys.exit(f"error: no granger_mdl sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import granger_mdl.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported granger_mdl from {cli.__file__}, not {SRC}")
    return cli


def interpreter_seconds(code: str) -> float:
    """Wall time of a fresh interpreter that runs ``code`` and exits."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
    return time.perf_counter() - t0


def measure_setup() -> tuple:
    """(seconds until granger_mdl.cli is imported, BASELINE_CODE seconds just before).

    The host's speed moves both alike (medians of nine-sample blocks
    correlated at 0.86 in probes), so their ratio cancels most of it, as
    calibration_ms() does for ops.
    """
    base = interpreter_seconds(BASELINE_CODE)
    return interpreter_seconds(f"import sys; sys.path.insert(0, {SRC!r}); import granger_mdl.cli"), base


def calibration_ms() -> float:
    """Wall time of a fixed loop of plain Python, small numpy ufuncs and LAPACK.

    It does not call the program, so only the speed of the machine at
    that moment moves it. On a host shared with other tenants that speed
    shifts by about 1.4x for seconds at a time; each op is scaled by the
    loop's time next to it, which cancels most of the shift. The LAPACK
    part (QR and SVD of CAL_MATRIX) is there because the ops spend much
    of their time in LAPACK, which the shift slows less than Python.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1, 6000):
        acc += math.log(i) * 0.5 + (i % 7)
    values = np.arange(1.0, 513.0)
    for _ in range(300):
        values = np.sqrt(values * 1.0001 + 1.0)
    counts = {}
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    for _ in range(8):
        np.linalg.qr(CAL_MATRIX)
    for _ in range(2):
        np.linalg.svd(CAL_MATRIX, full_matrices=False)
    return 1e3 * (time.perf_counter() - t0)


def tail_stats(samples_ms: list, tail_pct: int) -> dict:
    """p50 and the tail: ``tail_pct``, lowered while fewer than 10 samples lie beyond it."""
    n = len(samples_ms)
    pct = tail_pct
    while pct > 50 and n * (100 - pct) / 100 < 10:
        pct = max(50, pct - 5)
    return {
        "p50": float(np.percentile(samples_ms, 50)),
        "tail": float(np.percentile(samples_ms, pct)),
        "tail_pct": pct,
        "n": n,
    }


def environment() -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: deps.get(key) for key in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError):
        pass
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": blas,
        "blas_thread_vars": {var: os.environ.get(var) for var in BLAS_VARS},
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


class Runner:
    """Issues ops, times each CLI call and checks its output."""

    def __init__(self, cli, workload, reference=None):
        """``reference`` holds the expected outputs if ``workload`` has the pinned seed."""
        self.cli = cli
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.trial_failures = 0
        self.first_seen = {}  # (input key, call index) -> summary of first output

    def call(self, argv) -> tuple:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            t0 = time.perf_counter()
            code = self.cli.main(argv)
            elapsed = time.perf_counter() - t0
        return code, elapsed

    def run_op(self, k: int, serial: bool = False) -> list:
        """Run op k; return [(label, seconds)]; count it failed on any problem."""
        self.attempted += 1
        ref = None
        if self.reference is not None:
            ref = self.reference["ops"][str(self.workload.input_key(k))]
        timings, problem = [], None
        for j, (label, argv) in enumerate(self.workload.calls(k, serial)):
            try:
                code, elapsed = self.call(argv)
            except Exception as exc:  # an op that raises is a failed op, not a crash
                problem = f"{label}: {type(exc).__name__}: {exc}"
                break
            timings.append((label, elapsed))
            if code != 0:
                problem = f"{label}: exit code {code}"
                break
            problem = self.verify(k, j, label, self.workload.read_output(label),
                                  None if ref is None else ref[j])
            if problem:
                break
        if problem:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"op {k}: {problem}")
        return timings

    def verify(self, k, j, label, got, ref):
        """Invariants, the reference on pinned inputs, equality on repeats."""
        self.trial_failures += self.workload.failed_trials(got)
        problem = self.workload.check(label, got)
        if problem is None and ref is not None:
            problem = self.workload.compare(label, got, ref)
        if problem is not None:
            return problem
        key = (self.workload.input_key(k), j)
        if key not in self.first_seen:
            self.first_seen[key] = got
            return None
        return None if got == self.first_seen[key] else f"{label}: output changed on repeat"

    def digest(self, digest_fn) -> str:
        view = [[key, self.workload.digest_view(got)]
                for key, got in sorted(self.first_seen.items())]
        return digest_fn(view)


def make_dir(parent: str, name: str) -> str:
    path = os.path.join(parent, name)
    os.makedirs(path)
    return path


def load_reference(name: str):
    path = os.path.join(REFERENCE_DIR, f"{name}.json")
    with open(path) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[args.workload]
    wanted = workloads.blas_env(cls)
    if any(os.environ.get(var) != value for var, value in wanted.items()):
        # OpenBLAS reads its thread count when numpy loads: start again with it set
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **wanted})
    load_start = os.getloadavg()[0]

    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        reference = load_reference(cls.name)
        workload = cls(args.seed, make_dir(tmp, "run"))
        workload.setup()
        pinned = workload
        if args.seed != workloads.PINNED_SEED:
            pinned = cls(workloads.PINNED_SEED, make_dir(tmp, "pinned"))
            pinned.setup(n_ops=1)

        # Warm-up, untimed: op 0 of the pinned seed against its reference,
        # so a wrong output fails the run on every seed.
        warm = Runner(cli, pinned, reference)
        warm.run_op(0)
        runner = Runner(cli, workload, reference if workload is pinned else None)
        metrics, detail = (traced if args.trace else untraced)(args, runner)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if not args.trace:
        metrics["peak_rss_mb"] = peak_rss_mb()
    attempted = warm.attempted + runner.attempted
    failed = warm.failed + runner.failed
    detail.update({
        "workload": cls.name,
        "seed": args.seed,
        "errors": warm.errors + runner.errors,
        "failed_frac": failed / attempted,
        "output_digest": runner.digest(workloads.digest),
        "environment": environment(),
        "loadavg_1m": [load_start, os.getloadavg()[0]],
    })
    units = dict(END_TO_END_UNITS)
    units.update(detail.pop("units", {}))
    print(json.dumps({"detail": detail}, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


def untraced(args, runner):
    """Closed loop for --seconds; end-to-end metrics from per-op latencies.

    Each op's wall time is also scaled by CAL_REF_MS over the mean of the
    calibration loop run just before and just after it. Set-up samples
    are taken between ops, evenly over the run, outside the op times, and
    each is scaled by BASELINE_REF_S over the baseline start next to it.
    """
    op_ms, norm_ms, per_label, work = [], [], {}, 0
    setup, setup_every, paused = [], args.seconds / (SETUP_REPEATS - 1), 0.0
    start = time.perf_counter()

    def elapsed():  # the run's clock, less the time spent on set-up samples
        return time.perf_counter() - start - paused

    def sample_setup():
        nonlocal paused
        t0 = time.perf_counter()
        setup.append(measure_setup())
        paused += time.perf_counter() - t0

    cal_ms = [calibration_ms()]
    k = 0
    while True:
        if elapsed() >= len(setup) * setup_every:
            sample_setup()
            cal_ms[-1] = calibration_ms()
        timings = runner.run_op(k)
        cal_ms.append(calibration_ms())
        op_ms.append(1e3 * sum(sec for _, sec in timings))
        norm_ms.append(op_ms[-1] * 2 * CAL_REF_MS / (cal_ms[-2] + cal_ms[-1]))
        for label, sec in timings:
            per_label.setdefault(label, []).append(1e3 * sec)
        work += runner.workload.work(k)
        k += 1
        if elapsed() >= args.seconds:
            break
    while len(setup) < SETUP_REPEATS:
        sample_setup()
    pct = runner.workload.tail_pct
    norm = tail_stats(norm_ms, pct)
    metrics = {
        "setup_s": statistics.median(raw * BASELINE_REF_S / base for raw, base in setup),
        "op_ms_p50_norm": norm["p50"],
        "op_ms_tail_norm": norm["tail"],
        "work_per_s_norm": work / (sum(norm_ms) / 1e3),
    }
    detail = {
        "setup_raw_s": [raw for raw, _ in setup],
        "setup_baseline_s": [base for _, base in setup],
        "op_norm": norm,
        "op_raw": tail_stats(op_ms, pct),
        "work_per_s_raw": work / (sum(op_ms) / 1e3),
        "work_unit": runner.workload.work_unit,
        "calibration_ms": tail_stats(cal_ms, pct),
        "per_call_ms_raw": {label: tail_stats(v, pct) for label, v in per_label.items()},
    }
    return metrics, detail


def traced(args, runner):
    """A fixed op list, each op run untraced and then traced.

    Pairing the two runs of an op keeps drift in machine load out of the
    tracing overhead. The traced run is serial, because spans inside
    pool workers are lost; for a pool workload each op also runs once on
    the pool first, and the pool metrics compare that with the serial run.
    """
    from tracer import Tracer

    workload = runner.workload
    n_ops = max(1, int(round(args.seconds * workload.trace_ops_per_s)))
    tracer = Tracer()
    pool_wall = serial_wall = traced_wall = 0.0
    trial_failures = 0

    def op_seconds(k, serial):
        return sum(sec for _, sec in runner.run_op(k, serial=serial))

    for k in range(n_ops):
        if workload.uses_pool:
            pool_wall += op_seconds(k, serial=False)
        serial_wall += op_seconds(k, serial=True)
        before = runner.trial_failures
        tracer.start_op(k)
        tracer.install()
        try:
            traced_wall += op_seconds(k, serial=True)
        finally:
            tracer.uninstall()
        trial_failures += runner.trial_failures - before
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.dump(os.path.join(OUT_DIR, f"trace-{workload.name}-seed{args.seed}.jsonl"))

    layer = tracer.metrics()
    if workload.uses_pool:
        workers = workload.workers(serial=False)
        layer["bench.pool_efficiency"] = (serial_wall / (workers * pool_wall), "ratio")
        layer["bench.pool_overhead_s"] = ((pool_wall - serial_wall / workers) / n_ops, "s")
    else:
        layer["bench.pool_efficiency"] = (0.0, "ratio")
        layer["bench.pool_overhead_s"] = (0.0, "s")
    layer["bench.trials_failed"] = (trial_failures, "count")
    layer["trace.ops"] = (n_ops, "count")
    layer["trace.overhead_frac"] = ((traced_wall - serial_wall) / serial_wall, "ratio")
    metrics = {name: value for name, (value, _) in layer.items()}
    detail = {
        "trace": {
            "ops": n_ops,
            "untraced_serial_s": serial_wall,
            "untraced_pool_s": pool_wall if workload.uses_pool else None,
            "traced_s": traced_wall,
            "spans": len(tracer.spans),
            "absent": tracer.absent,
        },
        "units": {name: unit for name, (_, unit) in layer.items()},
    }
    return metrics, detail


if __name__ == "__main__":
    sys.exit(main())
