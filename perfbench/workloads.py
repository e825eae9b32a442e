"""The four benchmark workloads: seeded inputs, CLI calls, output checks.

Each workload turns ``--seed`` into inputs during set-up, then names the
CLI calls of op ``k``. An op is the unit one closed-loop caller waits
for: one ``mc-bench`` call, one panel analysed by both methods, or the
20 ``spectral`` calls of one panel's ordered pairs. The program only ever sees the generated files and
flags; nothing here reaches into its internals.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from typing import List, Optional, Tuple

import numpy as np

# Seed whose outputs are recorded in reference/<workload>.json. Every run,
# whatever its seed, first checks op 0 of this seed against the reference.
PINNED_SEED = 1
REL_TOL = 1e-9
ABS_TOL = 1e-12  # floor for values that are zero up to rounding
SPECTRAL_FREQS = "1:100"
SPECTRAL_RATE = "200"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def blas_env(workload_cls) -> dict:
    """Environment a workload's runs set, or {} to keep the library defaults."""
    if workload_cls.blas_threads is None:
        return {}
    return {var: str(workload_cls.blas_threads) for var in BLAS_THREAD_VARS}


def _rel_close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= max(REL_TOL * max(abs(a), abs(b)), ABS_TOL)


def simulate_var(coefficients, n_nodes, n_rows, burn_in, sds, rng) -> np.ndarray:
    """Linear network x_t[i] = noise + sum v * x_{t-lag}[s], burn-in dropped.

    The benchmark's own generator, so inputs do not depend on the
    program under test.
    """
    max_lag = max(lag for _, _, lag, _ in coefficients)
    total = n_rows + burn_in
    values = np.zeros((total, n_nodes))
    values[:max_lag] = 1.0
    noise = rng.standard_normal((total, n_nodes)) * sds
    by_lag = {}
    for t, s, lag, v in coefficients:
        by_lag.setdefault(lag, np.zeros((n_nodes, n_nodes)))[t, s] += v
    for step in range(max_lag, total):
        acc = noise[step].copy()
        for lag, mat in by_lag.items():
            acc += mat @ values[step - lag]
        values[step] = acc
    return values[burn_in:]


def write_csv(path: str, values: np.ndarray, labels) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(labels) + "\n")
        for row in values:
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")


def _round(value: float, digits: int):
    """JSON-safe float rounded to ``digits`` significant digits; NaN -> None."""
    if math.isnan(value):
        return None
    return float(f"{value:.{digits}g}")


class Workload:
    """Base class: subclasses fill in inputs, calls and output readers."""

    name = ""
    work_unit = ""
    # ops in a traced run per second of --seconds; each op also runs
    # untraced (and on the pool, for a pool workload), so this is well
    # below the untraced rate
    trace_ops_per_s = 1.0
    uses_pool = False
    # BLAS threads the run sets in its own environment (None keeps the
    # library default). The serial workloads use one: their small QR, SVD
    # and lstsq calls, run on two OpenBLAS threads on a 2-core host whose
    # other core is busy with other tenants' work, slowed by up to
    # 500x (a 290x40 QR: 18-160 ms against 0.3 ms) and made run-to-run
    # spreads exceed any usable bound.
    blas_threads: Optional[int] = 1
    n_inputs = 1
    # percentile reported as op_ms_tail, chosen so a run of the benchmark's
    # length leaves at least 10 samples beyond it
    tail_pct = 50

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.out_path = os.path.join(workdir, f"{self.name}.out")

    def setup(self, n_ops: Optional[int] = None) -> None:
        """Make the inputs of the first ``n_ops`` ops (default: all of them)."""
        raise NotImplementedError

    def calls(self, k: int, serial: bool = False) -> List[Tuple[str, List[str]]]:
        """(label, argv) pairs for op k; ``serial`` forces one worker."""
        raise NotImplementedError

    def work(self, k: int) -> int:
        return 1

    def input_key(self, k: int) -> int:
        """Ops cycle through ``n_inputs`` distinct inputs."""
        return k % self.n_inputs

    def read_output(self, label: str):
        """JSON-able summary of the output file the last call wrote."""
        raise NotImplementedError

    def check(self, label: str, got) -> Optional[str]:
        """Invariants any correct output meets, whatever the seed."""
        return None

    def failed_trials(self, got) -> int:
        """Monte Carlo trials the program reported as failed in this output."""
        return 0

    def compare(self, label: str, got, ref) -> Optional[str]:
        return None if got == ref else f"{label}: output differs from reference"

    @staticmethod
    def digest_view(got):
        return got

    @staticmethod
    def reference_view(got):
        return got


# ----------------------------------------------------------------- mc-bench

class _McBench(Workload):
    work_unit = "trials"
    network = ""
    methods = ""
    trials_per_op = 1
    n_inputs = 64

    def setup(self, n_ops=None):
        self.master_seeds = [
            int(s) for s in np.random.SeedSequence(self.seed).generate_state(self.n_inputs)
        ]

    def workers(self, serial: bool) -> int:
        return nproc() if self.uses_pool and not serial else 1

    def calls(self, k, serial=False):
        return [("mc-bench", [
            "mc-bench", "--network", self.network, "--methods", self.methods,
            "--trials", str(self.trials_per_op), "--seed", str(self.master_seeds[self.input_key(k)]),
            "--workers", str(self.workers(serial)), "--out", self.out_path,
        ])]

    def work(self, k):
        return self.trials_per_op

    def read_output(self, label):
        with open(self.out_path) as fh:
            payload = json.load(fh)
        return {
            method: {
                "per_edge_detection_counts": rep["per_edge_detection_counts"],
                "total_accuracy": rep["total_accuracy"],
                "failures": rep["failures"],
            }
            for method, rep in sorted(payload["reports"].items())
        }

    def failed_trials(self, got):
        return len({f[0] for rep in got.values() for f in rep["failures"]})

    def check(self, label, got):
        expected = sorted(tok.strip() for tok in self.methods.split(","))
        if sorted(got) != expected:
            return f"methods {sorted(got)} != {expected}"
        for method, rep in got.items():
            if rep["failures"]:
                return f"{method}: {len(rep['failures'])} failed trials"
            counts = np.asarray(rep["per_edge_detection_counts"])
            if counts.min() < 0 or counts.max() > self.trials_per_op:
                return f"{method}: detection count outside 0..{self.trials_per_op}"
            if not 0.0 <= rep["total_accuracy"] <= 1.0:
                return f"{method}: accuracy {rep['total_accuracy']} outside [0, 1]"
        return None


class Mc5Node(_McBench):
    name = "mc-5node"
    network = "5node"
    methods = "mdl,ftest:0.05"
    trials_per_op = 4
    tail_pct = 75


class Mc3NodePool(_McBench):
    name = "mc-3node-pool"
    network = "3node"
    methods = "mdl,ftest:0.05,ftest:0.01"
    trials_per_op = 16
    trace_ops_per_s = 0.3
    tail_pct = 60
    uses_pool = True
    # the library defaults, so that BLAS oversubscription in the workers,
    # and a change that picks their thread count, show here
    blas_threads = None


# ------------------------------------------------------------------ analyze

class AnalyzeWide(Workload):
    name = "analyze-wide"
    work_unit = "panels"
    trace_ops_per_s = 0.35
    tail_pct = 60
    n_vars = 12
    n_rows = 300
    n_inputs = 24

    def setup(self, n_ops=None):
        rng = np.random.default_rng(self.seed)
        labels = [f"v{i + 1}" for i in range(self.n_vars)]
        self.paths = []
        for idx in range(min(self.n_inputs, n_ops or self.n_inputs)):
            values = simulate_var(
                self._sparse_var2(rng), self.n_vars, self.n_rows, 200, 1.0, rng
            )
            path = os.path.join(self.workdir, f"panel{idx}.csv")
            write_csv(path, values, labels)
            self.paths.append(path)

    def _sparse_var2(self, rng):
        """Own AR(2) on every node and one incoming cross edge per node, stable.

        Every panel has the same number of true edges, so panels cost
        about the same to analyse and seeds differ in placement only.
        """
        nv = self.n_vars
        while True:
            coefficients = []
            for dst in range(nv):
                coefficients.append((dst, dst, 1, float(rng.uniform(0.4, 0.55))))
                coefficients.append((dst, dst, 2, -0.2))
                src = (dst + int(rng.integers(1, nv))) % nv
                lag = int(rng.integers(1, 3))
                value = float(rng.uniform(0.2, 0.4) * rng.choice([-1.0, 1.0]))
                coefficients.append((dst, src, lag, value))
            companion = np.zeros((2 * nv, 2 * nv))
            for t, s, lag, v in coefficients:
                companion[t, (lag - 1) * nv + s] += v
            companion[nv:, :nv] = np.eye(nv)
            if np.abs(np.linalg.eigvals(companion)).max() < 0.95:
                return coefficients

    def calls(self, k, serial=False):
        path = self.paths[self.input_key(k)]
        return [
            (f"analyze_{method}", ["analyze", path, "--method", method,
                                   "--out", self.out_path])
            for method in ("mdl", "ftest")
        ]

    def read_output(self, label):
        with open(self.out_path) as fh:
            payload = json.load(fh)
        return {
            "method": payload["method"],
            "edges": sorted([e["from"], e["to"], e["weight"]] for e in payload["edges"]),
        }

    def check(self, label, got):
        labels = {f"v{i + 1}" for i in range(self.n_vars)}
        for src, dst, weight in got["edges"]:
            if src not in labels or dst not in labels or src == dst:
                return f"{label}: bad edge {src}->{dst}"
            if not (math.isfinite(weight) and weight > 0):
                return f"{label}: edge {src}->{dst} weight {weight} not positive"
        return None

    def compare(self, label, got, ref):
        if got["method"] != ref["method"]:
            return f"{label}: method {got['method']} != {ref['method']}"
        got_edges = [(s, d) for s, d, _ in got["edges"]]
        ref_edges = [(s, d) for s, d, _ in ref["edges"]]
        if got_edges != ref_edges:
            return f"{label}: edges {got_edges} != reference {ref_edges}"
        for (s, d, w), (_, _, w_ref) in zip(got["edges"], ref["edges"]):
            if not _rel_close(w, w_ref):
                return f"{label}: weight {s}->{d} {w!r} != reference {w_ref!r}"
        return None

    @staticmethod
    def digest_view(got):
        return {"method": got["method"],
                "edges": [[s, d, _round(w, 8)] for s, d, w in got["edges"]]}


# ----------------------------------------------------------------- spectral

class SpectralPairs(Workload):
    """An op is one ``spectral`` call per ordered pair of one panel's nodes.

    A single call (about 12 ms) is shorter than the spells in which a
    shared host slows this process down, so per-call medians jump with
    the share of slowed calls; summing a panel's 20 calls smooths that.
    """

    name = "spectral-pairs"
    work_unit = "pairs"
    trace_ops_per_s = 1.25
    tail_pct = 75
    n_inputs = 2  # panels

    def setup(self, n_ops=None):
        from granger_mdl.bench import builtin_5node

        spec = builtin_5node()
        rng = np.random.default_rng(self.seed)
        nv = spec.n_nodes
        labels = [f"node{i + 1}" for i in range(nv)]
        self.panels = []
        for idx in range(self.n_inputs):
            sds = np.sqrt([rng.uniform(*v) for v in spec.noise_variances])
            values = simulate_var(
                spec.coefficients, nv, spec.total_len - spec.burn_in,
                spec.burn_in, sds, rng,
            )
            path = os.path.join(self.workdir, f"panel{idx}.csv")
            write_csv(path, values, labels)
            self.panels.append([(path, labels[x], labels[y])
                                for x in range(nv) for y in range(nv) if x != y])

    def calls(self, k, serial=False):
        return [
            ("spectral", ["spectral", path, "--x", x, "--y", y, "--sample-rate",
                          SPECTRAL_RATE, "--freqs", SPECTRAL_FREQS, "--out", self.out_path])
            for path, x, y in self.panels[self.input_key(k)]
        ]

    def work(self, k):
        return len(self.panels[self.input_key(k)])

    def read_output(self, label):
        cols = {"frequency_hz": [], "f_y_to_x": [], "f_x_to_y": []}
        with open(self.out_path) as fh:
            header = fh.readline().strip().split(",")
            for line in fh:
                for name, cell in zip(header, line.strip().split(",")):
                    cols[name].append(float(cell))
        return cols

    def check(self, label, got):
        lo, hi = (int(v) for v in SPECTRAL_FREQS.split(":"))
        if got["frequency_hz"] != [float(f) for f in range(lo, hi + 1)]:
            return "frequency grid differs from the requested one"
        for key in ("f_y_to_x", "f_x_to_y"):
            for value in got[key]:
                if not math.isnan(value) and not (math.isfinite(value) and value >= -ABS_TOL):
                    return f"{key} value {value} is neither NaN nor >= 0"
        return None

    def compare(self, label, got, ref):
        for key in ("f_y_to_x", "f_x_to_y"):
            ref_values = [math.nan if v is None else v for v in ref[key]]
            if len(got[key]) != len(ref_values):
                return f"{key}: {len(got[key])} rows != reference {len(ref_values)}"
            for f_hz, a, b in zip(got["frequency_hz"], got[key], ref_values):
                if not _rel_close(a, b):
                    return f"{key} at {f_hz:g} Hz: {a!r} != reference {b!r}"
        return None

    @staticmethod
    def digest_view(got):
        return {key: [_round(v, 8) for v in got[key]] for key in ("f_y_to_x", "f_x_to_y")}

    @staticmethod
    def reference_view(got):
        return {key: [_round(v, 12) for v in got[key]] for key in ("f_y_to_x", "f_x_to_y")}


WORKLOADS = {cls.name: cls for cls in (Mc5Node, Mc3NodePool, AnalyzeWide, SpectralPairs)}


def digest(summaries) -> str:
    """Short hash of outputs rounded to 8 digits, to compare two commits' runs."""
    blob = json.dumps(summaries, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
