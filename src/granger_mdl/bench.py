"""Synthetic network generators and the seeded Monte Carlo benchmark.

Ships the two built-in benchmark networks (a 3-node chain driven by a
resonant AR(2) source and a 5-node network with a feedback pair), a
deterministic simulator for arbitrary linear networks, and a harness
that tallies per-edge detection counts and exact-recovery accuracy over
many seeded trials, optionally in parallel worker processes.
"""

from __future__ import annotations

import ctypes
import functools
import gc
import json
import math
import multiprocessing
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from .errors import DivergenceError, ValidationError
# timedomain first, so that scipy.special is imported before scipy.linalg:
# in the other order importing the package took 35-60 ms longer
from .timedomain import MethodConfig, _checked_network, _decided
from .regression import LagEngine
from .timeseries import TimeSeriesMatrix, checked_value, demean as demean_ts

__all__ = [
    "NetworkSpec",
    "MethodConfig",
    "BenchReport",
    "NOISE_PRESETS",
    "builtin_3node",
    "builtin_5node",
    "simulate",
    "true_edge_matrix",
    "run_bench_multi",
    "format_report_table",
    "worker_count",
]

DIVERGENCE_LIMIT = 1e12
STACK_LIMIT = 64  # trials in one chunk, decided as one stack, at most: bounds a chunk's memory
# total_len x n_nodes at most: simulate holds every value as a Python float
# in a list of rows, 62-152 bytes a value (10 nodes to 1), so under 1.6 GB
MAX_VALUES = 10**7

# Noise-variance presets for the 3-node network. The plain names follow
# the simulation protocol scale; the table-* names are the same ranges
# scaled by ten, matching the alternative printed description.
NOISE_PRESETS = {
    "low": (0.15, 0.35),
    "moderate": (0.25, 0.45),
    "high": (0.35, 0.55),
    "table-low": (1.5, 3.5),
    "table-moderate": (2.5, 4.5),
    "table-high": (3.5, 5.5),
}


def _entries(values, name: str, length: Optional[int] = None) -> list:
    """A spec list field's entries (``length`` of them if given), else a ValidationError naming it."""
    try:
        entries = list(values)
    except TypeError:
        entries = None
    if entries is None or length not in (None, len(entries)):
        wanted = "a list" if length is None else f"a list of {length}"
        raise ValidationError(f"{name} must be {wanted}, got {values!r}")
    return entries


def _finite(value, name: str) -> float:
    """``value`` as a finite float, else a ValidationError naming it."""
    value = checked_value(value, float, name)
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class NetworkSpec:
    """Linear stochastic network definition.

    coefficients: tuples (target, source, lag, value) with 0-based node
    indices, each lag below total_len; with no coefficients the network
    is white noise. noise_variances: per node, either a fixed positive
    number or a (low, high) range sampled uniformly once per trial.
    initial_values: per-node constants filling the pre-sample rows.

    Every field is read by :func:`~granger_mdl.timeseries.checked_value`:
    counts, node indices and lags as integers, the rest as finite numbers,
    so nothing is truncated and a bad field raises ValidationError naming it.
    """

    n_nodes: int
    coefficients: tuple
    noise_variances: tuple
    total_len: int
    burn_in: int
    initial_values: tuple

    def __init__(self, n_nodes, coefficients, noise_variances, total_len,
                 burn_in, initial_values):
        n_nodes = checked_value(n_nodes, int, "n_nodes")
        if n_nodes < 1:
            raise ValidationError("n_nodes must be >= 1")
        rows = []
        for k, row in enumerate(_entries(coefficients, "coefficients")):
            t, s, lag, v = _entries(row, f"coefficient {k}", 4)
            t, s, lag = (checked_value(x, int, f"coefficient {k} {field}")
                         for x, field in ((t, "target"), (s, "source"), (lag, "lag")))
            v = _finite(v, f"coefficient {k} value")
            if not (0 <= t < n_nodes and 0 <= s < n_nodes):
                raise ValidationError(
                    f"coefficient ({t},{s},{lag},{v}): node index out of range"
                )
            if lag < 1:
                raise ValidationError(
                    f"coefficient ({t},{s},{lag},{v}): lag must be >= 1"
                )
            rows.append((t, s, lag, v))
        coefficients = tuple(rows)
        noise_variances = tuple(
            tuple(_finite(x, f"noise variance {k}") for x in v)
            if isinstance(v, (tuple, list)) else _finite(v, f"noise variance {k}")
            for k, v in enumerate(_entries(noise_variances, "noise_variances"))
        )
        if len(noise_variances) != n_nodes:
            raise ValidationError(
                f"{len(noise_variances)} noise variances for {n_nodes} nodes"
            )
        for v in noise_variances:
            if isinstance(v, tuple):
                if len(v) != 2 or v[0] < 0 or v[1] < v[0]:
                    raise ValidationError(f"bad noise variance range {v}")
            elif v < 0:
                # zero is allowed for the deterministic limit
                raise ValidationError(f"noise variance must be nonnegative, got {v}")
        total_len = checked_value(total_len, int, "total_len")
        burn_in = checked_value(burn_in, int, "burn_in")
        if total_len < 1:
            raise ValidationError("total_len must be >= 1")
        if total_len * n_nodes > MAX_VALUES:
            raise ValidationError(
                f"total_len x n_nodes is {total_len * n_nodes}, above the {MAX_VALUES} values a simulation may hold"
            )
        if not 0 <= burn_in < total_len:
            raise ValidationError(
                f"burn_in {burn_in} must satisfy 0 <= burn_in < total_len {total_len}"
            )
        for t, s, lag, v in coefficients:
            if lag >= total_len:
                raise ValidationError(f"coefficient ({t},{s},{lag},{v}): lag must be below total_len {total_len}")
        initial_values = tuple(
            _finite(x, f"initial value {k}")
            for k, x in enumerate(_entries(initial_values, "initial_values"))
        )
        if len(initial_values) != n_nodes:
            raise ValidationError(
                f"{len(initial_values)} initial values for {n_nodes} nodes"
            )
        object.__setattr__(self, "n_nodes", n_nodes)
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "noise_variances", noise_variances)
        object.__setattr__(self, "total_len", total_len)
        object.__setattr__(self, "burn_in", burn_in)
        object.__setattr__(self, "initial_values", initial_values)

    @property
    def max_lag(self) -> int:
        return max((lag for _, _, lag, _ in self.coefficients), default=0)

    def to_dict(self) -> dict:
        return {
            "n_nodes": self.n_nodes,
            "coefficients": [list(c) for c in self.coefficients],
            "noise_variances": [
                list(v) if isinstance(v, tuple) else v for v in self.noise_variances
            ],
            "total_len": self.total_len,
            "burn_in": self.burn_in,
            "initial_values": list(self.initial_values),
        }

    @staticmethod
    def from_dict(payload: dict) -> "NetworkSpec":
        if not isinstance(payload, dict):
            raise ValidationError("network spec: expected a JSON object")
        required = (
            "n_nodes", "coefficients", "noise_variances",
            "total_len", "burn_in", "initial_values",
        )
        for key in required:
            if key not in payload:
                raise ValidationError(f"network spec: missing field {key!r}")
        unknown = set(payload) - set(required)
        if unknown:
            raise ValidationError(f"network spec: unknown fields {sorted(unknown)}")
        return NetworkSpec(**{k: payload[k] for k in required})


def builtin_3node(noise: str = "low") -> NetworkSpec:
    """3-node benchmark: node 0 is a resonant AR(2) driving nodes 1 and 2."""
    if noise not in NOISE_PRESETS:
        raise ValidationError(
            f"unknown noise preset {noise!r}; have {sorted(NOISE_PRESETS)}"
        )
    rng = NOISE_PRESETS[noise]
    coefficients = [
        (0, 0, 1, 1.5), (0, 0, 2, -0.9),
        (1, 0, 1, 0.8), (1, 1, 1, 0.2),
        (2, 0, 1, -0.8), (2, 2, 1, 0.4),
    ]
    return NetworkSpec(
        n_nodes=3,
        coefficients=coefficients,
        noise_variances=[rng, rng, rng],
        total_len=1000,
        burn_in=700,
        initial_values=[1.0, 1.0, 1.0],
    )


def builtin_5node() -> NetworkSpec:
    """5-node benchmark with a chain, a hub node, and a 3<->4 feedback pair."""
    coefficients = [
        (0, 0, 1, 0.792), (0, 0, 2, -0.278),
        (1, 1, 1, 0.768), (1, 1, 2, -0.503), (1, 0, 1, 0.83), (1, 0, 2, -0.32),
        (2, 2, 1, 0.67), (2, 2, 2, -0.312), (2, 1, 1, 0.56), (2, 1, 2, -0.42),
        (3, 3, 1, 0.733), (3, 3, 2, -0.27), (3, 1, 1, 0.72), (3, 1, 2, -0.27),
        (3, 2, 1, 0.52), (3, 2, 2, -0.456), (3, 4, 1, 0.76), (3, 4, 2, -0.33),
        (4, 4, 1, 0.845), (4, 4, 2, -0.24), (4, 3, 1, 0.68), (4, 3, 2, -0.254),
    ]
    rng = (0.15, 0.3)
    return NetworkSpec(
        n_nodes=5,
        coefficients=coefficients,
        noise_variances=[rng] * 5,
        total_len=1000,
        burn_in=700,
        initial_values=[1.0] * 5,
    )


def _checked_seed(seed, name: str) -> int:
    """``seed`` as an integer >= 0, else a ValidationError naming it (numpy seeds no negative number)."""
    seed = checked_value(seed, int, name)
    if seed < 0:
        raise ValidationError(f"{name} must be >= 0, got {seed}")
    return seed


def simulate(spec: NetworkSpec, seed: int) -> TimeSeriesMatrix:
    """Run the network's difference equations with Gaussian noise.

    Per-node noise variances given as ranges are drawn once for the
    trial; the pre-sample rows hold the node's initial value; the first
    ``burn_in`` rows are dropped. Identical seeds give bit-identical
    output. A value exceeding 1e12 in magnitude, or NaN, aborts with a
    divergence error naming the node and step. The steps run in a
    function compiled once per network structure (:func:`_recursion`).
    """
    rng = np.random.default_rng(_checked_seed(seed, "seed"))
    variances = np.array(
        [
            rng.uniform(v[0], v[1]) if isinstance(v, tuple) else v
            for v in spec.noise_variances
        ]
    )
    sds = np.sqrt(variances)
    n, k = spec.total_len, spec.n_nodes
    start = spec.max_lag
    noise = rng.standard_normal((n, k)) * sds
    noise[:start] = spec.initial_values
    # the recursion runs on Python floats (IEEE doubles, so each sum is
    # bit-identical to numpy's)
    values = noise.tolist()
    steps = _recursion(k, tuple(row[:3] for row in spec.coefficients))
    steps(values, start, n, DIVERGENCE_LIMIT, *(row[3] for row in spec.coefficients))
    labels = [f"node{i + 1}" for i in range(k)]
    return TimeSeriesMatrix(np.array(values[spec.burn_in:]), labels)


@functools.lru_cache(maxsize=32)
def _recursion(n_nodes: int, terms: tuple):
    """The steps over rows ``start..stop - 1`` of a list of rows, for (target, source, lag) ``terms``.

    Built on first use per network structure. Each step is straight-line
    code: node i's value is row t's noise plus c_j times the lagged source
    for each of its terms in order, summed left to right, then checked
    against ``limit`` (NaN fails). Lagged values are locals
    ``x<source>_<lag>``, rotated after the step. The source text holds
    identifiers and integer indices only; the limit and the c_j are
    arguments (as keys, 0.0 == -0.0).
    """
    depth = {s: max(lag for _, s_, lag in terms if s_ == s) for _, s, _ in terms}
    lines = [f"def step(values, start, stop, limit, {', '.join(f'c{j}' for j in range(len(terms)))}):"]
    lines += [f"    x{s}_{lag} = values[start - {lag}][{s}]" for s in depth for lag in range(1, depth[s] + 1)]
    lines += ["    for t in range(start, stop):", "        row = values[t]"]
    for i in range(n_nodes):
        sum_ = "".join(f" + c{j} * x{s}_{lag}" for j, (t, s, lag) in enumerate(terms) if t == i)
        lines += [f"        a{i} = row[{i}]{sum_}", f"        if not abs(a{i}) <= limit: raise _diverged({i}, t, a{i})"]
    lines.append(f"        values[t] = [{', '.join(f'a{i}' for i in range(n_nodes))}]")
    for s in depth:
        lines += [f"        x{s}_{lag} = x{s}_{lag - 1}" for lag in range(depth[s], 1, -1)] + [f"        x{s}_1 = a{s}"]
    namespace = {"_diverged": _diverged}
    exec(compile("\n".join(lines), f"<recursion over {n_nodes} nodes>", "exec"), namespace)
    return namespace["step"]


def _diverged(node: int, step: int, value: float) -> DivergenceError:
    return DivergenceError(f"trajectory diverged at node {node}, step {step}: |{value:.3e}|", node=node, step=step)


def true_edge_matrix(spec: NetworkSpec) -> np.ndarray:
    """Boolean matrix of the generator's cross edges, entry [j, i] = j -> i."""
    truth = np.zeros((spec.n_nodes, spec.n_nodes), dtype=bool)
    for t, s, _, v in spec.coefficients:
        if t != s and v != 0.0:
            truth[s, t] = True
    return truth


@dataclass(frozen=True)
class BenchReport:
    """Monte Carlo tallies for one method on one network."""

    method: str
    params: dict
    n_trials: int
    master_seed: int
    labels: tuple
    true_edges: tuple
    per_edge_detection_counts: np.ndarray
    per_node_accuracy: tuple
    total_accuracy: float
    failures: tuple

    def to_json(self) -> str:
        payload = {
            "method": self.method,
            "params": self.params,
            "n_trials": self.n_trials,
            "master_seed": self.master_seed,
            "nodes": list(self.labels),
            "true_edges": [list(e) for e in self.true_edges],
            "per_edge_detection_counts": self.per_edge_detection_counts.tolist(),
            "per_node_accuracy": list(self.per_node_accuracy),
            "total_accuracy": self.total_accuracy,
            "failures": [list(f) for f in self.failures],
        }
        return json.dumps(payload, sort_keys=True, indent=2)


def worker_count(requested: Optional[int] = None) -> int:
    """Resolve the worker count: the argument, else 1 (serial).

    A value of 0 means every CPU this process may run on.
    """
    if requested is None:
        return 1
    requested = checked_value(requested, int, "worker count")
    if requested < 0:
        raise ValidationError("worker count must be >= 0")
    if requested == 0:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    return requested


def child_seeds(master_seed: int, n_trials: int) -> np.ndarray:
    """Deterministic, order-independent per-trial seeds from one master seed."""
    return np.random.SeedSequence(master_seed).generate_state(n_trials, np.uint64)


# (get, set) thread-count entry points; numpy's and scipy's wheels rename them
_OPENBLAS_THREAD_CALLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.lru_cache(maxsize=1)
def _loaded_openblas() -> tuple:
    """(get, set) thread-count calls of every OpenBLAS this process had loaded at its first call.

    The libraries are found in the process's memory map, so none are
    found where there is no ``/proc``, and opened with ``RTLD_NOLOAD``,
    so nothing new is loaded. They are found once: importing this module
    loads numpy and ``scipy.linalg``, and with them every OpenBLAS that a
    trial calls, while reading the map took 0.5-0.6 ms, which every run,
    a serial one included, would pay.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({
                line.split(None, 5)[5].strip() for line in fh if "openblas" in line
            })
    except OSError:
        return ()
    calls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_CALLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = (), ctypes.c_int
                set_.argtypes, set_.restype = (ctypes.c_int,), None
                calls.append((get, set_))
                break
    return tuple(calls)


def _pool_context():
    """The ``fork`` context on Linux, so workers inherit :func:`_one_blas_thread`; else the default.

    Named rather than left to the interpreter's default, which is
    ``forkserver`` on Linux from Python 3.14: a server process loads
    OpenBLAS afresh at the library default. Elsewhere no OpenBLAS is
    found, so there is nothing to inherit.
    """
    return multiprocessing.get_context("fork" if sys.platform.startswith("linux") else None)


@contextmanager
def _one_blas_thread():
    """Hold every loaded OpenBLAS at one thread, then restore each count.

    :func:`run_bench_multi` decides its own share of the trials inside
    this block, and forks its workers inside it (:func:`_pool_context`),
    so every process of a run has one BLAS thread and none oversubscribes
    the cores. Setting the count in each child after the fork is not
    enough: in a forked child the setter first starts OpenBLAS's thread
    pool at the inherited count, leaving one spinning thread per library
    in every worker. With 16 three-node trials an op and 2 workers on
    2 cores, the op median was 178-268 ms with the library default,
    117-131 ms with the setter in each worker and 46 ms with this block,
    the same as ``OPENBLAS_NUM_THREADS=1`` for the whole process.
    """
    calls = _loaded_openblas()
    saved = [get() for get, _ in calls]
    for _, set_ in calls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(calls, saved):
            set_(count)


def _run_chunk(args):
    """(adjacencies, None) or (None, error text) for each trial of a chunk, in order.

    Each trial is simulated, demeaned and checked on its own, and a trial
    that fails there is recorded. The others are decided together: one
    stacked :class:`LagEngine` per p_max serves every config, and a
    trial's error is the first one that its configs, in order, meet (see
    :func:`~granger_mdl.timedomain._decided`).
    """
    spec, configs, seeds, apply_demean = args
    series, out = [], []
    for seed in seeds:
        try:
            ts = simulate(spec, int(seed))
            if apply_demean:
                ts = demean_ts(ts)
            _checked_network(ts)
            series.append(ts)
            out.append(None)
        except Exception as exc:  # recorded per trial, never dropped silently
            out.append((None, _failure_text(exc)))
    if not series:
        return out
    adjacency = np.zeros((len(series), len(configs), spec.n_nodes, spec.n_nodes), dtype=bool)
    errors, engines = [None] * len(series), {}
    for c, cfg in enumerate(configs):
        if cfg.p_max not in engines:
            engines[cfg.p_max] = LagEngine(series, cfg.p_max)
        adjacency[:, c], _, config_errors = _decided(engines[cfg.p_max], cfg)
        errors = [error if error is not None else new for error, new in zip(errors, config_errors)]
    decided = iter(zip(adjacency, errors))
    for index, trial in enumerate(out):
        if trial is None:
            graphs, error = next(decided)
            out[index] = (graphs, None) if error is None else (None, _failure_text(error))
    return out


def _run_share(send, tasks):
    """A pool worker: send each chunk's :func:`_run_chunk` results, in order, or the exception met.

    The worker first freezes the heap it inherits, so its collections
    never walk, and so never copy, the caller's pages. The caller freezes
    nothing: on CPython 3.11 gc.freeze() leaves gc.get_count() at
    (0, 0, 0), and a caller that froze on every call never reached a full
    collection and grew by 28 tracked objects a call.
    """
    gc.freeze()
    try:
        chunks = [_run_chunk(task) for task in tasks]
    except Exception as exc:
        chunks = exc
    send.send(chunks)


def _received(proc, receive) -> list:
    """The chunks that worker ``proc`` sent down ``receive``; raises what it met, or names its exit code."""
    try:
        chunks = receive.recv()
    except EOFError:
        proc.join()
        raise RuntimeError(f"a Monte Carlo worker exited with code {proc.exitcode} before sending its trials") from None
    if isinstance(chunks, Exception):
        raise chunks
    return chunks


def _failure_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_bench_multi(
    spec: NetworkSpec,
    configs: Sequence[MethodConfig],
    n_trials: int,
    master_seed: int,
    n_workers: Optional[int] = None,
    demean: bool = True,
) -> Dict[str, BenchReport]:
    """Benchmark several methods on the same simulated trials.

    Every method sees the identical per-trial series, so the reported
    accuracies are directly comparable. The trials are split into one
    equal, contiguous share per worker. The caller decides the first
    share itself, and forked workers decide the others; every process
    runs one BLAS thread (:func:`_one_blas_thread`). The reduction runs in
    trial order, making the reports byte-identical for any worker count.
    Trials that raise are recorded in the report's failures and count
    against every accuracy; they are never silently dropped. A p_max that
    no window (``total_len - burn_in`` rows) fits raises before any trial.
    An exception in any share, or a worker that dies (the error names
    its exit code), stops every worker before the call returns.
    """
    n_trials = checked_value(n_trials, int, "n_trials")
    master_seed = _checked_seed(master_seed, "master_seed")
    if n_trials < 1:
        raise ValidationError("n_trials must be >= 1")
    if not configs:
        raise ValidationError("need at least one method config")
    if len(set(cfg.label for cfg in configs)) != len(configs):
        raise ValidationError("duplicate method configs")
    window = spec.total_len - spec.burn_in
    for cfg in configs:
        if window <= cfg.p_max:
            raise ValidationError(f"series of length {window} too short for orders up to {cfg.p_max}")

    seeds = child_seeds(master_seed, n_trials)
    workers = worker_count(n_workers)
    # Each chunk is one stack. The fewest stacks of at most STACK_LIMIT trials
    # that give every worker the same number, as contiguous chunks whose sizes
    # differ by at most one (the larger first).
    n_chunks = min(n_trials, workers * -(-n_trials // (workers * STACK_LIMIT)))
    tasks = [(spec, tuple(configs), chunk, demean) for chunk in np.array_split(seeds, n_chunks)]
    # n_chunks is a multiple of pool_size, so the shares are equal and contiguous;
    # the caller decides the first, and a serial run is the one share
    pool_size = min(workers, len(tasks))
    per_share = len(tasks) // pool_size
    shares = [tasks[i:i + per_share] for i in range(0, len(tasks), per_share)]
    _recursion(spec.n_nodes, tuple(row[:3] for row in spec.coefficients))  # before the fork: workers inherit it
    context, procs = _pool_context(), []
    with _one_blas_thread():
        try:
            for share in shares[1:]:
                receive, send = context.Pipe(duplex=False)
                proc = context.Process(target=_run_share, args=(send, share), daemon=True)
                proc.start()
                procs.append((proc, receive))
                send.close()
            chunks = [_run_chunk(task) for task in shares[0]]
            for proc, receive in procs:
                chunks += _received(proc, receive)
        except BaseException:
            for proc, _ in procs:
                proc.terminate()
            raise
        finally:
            for proc, receive in procs:
                proc.join()
                receive.close()
    results = [trial for chunk in chunks for trial in chunk]

    truth = true_edge_matrix(spec)
    nv = spec.n_nodes
    failures = tuple((t_idx, err) for t_idx, (_, err) in enumerate(results) if err is not None)
    # (successful trials, configs, nv, nv); zero rows when every trial failed
    adj = np.array(
        [graphs for graphs, err in results if err is None], dtype=bool
    ).reshape(-1, len(configs), nv, nv)
    wrong = adj != truth
    counts = adj.sum(0)
    exact = (~wrong.any((2, 3))).sum(0)
    # a node is right when every edge into and out of it is
    node_hits = (~(wrong.any(3) | wrong.any(2))).sum(0)
    node_labels = tuple(f"node{i + 1}" for i in range(nv))
    true_edges = tuple((int(j), int(i)) for j, i in np.argwhere(truth))
    return {
        cfg.label: BenchReport(
            method=cfg.label,
            params=cfg.params,
            n_trials=n_trials,
            master_seed=int(master_seed),
            labels=node_labels,
            true_edges=true_edges,
            per_edge_detection_counts=counts[c_idx],
            per_node_accuracy=tuple(float(h) / n_trials for h in node_hits[c_idx]),
            total_accuracy=int(exact[c_idx]) / n_trials,
            failures=failures,
        )
        for c_idx, cfg in enumerate(configs)
    }


def format_report_table(reports: Dict[str, BenchReport]) -> str:
    """Plain-text table: accuracy per node and total, then per-edge counts."""
    if not reports:
        return ""
    first = next(iter(reports.values()))
    nv = len(first.labels)
    lines = []
    header = ["method".ljust(14)] + [f"node{i + 1}" for i in range(nv)] + ["total"]
    lines.append("  ".join(h.rjust(8) if i else h for i, h in enumerate(header)))
    for label, rep in reports.items():
        row = [label.ljust(14)]
        row += [f"{100 * a:.1f}".rjust(8) for a in rep.per_node_accuracy]
        row.append(f"{100 * rep.total_accuracy:.1f}".rjust(8))
        lines.append("  ".join(row))
    lines.append("")
    truth = {tuple(e) for e in first.true_edges}
    all_edges = [
        (j, i) for j in range(nv) for i in range(nv) if i != j
    ]
    lines.append("per-edge detections (k/n):")
    for kind, keep in (("true", True), ("false", False)):
        lines.append(f"  {kind} edges:")
        for j, i in all_edges:
            if ((j, i) in truth) != keep:
                continue
            cells = []
            for label, rep in reports.items():
                cells.append(
                    f"{label}={rep.per_edge_detection_counts[j, i]}/{rep.n_trials}"
                )
            lines.append(
                f"    {first.labels[j]} -> {first.labels[i]}: " + "  ".join(cells)
            )
    failed = {label: len(rep.failures) for label, rep in reports.items() if rep.failures}
    if failed:
        lines.append(f"  failed trials: {failed}")
    return "\n".join(lines) + "\n"
