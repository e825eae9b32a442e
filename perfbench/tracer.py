"""Span tracer for the traced run, installed from outside the program.

It replaces the package's public functions, at every module attribute
that holds them (so ``from ... import`` sites are covered too), and the
numpy/scipy linear-algebra entry points they call, with wrappers that
record a span ``[name, start, end, parent, op]``. Spans stay in memory
until the run ends. A wrapped name the package no longer has is listed
in ``absent``; the metrics that need it then read ``None``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

PACKAGE = "granger_mdl"

# (defining module, function) for every package function the trace times.
PACKAGE_FUNCTIONS = [
    ("cli", "main"),
    ("timeseries", "load_csv"),
    ("timeseries", "demean"),
    ("regression", "build_design"),
    ("regression", "ols_fit"),
    ("regression", "ols_order_scan"),
    ("regression", "residual_covariance"),
    ("regression", "stability_check"),
    ("selection", "code_length_from_stats"),
    ("selection", "select_order"),
    ("timedomain", "infer_network"),
    ("timedomain", "mdl_gc"),
    ("timedomain", "conditional_mdl_gc"),
    ("timedomain", "conditional_f_test_gc"),
    ("spectral", "select_var_order"),
    ("spectral", "fit_bivariate_var"),
    ("spectral", "geweke_spectrum"),
    ("bench", "simulate"),
    ("bench", "run_bench_multi"),
]

# (module object path, attribute) of the linear-algebra entry points.
LINALG_FUNCTIONS = [
    ("numpy.linalg", "qr"),
    ("numpy.linalg", "svd"),
    ("numpy.linalg", "lstsq"),
    ("numpy.linalg", "inv"),
    ("numpy.linalg", "cond"),
    ("scipy.linalg", "qr"),
    ("scipy.linalg", "solve_triangular"),
]

LAYERS = ("cli", "timeseries", "regression", "selection", "timedomain",
          "spectral", "bench", "linalg")

NAME, START, END, PARENT, OP = range(5)


def _companion_radius(a_mats) -> float:
    """Spectral radius of the VAR companion matrix, computed here, untraced."""
    k = a_mats[0].shape[0]
    p = len(a_mats)
    companion = np.zeros((k * p, k * p))
    companion[:k, :] = np.hstack([-a for a in a_mats])
    if p > 1:
        companion[k:, : k * (p - 1)] = np.eye(k * (p - 1))
    return float(np.abs(np.linalg.eigvals(companion)).max())


class Tracer:
    """Collects spans while installed; ``metrics()`` reduces them per layer."""

    def __init__(self):
        self.spans = []
        self.notes = defaultdict(Counter)  # counts derived from arguments/results
        self.scan_keys = set()
        self.absent = []
        self.op = -1
        self._stack = []
        self._patches = []
        self._keep = []  # series objects alive for the op, so their ids stay unique

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        self.absent = []
        package_modules = [
            mod for name, mod in sys.modules.items()
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        wrappers = {}  # id(original) -> wrapper, one per function
        for mod_name, attr in PACKAGE_FUNCTIONS:
            fn = getattr(sys.modules.get(f"{PACKAGE}.{mod_name}"), attr, None)
            if fn is None:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            wrappers[id(fn)] = self._wrap(f"{mod_name}.{attr}", fn)
        linalg_modules = []
        for mod_path, attr in LINALG_FUNCTIONS:
            mod = sys.modules.get(mod_path)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.absent.append(f"linalg.{mod_path.split('.')[0]}.{attr}")
                continue
            wrappers[id(fn)] = self._wrap(f"linalg.{mod_path.split('.')[0]}.{attr}", fn)
            linalg_modules.append(mod)
        for mod in {id(m): m for m in package_modules + linalg_modules}.values():
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _patch(self, mod, attr, wrapper) -> None:
        self._patches.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, wrapper)

    def start_op(self, op: int) -> None:
        self.op = op
        self._keep.clear()

    def _wrap(self, name, fn):
        spans, stack, note = self.spans, self._stack, self._note
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = clock()
                stack.pop()
                note(name, args, kwargs, None, exc)
                raise
            span[END] = clock()
            stack.pop()
            note(name, args, kwargs, result, None)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _note(self, name, args, kwargs, result, exc) -> None:
        """Counts read off a call's arguments and result, outside its span."""
        notes = self.notes
        if name == "regression.ols_order_scan":
            if type(exc).__name__ == "RankDeficiencyError":
                notes["regression"]["rank_fallbacks"] += 1
            ts, target, blocks, p_max = args[:4]
            start = args[4] if len(args) > 4 else kwargs.get("start")
            self._keep.append(ts)
            self.scan_keys.add((self.op, id(ts), int(target), tuple(blocks), p_max, start))
        elif exc is not None:
            return
        elif name == "timedomain.mdl_gc":
            notes["timedomain"]["gate_passes"] += int(result.causal)
        elif name == "spectral.geweke_spectrum":
            notes["spectral"]["freqs"] += len(result.frequencies_hz)
            bad = np.isnan(result.f_y_to_x) | np.isnan(result.f_x_to_y)
            notes["spectral"]["nan_rows"] += int(bad.sum())
        elif name == "spectral.fit_bivariate_var":
            notes["spectral"]["nonstationary_fits"] += int(
                _companion_radius(result.a_mats) >= 1.0
            )
        elif name == "timeseries.load_csv":
            notes["timeseries"]["bytes_read"] += os.path.getsize(args[0])

    # -- reducing ---------------------------------------------------------

    def _per_name(self):
        """name -> (calls, inclusive seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        calls, total, own = Counter(), Counter(), Counter()
        for idx, span in enumerate(self.spans):
            dur = span[END] - span[START]
            calls[span[NAME]] += 1
            total[span[NAME]] += dur
            own[span[NAME]] += dur - child[idx]
        return calls, total, own

    def _parent_name(self, span):
        return self.spans[span[PARENT]][NAME] if span[PARENT] >= 0 else None

    def metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}; None where absent."""
        calls, total, own = self._per_name()
        absent = set(self.absent)

        def have(*names):
            return not any(n in absent for n in names)

        def count(*names):
            return sum(calls[n] for n in names) if have(*names) else None

        def ms(*names, table=total):
            return 1e3 * sum(table[n] for n in names) if have(*names) else None

        def ratio(num, den):
            if num is None or den is None:
                return None
            return num / den if den else 0.0

        layer_self = Counter()
        for name, sec in own.items():
            layer_self[name.split(".")[0]] += sec

        scans = count("regression.ols_order_scan")
        mdl_pairs = count("timedomain.mdl_gc")
        conditional = None
        if have("timedomain.conditional_mdl_gc", "timedomain.mdl_gc",
                "timedomain.conditional_f_test_gc"):
            conditional = calls["timedomain.conditional_f_test_gc"] + sum(
                1 for s in self.spans
                if s[NAME] == "timedomain.conditional_mdl_gc"
                and self._parent_name(s) != "timedomain.mdl_gc"
            )
        notes = self.notes
        out = {
            "regression.scan_calls": (scans, "count"),
            "regression.scan_distinct_ratio": (
                ratio(len(self.scan_keys) if scans is not None else None, scans), "ratio"),
            "regression.scan_ms": (ms("regression.ols_order_scan"), "ms"),
            "regression.fit_calls": (count("regression.ols_fit"), "count"),
            "regression.fit_ms": (ms("regression.ols_fit"), "ms"),
            "regression.design_calls": (count("regression.build_design"), "count"),
            "regression.qr_calls": (count("linalg.numpy.qr", "linalg.scipy.qr"), "count"),
            "regression.svd_calls": (count("linalg.numpy.svd"), "count"),
            "regression.lstsq_calls": (count("linalg.numpy.lstsq"), "count"),
            "regression.trsolve_calls": (count("linalg.scipy.solve_triangular"), "count"),
            "regression.rank_fallbacks": (
                notes["regression"]["rank_fallbacks"] if scans is not None else None, "count"),
            "selection.code_length_calls": (count("selection.code_length_from_stats"), "count"),
            "selection.code_length_ms": (ms("selection.code_length_from_stats"), "ms"),
            "selection.select_order_calls": (count("selection.select_order"), "count"),
            "selection.select_order_ms": (ms("selection.select_order"), "ms"),
            "timedomain.infer_network_ms": (ms("timedomain.infer_network"), "ms"),
            "timedomain.pair_calls": (mdl_pairs, "count"),
            "timedomain.conditional_calls": (conditional, "count"),
            "timedomain.gate_pass_ratio": (
                ratio(notes["timedomain"]["gate_passes"] if mdl_pairs is not None else None,
                      mdl_pairs), "ratio"),
            "bench.simulate_ms": (ms("bench.simulate"), "ms"),
            "bench.simulate_calls": (count("bench.simulate"), "count"),
            "bench.reduce_ms": (ms("bench.run_bench_multi", table=own), "ms"),
            "spectral.order_ms": (ms("spectral.select_var_order"), "ms"),
            "spectral.fit_ms": (ms("spectral.fit_bivariate_var"), "ms"),
            "spectral.geweke_ms": (ms("spectral.geweke_spectrum"), "ms"),
            "spectral.freqs": (
                notes["spectral"]["freqs"] if have("spectral.geweke_spectrum") else None, "count"),
            "spectral.inv_calls": (count("linalg.numpy.inv"), "count"),
            "spectral.nan_rows": (
                notes["spectral"]["nan_rows"] if have("spectral.geweke_spectrum") else None,
                "count"),
            "spectral.nonstationary_fits": (
                notes["spectral"]["nonstationary_fits"]
                if have("spectral.fit_bivariate_var") else None, "count"),
            "timeseries.load_csv_ms": (ms("timeseries.load_csv"), "ms"),
            "timeseries.bytes_read": (
                notes["timeseries"]["bytes_read"] if have("timeseries.load_csv") else None,
                "bytes"),
            "timeseries.demean_ms": (ms("timeseries.demean"), "ms"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = (1e3 * layer_self[layer], "ms")
        return out

    def dump(self, path: str) -> None:
        """Write every span as one JSON line: name, start, end, parent, op."""
        with open(path, "w") as fh:
            for idx, span in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": idx, "name": span[NAME], "start": span[START],
                    "end": span[END], "parent": span[PARENT], "op": span[OP],
                }) + "\n")
