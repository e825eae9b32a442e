"""Command-line front end.

Subcommands: simulate | analyze | spectral | similarity | mc-bench.
Every command is a pure function of its inputs, flags and seed; nothing
is ever seeded from the clock. Exit codes: 0 success, 2 input or
validation problem, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

import numpy as np

from .bench import (
    MethodConfig,
    NetworkSpec,
    builtin_3node,
    builtin_5node,
    format_report_table,
    run_bench_multi,
    simulate,
)
from .errors import NumericalError, ValidationError
from .spectral import (
    default_frequency_grid,
    fit_bivariate_var,
    geweke_spectrum,
    select_var_order,
    spectral_to_csv,
)
from .timedomain import CausalGraph, infer_network, similarity
from .timeseries import demean as demean_ts, load_csv, save_csv

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _load_config(path: Optional[str]) -> dict:
    if not path:
        return {}
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {path}: invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValidationError(f"config {path}: expected a JSON object")
    return payload


def _merged(args: argparse.Namespace, config: dict, key: str, fallback):
    """Flag value if given, else config value, else the built-in default."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        return config[key]
    return fallback


def _merged_number(args: argparse.Namespace, config: dict, key: str, fallback, kind):
    """:func:`_merged` converted by ``kind`` (int or float).

    Flags are converted by argparse, so a bad value here comes from the
    config file, and the error names its key. A null is taken as unset
    only for keys whose default is None; elsewhere it is an error, so no
    seed or count is ever silently left out. Booleans, and for int keys
    floats that are not whole numbers, are errors too, not truncated.
    """
    value = _merged(args, config, key, fallback)
    if value is None and fallback is None:
        return None
    wanted = "an integer" if kind is int else "a number"
    bad = ValidationError(f"config {key!r} must be {wanted}, got {value!r}")
    if value is None or isinstance(value, bool):
        raise bad
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise bad
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise bad from None


def _merged_text(args: argparse.Namespace, config: dict, key: str, fallback):
    """:func:`_merged` for a text key, whose config value must be a JSON string.

    A null is taken as unset only for keys whose default is None.
    """
    value = _merged(args, config, key, fallback)
    if value is None and fallback is None:
        return None
    if not isinstance(value, str):
        raise ValidationError(f"config {key!r} must be a string, got {value!r}")
    return value


def _demean_wanted(args: argparse.Namespace, config: dict) -> bool:
    """Whether to demean: not under --no-demean, else config ``demean``, a JSON boolean."""
    value = config.get("demean", True)
    if not isinstance(value, bool):
        raise ValidationError(f"config 'demean' must be true or false, got {value!r}")
    return value and not args.no_demean


def _network_spec(name: str, noise: str) -> NetworkSpec:
    if name == "3node":
        return builtin_3node(noise)
    if name == "5node":
        return builtin_5node()
    try:
        with open(name) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read network spec {name}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"network spec {name}: invalid JSON: {exc}") from exc
    return NetworkSpec.from_dict(payload)


def _parse_freqs(text: str) -> np.ndarray:
    """Parse '1:30,50,100' into a sorted frequency array."""
    values: List[float] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" in chunk:
            lo_s, hi_s = chunk.split(":", 1)
            try:
                lo, hi = int(lo_s), int(hi_s)
            except ValueError:
                raise ValidationError(f"bad frequency range {chunk!r}") from None
            if hi < lo:
                raise ValidationError(f"empty frequency range {chunk!r}")
            values.extend(float(v) for v in range(lo, hi + 1))
        else:
            try:
                values.append(float(chunk))
            except ValueError:
                raise ValidationError(f"bad frequency {chunk!r}") from None
    if not values:
        raise ValidationError(f"no frequencies in {text!r}")
    return np.array(values)


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    seed = _merged_number(args, config, "seed", 0, int)
    noise = _merged_text(args, config, "noise", "low")
    spec = _network_spec(args.network, noise)
    ts = simulate(spec, seed)
    save_csv(ts, args.out)
    print(
        f"simulated {args.network}: {ts.n_samples} rows x {ts.n_variables} nodes "
        f"(total {spec.total_len}, burn-in {spec.burn_in}, seed {seed}) -> {args.out}"
    )
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    cfg = MethodConfig(
        method=_merged_text(args, config, "method", "mdl"),
        alpha=_merged_number(args, config, "alpha", 0.05, float),
        p_max=_merged_number(args, config, "p_max", 10, int),
        order_criterion=_merged_text(args, config, "order_criterion", "AIC"),
    )
    apply_demean = _demean_wanted(args, config)

    ts = load_csv(args.input, has_header=not args.no_header)
    if apply_demean:
        ts = demean_ts(ts)
    graph = infer_network(
        ts, method=cfg.method, p_max=cfg.p_max, alpha=cfg.alpha,
        order_criterion=cfg.order_criterion,
    )
    text = graph.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def cmd_spectral(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    p_max = _merged_number(args, config, "p_max", 10, int)
    sample_rate = _merged_number(args, config, "sample_rate", None, float)
    order = _merged_number(args, config, "order", None, int)
    freqs_text = _merged_text(args, config, "freqs", None)
    apply_demean = _demean_wanted(args, config)

    ts = load_csv(args.input, has_header=not args.no_header, sample_rate_hz=sample_rate)
    xi, yi = ts.column(args.x), ts.column(args.y)
    if apply_demean:
        ts = demean_ts(ts)

    if order is None:
        order = select_var_order(ts, xi, yi, p_max)
    model = fit_bivariate_var(ts, xi, yi, order)

    fs = ts.sample_rate_hz
    freqs = _parse_freqs(freqs_text) if freqs_text else default_frequency_grid(fs)
    result = geweke_spectrum(model, freqs, fs)
    spectral_to_csv(result, args.out)
    print(
        f"spectral causality {args.y} -> {args.x} and back at order {order}: "
        f"{len(freqs)} frequencies -> {args.out}"
    )
    return EXIT_OK


def cmd_similarity(args: argparse.Namespace) -> int:
    graphs = []
    for path in (args.graph_a, args.graph_b):
        try:
            with open(path) as fh:
                graphs.append(CausalGraph.from_json(fh.read()))
        except OSError as exc:
            raise ValidationError(f"cannot read graph {path}: {exc}") from exc
    print(f"{similarity(graphs[0], graphs[1]):.6g}")
    return EXIT_OK


def cmd_mc_bench(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    trials = _merged_number(args, config, "trials", 100, int)
    seed = _merged_number(args, config, "seed", 0, int)
    noise = _merged_text(args, config, "noise", "low")
    p_max = _merged_number(args, config, "p_max", 10, int)
    methods_text = _merged_text(args, config, "methods", "mdl")
    workers = _merged_number(args, config, "workers", None, int)

    spec = _network_spec(args.network, noise)
    configs = [
        MethodConfig.parse(tok, p_max=p_max)
        for tok in methods_text.split(",")
        if tok.strip()
    ]
    reports = run_bench_multi(spec, configs, trials, seed, n_workers=workers)
    sys.stdout.write(format_report_table(reports))
    if args.out:
        payload = {
            "network": args.network,
            "reports": {label: json.loads(rep.to_json()) for label, rep in reports.items()},
        }
        with open(args.out, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="granger-mdl",
        description=(
            "Granger causality analysis with a unified code-length criterion "
            "next to the conventional two-stage pipeline."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a benchmark network CSV")
    p_sim.add_argument("--network", required=True,
                       help="3node, 5node, or a network-spec JSON file")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--noise", default=None, help="noise preset for 3node")
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--config", default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_an = sub.add_parser("analyze", help="infer a causal graph from a CSV")
    p_an.add_argument("input")
    p_an.add_argument("--method", choices=("mdl", "ftest"), default=None)
    p_an.add_argument("--alpha", type=float, default=None)
    p_an.add_argument("--p-max", dest="p_max", type=int, default=None)
    p_an.add_argument("--order-criterion", dest="order_criterion", default=None,
                      choices=("AIC", "BIC", "MDL"))
    p_an.add_argument("--no-demean", action="store_true")
    p_an.add_argument("--no-header", action="store_true")
    p_an.add_argument("--out", default=None)
    p_an.add_argument("--config", default=None)
    p_an.set_defaults(func=cmd_analyze)

    p_sp = sub.add_parser("spectral", help="per-frequency causality for one pair")
    p_sp.add_argument("input")
    p_sp.add_argument("--x", required=True, help="target variable (name or index)")
    p_sp.add_argument("--y", required=True, help="source variable (name or index)")
    p_sp.add_argument("--order", type=int, default=None)
    p_sp.add_argument("--p-max", dest="p_max", type=int, default=None)
    p_sp.add_argument("--freqs", default=None, help="e.g. 1:30,50,100")
    p_sp.add_argument("--sample-rate", dest="sample_rate", type=float, default=None)
    p_sp.add_argument("--no-demean", action="store_true")
    p_sp.add_argument("--no-header", action="store_true")
    p_sp.add_argument("--out", required=True)
    p_sp.add_argument("--config", default=None)
    p_sp.set_defaults(func=cmd_spectral)

    p_si = sub.add_parser("similarity", help="Jaccard similarity of two graph JSONs")
    p_si.add_argument("graph_a")
    p_si.add_argument("graph_b")
    p_si.set_defaults(func=cmd_similarity)

    p_mc = sub.add_parser("mc-bench", help="seeded Monte Carlo benchmark")
    p_mc.add_argument("--network", required=True)
    p_mc.add_argument("--methods", default=None,
                      help="comma list, e.g. mdl,ftest:0.05,ftest:0.01")
    p_mc.add_argument("--trials", type=int, default=None)
    p_mc.add_argument("--seed", type=int, default=None)
    p_mc.add_argument("--noise", default=None)
    p_mc.add_argument("--p-max", dest="p_max", type=int, default=None)
    p_mc.add_argument("--workers", type=int, default=None,
                      help="parallel workers (default GRANGER_MDL_THREADS, "
                           "0 = every CPU this process may run on)")
    p_mc.add_argument("--out", default=None)
    p_mc.add_argument("--config", default=None)
    p_mc.set_defaults(func=cmd_mc_bench)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
