"""Command-line front end.

Subcommands: simulate | analyze | spectral | similarity | mc-bench.
Every command is a pure function of its inputs, flags and seed; nothing
is ever seeded from the clock. Exit codes: 0 success, 2 input or
validation problem, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
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
from .timedomain import CausalGraph, _infer_network, similarity
from .timeseries import checked_value, demean as demean_ts, load_csv, save_csv

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _read_json(path: str, what: str, load=json.loads):
    """``load`` of the text of file ``path``; ``what`` names the file in errors."""
    try:
        with open(path) as fh:
            return load(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{what} {path}: invalid JSON: {exc}") from exc


# Every option a --config file may also give, keyed by the flag's dest:
# its kind (the flag's type; bool for a switch) and its built-in default.
# A flag wins, then the config; null there means the default only if None.
_SETTINGS = {
    "seed": (int, 0),
    "noise": (str, "low"),
    "method": (str, "mdl"),
    "alpha": (float, 0.05),
    "p_max": (int, 10),
    "order_criterion": (str, "AIC"),
    "demean": (bool, True),
    "order": (int, None),
    "freqs": (str, None),
    "sample_rate": (float, None),
    "trials": (int, 100),
    "methods": (str, "mdl"),
    "workers": (int, None),
}


def _setting(parser: argparse.ArgumentParser, flag: str, **kwargs) -> None:
    """Add ``flag`` for the setting named by its dest; None in args means not given."""
    dest = kwargs.setdefault("dest", flag[2:].replace("-", "_"))
    if "action" not in kwargs:
        kwargs["type"] = _SETTINGS[dest][0]
    parser.add_argument(flag, default=None, **kwargs)


def _apply_config(args: argparse.Namespace) -> None:
    """Fill each setting of the command that no flag gave from ``--config``, else its default."""
    config = {}
    if getattr(args, "config", None):
        config = _read_json(args.config, "config")
        if not isinstance(config, dict):
            raise ValidationError(f"config {args.config}: expected a JSON object")
    for key, (kind, default) in _SETTINGS.items():
        if key in vars(args) and getattr(args, key) is None:
            value = config.get(key, default)
            setattr(args, key, checked_value(value, kind, f"config {key!r}", default is None))


def _network_spec(name: str, noise: str) -> NetworkSpec:
    if name == "3node":
        return builtin_3node(noise)
    if name == "5node":
        return builtin_5node()
    return NetworkSpec.from_dict(_read_json(name, "network spec"))


def _parse_freqs(text: str) -> np.ndarray:
    """Parse '1:30,50,100' into a frequency array, in the order given.

    As in :func:`load_csv`, digit-group underscores are rejected: Python
    reads ``1_0`` as 10.
    """
    values: List[float] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" in chunk:
            lo_s, hi_s = chunk.split(":", 1)
            try:
                if "_" in chunk:
                    raise ValueError(chunk)
                lo, hi = int(lo_s), int(hi_s)
            except ValueError:
                raise ValidationError(f"bad frequency range {chunk!r}") from None
            if hi < lo:
                raise ValidationError(f"empty frequency range {chunk!r}")
            values.extend(float(v) for v in range(lo, hi + 1))
        else:
            try:
                if "_" in chunk:
                    raise ValueError(chunk)
                values.append(float(chunk))
            except ValueError:
                raise ValidationError(f"bad frequency {chunk!r}") from None
    if not values:
        raise ValidationError(f"no frequencies in {text!r}")
    return np.array(values)


def cmd_simulate(args: argparse.Namespace) -> int:
    spec = _network_spec(args.network, args.noise)
    ts = simulate(spec, args.seed)
    save_csv(ts, args.out)
    print(
        f"simulated {args.network}: {ts.n_samples} rows x {ts.n_variables} nodes "
        f"(total {spec.total_len}, burn-in {spec.burn_in}, seed {args.seed}) -> {args.out}"
    )
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    cfg = MethodConfig(args.method, args.alpha, args.p_max, args.order_criterion)
    ts = load_csv(args.input, has_header=not args.no_header)
    if args.demean:
        ts = demean_ts(ts)
    text = _infer_network(ts, cfg, {}).to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def cmd_spectral(args: argparse.Namespace) -> int:
    ts = load_csv(args.input, has_header=not args.no_header, sample_rate_hz=args.sample_rate)
    xi, yi = ts.column(args.x), ts.column(args.y)
    if args.demean:
        ts = demean_ts(ts)

    order = args.order
    if order is None:
        order = select_var_order(ts, xi, yi, args.p_max)
    model = fit_bivariate_var(ts, xi, yi, order)

    fs = ts.sample_rate_hz
    freqs = _parse_freqs(args.freqs) if args.freqs else default_frequency_grid(fs)
    result = geweke_spectrum(model, freqs, fs)
    spectral_to_csv(result, args.out)
    print(
        f"spectral causality {args.y} -> {args.x} and back at order {order}: "
        f"{len(freqs)} frequencies -> {args.out}"
    )
    return EXIT_OK


def cmd_similarity(args: argparse.Namespace) -> int:
    a, b = (_read_json(path, "graph", CausalGraph.from_json) for path in (args.graph_a, args.graph_b))
    print(f"{similarity(a, b):.6g}")
    return EXIT_OK


def cmd_mc_bench(args: argparse.Namespace) -> int:
    spec = _network_spec(args.network, args.noise)
    configs = [
        MethodConfig.parse(tok, p_max=args.p_max)
        for tok in args.methods.split(",")
        if tok.strip()
    ]
    reports = run_bench_multi(spec, configs, args.trials, args.seed, n_workers=args.workers)
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
    _setting(p_sim, "--seed")
    _setting(p_sim, "--noise", help="noise preset for 3node")
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--config", default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_an = sub.add_parser("analyze", help="infer a causal graph from a CSV")
    p_an.add_argument("input")
    _setting(p_an, "--method", choices=("mdl", "ftest"))
    _setting(p_an, "--alpha")
    _setting(p_an, "--p-max")
    _setting(p_an, "--order-criterion", choices=("AIC", "BIC", "MDL"))
    _setting(p_an, "--no-demean", dest="demean", action="store_false")
    p_an.add_argument("--no-header", action="store_true")
    p_an.add_argument("--out", default=None)
    p_an.add_argument("--config", default=None)
    p_an.set_defaults(func=cmd_analyze)

    p_sp = sub.add_parser("spectral", help="per-frequency causality for one pair")
    p_sp.add_argument("input")
    p_sp.add_argument("--x", required=True, help="target variable (name or index)")
    p_sp.add_argument("--y", required=True, help="source variable (name or index)")
    _setting(p_sp, "--order")
    _setting(p_sp, "--p-max")
    _setting(p_sp, "--freqs", help="e.g. 1:30,50,100")
    _setting(p_sp, "--sample-rate")
    _setting(p_sp, "--no-demean", dest="demean", action="store_false")
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
    _setting(p_mc, "--methods", help="comma list, e.g. mdl,ftest:0.05,ftest:0.01")
    _setting(p_mc, "--trials")
    _setting(p_mc, "--seed")
    _setting(p_mc, "--noise")
    _setting(p_mc, "--p-max")
    _setting(p_mc, "--workers",
             help="parallel workers (default GRANGER_MDL_THREADS, "
                  "0 = every CPU this process may run on)")
    p_mc.add_argument("--out", default=None)
    p_mc.add_argument("--config", default=None)
    p_mc.set_defaults(func=cmd_mc_bench)
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use.

    Parsing reads the tree and never changes it, and no default is a
    mutable object, so calls share no state through it.
    """
    return build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        _apply_config(args)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
