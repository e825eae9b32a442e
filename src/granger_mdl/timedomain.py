"""Time-domain causality: conventional F-test GCA and code-length GCA.

Both methods compare a restricted autoregression of the target against
an unrestricted one that adds the candidate source's history. The
F-test path judges the extra sum of squares against an F distribution
at a significance level; the code-length path compares the best
two-part description length of each model family and calls the source
causal when it shortens the description.

`infer_network` assembles a directed graph over all variables. The
code-length method keeps an edge when both the pairwise comparison and
the conditional comparison (given every remaining variable) are
positive. The F-test method tests each edge conditionally on all
remaining variables, which is the conventional multivariate pipeline.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.special import betainc

from .errors import ValidationError
from .regression import LagEngine
from .selection import CRITERIA, CodeLength, _scores, _search_order
from .timeseries import TimeSeriesMatrix, checked_value, distinct_columns

__all__ = [
    "FTestResult",
    "MdlCausality",
    "JointMdlCausality",
    "CausalGraph",
    "MethodConfig",
    "f_cdf",
    "f_test_gc",
    "conditional_f_test_gc",
    "log_variance_ratio",
    "mdl_gc",
    "conditional_mdl_gc",
    "joint_mdl_gc",
    "infer_network",
    "similarity",
]


# Every accepted spelling of a method name (any case, surrounding space
# stripped) and the canonical name it stands for.
_METHOD_ALIASES = {"mdl": "mdl", "ftest": "ftest", "f_test": "ftest", "f-test": "ftest", "f": "ftest"}


@dataclass(frozen=True)
class MethodConfig:
    """One analysis method and its parameters, validated when built.

    ``method`` is normalised through ``_METHOD_ALIASES`` to ``"mdl"`` or
    ``"ftest"`` and ``order_criterion`` to upper case; ``alpha`` and ``p_max``
    are read by :func:`~granger_mdl.timeseries.checked_value`. A bad method, an
    ``alpha`` outside (0, 1), ``p_max < 1`` or a criterion outside
    :data:`~granger_mdl.selection.CRITERIA` raises ValidationError.
    ``alpha`` and ``order_criterion`` only affect the F-test method.
    """

    method: str
    alpha: float = 0.05
    p_max: int = 10
    order_criterion: str = "AIC"

    def __post_init__(self):
        method = _METHOD_ALIASES.get(str(self.method).strip().lower())
        if method is None:
            raise ValidationError(
                f"unknown method {self.method!r}; use one of {sorted(_METHOD_ALIASES)} (any case)"
            )
        alpha = _checked_alpha(self.alpha)
        p_max = checked_value(self.p_max, int, "p_max")
        if p_max < 1:
            raise ValidationError(f"p_max must be >= 1, got {p_max}")
        criterion = str(self.order_criterion).upper()
        if criterion not in CRITERIA:
            raise ValidationError(
                f"unknown order criterion {self.order_criterion!r}; pick one of {CRITERIA}"
            )
        object.__setattr__(self, "method", method)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "p_max", p_max)
        object.__setattr__(self, "order_criterion", criterion)

    @property
    def label(self) -> str:
        """``mdl`` or ``ftest:<alpha>`` with alpha's shortest exact repr; :meth:`parse` reads it back."""
        if self.method == "ftest":
            return f"ftest:{self.alpha}"
        return self.method

    @property
    def tag(self) -> str:
        """The graph JSON's method name: ``MDL`` or ``F_TEST``."""
        return "MDL" if self.method == "mdl" else "F_TEST"

    @property
    def params(self) -> dict:
        """The parameters the method reads, as recorded in graphs and reports."""
        params = {"p_max": self.p_max}
        if self.method == "ftest":
            params["alpha"] = self.alpha
            params["order_criterion"] = self.order_criterion
        return params

    @staticmethod
    def parse(text: str, p_max: int = 10) -> "MethodConfig":
        """Parse ``<method>`` or ``<f-test method>:<alpha>`` (alpha defaults to 0.05)."""
        name, colon, param = str(text).partition(":")
        cfg = MethodConfig(name, p_max=p_max)
        if not colon:
            return cfg
        if cfg.method == "mdl":
            raise ValidationError(f"mdl takes no parameter, got {text!r}")
        try:
            alpha = float(param)
        except ValueError:
            raise ValidationError(f"bad alpha in {text!r}") from None
        return replace(cfg, alpha=alpha)


@dataclass(frozen=True)
class FTestResult:
    """Outcome of one hierarchical F comparison."""

    f_value: float
    dof: Tuple[int, int]
    p_value: float
    significant: bool
    rss_restricted: float
    rss_unrestricted: float


@dataclass(frozen=True)
class MdlCausality:
    """Code-length comparison of a restricted and an unrestricted family.

    ``f_nats`` is the description-length saving of the unrestricted
    family; positive values mean the source carries information about
    the target beyond the target's own history.
    """

    f_nats: float
    restricted_len: CodeLength
    unrestricted_len: CodeLength
    causal: bool


@dataclass(frozen=True)
class JointMdlCausality:
    """Joint two-source comparison with all three code lengths reported."""

    f_nats: float
    len_with_first: CodeLength
    len_with_second: CodeLength
    len_with_both: CodeLength


@dataclass(frozen=True)
class CausalGraph:
    """Weighted directed adjacency over variables; edge [j, i] means j -> i."""

    n_nodes: int
    adjacency: np.ndarray
    weight: np.ndarray
    method: str
    params: dict
    labels: tuple

    def edges(self):
        """Sorted list of (source, target) index pairs present in the graph."""
        js, is_ = np.nonzero(self.adjacency)
        return sorted(zip(js.tolist(), is_.tolist()))

    def to_json(self) -> str:
        payload = {
            "nodes": list(self.labels),
            "method": self.method,
            "edges": [
                {
                    "from": self.labels[j],
                    "to": self.labels[i],
                    "weight": float(self.weight[j, i]),
                }
                for j, i in self.edges()
            ],
            "params": self.params,
        }
        return json.dumps(payload, sort_keys=True, indent=2)

    @staticmethod
    def from_json(text: str) -> "CausalGraph":
        """Read :meth:`to_json` output: ``nodes`` distinct strings, each edge naming two, and
        each ``weight`` (default 0.0) a number by :func:`~granger_mdl.timeseries.checked_value`."""
        try:
            payload = json.loads(text)
            labels = payload["nodes"]
            if not (isinstance(labels, list) and all(isinstance(name, str) for name in labels)
                    and len(set(labels)) == len(labels)):
                raise ValidationError(f"nodes must be distinct strings, got {labels!r}")
            labels = tuple(labels)
            method = payload.get("method", "")
            params = payload.get("params", {})
            n = len(labels)
            adjacency = np.zeros((n, n), dtype=bool)
            weight = np.zeros((n, n))
            index = {name: i for i, name in enumerate(labels)}
            for edge in payload["edges"]:
                j, i = index[edge["from"]], index[edge["to"]]
                adjacency[j, i] = True
                weight[j, i] = checked_value(
                    edge.get("weight", 0.0), float, f"edge {edge['from']}->{edge['to']} weight"
                )
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            raise ValidationError(f"malformed graph JSON: {exc}") from exc
        return CausalGraph(
            n_nodes=n, adjacency=adjacency, weight=weight,
            method=method, params=params, labels=labels,
        )


def _checked_alpha(alpha) -> float:
    """A significance level: a number strictly between 0 and 1."""
    alpha = checked_value(alpha, float, "alpha")
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must be in (0, 1), got {alpha}")
    return alpha


def f_cdf(x: float, d1: int, d2: int) -> float:
    """Cumulative F distribution via the regularized incomplete beta.

    ``x`` is a nonnegative number (+inf gives 1.0), ``d1`` and ``d2``
    finite numbers >= 1; anything else is a ValidationError naming it.
    """
    x = checked_value(x, float, "x")
    for name, dof in (("d1", d1), ("d2", d2)):
        dof = checked_value(dof, float, name)
        if not (math.isfinite(dof) and dof >= 1):
            raise ValidationError(f"degrees of freedom must be finite and >= 1, got {name} = {dof}")
    if not x >= 0:
        raise ValidationError(f"x must be nonnegative, got {x}")
    if x == 0.0:
        return 0.0
    if math.isinf(x):
        return 1.0
    z = d1 * x / (d1 * x + d2)
    return float(betainc(d1 / 2.0, d2 / 2.0, z))


def _f_dof(m: int, k: int) -> int:
    """Denominator degrees of freedom, m - k - 1, of an F test of k regressors on m rows.

    Without an intercept m - k would be exact for fixed regressors; the
    extra one stands for the mean that demeaning (the CLI and bench
    default) estimates. At m = 22 it rejects 4.9% of demeaned white-noise
    pairs at alpha 0.05, where m - k rejects 5.8%. The tallies rest on it.
    """
    d2 = m - k - 1
    if d2 < 1:
        raise ValidationError(f"not enough samples: denominator degrees of freedom {d2} < 1")
    return d2


def _f_values(rss_r, rss_u, q, d2):
    """F of the extra sum of squares on (q, d2) degrees of freedom and its p-value, elementwise.

    Nested fits on one window can differ only by rounding, so rss_u is
    clamped to rss_r. Equal rss give F = 0 and p = 1; otherwise a
    vanishing rss_u gives F = inf and p = 0. Returns (F, p, clamped rss_u).
    """
    rss_u = np.minimum(rss_u, rss_r)
    equal, exact = rss_r == rss_u, rss_u == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        f_value = ((rss_r - rss_u) / q) / (rss_u / d2)
        # the upper tail itself: 1 - f_cdf cancels to 0.0 for small p
        p_value = betainc(d2 / 2.0, q / 2.0, d2 / (d2 + q * f_value))
    f_value = np.where(equal, 0.0, np.where(exact, np.inf, f_value))
    p_value = np.where(equal, 1.0, np.where(exact, 0.0, p_value))
    return f_value, p_value, rss_u


def _f_comparison(rss_r, rss_u, q, d2, alpha):
    f_value, p_value, rss_u = _f_values(rss_r, rss_u, q, d2)
    return FTestResult(
        f_value=float(f_value),
        dof=(q, d2),
        p_value=float(p_value),
        significant=bool(p_value < alpha),
        rss_restricted=float(rss_r),
        rss_unrestricted=float(rss_u),
    )


def _resolve(ts, x, y, z_set):
    """Column indices of target, source and a disjoint conditioning set."""
    xi, yi, zi = ts.column(x), ts.column(y), [ts.column(z) for z in z_set]
    if xi == yi:
        raise ValidationError("source and target must differ")
    if xi in zi or yi in zi:
        raise ValidationError("conditioning set must be disjoint from source and target")
    return xi, yi, zi


def f_test_gc(
    ts: TimeSeriesMatrix,
    x,
    y,
    p: int,
    q: int,
    alpha: float = 0.05,
    start: Optional[int] = None,
) -> FTestResult:
    """Pairwise F-test: do y's last q values improve prediction of x?

    Restricted model: x on its own p lags. Unrestricted: plus q lags of
    y. Both are fit on one response window (``start`` defaults to
    max(p, q)) so the residual sums are comparable. The statistic has
    (q, m - p - q - 1) degrees of freedom.
    """
    return conditional_f_test_gc(ts, x, y, (), p, q, 0, alpha, start)


def conditional_f_test_gc(
    ts: TimeSeriesMatrix,
    x,
    y,
    z_set: Sequence,
    p: int,
    q: int,
    r: int,
    alpha: float = 0.05,
    start: Optional[int] = None,
) -> FTestResult:
    """F-test of y -> x while controlling for the variables in ``z_set``.

    Restricted model: x's own p lags plus r lags of every conditioning
    variable. Unrestricted: plus q lags of y. The restricted columns lead
    the unrestricted ones, so one QR off a :class:`LagEngine` gives both.
    """
    xi, yi, zi = _resolve(ts, x, y, z_set)
    p, q, r = (checked_value(value, int, name) for name, value in (("p", p), ("q", q), ("r", r)))
    alpha = _checked_alpha(alpha)
    if p < 1 or q < 1:
        raise ValidationError(f"orders p, q must be >= 1, got p={p}, q={q}")
    if zi and r < 1:
        raise ValidationError(f"conditioning order r must be >= 1, got {r}")

    max_lag = max(p, q, r if zi else 0)
    engine = LagEngine(ts, max_lag, start=max_lag if start is None else start, variables=[xi, *zi, yi])
    columns = [(v, ell) for v, lags in [(xi, p), *((z, r) for z in zi), (yi, q)] for ell in range(lags)]
    d2 = _f_dof(engine.m, len(columns))
    _, rss, _, rank_error = engine._fit(xi, columns, np.array([len(columns) - q, len(columns)]))
    if rank_error is not None:
        raise rank_error
    return _f_comparison(rss[0], rss[1], q, d2, alpha)


def log_variance_ratio(result: FTestResult) -> float:
    """ln(var(restricted residual) / var(unrestricted residual)).

    Reported as descriptive evidence only; the decision rule of the
    F-test path is the significance threshold.
    """
    if result.rss_unrestricted == 0.0:
        return math.inf
    return math.log(result.rss_restricted / result.rss_unrestricted)


def _best_code_length(engine, target, blocks, delta, scale_floor) -> CodeLength:
    """Shortest code length over the engine's shared orders for one family."""
    return _search_order(engine, [(target, blocks)], "MDL", delta, scale_floor)[2][0]


def mdl_gc(
    ts: TimeSeriesMatrix,
    x,
    y,
    p_max: int = 10,
    delta: Optional[float] = None,
    scale_floor: float = 1.0,
) -> MdlCausality:
    """Code-length causality from y to x.

    The restricted family regresses x on its own lags, the unrestricted
    family adds y's lags at the same shared order; both are searched
    over orders 1..p_max on a common window and the best total code
    lengths are compared. Positive saving means causal; exact ties
    resolve to the smaller model (not causal).
    """
    return conditional_mdl_gc(ts, x, y, (), p_max, delta, scale_floor)


def conditional_mdl_gc(
    ts: TimeSeriesMatrix,
    x,
    y,
    z_set: Sequence,
    p_max: int = 10,
    delta: Optional[float] = None,
    scale_floor: float = 1.0,
) -> MdlCausality:
    """Code-length causality from y to x given the variables in ``z_set``.

    With an empty conditioning set this is exactly the pairwise
    comparison.
    """
    xi, yi, zi = _resolve(ts, x, y, z_set)
    engine = LagEngine(ts, p_max, variables=[xi, yi, *zi])
    restricted = _best_code_length(engine, xi, [xi] + zi, delta, scale_floor)
    unrestricted = _best_code_length(engine, xi, [xi, yi] + zi, delta, scale_floor)
    f_nats = restricted.total - unrestricted.total
    return MdlCausality(
        f_nats=float(f_nats),
        restricted_len=restricted,
        unrestricted_len=unrestricted,
        causal=bool(f_nats > 0.0),
    )


def joint_mdl_gc(
    ts: TimeSeriesMatrix,
    x,
    y,
    z,
    p_max: int = 10,
    delta: Optional[float] = None,
    scale_floor: float = 1.0,
) -> JointMdlCausality:
    """Joint influence of two sources on x, with all three lengths kept.

    The measure is min(L(x+y), L(x+z)) - L(x+y+z): positive when both
    sources contribute beyond either alone. A negative value is
    ambiguous between the two single-source readings, so the component
    code lengths are all reported for the caller to inspect.
    """
    xi, yi, zi = ts.column(x), ts.column(y), ts.column(z)
    if len({xi, yi, zi}) != 3:
        raise ValidationError("x, y, z must be three distinct variables")
    engine = LagEngine(ts, p_max, variables=[xi, yi, zi])
    l_xy = _best_code_length(engine, xi, [xi, yi], delta, scale_floor)
    l_xz = _best_code_length(engine, xi, [xi, zi], delta, scale_floor)
    l_xyz = _best_code_length(engine, xi, [xi, yi, zi], delta, scale_floor)
    return JointMdlCausality(
        f_nats=float(min(l_xy.total, l_xz.total) - l_xyz.total),
        len_with_first=l_xy,
        len_with_second=l_xz,
        len_with_both=l_xyz,
    )


def _mdl_edges(engine):
    """Code-length decisions and weights of every edge, as [source, target] arrays.

    For each target, the pairwise saving L(own) - L(own + source) gates
    every edge into it; where it is positive and other variables remain,
    the conditional saving L(all but source) - L(all) decides the edge and
    is its weight. The own families are fitted and scored together, then
    each target's pairwise ones, then its conditional ones where the gate
    passes.
    """
    nv = len(engine.variables)
    _, own_errors, own_rows = _scores(engine, [(t, [t]) for t in range(nv)], "MDL")
    own_best = own_rows.min(axis=1)
    keep, weight = np.zeros((nv, nv), dtype=bool), np.zeros((nv, nv))
    for target in range(nv):
        others = [j for j in range(nv) if j != target]
        _, errors, rows = _scores(engine, [(target, [target, j]) for j in others], "MDL")
        pairwise = own_best[target] - rows.min(axis=1)
        gated = pairwise > 0 if nv > 2 else np.zeros(nv - 1, dtype=bool)
        conditional = np.full(nv - 1, np.nan)
        gate_errors = []
        if gated.any():
            dropped = [(target, [v for v in range(nv) if v != j]) for j in np.compress(gated, others)]
            _, gate_errors, gate_rows = _scores(engine, dropped + [(target, range(nv))], "MDL")
            gate_best = gate_rows.min(axis=1)
            conditional[gated] = gate_best[:-1] - gate_best[-1]
        if any(error is not None for error in [own_errors[target], *errors, *gate_errors]):
            # the first error of the per-edge traversal: own, pair, then
            # where the gate passes all but the source, and all
            drops = iter(gate_errors)
            for index in range(nv - 1):
                visited = [own_errors[target], errors[index]]
                if gated[index]:
                    visited += [next(drops), gate_errors[-1]]
                for error in visited:
                    if error is not None:
                        raise error
        keep[others, target] = np.where(gated, conditional > 0, pairwise > 0)
        weight[others, target] = np.where(gated, conditional, pairwise)
    return keep, weight


def _f_edges(engine, cfg):
    """Conventional decisions and F values of every edge, as [source, target] arrays.

    Each edge is the conditional F test at the order n that the order
    criterion picks for the target's family without the source: its rss
    at n against the full family's, on (n, m - V n - 1) degrees of
    freedom, as :func:`conditional_f_test_gc` with p = q = r = n on the
    engine's window. Only orders up to n of the full family need fit the
    window.
    """
    nv, m = len(engine.variables), engine.m
    targets, sources = np.nonzero(~np.eye(nv, dtype=bool))
    scans, errors, rows = _scores(
        engine, [(i, [v for v in range(nv) if v != j]) for i, j in zip(targets, sources)],
        cfg.order_criterion,
    )
    failed = np.array([error is not None for error in errors])
    n = np.argmin(rows, axis=1) + 1
    d2 = m - nv * n - 1
    under = m <= nv * n
    reached = ~failed & ~under
    needed = sorted(set(targets[reached].tolist()))
    full = dict(zip(needed, engine._families([(i, range(nv)) for i in needed])))
    short = reached & np.array([i in full and full[i].rss.size < order for i, order in zip(targets, n)])
    if not reached.all() or short.any() or (d2 < 1).any():
        # the first error of the per-edge traversal: the order search, the
        # full family's window and rank, then the degrees of freedom
        for index, i in enumerate(targets):
            if failed[index]:
                raise errors[index]
            if under[index]:
                raise engine._underdetermined(nv, int(n[index]))
            if short[index]:
                raise full[i].rank_error
            _f_dof(m, nv * int(n[index]))
    rss_r = np.array([scan.rss[order - 1] for scan, order in zip(scans, n)])
    rss_u = np.array([full[i].rss[order - 1] for i, order in zip(targets, n)])
    f_value, p_value, _ = _f_values(rss_r, rss_u, n, d2)
    keep, weight = np.zeros((nv, nv), dtype=bool), np.zeros((nv, nv))
    keep[sources, targets] = p_value < cfg.alpha
    weight[sources, targets] = f_value
    return keep, weight


def infer_network(
    ts: TimeSeriesMatrix,
    method: str = "mdl",
    p_max: int = 10,
    alpha: float = 0.05,
    order_criterion: str = "AIC",
) -> CausalGraph:
    """Infer the directed causal graph over all variables of ``ts``.

    Every ordered pair (source j, target i) is evaluated independently
    in a fixed ascending order, so the result does not depend on
    traversal. With more than two variables the remaining variables
    form the conditioning set: the code-length method requires the
    pairwise and the conditional comparison to both be positive, the
    F-test method keeps an edge its conditional test deems significant
    at ``alpha``.

    All fits come from one :class:`LagEngine` over ``ts``: one
    factorisation, and each model family scanned and scored once. On an
    engine that certifies its inverse route, the own and pairwise
    families are fitted in batches. Edges are decided as arrays, each
    family's error kept as a value by one rule; the first error that a
    loop over the edges in that ascending order would meet is raised.
    A constant column, or two identical ones, is a ValidationError
    naming them, raised before any fit.
    """
    return _infer_network(ts, MethodConfig(method, alpha, p_max, order_criterion), {})


def _infer_network(ts, cfg: MethodConfig, engines) -> CausalGraph:
    """:func:`infer_network` for ``cfg``, reading its fits from ``engines[cfg.p_max]``.

    The engine over ``ts`` is built on first use and left in the dict, so
    calls on one series that share the dict share its factorisation and
    its scans.
    """
    if ts.n_variables < 2:
        raise ValidationError("network inference needs at least 2 variables")
    if cfg.p_max not in engines:
        distinct_columns(ts)
        engines[cfg.p_max] = LagEngine(ts, cfg.p_max)
    engine = engines[cfg.p_max]
    adjacency, weight = _mdl_edges(engine) if cfg.method == "mdl" else _f_edges(engine, cfg)

    return CausalGraph(
        n_nodes=ts.n_variables,
        adjacency=adjacency,
        weight=weight,
        method=cfg.tag,
        params=cfg.params,
        labels=ts.labels,
    )


def similarity(a: CausalGraph, b: CausalGraph) -> float:
    """Jaccard similarity of two directed edge sets.

    Intersection over union of the edge sets; two empty graphs count as
    identical (1.0).
    """
    if a.n_nodes != b.n_nodes:
        raise ValidationError(
            f"node counts differ: {a.n_nodes} vs {b.n_nodes}"
        )
    ea, eb = set(a.edges()), set(b.edges())
    union = ea | eb
    if not union:
        return 1.0
    return len(ea & eb) / len(union)
