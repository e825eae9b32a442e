"""Model scoring and order search: AIC, BIC, and two-part code lengths.

The Gaussian code length splits into a data-fit term (the negative
maximised log-likelihood), a parameter-description term (each parameter
encoded on a grid of step ``delta``, 1/sqrt(N) by default), and a short
order code. A binary Markov-chain demonstrator of the same two-part
idea, with explicit per-parameter bit precision, lives alongside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import DegenerateFitError, ValidationError
from .regression import LagEngine, OlsFit
from .timeseries import TimeSeriesMatrix

__all__ = [
    "CodeLength",
    "CriterionScore",
    "MarkovMdlResult",
    "gaussian_loglik",
    "aic",
    "bic",
    "mdl_code_length",
    "code_length_from_stats",
    "search_order",
    "select_order",
    "markov_mdl",
    "bernoulli_code_length",
    "universal_int_bits",
    "CRITERIA",
]

CRITERIA = ("AIC", "BIC", "MDL")

# Assumed coding range per parameter, in data units. A parameter is
# indexed on the grid of step delta over [-max(|value|, floor), +...],
# so estimates smaller than the floor still pay the full grid cost
# ln(floor/delta) instead of riding for free. floor=0 recovers the
# crude value-priced form in which sub-precision parameters cost 0.
DEFAULT_SCALE_FLOOR = 1.0


@dataclass(frozen=True)
class CodeLength:
    """Two-part description length in nats, split into its three terms."""

    total: float
    data_term: float
    param_term: float
    order_term: float
    precision_delta: float
    n_params_counted: int


@dataclass(frozen=True)
class CriterionScore:
    """Winning order of a lag search and the criterion value it attained."""

    criterion: str
    value: float
    order: int


@dataclass(frozen=True)
class MarkovMdlResult:
    """Selected binary-chain model: context count k=2^gamma, precision d bits."""

    k: int
    d: int
    theta_hat: np.ndarray
    total_bits: float


def gaussian_loglik(rss: float, m: int) -> float:
    """Maximised Gaussian log-likelihood of m residuals with RSS ``rss``.

    Equals -(m/2)(ln(2 pi rss/m) + 1), elementwise over an array. A perfect
    fit (rss == 0) returns +inf, which callers treat as "no model beats this".
    """
    if np.any(rss < 0):
        raise ValidationError(f"rss must be nonnegative, got {rss}")
    if m < 1:
        raise ValidationError(f"m must be >= 1, got {m}")
    with np.errstate(divide="ignore"):
        return -(m / 2.0) * (np.log(2.0 * np.pi * rss / m) + 1.0)


def aic(loglik: float, k: int) -> float:
    """-2 log L + 2k (natural log)."""
    return -2.0 * loglik + 2.0 * k


def bic(loglik: float, k: int, n: int) -> float:
    """-2 log L + k log n (natural log)."""
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if np.any(k < 0):
        raise ValidationError(f"k must be >= 0, got {k}")
    return -2.0 * loglik + k * math.log(n)


def code_length_from_stats(
    coefficients: Sequence[float],
    rss: float,
    m: int,
    n_total: int,
    delta: Optional[float] = None,
    scale_floor: float = DEFAULT_SCALE_FLOOR,
) -> CodeLength:
    """Two-part Gaussian code length from raw fit statistics.

    data term: m ln(sqrt(2 pi) sigma) + rss / (2 sigma^2) with the
    plug-in sigma^2 = rss/m, so the second summand is exactly m/2.
    parameter term: the noise variance and every coefficient, each
    priced max(0, ln(max(|value|, scale_floor) / delta)).
    order term: ln(k + 1) for k regression coefficients.
    """
    coef = np.asarray(coefficients, dtype=float).reshape(-1, 1)
    curve = _code_length_curve(
        coef, np.array([coef.shape[0]]), np.array([rss]), m, n_total, delta, scale_floor
    )
    return _at(curve, 0)


def _code_length_curve(coefficients, k, rss, m, n_total, delta, scale_floor, noiseless=0.0):
    """:func:`code_length_from_stats` for every column of ``coefficients``.

    Model j is the first k[j] entries of column j. Row i of the result
    is field i of :class:`CodeLength`. An rss at or below ``noiseless``
    leaves no Gaussian code length: DegenerateFitError.
    """
    if m < 1:
        raise ValidationError(f"m must be >= 1, got {m}")
    if n_total < m:
        raise ValidationError(f"total length {n_total} below effective sample {m}")
    if (rss < 0).any():
        raise ValidationError(f"rss must be nonnegative, got {rss}")
    if (rss <= noiseless).any():
        raise DegenerateFitError(
            "degenerate noiseless fit: residual variance vanishes, "
            "the Gaussian code length is undefined"
        )
    if delta is None:
        delta = 1.0 / math.sqrt(n_total)
    elif not delta > 0:
        raise ValidationError(f"delta must be positive, got {delta}")

    sigma2 = rss / m
    data_term = m * np.log(np.sqrt(2.0 * np.pi * sigma2)) + m / 2.0

    params = np.vstack([sigma2, coefficients])
    priced_rows = np.arange(params.shape[0])[:, None] <= k
    magnitudes = np.abs(params)
    # max(0, ln(x / delta)) as ln(max(x, delta) / delta), so never ln 0
    priced = np.maximum(np.maximum(magnitudes, scale_floor), delta)
    param_term = np.where(priced_rows, np.log(priced / delta), 0.0).sum(axis=0)
    n_counted = (priced_rows & (magnitudes / delta > 1.0)).sum(axis=0)

    order_term = np.log(k + 1.0)
    total = data_term + param_term + order_term
    return np.vstack([total, data_term, param_term, order_term, np.full_like(total, delta), n_counted])


def _at(curve: np.ndarray, j: int) -> CodeLength:
    return CodeLength(*curve[:5, j].tolist(), n_params_counted=int(curve[5, j]))


def mdl_code_length(
    fit: OlsFit,
    n_total: int,
    delta: Optional[float] = None,
    scale_floor: float = DEFAULT_SCALE_FLOOR,
) -> CodeLength:
    """Two-part code length of a fitted regression over ``n_total`` points."""
    return code_length_from_stats(
        fit.coefficients, fit.rss, fit.m, n_total, delta, scale_floor
    )


def search_order(
    ts: TimeSeriesMatrix,
    families: Sequence[Tuple[int, Sequence[int]]],
    criterion: str,
    p_max: int,
    delta: Optional[float] = None,
    scale_floor: float = DEFAULT_SCALE_FLOOR,
):
    """The shared order 1..p_max minimising the summed curves of ``families``.

    Each (target, blocks) family is scanned once, all of them from one
    :class:`LagEngine` over their variables, and scored at every order as
    an array; ties go to the smaller order. Walking orders upward, the
    first rank-broken order raises RankDeficiencyError, unless under MDL
    an earlier order has rss <= 1e-12 y'y: that raises DegenerateFitError.
    Returns (order, value, per-family CodeLength at the order, an empty
    list unless MDL).
    """
    families = list(families)
    if not families:
        raise ValidationError("search_order needs at least one model family")
    variables = [v for target, blocks in families for v in (*blocks, target)]
    engine = LagEngine(ts, p_max, variables=variables)
    return _search_order(engine, families, criterion, delta, scale_floor)


def _search_order(engine, families, criterion, delta=None, scale_floor=DEFAULT_SCALE_FLOOR):
    """:func:`search_order` on the scans of ``engine``, each family scored once per engine."""
    criterion = str(criterion).upper()
    if criterion not in CRITERIA:
        raise ValidationError(f"unknown criterion {criterion!r}; pick one of {CRITERIA}")
    summed, curves = 0.0, []
    for target, blocks in families:
        scan = engine.scan(target, blocks)
        curves.append(_scored(scan, criterion, engine.ts.n_samples, delta, scale_floor))
        summed = summed + curves[-1][0]
    best = int(np.argmin(summed))
    lengths = [_at(curve, best) for curve in curves] if criterion == "MDL" else []
    return best + 1, float(summed[best]), lengths


def _scored(scan, criterion, n_total, delta, scale_floor):
    """The criterion's rows over a family's orders, kept in ``scan.curves``.

    One row for AIC and BIC, the :func:`_code_length_curve` rows for MDL,
    keyed by (criterion, delta, scale_floor). A noiseless order raises
    before a rank-broken one, and nothing that raises is kept.
    """
    key = (criterion, delta, scale_floor)
    if key not in scan.curves:
        if criterion == "MDL":
            curve = _code_length_curve(
                scan.coefficients, scan.k, scan.rss, scan.m, n_total,
                delta, scale_floor, noiseless=1e-12 * scan.response_sq,
            )
        if scan.rank_error is not None:
            raise scan.rank_error
        if criterion != "MDL":
            loglik = gaussian_loglik(scan.rss, scan.m)
            values = aic(loglik, scan.k) if criterion == "AIC" else bic(loglik, scan.k, scan.m)
            curve = values[None]
        scan.curves[key] = curve
    return scan.curves[key]


def select_order(
    ts: TimeSeriesMatrix,
    target,
    predictors: Sequence,
    criterion: str = "MDL",
    p_max: int = 10,
) -> CriterionScore:
    """Search shared lag orders 1..p_max and return the minimiser.

    Every block in ``predictors`` receives the candidate order; all
    candidates are scored on the common response window starting at row
    p_max so values are comparable. Ties break toward the smaller order.
    Variables are given by label or index.
    """
    order, value, _ = search_order(ts, [(target, predictors)], criterion, p_max)
    return CriterionScore(criterion=str(criterion).upper(), value=value, order=order)


def universal_int_bits(j: int) -> float:
    """Truncated universal code length for a positive integer, in bits.

    log2 j + 2 log2(log2(j+1) + 1) + 1. Any fixed monotone choice gives
    the same model selections; this one is documented and kept stable.
    """
    if j < 1:
        raise ValidationError(f"universal integer code needs j >= 1, got {j}")
    return math.log2(j) + 2.0 * math.log2(math.log2(j + 1) + 1.0) + 1.0


def bernoulli_code_length(bits: Sequence[int], theta: float) -> float:
    """Bits needed to encode a 0/1 sequence under success probability theta.

    Exact formula -n1 log2(theta) - n0 log2(1-theta). theta may be 0 or
    1 only when the data are constant and matching; otherwise a symbol
    with zero probability was observed and no finite code exists.
    """
    arr = _as_bits(bits)
    n1 = int(arr.sum())
    n0 = arr.size - n1
    if not 0.0 <= theta <= 1.0:
        raise ValidationError(f"theta must be in [0, 1], got {theta}")
    if theta == 0.0 and n1 > 0:
        raise ValidationError("observed symbol 1 with theta = 0: zero-probability symbol")
    if theta == 1.0 and n0 > 0:
        raise ValidationError("observed symbol 0 with theta = 1: zero-probability symbol")
    bits_total = 0.0
    if n1 > 0:
        bits_total -= n1 * math.log2(theta)
    if n0 > 0:
        bits_total -= n0 * math.log2(1.0 - theta)
    return bits_total


def markov_mdl(bits: Sequence[int], gamma_max: int, d_max: int) -> MarkovMdlResult:
    """Select a binary chain order and parameter precision by total bits.

    Exhaustively scores context orders gamma in 0..gamma_max (so k =
    2^gamma contexts) and precisions d in 1..d_max. For each pair the
    maximum-likelihood conditional probabilities are snapped to the
    nearest point of the (1/2^d)-step grid on [0, 1]; the data term
    charges gamma bits for the unmodelled prefix plus the exact
    conditional code of the rest; the model term is k*d plus universal
    integer codes for k and d. Ties break toward the smaller (gamma, d).
    """
    arr = _as_bits(bits)
    if arr.size == 0:
        raise ValidationError("empty sequence")
    if gamma_max < 0:
        raise ValidationError(f"gamma_max must be >= 0, got {gamma_max}")
    if d_max < 1:
        raise ValidationError(f"d_max must be >= 1, got {d_max}")
    if arr.size <= gamma_max:
        raise ValidationError(
            f"sequence length {arr.size} must exceed gamma_max {gamma_max}"
        )

    best = None
    for gamma in range(gamma_max + 1):
        k = 2 ** gamma
        n0_ctx, n1_ctx = _context_counts(arr, gamma)
        totals = n0_ctx + n1_ctx
        with np.errstate(invalid="ignore"):
            theta_ml = np.where(totals > 0, n1_ctx / np.maximum(totals, 1), 0.5)
        for d in range(1, d_max + 1):
            cells = float(2 ** d)
            theta_q = np.round(theta_ml * cells) / cells
            data_bits = float(gamma)
            ok = True
            for ctx in range(k):
                n1 = int(n1_ctx[ctx])
                n0 = int(n0_ctx[ctx])
                tq = float(theta_q[ctx])
                if n1 > 0:
                    if tq == 0.0:
                        ok = False
                        break
                    data_bits -= n1 * math.log2(tq)
                if n0 > 0:
                    if tq == 1.0:
                        ok = False
                        break
                    data_bits -= n0 * math.log2(1.0 - tq)
            if not ok:
                continue
            total = data_bits + k * d + universal_int_bits(k) + universal_int_bits(d)
            if best is None or total < best.total_bits:
                best = MarkovMdlResult(
                    k=k, d=d, theta_hat=theta_q.copy(), total_bits=float(total)
                )
    if best is None:
        raise ValidationError(
            "no admissible (order, precision) pair: increase d_max"
        )
    return best


def _context_counts(arr: np.ndarray, gamma: int):
    """Counts of 0/1 successors per length-gamma context (context bits MSB-first)."""
    k = 2 ** gamma
    n0 = np.zeros(k)
    n1 = np.zeros(k)
    if gamma == 0:
        n1[0] = arr.sum()
        n0[0] = arr.size - n1[0]
        return n0, n1
    ctx = 0
    mask = k - 1
    for i in range(arr.size):
        if i >= gamma:
            if arr[i]:
                n1[ctx] += 1
            else:
                n0[ctx] += 1
        ctx = ((ctx << 1) | int(arr[i])) & mask
    return n0, n1


def _as_bits(bits) -> np.ndarray:
    arr = np.asarray(bits)
    if arr.ndim != 1:
        raise ValidationError("bit sequence must be 1-D")
    if arr.size and not np.isin(arr, (0, 1)).all():
        raise ValidationError("sequence must contain only 0 and 1")
    return arr.astype(np.int8)
