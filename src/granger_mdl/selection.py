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
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateFitError, ValidationError
from .regression import LagEngine
from .timeseries import TimeSeriesMatrix, checked_value

__all__ = [
    "CodeLength",
    "CriterionScore",
    "MarkovMdlResult",
    "gaussian_loglik",
    "aic",
    "bic",
    "code_length_from_stats",
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

_NOISELESS = "degenerate noiseless fit: residual variance vanishes, the Gaussian code length is undefined"


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
    scale_floor, delta = _checked_floor(scale_floor), _checked_delta(delta)
    coef = np.asarray(coefficients, dtype=float).reshape(-1, 1)
    curve = _code_length_curve(coef, np.array([coef.shape[0]]), np.array([rss]), m, n_total, delta, scale_floor)
    return _at(curve, 0)


def _checked_floor(scale_floor) -> float:
    """A scale floor: a finite number >= 0."""
    scale_floor = checked_value(scale_floor, float, "scale_floor")
    if not (math.isfinite(scale_floor) and scale_floor >= 0.0):
        raise ValidationError(f"scale_floor must be finite and >= 0, got {scale_floor}")
    return scale_floor


def _checked_delta(delta) -> Optional[float]:
    """A precision step: None (1/sqrt(N)) or a finite number > 0."""
    delta = checked_value(delta, float, "delta", nullable=True)
    if delta is not None and not (math.isfinite(delta) and delta > 0.0):
        raise ValidationError(f"delta must be finite and > 0, got {delta}")
    return delta


def _code_length_curve(coefficients, k, rss, m, n_total, delta, scale_floor):
    """:func:`code_length_from_stats` for every column of ``coefficients``, on checked ``delta``.

    Model j is the first k[j] entries of column j. Row i of the result
    is field i of :class:`CodeLength`. A vanishing rss leaves no Gaussian
    code length: DegenerateFitError.
    """
    if m < 1:
        raise ValidationError(f"m must be >= 1, got {m}")
    if n_total < m:
        raise ValidationError(f"total length {n_total} below effective sample {m}")
    if (rss < 0).any():
        raise ValidationError(f"rss must be nonnegative, got {rss}")
    if (rss <= 0.0).any():
        raise DegenerateFitError(_NOISELESS)
    if delta is None:
        delta = 1.0 / math.sqrt(n_total)

    sigma2 = rss / m
    data_term = m * np.log(np.sqrt(2.0 * np.pi * sigma2)) + m / 2.0

    params = np.concatenate([sigma2[None], coefficients])
    priced_rows = np.arange(params.shape[0])[:, None] <= k
    magnitudes = np.abs(params, out=params)
    n_counted = (priced_rows & (magnitudes / delta > 1.0)).sum(axis=0)
    # max(0, ln(x / delta)) as ln(max(x, delta) / delta), so never ln 0; in place
    priced = np.maximum(magnitudes, max(scale_floor, delta), out=magnitudes)
    np.log(np.divide(priced, delta, out=priced), out=priced)
    priced[~priced_rows] = 0.0
    param_term = priced.sum(axis=0)

    order_term = np.log(k + 1.0)
    total = data_term + param_term + order_term
    return np.array([total, data_term, param_term, order_term, np.full_like(total, delta), n_counted])


def _at(curve: np.ndarray, j: int) -> CodeLength:
    return CodeLength(*curve[:5, j].tolist(), n_params_counted=int(curve[5, j]))


def _search_order(engine, families, criterion, delta=None, scale_floor=DEFAULT_SCALE_FLOOR):
    """The shared order 1..p_max minimising the summed curves of ``families`` on ``engine``'s one series.

    This is every lag search: each caller builds the :class:`LagEngine`
    over its variables. Each (target, blocks) family, one or more of one
    kind, is mapped to its index once, scanned once per engine and scored
    at every order as an array; ties go to the smaller order. Every
    family is mapped (see :meth:`LagEngine._index`), and ``delta`` and
    ``scale_floor`` read, before any is scanned; then the first family
    that fails raises its error (see :func:`_scores`). Returns (order,
    value, per-family CodeLength at the order, an empty list unless MDL).
    """
    criterion = str(criterion).upper()
    if criterion not in CRITERIA:
        raise ValidationError(f"unknown criterion {criterion!r}; pick one of {CRITERIA}")
    scale_floor, delta = _checked_floor(scale_floor), _checked_delta(delta)
    kinds, targets, sources = zip(*[engine._index(target, blocks) for target, blocks in families])
    (kind,) = set(kinds)  # every caller sums families of one kind
    _, errors, rows = _scores(engine, kind, list(targets), list(sources), criterion, delta, scale_floor)
    (error,) = _first_errors(errors)
    if error is not None:
        raise error
    summed = rows[0, :, 0].sum(axis=0)  # row by row, as a running sum
    best = int(np.argmin(summed))
    lengths = [_at(curve, best) for curve in rows[:, :, 0].transpose(1, 0, 2)] if criterion == "MDL" else []
    return best + 1, float(summed[best]), lengths


def _scores(engine, kind, targets, sources, criterion, delta=None, scale_floor=DEFAULT_SCALE_FLOOR):
    """(rss, errors, rows) of the families (``kind``, targets[j], sources[j]) of ``engine`` (see :class:`LagEngine`).

    ``errors[j, t]`` is family j's error in trial t or None, by the one
    failure rule: the engine's ValidationError in every trial if the kind
    would interpolate the window at p_max (it then has no scan); under MDL,
    a DegenerateFitError in each trial with an order whose rss <= 1e-12
    y'y; else the scan's rank error (one-series engines only). ``rss`` is
    (family, trial, order) and ``rows`` (row, family, trial, order): the
    criterion over orders 1..p_max, and under MDL every
    :func:`_code_length_curve` row. Both are NaN exactly where ``errors``
    is not None. A family of b blocks has b n coefficients at order n, and
    every (family, trial, order) is one column of one scoring call.
    """
    mdl, p, b = criterion == "MDL", engine.p_max, engine._width[kind]
    error = engine._underdetermined(b, p)
    errors = np.full((len(targets), len(engine._series)), error)
    if error is None:
        rss, coefficients, rank_errors = engine._families(kind, targets, sources, coefficients=mdl)
        if mdl:
            errors[(rss <= 1e-12 * engine._response_sq[targets, :, None]).any(axis=2)] = DegenerateFitError(_NOISELESS)
        # a rank error is a one-series engine's, unless its trial is noiseless
        errors = np.where(np.equal(errors, None), rank_errors[:, None], errors)
    else:
        rss, coefficients = np.full(errors.shape + (p,), np.nan), np.zeros(errors.shape + (b * p, p))
    failed = np.not_equal(errors, None)
    rss[failed] = np.nan
    k = np.broadcast_to(b * np.arange(1, p + 1), rss.shape).ravel()
    if mdl:
        # rows past a family's own coefficients are zero and never priced
        curve = _code_length_curve(coefficients.transpose(2, 0, 1, 3).reshape(b * p, rss.size), k, rss.ravel(),
                                   engine.m, engine.ts.n_samples, delta, scale_floor)
    else:
        loglik = gaussian_loglik(rss.ravel(), engine.m)
        curve = (aic(loglik, k) if criterion == "AIC" else bic(loglik, k, engine.m))[None]
    rows = curve.reshape(curve.shape[:1] + rss.shape)
    rows[:, failed] = np.nan
    return rss, errors, rows


def _first_errors(table: np.ndarray) -> np.ndarray:
    """Each trial's first error in row-major order of ``table`` (..., trial), or None: a (trial,) array.

    A trial with no error reads its first entry, which is None.
    """
    table = table.reshape(-1, table.shape[-1])
    return table[np.not_equal(table, None).argmax(axis=0), np.arange(table.shape[1])]


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
    predictors = list(predictors)
    engine = LagEngine(ts, p_max, variables=[*predictors, target])
    order, value, _ = _search_order(engine, [(target, predictors)], criterion)
    return CriterionScore(criterion=str(criterion).upper(), value=value, order=order)


def universal_int_bits(j: int) -> float:
    """Truncated universal code length for a positive integer, in bits.

    log2 j + 2 log2(log2(j+1) + 1) + 1. Any fixed monotone choice gives
    the same model selections; this one is documented and kept stable.
    """
    j = checked_value(j, int, "j")
    if j < 1:
        raise ValidationError(f"universal integer code needs j >= 1, got {j}")
    return math.log2(j) + 2.0 * math.log2(math.log2(j + 1) + 1.0) + 1.0


def _count_bits(n1, n0, theta):
    """-n1 log2(theta) - n0 log2(1 - theta) elementwise: 0 for a count of 0, +inf where a seen symbol has probability 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(n1 > 0, -n1 * np.log2(theta), 0.0) + np.where(n0 > 0, -n0 * np.log2(1.0 - theta), 0.0)


def bernoulli_code_length(bits: Sequence[int], theta: float) -> float:
    """Bits needed to encode a 0/1 sequence under success probability theta.

    Exact formula -n1 log2(theta) - n0 log2(1-theta). theta may be 0 or
    1 only when the data are constant and matching; otherwise a symbol
    with zero probability was observed and no finite code exists.
    """
    arr = _as_bits(bits)
    n1 = int(arr.sum())
    n0 = arr.size - n1
    theta = checked_value(theta, float, "theta")
    if not 0.0 <= theta <= 1.0:
        raise ValidationError(f"theta must be in [0, 1], got {theta}")
    if theta == 0.0 and n1 > 0:
        raise ValidationError("observed symbol 1 with theta = 0: zero-probability symbol")
    if theta == 1.0 and n0 > 0:
        raise ValidationError("observed symbol 0 with theta = 1: zero-probability symbol")
    return float(_count_bits(n1, n0, theta))


def markov_mdl(bits: Sequence[int], gamma_max: int, d_max: int) -> MarkovMdlResult:
    """Select a binary chain order and parameter precision by total bits.

    Scores context orders gamma in 0..gamma_max (so k = 2^gamma
    contexts) and precisions d in 1..d_max. For each pair the
    maximum-likelihood conditional probabilities are snapped to the
    nearest point of the (1/2^d)-step grid on [0, 1]; the data term
    charges gamma bits for the unmodelled prefix plus the exact
    conditional code of the rest; the model term is k*d plus universal
    integer codes for k and d. Ties break toward the smaller (gamma, d).
    The search stops once no larger gamma can cost less, or, with no pair
    admissible yet, before counting more than max(n, 2^16) contexts.
    """
    arr = _as_bits(bits)
    gamma_max, d_max = checked_value(gamma_max, int, "gamma_max"), checked_value(d_max, int, "d_max")
    if arr.size == 0:
        raise ValidationError("empty sequence")
    if gamma_max < 0:
        raise ValidationError(f"gamma_max must be >= 0, got {gamma_max}")
    if d_max < 1:
        raise ValidationError(f"d_max must be >= 1, got {d_max}")
    if arr.size <= gamma_max:
        raise ValidationError(f"sequence length {arr.size} must exceed gamma_max {gamma_max}")

    best = MarkovMdlResult(k=0, d=0, theta_hat=np.empty(0), total_bits=math.inf)
    for gamma in range(gamma_max + 1):
        k = 2 ** gamma
        # the total below with no data bits and d = 1, summed alike: no total at gamma or above is less
        if best.total_bits <= gamma + 0.0 + k + universal_int_bits(k) + universal_int_bits(1):
            break
        if best.total_bits == math.inf and k > max(arr.size, 2 ** 16):
            break
        n0_ctx, n1_ctx = _context_counts(arr, gamma)
        totals = n0_ctx + n1_ctx
        theta_ml = np.where(totals > 0, n1_ctx / np.maximum(totals, 1), 0.5)
        for d in range(1, d_max + 1):
            cells = float(2 ** d)
            theta_q = np.round(theta_ml * cells) / cells
            total = gamma + _count_bits(n1_ctx, n0_ctx, theta_q).sum() + k * d + universal_int_bits(k) + universal_int_bits(d)
            if total < best.total_bits:  # an inadmissible pair's total is inf
                best = MarkovMdlResult(k=k, d=d, theta_hat=theta_q, total_bits=float(total))
    if best.total_bits == math.inf:
        raise ValidationError("no admissible (order, precision) pair: increase d_max")
    return best


def _context_counts(arr: np.ndarray, gamma: int):
    """Float counts of 0/1 successors per length-gamma context (bits i - gamma..i - 1, MSB-first)."""
    n = max(arr.size - gamma, 0)
    ctx = np.zeros(n, dtype=np.int64)
    for j in range(1, gamma + 1):
        ctx |= arr[gamma - j:gamma - j + n].astype(np.int64) << (j - 1)
    n1 = np.bincount(ctx, weights=arr[gamma:], minlength=2 ** gamma).astype(float)
    return np.bincount(ctx, minlength=2 ** gamma) - n1, n1


def _as_bits(bits) -> np.ndarray:
    arr = np.asarray(bits)
    if arr.ndim != 1:
        raise ValidationError("bit sequence must be 1-D")
    if arr.size and not np.isin(arr, (0, 1)).all():
        raise ValidationError("sequence must contain only 0 and 1")
    return arr.astype(np.int8)
