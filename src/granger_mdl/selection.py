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
from .timeseries import TimeSeriesMatrix, checked_value

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
    an array; ties go to the smaller order. Every family is resolved, and
    ``delta`` and ``scale_floor`` read, before any is scanned; then the
    first family that fails raises its error (see :func:`_failure`).
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
    scale_floor, delta = _checked_floor(scale_floor), _checked_delta(delta)
    families = [engine._family(target, blocks) for target, blocks in families]
    scans, errors, rows = _scores(engine, families, criterion, delta, scale_floor)
    for error in errors:
        if error is not None:
            raise error
    summed = rows.sum(axis=0)  # row by row, as a running sum
    best = int(np.argmin(summed))
    key = (criterion, delta, scale_floor)  # _scored's memo: the MDL curves at the best order
    lengths = [_at(scan.curves[key], best) for scan in scans] if criterion == "MDL" else []
    return best + 1, float(summed[best]), lengths


def _scores(engine, families, criterion, delta=None, scale_floor=DEFAULT_SCALE_FLOOR):
    """(scans, errors, rows) of the (target, blocks) ``families`` of ``engine``, in engine columns.

    A family's error is a value: the engine's ValidationError if it would
    interpolate the window at p_max (it then has no scan), else
    :func:`_failure` of its scan. Its row is the criterion over orders
    1..p_max, NaN if it has an error; the others are scored together.
    """
    errors = [engine._underdetermined(len(blocks), engine.p_max) for _, blocks in families]
    fitting = [family for family, error in zip(families, errors) if error is None]
    fitted = iter(engine._families(fitting, coefficients=criterion == "MDL"))
    scans = [next(fitted) if error is None else None for error in errors]
    errors = [_failure(scan, criterion) if error is None else error for scan, error in zip(scans, errors)]
    scored = [j for j, error in enumerate(errors) if error is None]
    rows = np.full((len(families), engine.p_max), np.nan)
    if scored:
        curves = _scored([scans[j] for j in scored], criterion, engine.ts.n_samples, delta, scale_floor)
        rows[scored] = np.concatenate(curves, axis=1)[0].reshape(len(scored), -1)
    return scans, errors, rows


def _failure(scan, criterion):
    """The error of a scanned family, or None: the one failure rule of scoring.

    Under MDL an order with rss <= 1e-12 y'y leaves no Gaussian code
    length, a DegenerateFitError; otherwise it is the scan's rank error.
    """
    if criterion == "MDL" and (scan.rss <= 1e-12 * scan.response_sq).any():
        return DegenerateFitError(_NOISELESS)
    return scan.rank_error


def _scored(scans, criterion, n_total, delta, scale_floor):
    """The criterion's rows over each family's orders, kept in its ``scan.curves``.

    One row for AIC and BIC, the :func:`_code_length_curve` rows for MDL,
    keyed by (criterion, delta, scale_floor). The families not yet scored
    are scored together, as one array over their orders. Every scan must
    pass :func:`_failure`.
    """
    key = (criterion, delta, scale_floor)
    todo = [scan for scan in scans if key not in scan.curves]
    if todo:
        rss = np.concatenate([scan.rss for scan in todo])
        k = np.concatenate([scan.k for scan in todo])
        if criterion == "MDL":
            # zero rows past a family's own coefficients are never priced
            coefficients = np.zeros((max(scan.coefficients.shape[0] for scan in todo), rss.size))
            column = 0
            for scan in todo:
                rows, orders = scan.coefficients.shape[0], scan.rss.size
                coefficients[:rows, column:column + orders] = scan.coefficients
                column += orders
            curve = _code_length_curve(coefficients, k, rss, todo[0].m, n_total, delta, scale_floor)
        else:
            loglik = gaussian_loglik(rss, todo[0].m)
            curve = (aic(loglik, k) if criterion == "AIC" else bic(loglik, k, todo[0].m))[None]
        column = 0
        for scan in todo:
            scan.curves[key] = curve[:, column:column + scan.rss.size]
            column += scan.rss.size
    return [scan.curves[key] for scan in scans]


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
