"""Frequency-domain (Geweke) causality from a fitted bivariate VAR.

The fitted lag polynomial is inverted on the unit circle to obtain the
transfer matrix, after a normalisation that diagonalises the innovation
covariance. The target's spectrum then splits into an intrinsic part
and a part driven by the other variable, and the causal influence at a
frequency is the log ratio of total to intrinsic spectrum.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import NumericalError, ValidationError
from .regression import LagEngine, ResidualCovariance, stability_check
from .selection import search_order
from .timeseries import TimeSeriesMatrix, checked_sample_rate, checked_value, distinct_columns

__all__ = [
    "BivariateVar",
    "SpectralCausality",
    "select_var_order",
    "fit_bivariate_var",
    "transfer_matrix",
    "geweke_spectrum",
    "default_frequency_grid",
    "spectral_to_csv",
]

CONDITION_LIMIT = 1e12
TWO_PI = float(2.0 * np.pi)


@dataclass(frozen=True)
class BivariateVar:
    """Bivariate VAR in lag-polynomial form A(L) [x, y]' = noise.

    a_mats holds A_1..A_n with A_0 = I implied, so each A_l is the
    negated matrix of regression coefficients at lag l. noise_cov is
    the contemporaneous residual covariance [[var_x, cov], [cov, var_y]].
    """

    order: int
    a_mats: tuple
    noise_cov: ResidualCovariance

    def __init__(self, order, a_mats, noise_cov):
        a_mats = tuple(np.asarray(a, dtype=float) for a in a_mats)
        if len(a_mats) != order:
            raise ValidationError(f"{len(a_mats)} lag matrices for order {order}")
        for a in a_mats:
            if a.shape != (2, 2) or not np.isfinite(a).all():
                raise ValidationError("lag matrices must be finite 2x2 arrays")
        object.__setattr__(self, "order", int(order))
        object.__setattr__(self, "a_mats", a_mats)
        object.__setattr__(self, "noise_cov", noise_cov)

    def swapped(self) -> "BivariateVar":
        """Same process with the two variables' roles exchanged."""
        perm = np.array([[0.0, 1.0], [1.0, 0.0]])
        mats = tuple(perm @ a @ perm for a in self.a_mats)
        cov = ResidualCovariance(perm @ self.noise_cov.matrix @ perm)
        return BivariateVar(self.order, mats, cov)


@dataclass(frozen=True)
class SpectralCausality:
    """Per-frequency causality values for an ordered variable pair."""

    frequencies_hz: np.ndarray
    f_y_to_x: np.ndarray
    f_x_to_y: np.ndarray
    spectra: np.ndarray


def select_var_order(ts: TimeSeriesMatrix, x, y, p_max: int = 10) -> int:
    """Shared lag order minimising the pair's total description length.

    Both equations of the bivariate system are scored at every order
    and the per-order code lengths are summed, so the winning order
    accommodates whichever equation needs the longer history. Both
    regress on the same lags of (x, y), so one factorisation serves both.
    A constant x or y, or x equal to y, is a ValidationError naming them.
    """
    xi, yi = ts.column(x), ts.column(y)
    if xi == yi:
        raise ValidationError("x and y must be distinct variables")
    distinct_columns(ts, [xi, yi])
    return search_order(ts, [(xi, [xi, yi]), (yi, [xi, yi])], "MDL", p_max)[0]


def fit_bivariate_var(ts: TimeSeriesMatrix, x, y, order: int) -> BivariateVar:
    """Estimate a bivariate VAR for (x, y) by per-equation least squares.

    Both equations regress on lags 1..order of (x, y) over the window
    that starts at row ``order``, so one :class:`LagEngine` factor serves
    both, and the residual covariance is read off its trailing block. The
    engine's scan rejects a window of at most 2*order rows, which would
    interpolate the data; a constant x or y, or x equal to y, is a
    ValidationError naming them. The fitted coefficient matrices are negated into
    the lag-polynomial sign convention, and a stationarity warning is
    emitted when the companion spectral radius reaches 1.
    """
    xi, yi = ts.column(x), ts.column(y)
    if xi == yi:
        raise ValidationError("x and y must be distinct variables")
    order = checked_value(order, int, "order")
    if order < 1:
        raise ValidationError(f"order must be >= 1, got {order}")
    distinct_columns(ts, [xi, yi])
    engine = LagEngine(ts, order, variables=[xi, yi])
    coefficients = []
    for target in (xi, yi):
        scan = engine.scan(target, [xi, yi])
        if scan.rank_error is not None:
            raise scan.rank_error
        # lag-major columns: row l is the equation's [x, y] coefficients at lag l+1
        coefficients.append(scan.coefficients[:, order - 1].reshape(order, 2))
    a_mats = -np.stack(coefficients, axis=1)

    radius = stability_check(-a_mats)
    if radius >= 1.0:
        warnings.warn(
            f"fitted VAR is not stationary (companion radius {radius:.4f})",
            RuntimeWarning,
            stacklevel=2,
        )
    return BivariateVar(order, a_mats, ResidualCovariance(engine.residual_covariance()))


def _transfer(model: BivariateVar, omegas: np.ndarray):
    """D = [P A(e^{-i omega})]^{-1} at every omega, and where P A is singular.

    Singular rows (condition number above CONDITION_LIMIT) are inverted
    as the identity, so one of them cannot fail the whole grid.
    """
    sigma2 = model.noise_cov.var_x
    if sigma2 <= 0:
        raise NumericalError("noise variance of the first equation must be positive")
    p = np.array([[1.0, 0.0], [-model.noise_cov.cov_xy / sigma2, 1.0]], dtype=complex)
    a = np.tile(np.eye(2, dtype=complex), (omegas.size, 1, 1))
    for ell, mat in enumerate(model.a_mats, start=1):
        a += mat * np.exp(-1j * omegas * ell)[:, None, None]
    pa = p @ a
    singular = np.linalg.cond(pa) > CONDITION_LIMIT
    pa[singular] = np.eye(2)
    return np.linalg.inv(pa), singular


def transfer_matrix(model: BivariateVar, omega: float) -> np.ndarray:
    """Normalised transfer matrix D(omega) = [P A(e^{-i omega})]^{-1}.

    P removes the instantaneous correlation so the transformed noise
    pair has the diagonal covariance diag(var_x, var_y - cov^2/var_x).
    Raises when the lag polynomial is numerically singular at omega.
    """
    d, singular = _transfer(model, np.array([float(omega)]))
    if singular[0]:
        raise NumericalError(
            f"transfer matrix singular at omega={omega:.6g} rad/sample"
        )
    return d[0]


def geweke_spectrum(
    model: BivariateVar,
    frequencies_hz: Sequence[float],
    sample_rate_hz: Optional[float] = None,
) -> SpectralCausality:
    """Per-frequency causal influence in both directions.

    The spectrum of the pair is S = D diag(var_x, var_y') D* with
    var_y' = var_y - cov^2/var_x; the first diagonal entry splits into
    the intrinsic |D11|^2 var_x plus the part routed from the other
    series, and the influence is ln(S11 / (|D11|^2 var_x)). The whole
    grid is evaluated at once; the reverse direction is computed on the
    role-swapped model. Frequencies at which either lag polynomial is
    singular yield NaN rows rather than failing the whole grid.
    """
    fs = checked_sample_rate(sample_rate_hz) or 1.0
    freqs = np.asarray(list(frequencies_hz), dtype=float)
    if freqs.size == 0:
        raise ValidationError("empty frequency grid")
    if not np.isfinite(freqs).all():
        bad = freqs[~np.isfinite(freqs)][0]
        raise ValidationError(f"frequency {float(bad)!r} is not finite")
    nyquist = fs / 2.0
    if (freqs <= 0).any() or (freqs > nyquist + 1e-12).any():
        raise ValidationError(
            f"frequencies must lie in (0, {nyquist}] Hz for sample rate {fs} Hz"
        )

    omegas = TWO_PI * freqs / fs
    f_y_to_x, spectra = _one_direction(model, omegas)
    f_x_to_y, _ = _one_direction(model.swapped(), omegas)
    return SpectralCausality(
        frequencies_hz=freqs,
        f_y_to_x=f_y_to_x,
        f_x_to_y=f_x_to_y,
        spectra=spectra,
    )


def _one_direction(model: BivariateVar, omegas: np.ndarray):
    try:
        d, singular = _transfer(model, omegas)
    except NumericalError:
        return np.full(omegas.size, np.nan), np.full((omegas.size, 2, 2), complex("nan"))
    cov = model.noise_cov
    # the normalised noise variances diag(var_x, var_y - cov^2/var_x)
    variances = np.array([cov.var_x, cov.var_y - cov.cov_xy * cov.cov_xy / cov.var_x])
    s = (d * variances) @ d.conj().swapaxes(1, 2)
    # total spectrum = intrinsic + routed part; forming the ratio this
    # way keeps f at exactly 0 when the cross transfer vanishes
    intrinsic, routed = ((d[:, 0] * d[:, 0].conj()).real * variances).T
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.where(intrinsic > 0, np.log1p(routed / intrinsic), np.nan)
    f[singular], s[singular] = np.nan, np.nan
    return f, s


def default_frequency_grid(sample_rate_hz: Optional[float] = None) -> np.ndarray:
    """Frequency grid used when the caller gives none.

    With a known sample rate: integer frequencies 1..30 Hz plus 50 and
    100 Hz, keeping those at or below Nyquist. Without one (or when
    nothing survives the Nyquist cut): 64 uniform points spanning
    (0, pi) radians/sample, expressed in cycles/sample.
    """
    fs = checked_sample_rate(sample_rate_hz)
    grid = [f for f in list(range(1, 31)) + [50, 100] if fs and f <= fs / 2.0]
    if grid:
        return np.array(grid, dtype=float)
    omegas = np.pi * np.arange(1, 65) / 65.0
    return omegas * (fs or 1.0) / TWO_PI


def spectral_to_csv(result: SpectralCausality, path) -> None:
    """Write frequency_hz, f_y_to_x, f_x_to_y rows as plot-ready CSV."""
    with open(path, "w", newline="") as fh:
        fh.write("frequency_hz,f_y_to_x,f_x_to_y\n")
        for f_hz, fyx, fxy in zip(
            result.frequencies_hz, result.f_y_to_x, result.f_x_to_y
        ):
            fh.write(f"{f_hz:.17g},{fyx:.17g},{fxy:.17g}\n")
