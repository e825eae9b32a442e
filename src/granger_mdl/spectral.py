"""Frequency-domain (Geweke) causality from a fitted bivariate VAR.

The fitted lag polynomial is inverted on the unit circle to obtain the
transfer matrix, after a normalisation that diagonalises the innovation
covariance. The target's spectrum then splits into an intrinsic part
and a part driven by the other variable, and the causal influence at a
frequency is the log ratio of total to intrinsic spectrum.
"""

from __future__ import annotations

import cmath
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import NumericalError, ValidationError
from .regression import (
    LagSpec,
    ResidualCovariance,
    build_design,
    ols_fit,
    residual_covariance,
    stability_check,
)
from .selection import search_order
from .timeseries import TimeSeriesMatrix, checked_sample_rate

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
    """
    xi, yi = ts.column(x), ts.column(y)
    if xi == yi:
        raise ValidationError("x and y must be distinct variables")
    return search_order(ts, [(xi, [xi, yi]), (yi, [xi, yi])], "MDL", p_max)[0]


def fit_bivariate_var(ts: TimeSeriesMatrix, x, y, order: int) -> BivariateVar:
    """Estimate a bivariate VAR for (x, y) by per-equation least squares.

    Both equations share one response window. The fitted coefficient
    matrices are negated into the lag-polynomial sign convention, and a
    stationarity warning is emitted when the companion spectral radius
    reaches 1.
    """
    xi, yi = ts.column(x), ts.column(y)
    if xi == yi:
        raise ValidationError("x and y must be distinct variables")
    if order < 1:
        raise ValidationError(f"order must be >= 1, got {order}")

    predictors = [(xi, order), (yi, order)]
    Xd, resp_x = build_design(ts, LagSpec(xi, predictors), start=order)
    _, resp_y = build_design(ts, LagSpec(yi, predictors), start=order)
    fit_x = ols_fit(Xd, resp_x)
    fit_y = ols_fit(Xd, resp_y)

    # coefficients are predictor-major: x-lags then y-lags
    b_mats = []
    for ell in range(order):
        b = np.array(
            [
                [fit_x.coefficients[ell], fit_x.coefficients[order + ell]],
                [fit_y.coefficients[ell], fit_y.coefficients[order + ell]],
            ]
        )
        b_mats.append(-b)
    cov = residual_covariance(fit_x, fit_y)

    radius = stability_check([-a for a in b_mats])
    if radius >= 1.0:
        warnings.warn(
            f"fitted VAR is not stationary (companion radius {radius:.4f})",
            RuntimeWarning,
            stacklevel=2,
        )
    return BivariateVar(order=order, a_mats=tuple(b_mats), noise_cov=cov)


def _lag_polynomial(model: BivariateVar, omega: float) -> np.ndarray:
    a = np.eye(2, dtype=complex)
    for ell, mat in enumerate(model.a_mats, start=1):
        a = a + mat * cmath.exp(-1j * omega * ell)
    return a


def transfer_matrix(model: BivariateVar, omega: float) -> np.ndarray:
    """Normalised transfer matrix D(omega) = [P A(e^{-i omega})]^{-1}.

    P removes the instantaneous correlation so the transformed noise
    pair has the diagonal covariance diag(var_x, var_y - cov^2/var_x).
    Raises when the lag polynomial is numerically singular at omega.
    """
    sigma2 = model.noise_cov.var_x
    upsilon = model.noise_cov.cov_xy
    if sigma2 <= 0:
        raise NumericalError("noise variance of the first equation must be positive")
    p = np.array([[1.0, 0.0], [-upsilon / sigma2, 1.0]], dtype=complex)
    pa = p @ _lag_polynomial(model, omega)
    if np.linalg.cond(pa) > CONDITION_LIMIT:
        raise NumericalError(
            f"transfer matrix singular at omega={omega:.6g} rad/sample"
        )
    return np.linalg.inv(pa)


def geweke_spectrum(
    model: BivariateVar,
    frequencies_hz: Sequence[float],
    sample_rate_hz: Optional[float] = None,
) -> SpectralCausality:
    """Per-frequency causal influence in both directions.

    The spectrum of the pair is S = D diag(var_x, var_y') D* with
    var_y' = var_y - cov^2/var_x; the first diagonal entry splits into
    the intrinsic |D11|^2 var_x plus the part routed from the other
    series, and the influence is ln(S11 / (|D11|^2 var_x)). The reverse
    direction is computed on the role-swapped model. Frequencies at
    which either lag polynomial is singular yield NaN rows rather than
    failing the whole grid.
    """
    fs = checked_sample_rate(sample_rate_hz) or 1.0
    freqs = np.asarray(list(frequencies_hz), dtype=float)
    if freqs.size == 0:
        raise ValidationError("empty frequency grid")
    nyquist = fs / 2.0
    if (freqs <= 0).any() or (freqs > nyquist + 1e-12).any():
        raise ValidationError(
            f"frequencies must lie in (0, {nyquist}] Hz for sample rate {fs} Hz"
        )

    swapped = model.swapped()
    n = freqs.size
    f_y_to_x = np.empty(n)
    f_x_to_y = np.empty(n)
    spectra = np.empty((n, 2, 2), dtype=complex)
    for idx, f_hz in enumerate(freqs):
        omega = TWO_PI * f_hz / fs
        f_y_to_x[idx], spectra[idx] = _one_direction(model, omega)
        f_x_to_y[idx], _ = _one_direction(swapped, omega)
    return SpectralCausality(
        frequencies_hz=freqs,
        f_y_to_x=f_y_to_x,
        f_x_to_y=f_x_to_y,
        spectra=spectra,
    )


def _one_direction(model: BivariateVar, omega: float):
    try:
        d = transfer_matrix(model, omega)
    except NumericalError:
        return float("nan"), np.full((2, 2), complex("nan"))
    sigma2 = model.noise_cov.var_x
    gamma2 = model.noise_cov.var_y
    upsilon = model.noise_cov.cov_xy
    upsilon_prime = gamma2 - upsilon * upsilon / sigma2
    diag = np.array([[sigma2, 0.0], [0.0, upsilon_prime]], dtype=complex)
    s = d @ diag @ d.conj().T
    # total spectrum = intrinsic + routed part; forming the ratio this
    # way keeps f at exactly 0 when the cross transfer vanishes
    intrinsic = (d[0, 0] * np.conj(d[0, 0])).real * sigma2
    routed = (d[0, 1] * np.conj(d[0, 1])).real * upsilon_prime
    if intrinsic <= 0:
        return float("nan"), s
    return float(np.log1p(routed / intrinsic)), s


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
