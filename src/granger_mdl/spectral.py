"""Frequency-domain (Geweke) causality from a fitted bivariate VAR.

The lag polynomial A(z) = I + A_1 z + ... + A_n z^n is inverted once on
the unit circle, as the 2x2 adjugate over the determinant, to give the
transfer matrix H = A(e^{-i omega})^{-1} and the spectrum S = H Sigma H*.
With the innovations decorrelated, S_xx splits into an intrinsic part
and a part routed from y, and the influence is the log of their ratio:

    f_{y->x} = ln(1 + |H_xy|^2 (Sigma_yy - Sigma_xy^2/Sigma_xx)
                      / (|H_xx + (Sigma_xy/Sigma_xx) H_xy|^2 Sigma_xx)),

f_{x->y} being the same with the variables exchanged. A frequency at
which A is singular against the scale of its coefficients (see
`_transfer`) is a NaN row in both.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import NumericalError, ValidationError
from .regression import LagEngine, ResidualCovariance, stability_check
from .selection import _search_order
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
    the contemporaneous residual covariance [[var_x, cov], [cov, var_y]], a
    ResidualCovariance. ``order`` >= 1 is read by :func:`checked_value`.
    """

    order: int
    a_mats: tuple
    noise_cov: ResidualCovariance

    def __init__(self, order, a_mats, noise_cov):
        order = checked_value(order, int, "order")
        if order < 1:
            raise ValidationError(f"order must be >= 1, got {order}")
        if not isinstance(noise_cov, ResidualCovariance):
            raise ValidationError(f"noise_cov must be a ResidualCovariance, got {type(noise_cov).__name__}")
        a_mats = tuple(np.asarray(a, dtype=float) for a in a_mats)
        if len(a_mats) != order:
            raise ValidationError(f"{len(a_mats)} lag matrices for order {order}")
        for a in a_mats:
            if a.shape != (2, 2) or not np.isfinite(a).all():
                raise ValidationError("lag matrices must be finite 2x2 arrays")
        object.__setattr__(self, "order", order)
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
    return _search_order(LagEngine(ts, p_max, variables=[xi, yi]), [(xi, [xi, yi]), (yi, [xi, yi])], "MDL")[0]


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
        coefficients.append(scan.coefficients[0, :, order - 1].reshape(order, 2))
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
    """H = A(e^{-i omega})^{-1} at every omega (NaN rows where A is singular), and those rows.

    A is singular where (||I||_F + sum_l ||A_l||_F)^2 >= CONDITION_LIMIT
    |det A|. That scale bounds ||A||_F, and kappa + 1/kappa = ||A||_F^2 /
    |det A| (s1 s2 = |det A|, s1^2 + s2^2 = ||A||_F^2), so the rule flags
    every omega where kappa_2(A) reaches the limit, and also those where
    the polynomial vanishes as a whole, whatever kappa_2 is there.
    """
    a = np.tile(np.eye(2, dtype=complex), (omegas.size, 1, 1))
    for ell, mat in enumerate(model.a_mats, start=1):
        a += mat * np.exp(-1j * omegas * ell)[:, None, None]
    det = a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
    scale = np.sqrt(2.0) + np.sqrt(np.square(model.a_mats).sum(axis=(1, 2))).sum()
    singular = scale ** 2 >= CONDITION_LIMIT * np.abs(det)
    adjugate = np.stack([a[:, 1, 1], -a[:, 0, 1], -a[:, 1, 0], a[:, 0, 0]], axis=1)
    inverse_det = np.divide(1.0, det, out=np.full_like(det, np.nan), where=~singular)
    return (adjugate * inverse_det[:, None]).reshape(-1, 2, 2), singular


def _influence(h: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """f_{y->x} of the module formula at every row of H; exactly 0 where H_xy
    vanishes, NaN where the intrinsic part is not positive (everywhere if Sigma_xx is not)."""
    var_x, cov, var_y = sigma[0, 0], sigma[0, 1], sigma[1, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        intrinsic = np.abs(h[:, 0, 0] + cov / var_x * h[:, 0, 1]) ** 2 * var_x
        routed = np.abs(h[:, 0, 1]) ** 2 * (var_y - cov * cov / var_x)
        return np.where(intrinsic > 0, np.log1p(routed / intrinsic), np.nan)


def transfer_matrix(model: BivariateVar, omega: float) -> np.ndarray:
    """Normalised transfer matrix D(omega) = [P A(e^{-i omega})]^{-1} = H P^{-1}.

    P removes the instantaneous correlation so the transformed noise
    pair has the diagonal covariance diag(var_x, var_y - cov^2/var_x).
    omega must be a finite number. Raises NumericalError when var_x is
    not positive or A is singular at omega (a NaN row of geweke_spectrum).
    """
    omega = checked_value(omega, float, "omega")
    if not np.isfinite(omega):
        raise ValidationError(f"omega {omega!r} is not finite")
    cov = model.noise_cov
    if cov.var_x <= 0:
        raise NumericalError("noise variance of the first equation must be positive")
    h, singular = _transfer(model, np.array([omega]))
    if singular[0]:
        raise NumericalError(f"transfer matrix singular at omega={omega:.6g} rad/sample")
    return h[0] @ np.array([[1.0, 0.0], [cov.cov_xy / cov.var_x, 1.0]])


def geweke_spectrum(
    model: BivariateVar,
    frequencies_hz: Sequence[float],
    sample_rate_hz: Optional[float] = None,
) -> SpectralCausality:
    """Per-frequency causal influence in both directions, from one H.

    Singular frequencies are NaN rows. A direction whose first noise
    variance is not positive is NaN throughout; for x, so are the spectra.
    """
    fs = checked_sample_rate(sample_rate_hz) or 1.0
    freqs = _checked_grid(frequencies_hz, fs)
    h, _ = _transfer(model, TWO_PI * freqs / fs)
    sigma = np.asarray(model.noise_cov.matrix, dtype=float)
    spectra = h @ sigma @ h.conj().swapaxes(1, 2)
    if not sigma[0, 0] > 0:
        spectra[:] = np.nan
    return SpectralCausality(
        frequencies_hz=freqs,
        f_y_to_x=_influence(h, sigma),
        f_x_to_y=_influence(h[:, ::-1, ::-1], sigma[::-1, ::-1]),
        spectra=spectra,
    )


def _checked_grid(frequencies_hz, fs: float) -> np.ndarray:
    """``frequencies_hz`` as a float array, nonempty, finite and in (0, Nyquist] for sample rate ``fs`` Hz."""
    freqs = np.asarray(list(frequencies_hz), dtype=float)
    if freqs.size == 0:
        raise ValidationError("empty frequency grid")
    if not np.isfinite(freqs).all():
        bad = freqs[~np.isfinite(freqs)][0]
        raise ValidationError(f"frequency {float(bad)!r} is not finite")
    nyquist = fs / 2.0
    if (freqs <= 0).any() or (freqs > nyquist + 1e-12).any():
        raise ValidationError(f"frequencies must lie in (0, {nyquist}] Hz for sample rate {fs} Hz")
    return freqs


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
