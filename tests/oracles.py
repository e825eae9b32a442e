"""Independent reference implementations used only to check the library.

These deliberately take different numerical routes from the package:
the incomplete beta uses a Lentz continued fraction, least squares goes
through the normal equations, code lengths are recomputed term by
term with plain Python floats, and Geweke spectra come from the
unnormalised transfer function one frequency at a time. The simulator
oracle is the network recursion as it was first written, on numpy
scalars one element at a time.
"""

import cmath
import math

import numpy as np

from granger_mdl.errors import DivergenceError

MACHEP = 1.1102230246251565e-16


def lgamma(x):
    return math.lgamma(x)


def betainc_cf(a, b, x):
    """Regularized incomplete beta I_x(a, b) via Lentz's continued fraction."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        lgamma(a + b) - lgamma(a) - lgamma(b)
        + a * math.log(x) + b * math.log(1.0 - x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _lentz(a, b, x) / a
    return 1.0 - betainc_cf(b, a, 1.0 - x)


def _lentz(a, b, x):
    tiny = 1e-300
    f, c, d = 1.0, 1.0, 0.0
    for m in range(0, 300):
        if m == 0:
            numerator = 1.0
        elif m % 2 == 0:
            k = m // 2
            numerator = k * (b - k) * x / ((a + 2.0 * k - 1.0) * (a + 2.0 * k))
        else:
            k = (m - 1) // 2
            numerator = -(a + k) * (a + b + k) * x / ((a + 2.0 * k) * (a + 2.0 * k + 1.0))
        d = 1.0 + numerator * d
        if abs(d) < tiny:
            d = tiny
        d = 1.0 / d
        c = 1.0 + numerator / c
        if abs(c) < tiny:
            c = tiny
        f *= c * d
        if abs(1.0 - c * d) < 8.0 * MACHEP:
            return f - 1.0
    return f - 1.0


def f_cdf_oracle(x, d1, d2):
    """F distribution CDF through the continued-fraction beta."""
    if x <= 0:
        return 0.0
    z = d1 * x / (d1 * x + d2)
    return betainc_cf(d1 / 2.0, d2 / 2.0, z)


def normal_equations_fit(design, response):
    """Least squares via the normal equations (Cholesky-ish solve)."""
    xtx = design.T @ design
    xty = design.T @ response
    coef = np.linalg.solve(xtx, xty)
    resid = response - design @ coef
    return coef, float(resid @ resid)


def gaussian_loglik_by_sum(residuals):
    """Per-sample Gaussian log-density summed directly at the MLE variance."""
    m = len(residuals)
    s2 = float(np.dot(residuals, residuals)) / m
    return sum(
        -0.5 * math.log(2.0 * math.pi * s2) - r * r / (2.0 * s2) for r in residuals
    )


def code_length_by_terms(coefficients, rss, m, n_total, scale_floor=1.0):
    """Term-by-term two-part code length in plain Python arithmetic."""
    delta = 1.0 / math.sqrt(n_total)
    sigma2 = rss / m
    data = m * math.log(math.sqrt(2.0 * math.pi) * math.sqrt(sigma2)) + rss / (2.0 * sigma2)
    param = 0.0
    for xi in [sigma2] + [float(c) for c in coefficients]:
        priced = max(abs(xi), scale_floor)
        param += max(0.0, math.log(priced / delta))
    order = math.log(len(list(coefficients)) + 1)
    return data + param + order, data, param, order


def ar2_autocovariance0(a1, a2, noise_var):
    """Stationary variance of x_t = a1 x_{t-1} + a2 x_{t-2} + noise."""
    # solve the Yule-Walker system for gamma0, gamma1, gamma2
    # gamma0 = a1 g1 + a2 g2 + s2; g1 = a1 g0 + a2 g1; g2 = a1 g1 + a2 g0
    rho1 = a1 / (1.0 - a2)
    g0 = noise_var / (1.0 - a1 * rho1 - a2 * (a1 * rho1 + a2))
    return g0


def geweke_by_transfer(a_mats, noise_cov, omega):
    """Both Geweke influences at one frequency, without normalising the noise.

    H = A(e^{-i omega})^{-1} by the explicit 2x2 inverse, S = H Sigma H*,
    and f_{y->x} = ln(S_xx / (S_xx - (Sigma_yy - Sigma_xy^2/Sigma_xx) |H_xy|^2)),
    with the mirror image for f_{x->y}. Returns (f_y_to_x, f_x_to_y, S as
    nested lists).
    """
    a = [[1.0 + 0j, 0j], [0j, 1.0 + 0j]]
    for ell, mat in enumerate(a_mats, start=1):
        z = cmath.exp(-1j * omega * ell)
        for r in range(2):
            for c in range(2):
                a[r][c] += float(mat[r][c]) * z
    det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
    h = [[a[1][1] / det, -a[0][1] / det], [-a[1][0] / det, a[0][0] / det]]
    sig = [[float(v) for v in row] for row in noise_cov]
    s = [
        [
            sum(h[r][i] * sig[i][j] * h[c][j].conjugate() for i in range(2) for j in range(2))
            for c in range(2)
        ]
        for r in range(2)
    ]
    sxx, syy = s[0][0].real, s[1][1].real
    part_y = sig[1][1] - sig[0][1] ** 2 / sig[0][0]
    part_x = sig[0][0] - sig[0][1] ** 2 / sig[1][1]
    f_y_to_x = math.log(sxx / (sxx - part_y * abs(h[0][1]) ** 2))
    f_x_to_y = math.log(syy / (syy - part_x * abs(h[1][0]) ** 2))
    return f_y_to_x, f_x_to_y, s


def simulate_by_loop(spec, seed):
    """Values of ``bench.simulate(spec, seed)``, by the per-element numpy recursion.

    The same draws (variances, then the whole noise block) and, per node,
    noise first and then each term in coefficient order; the retained
    rows as an array.
    """
    rng = np.random.default_rng(seed)
    variances = np.array(
        [
            rng.uniform(v[0], v[1]) if isinstance(v, tuple) else v
            for v in spec.noise_variances
        ]
    )
    sds = np.sqrt(variances)
    n, k = spec.total_len, spec.n_nodes
    start = spec.max_lag
    values = np.zeros((n, k))
    values[:start] = np.asarray(spec.initial_values)
    noise = rng.standard_normal((n, k)) * sds
    by_target = {}
    for t, s, lag, v in spec.coefficients:
        by_target.setdefault(t, []).append((s, lag, v))
    for t in range(start, n):
        for node in range(k):
            acc = noise[t, node]
            for s, lag, v in by_target.get(node, ()):
                acc += v * values[t - lag, s]
            if abs(acc) > 1e12:
                raise DivergenceError(
                    f"trajectory diverged at node {node}, step {t}: |{acc:.3e}|",
                    node=node,
                    step=t,
                )
            values[t, node] = acc
    return values[spec.burn_in:]
