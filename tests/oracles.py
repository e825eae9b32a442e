"""Independent reference implementations used only to check the library.

These deliberately take different numerical routes from the package:
the incomplete beta uses a Lentz continued fraction, least squares goes
through the normal equations, code lengths are recomputed term by
term with plain Python floats, and Geweke spectra come from the
unnormalised transfer function one frequency at a time. One series'
innovation variance comes from the companion form's autocovariances
and the Levinson-Durbin recursion, with no spectrum. The simulator
oracle is the network recursion as it was first written, on numpy
scalars one element at a time. The Markov-chain context counts are a
loop over the bits.
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


def univariate_innovation_variance(a_mats, noise_cov, lags):
    """One-step prediction error variance of the VAR's first series from its own last ``lags`` values.

    The VAR is A(L) X = e with A_0 = I, lag matrices ``a_mats`` and
    innovation covariance ``noise_cov``. Its companion form s_t = F s_{t-1}
    + e_t has state covariance vec G_0 = (I - F kron F)^-1 vec Q, and
    cov(s_{t+h}, s_t) = F^h G_0, whose top-left entries are the first
    series' autocovariances; Levinson-Durbin turns them into the error
    variance of its order-``lags`` predictor.
    """
    k = np.asarray(a_mats[0]).shape[0]
    size = k * len(a_mats)
    f = np.zeros((size, size))
    f[:k] = -np.hstack([np.asarray(a, dtype=float) for a in a_mats])
    f[k:, :-k] = np.eye(size - k)
    q = np.zeros((size, size))
    q[:k, :k] = noise_cov
    g = np.linalg.solve(np.eye(size * size) - np.kron(f, f), q.ravel()).reshape(size, size)
    gamma = []
    for _ in range(lags + 1):
        gamma.append(g[0, 0])
        g = f @ g
    phi, variance = np.zeros(0), gamma[0]
    for h in range(1, lags + 1):
        reflection = (gamma[h] - phi @ gamma[h - 1:0:-1]) / variance
        phi = np.append(phi - reflection * phi[::-1], reflection)
        variance *= 1.0 - reflection ** 2
    return variance


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
            if not abs(acc) <= 1e12:
                raise DivergenceError(
                    f"trajectory diverged at node {node}, step {t}: |{acc:.3e}|",
                    node=node,
                    step=t,
                )
            values[t, node] = acc
    return values[spec.burn_in:]


def lagged_rss_longdouble(values, target, variables, order, start):
    """rss of ``target`` on lags 1..order of ``variables``, rows start.., in np.longdouble.

    A Householder QR of [X | y] carried out in extended precision (where
    np.longdouble is wider than a double), column by column with plain
    array arithmetic: no LAPACK, and no shared code with the package.
    """
    data = np.asarray(values, dtype=np.longdouble)
    n = data.shape[0]
    columns = [data[start - lag:n - lag, v] for lag in range(1, order + 1) for v in variables]
    a = np.column_stack(columns + [data[start:, target]])
    k = len(columns)
    for j in range(k):
        x = a[j:, j].copy()
        norm = np.sqrt((x * x).sum())
        x[0] += norm if x[0] >= 0 else -norm
        scale = (x * x).sum()
        a[j:, j:] -= np.outer(x, 2 * (x @ a[j:, j:]) / scale)
    tail = a[k:, k]
    return (tail * tail).sum()


def context_counts_by_loop(arr, gamma):
    """(n0, n1) float counts of 0/1 successors per length-gamma context, one bit at a time.

    The context is the last gamma bits before the position, MSB-first,
    carried as a running integer; the first gamma positions are not counted.
    """
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


def universal_bits(j):
    """log2 j + 2 log2(log2(j+1) + 1) + 1, the package's universal integer code, on Python floats."""
    return math.log2(j) + 2.0 * math.log2(math.log2(j + 1) + 1.0) + 1.0


def count_bits_by_terms(n1, n0, theta):
    """-n1 log2(theta) - n0 log2(1 - theta) term by term, or None where a seen symbol has probability 0."""
    if (n1 > 0 and theta == 0.0) or (n0 > 0 and theta == 1.0):
        return None
    bits = 0.0
    if n1 > 0:
        bits -= n1 * math.log2(theta)
    if n0 > 0:
        bits -= n0 * math.log2(1.0 - theta)
    return bits


def markov_mdl_by_loop(arr, gamma_max, d_max):
    """(k, d, theta_hat, total_bits) of the binary-chain search, every context and pair one at a time.

    Every (gamma, d) is scored, with no early stop: gamma bits for the
    prefix plus each context's count code, then k*d and the universal
    codes of k and d; a strictly smaller total replaces the best. None if
    no pair is admissible.
    """
    best = None
    for gamma in range(gamma_max + 1):
        k = 2 ** gamma
        n0_ctx, n1_ctx = context_counts_by_loop(arr, gamma)
        for d in range(1, d_max + 1):
            cells = float(2 ** d)
            theta_q = [round(n1 / (n0 + n1) * cells) / cells if n0 + n1 else 0.5
                       for n0, n1 in zip(n0_ctx, n1_ctx)]
            data_bits = float(gamma)
            for n0, n1, theta in zip(n0_ctx, n1_ctx, theta_q):
                bits = count_bits_by_terms(n1, n0, theta)
                if bits is None:
                    break
                data_bits += bits
            else:
                total = data_bits + k * d + universal_bits(k) + universal_bits(d)
                if best is None or total < best[3]:
                    best = (k, d, np.array(theta_q), total)
    return best
