import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from granger_mdl.bench import NetworkSpec, builtin_3node, builtin_5node, simulate
from granger_mdl.errors import GrangerMdlError, NumericalError, ValidationError
from granger_mdl.regression import (
    LagSpec,
    ResidualCovariance,
    build_design,
    ols_fit,
    residual_covariance,
    stability_check,
)
from granger_mdl.cli import main
from granger_mdl.spectral import (
    CONDITION_LIMIT,
    BivariateVar,
    default_frequency_grid,
    fit_bivariate_var,
    geweke_spectrum,
    select_var_order,
    spectral_to_csv,
    transfer_matrix,
)
from granger_mdl.timeseries import TimeSeriesMatrix, demean, save_csv

from oracles import geweke_by_transfer, univariate_innovation_variance


def decoupled_pair(seed, n=10_000):
    rng = np.random.default_rng(seed)
    x = np.zeros(n)
    y = np.zeros(n)
    e = rng.standard_normal((n, 2))
    for t in range(2, n):
        x[t] = 0.6 * x[t - 1] - 0.3 * x[t - 2] + 0.8 * e[t, 0]
        y[t] = 0.5 * y[t - 1] - 0.2 * y[t - 2] + 0.6 * e[t, 1]
    return demean(TimeSeriesMatrix(np.column_stack([x, y]), ["x", "y"]))


def sim3_long(seed, n_keep=10_000):
    base = builtin_3node()
    spec = NetworkSpec(
        n_nodes=3,
        coefficients=base.coefficients,
        noise_variances=[0.25, 0.25, 0.25],
        total_len=n_keep + 700,
        burn_in=700,
        initial_values=base.initial_values,
    )
    return demean(simulate(spec, seed))


def diagonal_noise(var_x=1.0, var_y=1.0, cov=0.0):
    return ResidualCovariance(np.array([[var_x, cov], [cov, var_y]]))


def stable_model(rng, order):
    """A random stationary bivariate VAR with a positive definite noise covariance."""
    a_mats = rng.uniform(-0.5, 0.5, (order, 2, 2)) / order
    while stability_check(-a_mats) >= 0.95:
        a_mats = a_mats * 0.8
    chol = np.array([[rng.uniform(0.5, 1.5), 0.0], rng.uniform(-0.8, 0.8, 2)])
    chol[1, 1] = abs(chol[1, 1]) + 0.3
    return BivariateVar(order, a_mats, ResidualCovariance(chol @ chol.T))


class TestFitBivariateVar:
    def test_decoupled_cross_blocks_near_zero(self):
        ts = decoupled_pair(21)
        model = fit_bivariate_var(ts, "x", "y", order=2)
        for a in model.a_mats:
            assert abs(a[0, 1]) < 0.03
            assert abs(a[1, 0]) < 0.03

    def test_blocks_match_generator_on_driven_pair(self):
        ts = sim3_long(31)
        model = fit_bivariate_var(ts, "node1", "node2", order=2)
        expected_lag1 = -np.array([[1.5, 0.0], [0.8, 0.2]])
        expected_lag2 = -np.array([[-0.9, 0.0], [0.0, 0.0]])
        np.testing.assert_allclose(model.a_mats[0], expected_lag1, atol=0.05)
        np.testing.assert_allclose(model.a_mats[1], expected_lag2, atol=0.05)

    def test_order_too_large(self):
        ts = decoupled_pair(1, n=30)
        with pytest.raises(ValidationError):
            fit_bivariate_var(ts, "x", "y", order=20)

    @pytest.mark.filterwarnings("ignore:fitted VAR is not stationary")
    def test_interpolating_order_rejected(self):
        # 21 rows at order 7 leave m = 14 = 2 * order rows for 14 columns
        ts = decoupled_pair(3, n=21)
        with pytest.raises(ValidationError, match="14 rows ≤ 14 columns"):
            fit_bivariate_var(ts, "x", "y", order=7)
        model = fit_bivariate_var(decoupled_pair(3, n=22), "x", "y", order=7)
        # one residual degree of freedom: both variances positive, rank one
        assert model.noise_cov.var_x > 0 and model.noise_cov.var_y > 0

    def test_matches_design_route(self):
        rng = np.random.default_rng(8)
        for order in range(1, 7):
            n = int(rng.integers(60, 200))
            values = rng.standard_normal((n, 3))
            for t in range(1, n):
                values[t] += np.array([[0.5, 0.3, 0.0], [0.0, 0.4, 0.2], [0.2, 0.0, 0.3]]) @ values[t - 1]
            ts = TimeSeriesMatrix(values)
            x, y = (int(v) for v in rng.permutation(3)[:2])
            model = fit_bivariate_var(ts, x, y, order)
            predictors = [(x, order), (y, order)]
            fits = [ols_fit(*build_design(ts, LagSpec(v, predictors))) for v in (x, y)]
            for ell in range(order):
                expected = -np.array([[f.coefficients[ell], f.coefficients[order + ell]]
                                      for f in fits])
                np.testing.assert_allclose(model.a_mats[ell], expected, rtol=0, atol=1e-10)
            np.testing.assert_allclose(
                model.noise_cov.matrix, residual_covariance(*fits).matrix, rtol=1e-10, atol=0
            )

    def test_duplicated_column_names_label(self):
        rng = np.random.default_rng(4)
        values = rng.standard_normal((100, 3))
        values[:, 2] = values[:, 1]
        ts = TimeSeriesMatrix(values)
        with pytest.raises(ValidationError, match="variables v1 and v2 are identical"):
            fit_bivariate_var(ts, "v1", "v2", order=2)
        with pytest.raises(ValidationError, match="variables v1 and v2 are identical"):
            select_var_order(ts, "v1", "v2", 4)

    def test_nonstationary_fit_warns(self):
        rng = np.random.default_rng(2)
        steps = rng.standard_normal((400, 2)).cumsum(axis=0)
        ts = TimeSeriesMatrix(steps, ["x", "y"])
        with pytest.warns(RuntimeWarning, match="not stationary"):
            fit_bivariate_var(ts, "x", "y", order=1)

    def test_system_order_selection_covers_both_equations(self):
        # the source equation needs two lags even though the target's
        # own equation is first order
        ts0 = simulate(builtin_3node(), 0)
        ts = demean(ts0)
        assert select_var_order(ts, "node2", "node1", 10) == 2


class TestTransferMatrix:
    def test_white_noise_identity(self):
        model = BivariateVar(order=1, a_mats=[np.zeros((2, 2))], noise_cov=diagonal_noise())
        for omega in (0.0, 0.3, 1.0, 3.0):
            np.testing.assert_allclose(transfer_matrix(model, omega), np.eye(2), atol=1e-14)

    def test_uncorrelated_noise_skips_normalisation(self):
        a1 = np.array([[-0.5, 0.1], [0.2, -0.4]])
        model = BivariateVar(order=1, a_mats=[a1], noise_cov=diagonal_noise())
        omega = 0.7
        a_poly = np.eye(2, dtype=complex) + a1 * np.exp(-1j * omega)
        np.testing.assert_allclose(
            transfer_matrix(model, omega), np.linalg.inv(a_poly), atol=1e-12
        )

    def test_inverse_property_at_random_frequencies(self):
        rng = np.random.default_rng(77)
        a1 = rng.uniform(-0.3, 0.3, (2, 2))
        a2 = rng.uniform(-0.2, 0.2, (2, 2))
        cov = diagonal_noise(1.3, 0.9, 0.4)
        model = BivariateVar(order=2, a_mats=[a1, a2], noise_cov=cov)
        p = np.array([[1.0, 0.0], [-cov.cov_xy / cov.var_x, 1.0]], dtype=complex)
        for omega in rng.uniform(1e-3, np.pi, 64):
            a_poly = (
                np.eye(2, dtype=complex)
                + a1 * np.exp(-1j * omega)
                + a2 * np.exp(-2j * omega)
            )
            product = transfer_matrix(model, omega) @ (p @ a_poly)
            np.testing.assert_allclose(product, np.eye(2), atol=1e-10)

    @pytest.mark.parametrize("omega, message", [
        (float("nan"), "omega nan is not finite"),
        (float("inf"), "omega inf is not finite"),
        (float("-inf"), "omega -inf is not finite"),
        ("0.3", "omega must be a number, got '0.3'"),
        (True, "omega must be a number, got True"),
        (None, "omega must be a number, got None"),
    ])
    def test_omega_validated(self, omega, message):
        model = BivariateVar(order=1, a_mats=[np.zeros((2, 2))], noise_cov=diagonal_noise())
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            transfer_matrix(model, omega)
        np.testing.assert_array_equal(transfer_matrix(model, 1), transfer_matrix(model, 1.0))


class TestGewekeSpectrum:
    def test_decoupled_true_model_gives_exact_zero(self):
        a1 = np.diag([-0.6, -0.5])
        a2 = np.diag([0.3, 0.2])
        model = BivariateVar(order=2, a_mats=[a1, a2], noise_cov=diagonal_noise(0.8, 0.5))
        sc = geweke_spectrum(model, np.linspace(0.01, 0.5, 40), 1.0)
        assert (sc.f_y_to_x == 0.0).all()
        assert (sc.f_x_to_y == 0.0).all()

    def test_driven_pair_spectral_dominance(self):
        ts0 = simulate(builtin_3node(), 0)
        ts = TimeSeriesMatrix(demean(ts0).values, ts0.labels, sample_rate_hz=200.0)
        order = select_var_order(ts, "node2", "node1", 10)
        model = fit_bivariate_var(ts, "node2", "node1", order)
        sc = geweke_spectrum(model, list(range(1, 31)), 200.0)
        assert (sc.f_y_to_x > 0.05).all()
        assert (sc.f_x_to_y < 0.02).all()

    def test_integral_matches_time_domain_measure(self):
        rng = np.random.default_rng(42)
        n = 50_000
        x = np.zeros(n)
        y = np.zeros(n)
        e = rng.standard_normal((n, 2))
        for t in range(2, n):
            x[t] = 0.55 * x[t - 1] - 0.8 * x[t - 2] + 0.25 * y[t - 1] + 0.7 * e[t, 0]
            y[t] = 0.6 * y[t - 1] - 0.1 * y[t - 2] + 0.6 * e[t, 1]
        ts = demean(TimeSeriesMatrix(np.column_stack([x, y]), ["x", "y"]))
        model = fit_bivariate_var(ts, "x", "y", 2)
        X, resp = build_design(ts, LagSpec(0, [(0, 30)]))
        restricted_var = ols_fit(X, resp).sigma2_mle
        time_domain = np.log(restricted_var / model.noise_cov.var_x)
        ngrid = 4096
        freqs = (np.arange(1, ngrid + 1) - 0.5) / (2.0 * ngrid)
        sc = geweke_spectrum(model, freqs, 1.0)
        integral = float(np.mean(sc.f_y_to_x))
        assert integral == pytest.approx(time_domain, rel=0.05)

    def test_hermitian_and_nonnegative(self):
        ts = sim3_long(3, n_keep=2_000)
        model = fit_bivariate_var(ts, "node1", "node2", 2)
        sc = geweke_spectrum(model, np.linspace(0.01, 0.5, 50), 1.0)
        for s in sc.spectra:
            assert np.abs(s - s.conj().T).max() <= 1e-8
            assert s[0, 0].real >= -1e-10 and s[1, 1].real >= -1e-10
        assert (sc.f_y_to_x >= -1e-8).all()
        assert (sc.f_x_to_y >= -1e-8).all()

    def test_null_levels_are_small_sample_noise(self):
        # on independent white-noise pairs the fitted influence is
        # pure estimation noise; its per-seed frequency average sits at
        # the chi-square scale of a few / m
        means = []
        for seed in range(200):
            rng = np.random.default_rng(9_000 + seed)
            ts = TimeSeriesMatrix(rng.standard_normal((300, 2)), ["x", "y"])
            order = select_var_order(ts, "x", "y", 10)
            model = fit_bivariate_var(ts, "x", "y", order)
            sc = geweke_spectrum(model, (np.arange(1, 65) - 0.5) / 129.0, 1.0)
            means.append(float(np.mean(sc.f_y_to_x)))
        m = 300
        assert np.percentile(means, 95) < 4.5 / m
        assert np.median(means) < 1.5 / m

    def test_grid_refinement_pointwise_stable(self):
        ts = sim3_long(4, n_keep=2_000)
        model = fit_bivariate_var(ts, "node1", "node2", 2)
        coarse = geweke_spectrum(model, [0.1, 0.2, 0.3], 1.0)
        fine = geweke_spectrum(model, [0.05, 0.1, 0.15, 0.2, 0.25, 0.3], 1.0)
        np.testing.assert_array_equal(coarse.f_y_to_x, fine.f_y_to_x[1::2])

    def test_singular_frequency_flags_nan(self):
        # the lag polynomial loses rank exactly at Nyquist for this model
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        model = BivariateVar(order=1, a_mats=[swap], noise_cov=diagonal_noise())
        sc = geweke_spectrum(model, [0.25, 0.5], 1.0)
        assert np.isfinite(sc.f_y_to_x[0])
        assert np.isnan(sc.f_y_to_x[1])
        assert np.isnan(sc.spectra[1]).all()

    def test_vanishing_polynomial_flags_nan(self):
        # A(e^{-i pi/2}) = I - I rounds to about 1.2e-16 I: its kappa_2 is 1,
        # but the polynomial vanishes against the scale of its coefficients
        model = BivariateVar(order=2, a_mats=[np.zeros((2, 2)), np.eye(2)], noise_cov=diagonal_noise())
        sc = geweke_spectrum(model, [0.1, 0.25], 1.0)
        assert np.isfinite(sc.f_y_to_x[0]) and np.isfinite(sc.f_x_to_y[0])
        assert np.isnan(sc.f_y_to_x[1]) and np.isnan(sc.f_x_to_y[1])
        assert np.isnan(sc.spectra[1]).all() and np.isfinite(sc.spectra[0]).all()
        with pytest.raises(NumericalError, match="singular"):
            transfer_matrix(model, np.pi / 2)

    def test_spectral_command_on_a_root_at_a_quarter_of_the_rate(self, tmp_path, capsys):
        # x_t = -x_(t-2) + e_t in both variables, so the fitted A_2 is close to I
        e = np.random.default_rng(5).standard_normal((400, 2))
        values = np.zeros((400, 2))
        for t in range(2, 400):
            values[t] = -values[t - 2] + e[t]
        path, out = tmp_path / "root.csv", tmp_path / "root-spectral.csv"
        save_csv(TimeSeriesMatrix(values, ["x", "y"]), path)
        code = main(["spectral", str(path), "--x", "x", "--y", "y", "--order", "2",
                     "--freqs", "0.1,0.25", "--out", str(out)])
        assert code == 0
        assert "Traceback" not in capsys.readouterr().err
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [float(row[0]) for row in rows] == [0.1, 0.25]
        assert all(np.isnan(v) or v >= 0.0 for row in rows for v in map(float, row[1:]))

    def test_nan_rows_where_kappa_2_reaches_the_limit_on_five_node_pairs(self):
        # the scale rule adds only frequencies where A vanishes as a whole, so
        # on fitted five-node pairs it flags where the kappa_2 rule does: nowhere
        ts = demean(simulate(builtin_5node(), 1))
        freqs = np.arange(1.0, 101.0)
        z = np.exp(-2j * np.pi * freqs / 200.0)
        for x in range(5):
            for y in range(5):
                if x == y:
                    continue
                model = fit_bivariate_var(ts, x, y, select_var_order(ts, x, y))
                a = np.eye(2) + sum(mat * z[:, None, None] ** ell
                                    for ell, mat in enumerate(model.a_mats, start=1))
                singular = np.linalg.cond(a) >= CONDITION_LIMIT
                sc = geweke_spectrum(model, freqs, 200.0)
                np.testing.assert_array_equal(np.isnan(sc.f_y_to_x), singular)
                np.testing.assert_array_equal(np.isnan(sc.f_x_to_y), singular)

    def test_matches_unnormalised_oracle(self):
        rng = np.random.default_rng(12)
        freqs = np.linspace(0.01, 0.5, 23)
        for order in (1, 2, 3, 4):
            for _ in range(3):
                model = stable_model(rng, order)
                sc = geweke_spectrum(model, freqs, 1.0)
                for idx, f_hz in enumerate(freqs):
                    fyx, fxy, s = geweke_by_transfer(model.a_mats, model.noise_cov.matrix,
                                                     2.0 * np.pi * f_hz)
                    assert sc.f_y_to_x[idx] == pytest.approx(fyx, rel=1e-10, abs=1e-13)
                    assert sc.f_x_to_y[idx] == pytest.approx(fxy, rel=1e-10, abs=1e-13)
                    np.testing.assert_allclose(sc.spectra[idx], np.array(s), rtol=1e-10)

    def test_nan_rows_exactly_where_transfer_matrix_raises(self):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        model = BivariateVar(order=1, a_mats=[swap], noise_cov=diagonal_noise(1.0, 2.0, 0.3))
        freqs = [0.1, 0.5, 0.25, 0.5, 0.45]
        sc = geweke_spectrum(model, freqs, 1.0)
        for direction, f in ((model, sc.f_y_to_x), (model.swapped(), sc.f_x_to_y)):
            singular = []
            for f_hz in freqs:
                try:
                    transfer_matrix(direction, 2.0 * np.pi * f_hz)
                    singular.append(False)
                except NumericalError:
                    singular.append(True)
            assert singular == [False, True, False, True, False]
            np.testing.assert_array_equal(np.isnan(f), singular)

    def test_zero_first_variance_fails_one_direction(self):
        a1 = np.array([[-0.5, 0.2], [0.1, -0.4]])
        model = BivariateVar(order=1, a_mats=[a1], noise_cov=diagonal_noise(0.0, 1.0))
        sc = geweke_spectrum(model, [0.1, 0.2, 0.3], 1.0)
        assert np.isnan(sc.f_y_to_x).all()
        assert np.isnan(sc.spectra).all()
        assert np.isfinite(sc.f_x_to_y).all()
        with pytest.raises(NumericalError):
            transfer_matrix(model, 0.3)

    def test_frequency_validation(self):
        model = BivariateVar(order=1, a_mats=[np.zeros((2, 2))], noise_cov=diagonal_noise())
        with pytest.raises(ValidationError):
            geweke_spectrum(model, [0.7], 1.0)  # beyond Nyquist
        with pytest.raises(ValidationError):
            geweke_spectrum(model, [], 1.0)

    @pytest.mark.parametrize("bad, shown", [
        (float("nan"), "nan"), (float("inf"), "inf"), (float("-inf"), "-inf"),
    ])
    def test_non_finite_frequency_named(self, bad, shown):
        # NaN passes every comparison with the band; it used to reach the SVD
        model = BivariateVar(order=1, a_mats=[np.zeros((2, 2))], noise_cov=diagonal_noise())
        with pytest.raises(ValidationError, match=f"^frequency {shown} is not finite$"):
            geweke_spectrum(model, [0.1, bad, 0.2], 1.0)


class TestInvariances:
    @settings(max_examples=40)
    @given(order=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
           d=st.tuples(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3)))
    def test_rescaling_and_role_exchange(self, order, seed, d):
        # x -> d_x x and y -> d_y y: A_l -> D A_l D^-1, Sigma -> D Sigma D, S -> D S D
        model = stable_model(np.random.default_rng(seed), order)
        freqs = np.linspace(0.01, 0.5, 23)
        sc = geweke_spectrum(model, freqs, 1.0)
        scale = np.diag(d)
        rescaled = BivariateVar(
            order, [scale @ a @ np.diag(1.0 / np.array(d)) for a in model.a_mats],
            ResidualCovariance(scale @ model.noise_cov.matrix @ scale),
        )
        sd = geweke_spectrum(rescaled, freqs, 1.0)
        np.testing.assert_allclose(sd.f_y_to_x, sc.f_y_to_x, rtol=1e-12, atol=0)
        np.testing.assert_allclose(sd.f_x_to_y, sc.f_x_to_y, rtol=1e-12, atol=0)
        expected = scale @ sc.spectra @ scale
        np.testing.assert_allclose(sd.spectra, expected, rtol=1e-12,
                                   atol=1e-12 * np.abs(expected).max())
        exchanged = geweke_spectrum(model.swapped(), freqs, 1.0)
        np.testing.assert_allclose(exchanged.f_y_to_x, sc.f_x_to_y, rtol=1e-14, atol=0)
        np.testing.assert_allclose(exchanged.f_x_to_y, sc.f_y_to_x, rtol=1e-14, atol=0)

    def test_frequency_integral_identity(self):
        # Kolmogorov-Szego: the band mean of f_y_to_x is ln of x's one-step
        # prediction variance from its own past, exp(mean ln S_xx), over var_x
        ngrid = 4096
        freqs = (np.arange(1, ngrid + 1) - 0.5) / (2.0 * ngrid)
        ts = demean(simulate(builtin_5node(), 0))
        for x in ts.labels:
            for y in ts.labels:
                if x == y:
                    continue
                model = fit_bivariate_var(ts, x, y, select_var_order(ts, x, y, 10))
                sc = geweke_spectrum(model, freqs, 1.0)
                log_sxx = np.log(sc.spectra[:, 0, 0].real)
                expected = np.log(np.exp(np.mean(log_sxx)) / model.noise_cov.var_x)
                assert float(np.mean(sc.f_y_to_x)) == pytest.approx(expected, rel=0, abs=1e-12)

    def test_log_innovation_variance_is_the_mean_log_spectrum(self):
        # Kolmogorov-Szego (Geweke 1982, section 3): ln of x's one-step
        # prediction variance from its own past is the band mean of ln S_xx,
        # against an oracle that never forms a spectrum
        ngrid = 4096
        freqs = (np.arange(1, ngrid + 1) - 0.5) / (2.0 * ngrid)
        ts = demean(simulate(builtin_5node(), 0))
        for x in ts.labels:
            for y in ts.labels:
                if x == y:
                    continue
                model = fit_bivariate_var(ts, x, y, select_var_order(ts, x, y, 10))
                sc = geweke_spectrum(model, freqs, 1.0)
                variance = univariate_innovation_variance(model.a_mats, model.noise_cov.matrix, 400)
                mean_log = float(np.mean(np.log(sc.spectra[:, 0, 0].real)))
                assert mean_log == pytest.approx(math.log(variance), rel=0, abs=1e-12)


class TestGrids:
    def test_hz_grid_with_sample_rate(self):
        grid = default_frequency_grid(200.0)
        assert grid.tolist() == [float(f) for f in list(range(1, 31)) + [50, 100]]

    def test_low_rate_drops_out_of_band(self):
        grid = default_frequency_grid(30.0)
        assert grid.tolist() == [float(f) for f in range(1, 16)]

    def test_unit_rate_fallback(self):
        grid = default_frequency_grid(None)
        assert len(grid) == 64
        assert grid.min() > 0 and grid.max() < 0.5

    @pytest.mark.parametrize("rate", [0, 0.0, -200.0, float("inf"), float("nan")])
    def test_bad_sample_rate_rejected(self, rate):
        model = BivariateVar(order=1, a_mats=[np.zeros((2, 2))], noise_cov=diagonal_noise())
        with pytest.raises(ValidationError, match="sample_rate_hz"):
            geweke_spectrum(model, [0.1, 0.4], sample_rate_hz=rate)
        with pytest.raises(ValidationError, match="sample_rate_hz"):
            default_frequency_grid(rate)


def test_csv_output(tmp_path):
    model = BivariateVar(
        order=1,
        a_mats=[np.array([[-0.5, -0.2], [0.0, -0.4]])],
        noise_cov=diagonal_noise(),
    )
    sc = geweke_spectrum(model, [0.1, 0.2], 1.0)
    path = tmp_path / "spec.csv"
    spectral_to_csv(sc, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "frequency_hz,f_y_to_x,f_x_to_y"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == 0.1
    assert float(first[1]) == pytest.approx(sc.f_y_to_x[0])


def near_duplicate_pair():
    """x and x + 1e-10 noise: distinct columns whose lags are collinear to RANK_TOL."""
    x, e = np.random.default_rng(4).standard_normal((2, 200))
    return TimeSeriesMatrix(np.column_stack([x, x + 1e-10 * e]), ["x", "y"])


@pytest.mark.parametrize("call, message", [
    (lambda: BivariateVar(True, [np.zeros((2, 2))], diagonal_noise()),
     r"ValidationError: order must be an integer, got True"),
    (lambda: BivariateVar(1.5, [np.zeros((2, 2))], diagonal_noise()),
     r"ValidationError: order must be an integer, got 1\.5"),
    (lambda: BivariateVar(0, [], diagonal_noise()), r"ValidationError: order must be >= 1, got 0"),
    (lambda: BivariateVar(1, [np.zeros((2, 2))], np.eye(2)),
     r"ValidationError: noise_cov must be a ResidualCovariance, got ndarray"),
    (lambda: BivariateVar(1, [np.zeros((2, 2))], None),
     r"ValidationError: noise_cov must be a ResidualCovariance, got NoneType"),
    (lambda: BivariateVar(2, [np.zeros((2, 2))], diagonal_noise()), r"ValidationError: 1 lag matrices for order 2"),
    (lambda: BivariateVar(1, [np.zeros((3, 3))], diagonal_noise()),
     r"ValidationError: lag matrices must be finite 2x2 arrays"),
    (lambda: BivariateVar(1, [np.full((2, 2), np.nan)], diagonal_noise()),
     r"ValidationError: lag matrices must be finite 2x2 arrays"),
    (lambda: fit_bivariate_var(near_duplicate_pair(), "x", "x", 2),
     r"ValidationError: x and y must be distinct variables"),
    (lambda: fit_bivariate_var(near_duplicate_pair(), "x", "y", 0), r"ValidationError: order must be >= 1, got 0"),
    (lambda: fit_bivariate_var(near_duplicate_pair(), "x", "y", 3),
     r"RankDeficiencyError: rank-deficient design: column y\.lag1 depends on the columns before it "
     r"\(1-norm condition number [0-9.]+e\+[0-9]+ > 1e\+10\)"),
], ids=["order bool", "order fraction", "order 0", "covariance array", "covariance None", "matrix count",
        "matrix shape", "matrix not finite", "same variable", "fit order 0", "near-duplicate pair"])
def test_validation_messages(call, message):
    with pytest.raises(GrangerMdlError) as info:
        call()
    assert re.fullmatch(message, f"{type(info.value).__name__}: {info.value}")
