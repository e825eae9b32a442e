import math

import numpy as np
import pytest

from granger_mdl.bench import NetworkSpec, simulate
from granger_mdl.errors import DegenerateFitError, ValidationError
from granger_mdl.regression import LagSpec, OlsFit, build_design, nested_scan, ols_fit, ols_order_scan
from granger_mdl.selection import (
    _code_length_curve,
    aic,
    bernoulli_code_length,
    bic,
    code_length_from_stats,
    gaussian_loglik,
    markov_mdl,
    mdl_code_length,
    search_order,
    select_order,
    universal_int_bits,
)
from granger_mdl.timeseries import TimeSeriesMatrix, demean

from oracles import code_length_by_terms, gaussian_loglik_by_sum


def ar2_series(n_samples, seed, noise_var=0.25):
    spec = NetworkSpec(
        n_nodes=1,
        coefficients=[(0, 0, 1, 1.5), (0, 0, 2, -0.9)],
        noise_variances=[noise_var],
        total_len=n_samples + 700,
        burn_in=700,
        initial_values=[1.0],
    )
    return demean(simulate(spec, seed))


class TestGaussianLoglik:
    def test_unit_variance(self):
        m = 10
        assert gaussian_loglik(m, m) == pytest.approx(-(m / 2) * (math.log(2 * math.pi) + 1))

    def test_small_case(self):
        assert gaussian_loglik(2.0, 2) == pytest.approx(-(math.log(2 * math.pi) + 1))
        assert gaussian_loglik(2.0, 2) == pytest.approx(-2.8379, abs=1e-4)

    def test_matches_per_sample_density_sum(self):
        rng = np.random.default_rng(2)
        residuals = rng.standard_normal(37) * 1.7
        rss = float(residuals @ residuals)
        assert gaussian_loglik(rss, 37) == pytest.approx(
            gaussian_loglik_by_sum(residuals), abs=1e-8
        )

    def test_perfect_fit_sentinel(self):
        assert gaussian_loglik(0.0, 5) == math.inf

    def test_negative_rss_rejected(self):
        with pytest.raises(ValidationError):
            gaussian_loglik(-1.0, 5)


class TestInformationCriteria:
    def test_aic(self):
        assert aic(0.0, 2) == 4.0

    def test_bic_log_n_two(self):
        assert bic(0.0, 2, math.e ** 2) == pytest.approx(4.0)

    def test_bic_validation(self):
        with pytest.raises(ValidationError):
            bic(0.0, 2, 0)
        with pytest.raises(ValidationError):
            bic(0.0, -1, 10)


class TestCodeLength:
    def test_unit_coefficient_contribution(self):
        # N=100 so delta=0.1; a coefficient of magnitude 1 costs ln 10
        base = code_length_from_stats([], rss=50.0, m=50, n_total=100)
        with_one = code_length_from_stats([1.0], rss=50.0, m=50, n_total=100)
        assert with_one.param_term - base.param_term == pytest.approx(
            math.log(10.0), abs=1e-12
        )

    def test_sub_unit_coefficient_pays_grid_cost_by_default(self):
        # |coef| = 0.05 below the unit coding range: full index cost ln(1/delta)
        base = code_length_from_stats([], rss=50.0, m=50, n_total=100)
        small = code_length_from_stats([0.05], rss=50.0, m=50, n_total=100)
        assert small.param_term - base.param_term == pytest.approx(math.log(10.0))

    def test_sub_precision_coefficient_free_in_crude_form(self):
        # the value-priced crude form ignores |coef|/delta < 1 entirely
        base = code_length_from_stats([], rss=50.0, m=50, n_total=100, scale_floor=0.0)
        small = code_length_from_stats([0.05], rss=50.0, m=50, n_total=100, scale_floor=0.0)
        assert small.param_term - base.param_term == 0.0

    def test_data_term_is_negative_loglik(self):
        cl = code_length_from_stats([0.3], rss=12.0, m=30, n_total=40)
        assert cl.data_term == pytest.approx(-gaussian_loglik(12.0, 30))

    def test_terms_sum_to_total(self):
        cl = code_length_from_stats([0.5, -2.0], rss=9.0, m=25, n_total=30)
        assert cl.total == pytest.approx(
            cl.data_term + cl.param_term + cl.order_term, abs=1e-10
        )

    def test_term_by_term_oracle_on_seeded_fit(self):
        ts = ar2_series(300, seed=9)
        X, y = build_design(ts, LagSpec(0, [(0, 2)]))
        fit = ols_fit(X, y)
        cl = mdl_code_length(fit, ts.n_samples)
        total, data, param, order = code_length_by_terms(
            fit.coefficients, fit.rss, fit.m, ts.n_samples
        )
        assert cl.total == pytest.approx(total, abs=1e-9)
        assert cl.data_term == pytest.approx(data, abs=1e-9)
        assert cl.param_term == pytest.approx(param, abs=1e-9)
        assert cl.order_term == pytest.approx(order, abs=1e-12)

    def test_degenerate_fit_rejected(self):
        fit = OlsFit(
            coefficients=np.array([0.5]),
            residuals=np.zeros(4),
            rss=0.0,
            m=4,
            k=1,
        )
        with pytest.raises(DegenerateFitError):
            mdl_code_length(fit, 10)

    def test_param_term_nonnegative_and_counts(self):
        cl = code_length_from_stats([0.5, 0.001], rss=10.0, m=20, n_total=400)
        assert cl.param_term >= 0.0
        # delta = 0.05: sigma2 = 0.5 and coef 0.5 exceed it, 0.001 does not
        assert cl.n_params_counted == 2

    def test_reordering_coefficients_leaves_total_unchanged(self):
        a = code_length_from_stats([0.5, -2.0, 0.1], rss=9.0, m=25, n_total=30)
        b = code_length_from_stats([0.1, 0.5, -2.0], rss=9.0, m=25, n_total=30)
        assert a.total == pytest.approx(b.total, abs=1e-12)

    def test_custom_delta(self):
        cl = code_length_from_stats([1.0], rss=50.0, m=50, n_total=100, delta=0.5)
        assert cl.precision_delta == 0.5
        with pytest.raises(ValidationError):
            code_length_from_stats([1.0], rss=50.0, m=50, n_total=100, delta=0.0)


class TestSelectOrder:
    def test_code_length_curve_bottoms_at_true_order(self):
        ts = ar2_series(10_000, seed=4)
        score = select_order(ts, 0, [0], "MDL", p_max=10)
        assert score.order == 2

    def test_white_noise_gains_little_over_empty_model(self):
        rng = np.random.default_rng(100)
        improvements = []
        for _ in range(100):
            ts = TimeSeriesMatrix(rng.standard_normal((300, 1)), ["w"])
            score = select_order(ts, 0, [0], "AIC", p_max=10)
            X, y = build_design(ts, LagSpec(0, [(0, score.order)]), start=10)
            rss = ols_fit(X, y).rss
            rss0 = float(y @ y)
            improvements.append((rss0 - rss) / rss0)
        assert np.mean(improvements) < 0.02

    def test_pmax_beyond_sample_count(self):
        ts = TimeSeriesMatrix(np.random.default_rng(1).standard_normal((12, 1)), ["w"])
        with pytest.raises(ValidationError):
            select_order(ts, 0, [0], "AIC", p_max=12)

    def test_aic_matches_external_brute_force(self):
        ts = ar2_series(400, seed=6)
        p_max = 8
        score = select_order(ts, 0, [0], "AIC", p_max=p_max)
        best = None
        for p in range(1, p_max + 1):
            X, y = build_design(ts, LagSpec(0, [(0, p)]), start=p_max)
            fit = ols_fit(X, y)
            value = -2.0 * gaussian_loglik(fit.rss, fit.m) + 2.0 * fit.k
            if best is None or value < best[0]:
                best = (value, p)
        assert score.order == best[1]
        assert score.value == pytest.approx(best[0], rel=1e-12)

    def test_unknown_criterion(self):
        ts = ar2_series(100, seed=1)
        with pytest.raises(ValidationError, match="criterion"):
            select_order(ts, 0, [0], "HQC", p_max=3)

    @pytest.mark.parametrize("target, predictors", [(-1, [-1]), (5, [5]), (0, [0, 0])])
    def test_bad_variables_rejected(self, target, predictors):
        ts = TimeSeriesMatrix(np.random.default_rng(2).standard_normal((80, 3)), ["a", "b", "c"])
        with pytest.raises(ValidationError):
            select_order(ts, target, predictors, "AIC", 5)

    def test_labels_resolve(self):
        ts = TimeSeriesMatrix(np.random.default_rng(2).standard_normal((80, 3)), ["a", "b", "c"])
        assert select_order(ts, "a", ["a", "c"], "BIC", 5) == select_order(ts, 0, [0, 2], "BIC", 5)

    def test_search_needs_a_family(self):
        ts = TimeSeriesMatrix(np.random.default_rng(2).standard_normal((80, 3)))
        with pytest.raises(ValidationError, match="family"):
            search_order(ts, [], "AIC", 3)


class TestCodeLengthCurve:
    @pytest.mark.parametrize("scale_floor", [1.0, 0.0])
    def test_every_order_matches_term_by_term_oracle(self, scale_floor):
        rng = np.random.default_rng(21)
        ts = demean(TimeSeriesMatrix(
            np.column_stack([ar2_series(400, seed=5).values[:, 0], rng.standard_normal(400)])
        ))
        p_max = 8
        scan = nested_scan(ts, 0, [0, 1], p_max)
        curve = _code_length_curve(
            scan.coefficients, scan.k, scan.rss, scan.m, ts.n_samples, None, scale_floor
        )
        entries = ols_order_scan(ts, 0, [0, 1], p_max)
        for j, entry in enumerate(entries):
            total, data, param, order = code_length_by_terms(
                entry.coefficients, entry.rss, entry.m, ts.n_samples, scale_floor
            )
            assert curve[0, j] == pytest.approx(total, rel=1e-12)
            assert curve[1, j] == pytest.approx(data, rel=1e-12)
            assert curve[2, j] == pytest.approx(param, rel=1e-12, abs=1e-12)
            assert curve[3, j] == pytest.approx(order, rel=1e-12)
            scalar = code_length_from_stats(
                entry.coefficients, entry.rss, entry.m, ts.n_samples, scale_floor=scale_floor
            )
            assert scalar.total == pytest.approx(curve[0, j], rel=1e-14)


class TestMonotonePenalty:
    def test_appending_noise_column_usually_lengthens_code(self):
        rng = np.random.default_rng(55)
        n = 300
        increases = 0
        trials = 500
        for _ in range(trials):
            x = rng.standard_normal(n)
            w = rng.standard_normal(n)
            ts = TimeSeriesMatrix(np.column_stack([x, w]), ["x", "w"])
            Xr, y = build_design(ts, LagSpec(0, [(0, 1)]), start=1)
            Xu, _ = build_design(ts, LagSpec(0, [(0, 1), (1, 1)]), start=1)
            base = mdl_code_length(ols_fit(Xr, y), n)
            wide = mdl_code_length(ols_fit(Xu, y), n)
            increases += wide.total > base.total
        assert increases >= 0.90 * trials


class TestBernoulli:
    def test_fair_coin_eight_bits(self):
        bits = [1, 0, 1, 0, 1, 0, 1, 0]
        assert bernoulli_code_length(bits, 0.5) == pytest.approx(8.0)

    def test_maximum_likelihood_theta_minimises(self):
        rng = np.random.default_rng(3)
        bits = (rng.random(200) < 0.3).astype(int)
        theta_hat = bits.mean()
        grid = np.linspace(0.01, 0.99, 99)
        values = [bernoulli_code_length(bits, t) for t in grid]
        best = grid[int(np.argmin(values))]
        assert abs(best - theta_hat) <= 0.011

    def test_zero_probability_symbol(self):
        with pytest.raises(ValidationError, match="zero-probability"):
            bernoulli_code_length([1, 0], 0.0)

    def test_matching_degenerate_theta_is_free(self):
        assert bernoulli_code_length([1, 1, 1], 1.0) == 0.0

    def test_expected_length_minimised_at_true_theta(self):
        # cross-entropy N * H(theta*, theta) is minimised at theta = theta*
        grid = np.round(np.linspace(0.05, 0.95, 19), 2)
        for theta_star in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]:
            expected = [
                -(theta_star * math.log2(t) + (1 - theta_star) * math.log2(1 - t))
                for t in grid
            ]
            best = grid[int(np.argmin(expected))]
            assert best == pytest.approx(theta_star, abs=1e-12)


class TestMarkovMdl:
    def test_fair_coin_selects_memoryless(self):
        rng = np.random.default_rng(12)
        hits = 0
        for _ in range(100):
            bits = (rng.random(10_000) < 0.5).astype(int)
            result = markov_mdl(bits, gamma_max=3, d_max=10)
            hits += result.k == 1
        assert hits >= 95

    def test_alternating_selects_one_step_memory(self):
        bits = np.tile([0, 1], 500)
        result = markov_mdl(bits, gamma_max=3, d_max=8)
        assert result.k == 2
        assert set(result.theta_hat.tolist()) <= {0.0, 1.0}
        model_bits = (
            result.k * result.d
            + universal_int_bits(result.k)
            + universal_int_bits(result.d)
        )
        # all data bits beyond the single unmodelled prefix symbol are free
        assert result.total_bits - model_bits == pytest.approx(1.0, abs=1e-9)

    def test_constant_ones_zero_data_term(self):
        bits = np.ones(64, dtype=int)
        result = markov_mdl(bits, gamma_max=0, d_max=1)
        assert result.k == 1 and result.d == 1
        assert result.theta_hat[0] == 1.0
        model_bits = 1 + universal_int_bits(1) + universal_int_bits(1)
        assert result.total_bits == pytest.approx(model_bits)

    def test_validation(self):
        with pytest.raises(ValidationError):
            markov_mdl([], 0, 1)
        with pytest.raises(ValidationError):
            markov_mdl([0, 1], 5, 1)
        with pytest.raises(ValidationError):
            markov_mdl([0, 2, 1], 0, 1)
