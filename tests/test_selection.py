import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from granger_mdl.bench import NetworkSpec, simulate
from granger_mdl.errors import DegenerateFitError, ValidationError
from granger_mdl.regression import LagEngine, LagSpec, OlsFit, build_design, ols_fit, ols_order_scan
from granger_mdl.selection import (
    _as_bits,
    _code_length_curve,
    _context_counts,
    aic,
    bernoulli_code_length,
    bic,
    code_length_from_stats,
    gaussian_loglik,
    markov_mdl,
    mdl_code_length,
    select_order,
    universal_int_bits,
)
from granger_mdl.timeseries import TimeSeriesMatrix, demean

from oracles import (
    code_length_by_terms,
    context_counts_by_loop,
    count_bits_by_terms,
    gaussian_loglik_by_sum,
    markov_mdl_by_loop,
)


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

    @given(coefficients=st.lists(st.floats(-10.0, 10.0), max_size=6), rss=st.floats(1e-3, 1e3),
           floors=st.lists(st.floats(0.0, 5.0), min_size=2, max_size=2))
    def test_scale_floor_only_raises_the_parameter_term(self, coefficients, rss, floors):
        # each value is priced at max(|value|, floor): a higher floor never
        # lowers the term, and a floor below every value changes nothing
        low, high = sorted(floors)

        def term(floor):
            return code_length_from_stats(coefficients, rss, m=50, n_total=100, scale_floor=floor).param_term

        assert term(low) <= term(high)
        if min([rss / 50, *map(abs, coefficients)]) >= high:
            assert term(high) == term(0.0)

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

    def test_predictors_are_read_once(self):
        ts = TimeSeriesMatrix(np.random.default_rng(2).standard_normal((80, 3)), ["a", "b", "c"])
        assert select_order(ts, 0, (v for v in [0, 1])) == select_order(ts, 0, [0, 1])


class TestCodeLengthCurve:
    @pytest.mark.parametrize("scale_floor", [1.0, 0.0])
    def test_every_order_matches_term_by_term_oracle(self, scale_floor):
        rng = np.random.default_rng(21)
        ts = demean(TimeSeriesMatrix(
            np.column_stack([ar2_series(400, seed=5).values[:, 0], rng.standard_normal(400)])
        ))
        p_max = 8
        engine = LagEngine(ts, p_max)
        scan = engine.scan(0, [0, 1])
        curve = _code_length_curve(
            scan.coefficients[0], 2 * np.arange(1, p_max + 1), scan.rss[0], engine.m, ts.n_samples, None, scale_floor
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

    @pytest.mark.parametrize("bits", [[], [0, 0], [1, 1, 1], [1, 0, 1, 1, 0], "random"])
    def test_matches_the_terms_on_a_theta_grid(self, bits):
        if bits == "random":
            bits = np.random.default_rng(5).integers(0, 2, 500).tolist()
        n1 = sum(bits)
        for theta in np.linspace(0.0, 1.0, 1001).tolist():
            want = count_bits_by_terms(n1, len(bits) - n1, theta)
            if want is None:
                symbol = 1 if theta == 0.0 else 0
                with pytest.raises(ValidationError, match=f"observed symbol {symbol} with theta = {theta:g}: "):
                    bernoulli_code_length(bits, theta)
                continue
            got = bernoulli_code_length(bits, theta)
            assert type(got) is float and math.copysign(1.0, got) == 1.0  # never -0.0
            assert got == pytest.approx(want, rel=1e-15, abs=0.0)

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

    @given(size=st.integers(0, 300), p_one=st.floats(0.0, 1.0), gamma=st.integers(0, 4),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_context_counts_match_the_bit_loop(self, size, p_one, gamma, seed):
        bits = _as_bits(np.random.default_rng(seed).random(size) < p_one)
        counts, looped = _context_counts(bits, gamma), context_counts_by_loop(bits, gamma)
        for got, want in zip(counts, looped):
            assert got.dtype == want.dtype and got.shape == want.shape
            np.testing.assert_array_equal(got, want)

    @given(size=st.integers(1, 400), p_one=st.floats(0.0, 1.0), period=st.integers(0, 5),
           gamma=st.integers(0, 4), d_max=st.integers(1, 10), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_the_context_loop(self, size, p_one, period, gamma, d_max, seed):
        # period 0 draws bits at rate p_one; else the first period draws repeat
        rng = np.random.default_rng(seed)
        bits = np.resize(rng.random(period or size) < p_one, size)
        self.check_against_the_loop(bits, min(gamma, size - 1), d_max)

    @given(size=st.integers(1, 64), p_one=st.floats(0.0, 1.0), gamma=st.integers(0, 10),
           d_max=st.integers(1, 10), seed=st.integers(0, 2 ** 32 - 1))
    def test_early_stop_keeps_the_selection(self, size, p_one, gamma, d_max, seed):
        bits = np.random.default_rng(seed).random(size) < p_one
        self.check_against_the_loop(bits, min(gamma, size - 1), d_max)

    @staticmethod
    def check_against_the_loop(bits, gamma_max, d_max):
        want = markov_mdl_by_loop(_as_bits(bits), gamma_max, d_max)
        if want is None:
            with pytest.raises(ValidationError, match="no admissible"):
                markov_mdl(bits, gamma_max, d_max)
            return
        got = markov_mdl(bits, gamma_max, d_max)
        assert (got.k, got.d) == want[:2]
        np.testing.assert_array_equal(got.theta_hat, want[2])
        assert got.total_bits == pytest.approx(want[3], rel=1e-12, abs=0.0)

    def test_orders_past_the_data_are_not_counted(self):
        # 2^9 contexts cost more than 100 bits at one bit each, so gamma 9..70 cannot win
        bits = np.random.default_rng(0).random(100) < 0.5
        tracemalloc.start()
        try:
            got = markov_mdl(bits, 70, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        want = markov_mdl_by_loop(_as_bits(bits), 8, 1)
        assert (got.k, got.d, got.total_bits) == (want[0], want[1], pytest.approx(want[3], rel=1e-12))

    def test_no_admissible_pair_stops_at_the_context_bound(self):
        # at one bit of precision every order up to 2^16 contexts snaps a context
        # that saw a 1 to theta 0, so no pair is admissible; the search stops
        # there instead of counting 2^gamma contexts up to gamma_max
        bits = np.random.default_rng(0).random(2000) < 0.03
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="^no admissible .* increase d_max$"):
                markov_mdl(bits, 1500, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20
        assert markov_mdl_by_loop(_as_bits(bits), 16, 1) is None

    @pytest.mark.parametrize("function, args, name", [
        (universal_int_bits, (2.5,), "j"),
        (universal_int_bits, (True,), "j"),
        (markov_mdl, ([0, 1] * 8, 2.5, 3), "gamma_max"),
        (markov_mdl, ([0, 1] * 8, 2, "3"), "d_max"),
        (bernoulli_code_length, ([0, 1], "0.5"), "theta"),
        (bernoulli_code_length, ([0, 1], True), "theta"),
    ], ids=["j-fraction", "j-bool", "gamma_max-fraction", "d_max-string", "theta-string", "theta-bool"])
    def test_inputs_are_read_by_the_value_rule(self, function, args, name):
        with pytest.raises(ValidationError, match=f"^{name} must be "):
            function(*args)

    def test_whole_floats_read_as_integers(self):
        bits = [0, 1] * 8
        assert universal_int_bits(2.0) == universal_int_bits(2)
        got, want = markov_mdl(bits, 2.0, 3.0), markov_mdl(bits, 2, 3)
        assert (got.k, got.d, got.total_bits) == (want.k, want.d, want.total_bits)

    def test_validation(self):
        with pytest.raises(ValidationError):
            markov_mdl([], 0, 1)
        with pytest.raises(ValidationError):
            markov_mdl([0, 1], 5, 1)
        with pytest.raises(ValidationError):
            markov_mdl([0, 2, 1], 0, 1)


@pytest.mark.parametrize("call, message", [
    (lambda: gaussian_loglik(1.0, 0), "m must be >= 1, got 0"),
    (lambda: code_length_from_stats([0.5], 1.0, 0, 10), "m must be >= 1, got 0"),
    (lambda: code_length_from_stats([0.5], 1.0, 10, 5), "total length 5 below effective sample 10"),
    (lambda: code_length_from_stats([0.5], -1.0, 10, 20), "rss must be nonnegative, got [-1.]"),
    (lambda: universal_int_bits(0), "universal integer code needs j >= 1, got 0"),
    (lambda: bernoulli_code_length([0, 1], 1.5), "theta must be in [0, 1], got 1.5"),
    (lambda: markov_mdl([0, 1] * 8, -1, 1), "gamma_max must be >= 0, got -1"),
    (lambda: markov_mdl([0, 1] * 8, 2, 0), "d_max must be >= 1, got 0"),
    (lambda: markov_mdl([[0, 1], [1, 0]], 1, 1), "bit sequence must be 1-D"),
], ids=["loglik m", "curve m", "curve total length", "curve rss", "universal j", "theta range", "gamma_max",
        "d_max", "bits 2-D"])
def test_validation_messages(call, message):
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value) == message
