import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, strategies as st

from granger_mdl.bench import NetworkSpec, builtin_3node, builtin_5node, simulate
from granger_mdl.errors import RankDeficiencyError, ValidationError
from granger_mdl.regression import (
    LagEngine,
    LagSpec,
    build_design,
    nested_scan,
    ols_fit,
    ols_order_scan,
    residual_covariance,
    stability_check,
)
from granger_mdl.spectral import fit_bivariate_var
from granger_mdl.timedomain import conditional_f_test_gc, f_test_gc, infer_network
from granger_mdl.timeseries import TimeSeriesMatrix, demean

from oracles import normal_equations_fit


def series(*cols, labels=None):
    return TimeSeriesMatrix(np.column_stack(cols), labels)


class TestLagSpec:
    def test_rejects_zero_column_design(self):
        with pytest.raises(ValidationError, match="no columns"):
            LagSpec(0, [(0, 0)])

    def test_rejects_duplicate_predictors(self):
        with pytest.raises(ValidationError, match="duplicate"):
            LagSpec(0, [(1, 2), (1, 3)])

    def test_rejects_negative_lags(self):
        with pytest.raises(ValidationError, match="negative"):
            LagSpec(0, [(1, -1)])

    @pytest.mark.parametrize("target, predictors, message", [
        (0, [(1, 2.7)], "lag count of variable 1 must be an integer, got 2.7"),
        (0, [(1, True)], "lag count of variable 1 must be an integer, got True"),
        (0, [(1.5, 2)], "predictor variable must be an integer, got 1.5"),
        (True, [(1, 2)], "target must be an integer, got True"),
        (0.5, [(1, 2)], "target must be an integer, got 0.5"),
    ])
    def test_values_are_integers_not_truncated(self, target, predictors, message):
        with pytest.raises(ValidationError, match=message):
            LagSpec(target, predictors)

    def test_whole_and_numpy_numbers_are_integers(self):
        spec = LagSpec(np.int64(1), [(np.int64(0), 2.0)])
        assert spec == LagSpec(1, [(0, 2)])
        assert type(spec.target) is int and type(spec.predictors[0][1]) is int

    def test_zero_lag_predictor_contributes_no_columns(self):
        spec = LagSpec(0, [(0, 2), (1, 0)])
        assert spec.n_columns == 2


class TestBuildDesign:
    def test_self_lag_layout(self):
        ts = series([1.0, 2.0, 3.0, 4.0])
        X, y = build_design(ts, LagSpec(0, [(0, 2)]))
        np.testing.assert_array_equal(y, [3.0, 4.0])
        np.testing.assert_array_equal(X, [[2.0, 1.0], [3.0, 2.0]])

    def test_too_short_series(self):
        ts = series([1.0, 2.0])
        with pytest.raises(ValidationError, match="too short"):
            build_design(ts, LagSpec(0, [(0, 2)]))

    def test_start_below_max_lag(self):
        ts = series([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValidationError, match="below the max lag"):
            build_design(ts, LagSpec(0, [(0, 2)]), start=1)

    def test_recovers_generator_coefficients_on_driven_node(self):
        # node 2 of the 3-node benchmark follows 0.2 * own lag + 0.8 * node-1 lag
        base = builtin_3node()
        spec = NetworkSpec(
            n_nodes=3,
            coefficients=base.coefficients,
            noise_variances=[0.2, 0.2, 0.2],
            total_len=1000,
            burn_in=700,
            initial_values=base.initial_values,
        )
        ts = demean(simulate(spec, seed=3))
        X, y = build_design(ts, LagSpec(1, [(1, 1), (0, 1)]))
        fit = ols_fit(X, y)
        assert fit.coefficients[0] == pytest.approx(0.2, abs=0.05)
        assert fit.coefficients[1] == pytest.approx(0.8, abs=0.05)
        oracle_coef, oracle_rss = normal_equations_fit(X, y)
        np.testing.assert_allclose(fit.coefficients, oracle_coef, rtol=1e-8)
        assert fit.rss == pytest.approx(oracle_rss, rel=1e-8)


class TestOlsFit:
    def test_exact_recurrence_noiseless(self):
        ts = series([1.0, 0.5, 0.25, 0.125])
        X, y = build_design(ts, LagSpec(0, [(0, 1)]))
        fit = ols_fit(X, y)
        assert fit.coefficients[0] == pytest.approx(0.5, abs=1e-15)
        assert fit.rss <= 1e-20

    def test_duplicate_column_raises_rank_error(self):
        X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        y = np.array([1.0, 2.0, 3.0])
        with pytest.raises(RankDeficiencyError) as info:
            ols_fit(X, y)
        assert info.value.columns  # offending columns are named

    def test_underdetermined_rejected(self):
        with pytest.raises(ValidationError, match="underdetermined"):
            ols_fit(np.ones((2, 3)), np.ones(2))

    def test_zero_column_design_rejected(self):
        with pytest.raises(ValidationError, match="no columns"):
            ols_fit(np.ones((5, 0)), np.ones(5))

    def test_ar2_estimates_on_long_run(self):
        base = builtin_3node()
        spec = NetworkSpec(
            n_nodes=3,
            coefficients=base.coefficients,
            noise_variances=[0.25, 0.25, 0.25],
            total_len=10_700,
            burn_in=700,
            initial_values=base.initial_values,
        )
        ts = demean(simulate(spec, seed=17))
        X, y = build_design(ts, LagSpec(0, [(0, 2)]))
        fit = ols_fit(X, y)
        assert fit.coefficients[0] == pytest.approx(1.5, abs=0.02)
        assert fit.coefficients[1] == pytest.approx(-0.9, abs=0.02)
        oracle_coef, _ = normal_equations_fit(X, y)
        np.testing.assert_allclose(fit.coefficients, oracle_coef, rtol=1e-8)

    def test_fit_bookkeeping_invariants(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((40, 3))
        y = rng.standard_normal(40)
        fit = ols_fit(X, y)
        assert fit.m == 40 and fit.k == 3
        assert len(fit.residuals) == fit.m
        assert fit.rss == pytest.approx(float(fit.residuals @ fit.residuals), rel=1e-10)
        assert fit.sigma2_mle == pytest.approx(fit.rss / fit.m)
        # residuals orthogonal to every design column
        for j in range(3):
            col = X[:, j]
            inner = abs(float(col @ fit.residuals))
            assert inner <= 1e-6 * np.linalg.norm(col) * np.linalg.norm(fit.residuals) + 1e-12


class TestResidualCovariance:
    def test_identical_residuals(self):
        fa = ols_like([1.0, -1.0])
        cov = residual_covariance(fa, fa)
        np.testing.assert_allclose(cov.matrix, [[1.0, 1.0], [1.0, 1.0]])

    def test_anticorrelated_residuals(self):
        cov = residual_covariance(ols_like([2.0, -2.0]), ols_like([-2.0, 2.0]))
        assert cov.cov_xy == pytest.approx(-4.0)

    def test_independent_noise_off_diagonal_near_zero(self):
        rng = np.random.default_rng(123)
        u = rng.standard_normal(100_000)
        v = rng.standard_normal(100_000)
        cov = residual_covariance(ols_like(u), ols_like(v))
        assert abs(cov.cov_xy) < 0.02
        assert cov.matrix[0, 1] == cov.matrix[1, 0]

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match="mismatch"):
            residual_covariance(ols_like([1.0, 2.0]), ols_like([1.0, 2.0, 3.0]))


def ols_like(residuals):
    from granger_mdl.regression import OlsFit

    residuals = np.asarray(residuals, dtype=float)
    return OlsFit(
        coefficients=np.zeros(1),
        residuals=residuals,
        rss=float(residuals @ residuals),
        m=len(residuals),
        k=1,
    )


class TestStability:
    def test_ar1(self):
        assert stability_check([0.5]) == pytest.approx(0.5)
        assert stability_check([1.0]) == pytest.approx(1.0)

    def test_ar2_complex_roots(self):
        # roots of z^2 - 1.5 z + 0.9 have modulus sqrt(0.9)
        assert stability_check([1.5, -0.9]) == pytest.approx(math.sqrt(0.9), abs=1e-12)

    def test_var_lag_matrices(self):
        a1 = np.array([[0.5, 0.0], [0.0, 0.3]])
        assert stability_check([a1]) == pytest.approx(0.5)


class TestFamilyProperties:
    def test_nested_monotonicity(self):
        rng = np.random.default_rng(7)
        ts = series(rng.standard_normal(80), rng.standard_normal(80))
        _, y = build_design(ts, LagSpec(0, [(0, 1)]), start=6)
        prev = None
        for p in range(1, 7):
            X, y = build_design(ts, LagSpec(0, [(0, p), (1, p)]), start=6)
            rss = ols_fit(X, y).rss
            if prev is not None:
                assert rss <= prev * (1 + 1e-9)
            prev = rss

    def test_projection_idempotence(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((50, 4))
        y = rng.standard_normal(50)
        fit = ols_fit(X, y)
        fitted = y - fit.residuals
        refit = ols_fit(X, fitted)
        assert refit.rss <= 1e-12 * float(fitted @ fitted) + 1e-20

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        ts = series(rng.standard_normal(120), rng.standard_normal(120))
        Xa, ya = build_design(ts, LagSpec(0, [(0, 2), (1, 3)]))
        Xb, yb = build_design(ts, LagSpec(0, [(1, 3), (0, 2)]))
        fa, fb = ols_fit(Xa, ya), ols_fit(Xb, yb)
        assert fa.rss == pytest.approx(fb.rss, rel=1e-10)
        np.testing.assert_allclose(fa.coefficients[:2], fb.coefficients[3:], rtol=1e-8)
        np.testing.assert_allclose(fa.coefficients[2:], fb.coefficients[:3], rtol=1e-8)


def check_scan_matches_per_order_fits(ts, target, blocks, p_max):
    entries = ols_order_scan(ts, target, blocks, p_max)
    assert [e.order for e in entries] == list(range(1, p_max + 1))
    for entry in entries:
        spec = LagSpec(target, [(v, entry.order) for v in blocks])
        X, y = build_design(ts, spec, start=p_max)
        fit = ols_fit(X, y)
        assert entry.rss == pytest.approx(fit.rss, rel=1e-9, abs=1e-12)
        np.testing.assert_allclose(entry.coefficients, fit.coefficients, rtol=1e-8, atol=1e-10)
        assert entry.m == fit.m


class TestOrderScan:
    def test_matches_per_order_fits(self):
        rng = np.random.default_rng(11)
        n = 200
        x = np.zeros(n)
        z = rng.standard_normal(n)
        for t in range(2, n):
            x[t] = 0.6 * x[t - 1] - 0.2 * x[t - 2] + 0.3 * z[t - 1] + rng.standard_normal() * 0.5
        ts = series(x, z)
        check_scan_matches_per_order_fits(ts, 0, [0, 1], 6)
        # 1, 3 and 12 blocks, in an order that is not the column order
        panel = TimeSeriesMatrix(
            np.cumsum(rng.standard_normal((300, 12)), axis=0) * 0.1
            + rng.standard_normal((300, 12))
        )
        check_scan_matches_per_order_fits(panel, 4, [4], 10)
        check_scan_matches_per_order_fits(panel, 2, [7, 2, 0], 8)
        check_scan_matches_per_order_fits(panel, 11, list(range(11, -1, -1)), 10)

    def test_scan_flags_duplicate_blocks(self):
        x = np.arange(30, dtype=float)
        ts = series(x, x)
        with pytest.raises(RankDeficiencyError):
            ols_order_scan(ts, 0, [0, 1], 3)

    def test_rank_error_names_columns_by_label(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(120)
        y = np.roll(x, 1)
        ts = series(x, y, labels=["x", "y"])
        # y.lag1 equals x.lag2, so the family breaks at order 2
        with pytest.raises(RankDeficiencyError, match=r"x\.lag2") as info:
            ols_order_scan(ts, 0, [0, 1], 4)
        assert "var0" not in str(info.value)
        scan = nested_scan(ts, 0, [0, 1], 4)
        assert scan.rss.shape == (1,)
        assert scan.rank_error is not None

    @pytest.mark.parametrize(
        "target, blocks",
        [(-1, [-1]), (5, [5]), (0, [0, 5]), (0, [1, 1]), (0, [])],
    )
    def test_scan_rejects_bad_variables(self, target, blocks):
        ts = TimeSeriesMatrix(np.random.default_rng(4).standard_normal((60, 3)))
        with pytest.raises(ValidationError):
            ols_order_scan(ts, target, blocks, 3)

    def test_scan_resolves_labels(self):
        ts = TimeSeriesMatrix(np.random.default_rng(4).standard_normal((60, 3)), ["a", "b", "c"])
        by_label = nested_scan(ts, "a", ["a", "c"], 3)
        by_index = nested_scan(ts, 0, [0, 2], 3)
        np.testing.assert_array_equal(by_label.rss, by_index.rss)


def check_engine_scan(engine, target, blocks, orders):
    """Every order of an engine scan against a fresh ols_fit, to 1e-10."""
    scan = engine.scan(target, blocks, orders)
    ordered = sorted(blocks)  # the engine's default order is ascending
    b = len(blocks)
    assert scan.rss.shape == (orders,)
    for n in range(1, orders + 1):
        spec = LagSpec(target, [(v, n) for v in ordered])
        fit = ols_fit(*build_design(engine.ts, spec, start=engine.p_max))
        assert scan.rss[n - 1] == pytest.approx(fit.rss, rel=1e-10)
        coefficients = scan.coefficients[:b * n, n - 1].reshape(n, b).T.ravel()
        scale = np.abs(fit.coefficients).max()
        np.testing.assert_allclose(coefficients, fit.coefficients, rtol=1e-10, atol=1e-10 * scale)
        assert not scan.coefficients[b * n:, n - 1].any()


class TestLagEngine:
    def panel(self, n, nv, seed):
        rng = np.random.default_rng(seed)
        return TimeSeriesMatrix(
            np.cumsum(rng.standard_normal((n, nv)), axis=0) * 0.1 + rng.standard_normal((n, nv))
        )

    def test_random_families_match_per_order_fits(self):
        rng = np.random.default_rng(21)
        engine = LagEngine(self.panel(300, 12, 5), 10)
        families = [(3, list(range(12))), (0, [7]), (5, [1, 2])]  # all, one, target outside
        for _ in range(12):
            b = int(rng.integers(1, 13))
            families.append((int(rng.integers(12)), rng.permutation(12)[:b].tolist()))
        for target, blocks in families:
            check_engine_scan(engine, target, blocks, 10)

    def test_memo_returns_one_scan_per_family(self):
        engine = LagEngine(self.panel(200, 5, 6), 6)
        first = engine.scan(2, [4, 2, 0])
        assert engine.scan("v2", [0, 2, 4]) is first
        assert engine.scan(2, [2, 0, 4], orders=3) is first
        assert engine.scan(1, [4, 2, 0]) is not first
        check_engine_scan(engine, 2, [0, 2, 4], 6)

    def test_wide_factor(self):
        # 90 rows against 12 * 10 + 12 columns of Z: R is 90 x 132
        engine = LagEngine(self.panel(100, 12, 7), 10)
        assert engine.m < 12 * 10 + 12
        for target, blocks in [(0, [0, 3, 5]), (4, [6, 1])]:
            check_engine_scan(engine, target, blocks, 10)
        # 9 blocks at order 10 are 90 columns on 90 rows: they interpolate
        with pytest.raises(ValidationError, match="90 rows ≤ 90 columns at order 10"):
            engine.scan(11, list(range(9)))

    def test_orders_that_fit_the_window(self):
        # all 12 blocks need 120 columns at p_max 10; 90 rows fit orders 1..7
        engine = LagEngine(self.panel(100, 12, 8), 10)
        with pytest.raises(ValidationError, match="underdetermined"):
            engine.scan(0, list(range(12)))
        with pytest.raises(ValidationError, match="underdetermined"):
            engine.scan(0, list(range(12)), orders=8)
        check_engine_scan(engine, 0, list(range(12)), 7)

    def test_residual_covariance_matches_direct_fits(self):
        ts = self.panel(120, 3, 10)
        engine = LagEngine(ts, 4, variables=[2, 0, 1])
        predictors = [(v, 4) for v in (2, 0, 1)]
        fits = [ols_fit(*build_design(ts, LagSpec(v, predictors))) for v in (2, 0, 1)]
        expected = np.array([[residual_covariance(a, b).matrix[0, 1] for b in fits] for a in fits])
        np.testing.assert_allclose(engine.residual_covariance(), expected, rtol=1e-10, atol=1e-14)

    def test_start_below_p_max_rejected(self):
        with pytest.raises(ValidationError, match="below p_max"):
            nested_scan(self.panel(60, 2, 9), 0, [0, 1], 4, start=2)


def families_from_both_routes(ts, p_max, orders=None):
    """Each full and drop-one family of an engine over ``ts``, with its slice-QR scan.

    The second engine's ``_scan`` is the per-family slice QR, which the
    first engine's ``scan`` replaces when it certifies its lag block.
    """
    engine, sliced = LagEngine(ts, p_max), LagEngine(ts, p_max)
    nv = ts.n_variables
    for target in range(nv):
        for dropped in [None, *range(nv)]:
            blocks = [v for v in range(nv) if v != dropped]
            yield engine, engine.scan(target, blocks, orders), sliced._scan(target, blocks)


def assert_same_scan(a, b):
    for field in ("coefficients", "k", "rss"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
    assert str(a.rank_error) == str(b.rank_error)


class TestInverseRoute:
    """Full and drop-one families from one R_L^-1, when the engine certifies it."""

    @given(
        nv=st.integers(3, 6), p_max=st.integers(1, 6), extra=st.integers(1, 60),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_families_match_the_slice_qr(self, nv, p_max, extra, seed):
        rng = np.random.default_rng(seed)
        n = nv * p_max + p_max + extra  # m = n - p_max > nv * p_max
        ts = TimeSeriesMatrix(
            np.cumsum(rng.standard_normal((n, nv)), axis=0) * 0.1 + rng.standard_normal((n, nv))
        )
        for engine, scan, sliced in families_from_both_routes(ts, p_max):
            assert engine._lag_inverse is not False
            np.testing.assert_array_equal(scan.k, sliced.k)
            assert scan.rank_error is None and sliced.rank_error is None
            np.testing.assert_allclose(scan.rss, sliced.rss, rtol=1e-12, atol=0)
            np.testing.assert_allclose(scan.coefficients, sliced.coefficients, rtol=0, atol=1e-12)

    def test_full_family_is_bit_identical(self):
        panel = TestLagEngine().panel(300, 12, 5)
        for engine, scan, sliced in families_from_both_routes(panel, 10):
            if len(scan.k) and scan.k[0] == 12:
                assert_same_scan(scan, sliced)

    @pytest.mark.parametrize("n, orders", [(100, 7), (130, 9)])
    def test_short_panel_takes_the_slice_qr(self, n, orders):
        # 90 or 120 rows for 12 * 10 lag columns: the full family fits
        # orders 1..7 or 1..9, not 10
        panel = TestLagEngine().panel(n, 12, 7)
        for engine, scan, sliced in families_from_both_routes(panel, 10, orders):
            assert engine._lag_inverse is False
            assert_same_scan(scan, sliced)

    def test_near_collinear_panel_takes_the_slice_qr(self):
        # kappa_1(R_L) is about 3e8: every family passes the 1e10 rule, but
        # 3e8 * (3 * 3)^2 does not certify them
        for engine, scan, sliced in families_from_both_routes(near_copy(1e-8), 3):
            assert engine._lag_inverse is False
            assert scan.rank_error is None
            assert_same_scan(scan, sliced)
        errors = []
        for engine, scan, sliced in families_from_both_routes(near_copy(1e-10), 3):
            assert_same_scan(scan, sliced)
            errors.append(str(scan.rank_error))
        # every family with both x and y breaks at x.lag2 or y.lag1
        assert sum("depends on the columns before it" in e for e in errors) == 6

    @pytest.mark.parametrize("method", ["mdl", "ftest"])
    def test_one_inverse_and_no_slice_qr_per_engine(self, method, monkeypatch):
        nv, p_max = 12, 10
        fitted, inverted = [], []
        fit, dtrtri = LagEngine._fit, scipy.linalg.lapack.dtrtri

        def counted_fit(self, target, columns, sizes):
            fitted.append(len({v for v, _ in columns}))
            return fit(self, target, columns, sizes)

        def counted_dtrtri(r, *args, **kwargs):
            inverted.append(r.shape)
            return dtrtri(r, *args, **kwargs)

        monkeypatch.setattr(LagEngine, "_fit", counted_fit)
        monkeypatch.setattr(scipy.linalg.lapack, "dtrtri", counted_dtrtri)
        infer_network(TestLagEngine().panel(300, nv, 5), method, p_max=p_max)
        # only own and pairwise families take a slice QR; the F path has none
        assert max(fitted, default=0) <= 2 and (method == "mdl") == bool(fitted)
        assert inverted.count((nv * p_max, nv * p_max)) == 1
        assert all(shape[0] <= 2 * p_max for shape in inverted if shape != (nv * p_max,) * 2)


def near_copy(noise):
    """x, y = x one step back plus ``noise`` white noise, z independent."""
    rng = np.random.default_rng(0)
    x, z = rng.standard_normal((2, 200))
    y = np.roll(x, 1) + noise * rng.standard_normal(200)
    return TimeSeriesMatrix(np.column_stack([x, y, z]), ["x", "y", "z"])


class TestRankPolicy:
    """One kappa_1 threshold, whichever entry point a design comes in through."""

    @pytest.mark.parametrize("noise, raises", [
        (1e-6, False), (1e-8, False), (1e-10, True), (1e-12, True),
    ])
    def test_near_collinear_designs_agree(self, noise, raises):
        # y.lag1 is x.lag2 plus noise, so the design's condition number is
        # about 2 / noise against the 1e10 limit
        ts = near_copy(noise)
        outcomes = []
        try:
            ols_fit(*build_design(ts, LagSpec(0, [(0, 2), (1, 1)])))
            outcomes.append(None)
        except RankDeficiencyError as exc:
            outcomes.append(exc.columns)
        outcomes.append(nested_scan(ts, "x", ["x", "y"], 2).rank_error)
        try:
            conditional_f_test_gc(ts, "x", "y", ["z"], p=2, q=1, r=1)
            outcomes.append(None)
        except RankDeficiencyError as exc:
            outcomes.append(exc)
        assert [o is not None for o in outcomes] == [raises] * 3
        if raises:
            assert outcomes[0] == (2,)
            assert "column x.lag2 depends" in str(outcomes[1])
            assert "column y.lag1 depends" in str(outcomes[2])

    def test_kahan_matrix_passes_the_diagonal_ratio_and_fails_kappa(self):
        n, theta = 50, 1.0
        c, s = math.cos(theta), math.sin(theta)
        kahan = np.diag(s ** np.arange(n)) @ (np.eye(n) - c * np.triu(np.ones((n, n)), 1))
        diag = np.abs(np.diag(kahan))
        assert diag.min() / diag.max() > 1e-4  # no small pivot to see
        assert np.linalg.cond(kahan, 1) > 1e13
        # stacked on zero rows the QR leaves Kahan's R as it is
        design = np.vstack([kahan, np.zeros((5, n))])
        with pytest.raises(RankDeficiencyError, match="column 37 depends") as info:
            ols_fit(design, np.ones(n + 5))
        assert info.value.columns == (37,)

    def test_zero_pivot_raises(self):
        design = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        with pytest.raises(RankDeficiencyError, match="column 1 depends"):
            ols_fit(design, np.ones(3))


class TestOneRoute:
    def test_fits_need_no_svd_lstsq_or_pivoted_qr(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("second least-squares route used")

        for module, name in ((np.linalg, "svd"), (np.linalg, "lstsq"), (scipy.linalg, "qr")):
            monkeypatch.setattr(module, name, forbidden)
        ts = demean(simulate(builtin_5node(), 5))
        ols_fit(*build_design(ts, LagSpec(1, [(1, 3), (0, 2)])))
        f_test_gc(ts, 1, 0, p=2, q=2)
        conditional_f_test_gc(ts, 3, 1, [0, 2], p=2, q=3, r=1)
        infer_network(ts, "mdl", p_max=6)
        infer_network(ts, "ftest", p_max=6)
        fit_bivariate_var(ts, 0, 1, order=3)
