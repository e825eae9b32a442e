import math
import re
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from granger_mdl.bench import NetworkSpec, builtin_3node, builtin_5node, simulate
from granger_mdl.errors import RankDeficiencyError, ValidationError
from granger_mdl.regression import (
    LagEngine,
    LagSpec,
    NestedScan,
    build_design,
    ols_fit,
    ols_order_scan,
    residual_covariance,
    stability_check,
)
from granger_mdl.selection import _search_order
from granger_mdl.spectral import fit_bivariate_var
from granger_mdl.timedomain import (
    MethodConfig,
    _decided,
    _f_values,
    conditional_f_test_gc,
    f_test_gc,
    infer_network,
)
from granger_mdl.timeseries import TimeSeriesMatrix, demean

from oracles import lagged_rss_longdouble, normal_equations_fit


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
        scan = LagEngine(ts, 4).scan(0, [0, 1])
        assert np.isnan(scan.rss).tolist() == [[False, True, True, True]]  # orders from the break on: NaN
        assert scan.rank_error is not None

    @pytest.mark.parametrize(
        "target, blocks",
        [(-1, [-1]), (5, [5]), (0, [0, 5]), (0, [1, 1]), (0, [])],
    )
    def test_scan_rejects_bad_variables(self, target, blocks):
        ts = TimeSeriesMatrix(np.random.default_rng(4).standard_normal((60, 3)))
        with pytest.raises(ValidationError):
            ols_order_scan(ts, target, blocks, 3)

    def test_scan_reads_the_blocks_once(self):
        ts = TimeSeriesMatrix(np.random.default_rng(4).standard_normal((80, 3)))
        by_generator, by_list = ols_order_scan(ts, 0, (v for v in [0, 1]), 3), ols_order_scan(ts, 0, [0, 1], 3)
        assert len(by_generator) == len(by_list) == 3
        for got, want in zip(by_generator, by_list):
            np.testing.assert_array_equal(got.coefficients, want.coefficients)
            assert (got.order, got.k, got.rss, got.m, got.response_sq) == (want.order, want.k, want.rss, want.m, want.response_sq)

    def test_scan_resolves_labels(self):
        ts = TimeSeriesMatrix(np.random.default_rng(4).standard_normal((60, 3)), ["a", "b", "c"])
        by_label = LagEngine(ts, 3).scan("a", ["a", "c"])
        by_index = LagEngine(ts, 3).scan(0, [0, 2])
        np.testing.assert_array_equal(by_label.rss, by_index.rss)


def memo_scan(engine, target, blocks):
    """The memo entry of a family as :meth:`LagEngine.scan` returns it, also for a family that does not fit p_max."""
    kind, t, s = engine._index(target, blocks)
    (rss,), (coefficients,), (rank_error,) = engine._families(kind, [t], [s])
    return NestedScan(coefficients, rss, rank_error)


def check_engine_scan(engine, target, blocks, orders):
    """Every order 1..orders of an engine scan against a fresh ols_fit, to 1e-10."""
    scan = engine.scan(target, blocks) if orders == engine.p_max else memo_scan(engine, target, blocks)
    ordered = [v for v in engine.variables if v in blocks]  # blocks are taken in the engine's order
    b = len(blocks)
    assert scan.rss.shape == (1, engine.p_max) and np.isnan(scan.rss[0, orders:]).all()
    for n in range(1, orders + 1):
        spec = LagSpec(target, [(v, n) for v in ordered])
        fit = ols_fit(*build_design(engine.ts, spec, start=engine.p_max))
        assert scan.rss[0, n - 1] == pytest.approx(fit.rss, rel=1e-10)
        coefficients = scan.coefficients[0, :b * n, n - 1].reshape(n, b).T.ravel()
        scale = np.abs(fit.coefficients).max()
        np.testing.assert_allclose(coefficients, fit.coefficients, rtol=1e-10, atol=1e-10 * scale)
        assert not scan.coefficients[0, b * n:, n - 1].any()


class TestLagEngine:
    def panel(self, n, nv, seed):
        rng = np.random.default_rng(seed)
        return TimeSeriesMatrix(
            np.cumsum(rng.standard_normal((n, nv)), axis=0) * 0.1 + rng.standard_normal((n, nv))
        )

    def test_random_families_match_per_order_fits(self):
        rng = np.random.default_rng(21)
        panel = self.panel(300, 12, 5)
        engine = LagEngine(panel, 10)
        # own, pair, drop-one (of another variable and of the target) and full
        for target, blocks in [(0, [0]), (5, [1, 5]), (3, [v for v in range(12) if v != 7]), (4, list(range(1, 12))),
                               (3, list(range(12)))]:
            check_engine_scan(engine, target, blocks, 10)
        # any block set is the full or drop-one family of an engine over its own variables
        families = [(0, [7]), (5, [1, 2])]  # one, target outside
        for _ in range(12):
            b = int(rng.integers(1, 13))
            families.append((int(rng.integers(12)), rng.permutation(12)[:b].tolist()))
        for target, blocks in families:
            check_engine_scan(LagEngine(panel, 10, variables=[*blocks, target]), target, blocks, 10)

    def test_memo_returns_one_scan_per_family(self):
        engine = LagEngine(self.panel(200, 5, 6), 6)
        first = engine.scan(2, [4, 2, 0, 1])
        assert engine._index(2, [4, 2, 0, 1]) == engine._index("v2", [0, 1, 2, 4]) == ("drop", 2, 3)
        assert_same_scan(engine.scan("v2", [0, 1, 2, 4]), first)
        # every drop-one rss came at once, and the coefficients of this family alone
        assert np.argwhere(engine._memo["drop"].held == 2).tolist() == [[2, 3]]
        assert not np.array_equal(engine.scan(1, [4, 2, 0, 3]).rss, first.rss)
        check_engine_scan(engine, 2, [0, 1, 2, 4], 6)

    def test_wide_factor(self):
        # 90 rows against 12 * 10 + 12 columns of Z: R is 90 x 132
        engine = LagEngine(self.panel(100, 12, 7), 10)
        assert engine.m < 12 * 10 + 12
        for target, blocks in [(0, [0]), (4, [6, 4])]:
            check_engine_scan(engine, target, blocks, 10)
        # 9 blocks at order 10 are 90 columns on 90 rows: they interpolate
        wide = LagEngine(self.panel(100, 12, 7), 10, variables=[*range(9), 11])
        assert wide.m < 10 * 10 + 10
        with pytest.raises(ValidationError, match="90 rows ≤ 90 columns at order 10"):
            wide.scan(11, list(range(9)))

    @pytest.mark.parametrize("target, blocks", [
        ("v0", ["v1"]), ("v0", ["v1", "v2"]), ("v3", ["v0", "v1", "v3"]), ("v0", ["v0", "v1", "v2"]),
    ], ids=["one other", "two others", "three with the target", "three of five"])
    def test_block_set_of_no_kind_raises(self, target, blocks):
        engine = LagEngine(self.panel(120, 5, 9), 3)
        with pytest.raises(ValidationError, match=re.escape(f"no model family has target {target!r} and blocks "
                                                            f"{blocks!r}")):
            engine.scan(target, blocks)
        with pytest.raises(ValidationError, match="no model family"):
            _search_order(engine, [(target, blocks)], "MDL")
        assert engine._memo.keys() == {"full"}  # built with the engine, nothing scanned

    def test_search_sums_families_of_one_kind(self):
        # one search over two own families: its value is their summed code length at its order
        engine = LagEngine(self.panel(120, 5, 9), 3)
        order, value, lengths = _search_order(engine, [("v0", ["v0"]), ("v1", ["v1"])], "MDL")
        assert 1 <= order <= 3 and len(lengths) == 2 and value == lengths[0].total + lengths[1].total

    @settings(max_examples=20, deadline=None)
    @given(nv=st.integers(2, 5), p_max=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1),
           certified=st.booleans())
    def test_coinciding_kinds_read_one_entry(self, nv, p_max, seed, certified):
        # own (t, [t]), pair (t, [t, s]), drop-one (t, all but s) and full (t, all): a
        # block set that two kinds name (at V <= 3) is one memo entry, scanned once
        ts = self.panel(nv * p_max + p_max + (40 if certified else 0), nv, seed)
        engine = LagEngine(ts, p_max)
        assert (engine._lag_inverse is not None) == certified
        families = {}
        for target in range(nv):
            for blocks in [[target], *([target, s] for s in range(nv) if s != target),
                           *([v for v in range(nv) if v != s] for s in range(nv)), list(range(nv))]:
                families.setdefault((target, frozenset(blocks)), set()).add(engine._index(target, blocks))
        assert all(len(index) == 1 for index in families.values())
        for (target, blocks), ((kind, t, s),) in families.items():
            if engine._underdetermined(len(blocks), 1) is None:
                memo_scan(engine, target, sorted(blocks))
                assert engine._memo[kind].held[t, s] == 2
        scanned = [(target, blocks) for target, blocks in families
                   if engine._underdetermined(len(blocks), 1) is None]
        own_names = {2: set(), 3: {"own"}}.get(nv, {"own", "pair"}) | {"drop", "full"}
        assert engine._memo.keys() <= own_names
        # drop-one rss come all at once on a certified engine; coefficients per entry
        assert sum(int((scans.held == 2).sum()) for scans in engine._memo.values()) == len(scanned)

    def test_orders_that_fit_the_window(self):
        # all 12 blocks need 120 columns at p_max 10; 90 rows fit orders 1..7
        engine = LagEngine(self.panel(100, 12, 8), 10)
        with pytest.raises(ValidationError, match="underdetermined"):
            engine.scan(0, list(range(12)))
        check_engine_scan(engine, 0, list(range(12)), 7)

    def test_residual_covariance_matches_direct_fits(self):
        ts = self.panel(120, 3, 10)
        engine = LagEngine(ts, 4, variables=[2, 0, 1])
        predictors = [(v, 4) for v in (2, 0, 1)]
        fits = [ols_fit(*build_design(ts, LagSpec(v, predictors))) for v in (2, 0, 1)]
        expected = np.array([[residual_covariance(a, b).matrix[0, 1] for b in fits] for a in fits])
        np.testing.assert_allclose(engine.residual_covariance(), expected, rtol=1e-10, atol=1e-14)


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
            scan = engine.scan(target, blocks) if orders is None else memo_scan(engine, target, blocks)
            yield engine, scan, sliced_scan(sliced, target, blocks)


def sliced_scan(engine, target, blocks):
    """The family by the rank-checked slice QR, which a certified engine does not take."""
    engine._scan(*engine._index(target, blocks))
    return memo_scan(engine, target, blocks)


def assert_same_scan(a, b):
    for field in ("coefficients", "rss"):
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
            assert engine._lag_inverse is not None
            assert scan.rank_error is None and sliced.rank_error is None
            np.testing.assert_allclose(scan.rss, sliced.rss, rtol=1e-12, atol=0)
            np.testing.assert_allclose(scan.coefficients, sliced.coefficients, rtol=0, atol=1e-12)

    def test_full_family_is_bit_identical(self):
        panel = TestLagEngine().panel(300, 12, 5)
        for engine, scan, sliced in families_from_both_routes(panel, 10):
            if scan.coefficients.shape[1] == 12 * 10:  # the full family: 12 blocks to p_max 10
                assert_same_scan(scan, sliced)

    def test_drop_one_coefficients_only_when_read(self):
        # the F test reads the drop-one rss alone; a code-length score on the
        # same engines then forms the coefficients of the families its gate
        # reads, and of no other
        panel = demean(simulate(builtin_5node(), 4))
        engine = LagEngine(panel, 5)
        _decided(engine, MethodConfig("ftest", p_max=5))
        dropped = engine._memo["drop"]  # (target, source) of all 25 drop-one families
        assert dropped.held.shape == (5, 5) and (dropped.held == 1).all()
        _, (weight,), _ = _decided(engine, MethodConfig("mdl", p_max=5))
        read = dropped.held == 2
        assert 0 < read.sum() < 20
        assert dropped.coefficients.shape == (5, 5, 1, 20, 5) and not dropped.coefficients[~read].any()
        alone = LagEngine(panel, 5)  # the code-length score without the F test first
        _decided(alone, MethodConfig("mdl", p_max=5))
        np.testing.assert_array_equal(alone._memo["drop"].held == 2, read)
        fresh = infer_network(panel, "mdl", p_max=5)
        np.testing.assert_array_equal(weight, fresh.weight)
        sliced = LagEngine(panel, 5)
        for target, source in np.argwhere(read):
            sliced._scan("drop", target, source)
        np.testing.assert_allclose(dropped.coefficients[read], sliced._memo["drop"].coefficients[read],
                                   rtol=0, atol=1e-12)

    def test_batched_families_are_bit_identical(self):
        # a target's own and pairwise families are fitted in one batch per width
        panel = TestLagEngine().panel(300, 12, 5)
        engine, sliced = LagEngine(panel, 10), LagEngine(panel, 10)
        engine._families("own", np.arange(12), np.zeros(12, dtype=int))
        engine._families("pair", *np.nonzero(~np.eye(12, dtype=bool)))
        for target in range(12):
            for blocks in [[target]] + [[target, j] for j in range(12) if j != target]:
                assert_same_scan(engine.scan(target, blocks), sliced_scan(sliced, target, blocks))
        assert engine._lag_inverse is not None

    @pytest.mark.parametrize("n, orders", [(100, 7), (130, 9)])
    def test_short_panel_takes_the_slice_qr(self, n, orders):
        # 90 or 120 rows for 12 * 10 lag columns: the full family fits
        # orders 1..7 or 1..9, not 10
        panel = TestLagEngine().panel(n, 12, 7)
        for engine, scan, sliced in families_from_both_routes(panel, 10, orders):
            assert engine._lag_inverse is None
            assert_same_scan(scan, sliced)

    def test_near_collinear_panel_takes_the_slice_qr(self):
        # kappa_1(R_L) is about 3e8: every family passes the 1e10 rule, but
        # 3e8 * (3 * 3)^2 does not certify them
        for engine, scan, sliced in families_from_both_routes(near_copy(1e-8), 3):
            assert engine._lag_inverse is None
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
        scan, dtrtri = LagEngine._scan, scipy.linalg.lapack.dtrtri

        def counted_scan(self, *family):
            fitted.append(family)
            return scan(self, *family)

        def counted_dtrtri(r, *args, **kwargs):
            inverted.append(r.shape)
            return dtrtri(r, *args, **kwargs)

        monkeypatch.setattr(LagEngine, "_scan", counted_scan)
        monkeypatch.setattr(scipy.linalg.lapack, "dtrtri", counted_dtrtri)
        infer_network(TestLagEngine().panel(300, nv, 5), method, p_max=p_max)
        # no family takes the rank-checked slice route; the MDL path fits
        # the own and pairwise families in batches, the F path needs neither
        assert fitted == []
        assert inverted.count((nv * p_max, nv * p_max)) == 1
        assert all(shape[0] <= 2 * p_max for shape in inverted if shape != (nv * p_max,) * 2)
        expected = {(nv * p_max,) * 2: 1}
        if method == "mdl":
            expected.update({(p_max, p_max): nv, (2 * p_max, 2 * p_max): nv * (nv - 1)})
        assert Counter(inverted) == expected

    @pytest.mark.parametrize("methods", [("ftest", "mdl"), ("mdl", "ftest")])
    def test_one_sigma_dd_solve_per_engine(self, methods, monkeypatch):
        # the F test reads the drop-one rss alone, the code length forms some
        # coefficients: whichever runs first, the Schur solve runs once
        panel = demean(simulate(builtin_5node(), 4))
        solves, solve = [], np.linalg.solve

        def counted_solve(a, b):
            solves.append(a.shape)
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counted_solve)
        engine = LagEngine(panel, 5)
        decided = [_decided(engine, MethodConfig(method, p_max=5)) for method in methods]
        assert solves == [(5, 1, 5, 5, 5)]  # (order, trial, source, lag, lag)
        monkeypatch.undo()
        for method, (keep, weight, errors) in zip(methods, decided):
            fresh = infer_network(panel, method, p_max=5)
            assert errors == [None]
            np.testing.assert_array_equal(keep[0], fresh.adjacency)
            np.testing.assert_array_equal(weight[0], fresh.weight)


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
        outcomes.append(LagEngine(ts, 2, variables=["x", "y"]).scan("x", ["x", "y"]).rank_error)
        try:
            conditional_f_test_gc(ts, "x", "y", ["z"], p=2, q=1, r=1)
            outcomes.append(None)
        except RankDeficiencyError as exc:
            outcomes.append(exc)
        assert [o is not None for o in outcomes] == [raises] * 3
        if raises:
            assert outcomes[0] == (2,)
            assert "column x.lag2 depends" in str(outcomes[1])
            assert "column y.lag1 depends" in str(outcomes[2]) and outcomes[2].columns == (3,)

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


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="np.longdouble is no wider than a double")
def test_near_threshold_drop_one_against_longdouble():
    # x's lags carry almost nothing about y beyond y's and w's: adding them
    # at order 2 lowers the rss by about 1e-7 of it (F about 1e-5), where
    # the drop-one rss minus the full one keeps about 7 significant digits
    rng = np.random.default_rng(11)
    n, p, start = 240, 2, 2
    y, w, z = rng.standard_normal((3, n))
    for t in range(2, n):
        y[t] += 0.5 * y[t - 1] - 0.2 * y[t - 2] + 0.3 * w[t - 1]
    lags = np.column_stack([np.roll(v, lag)[start:] for lag in (1, 2) for v in (y, w)])
    e = y[start:] - lags @ np.linalg.lstsq(lags, y[start:], rcond=None)[0]
    # x's two lag columns orthogonal to e, then a share of e in its lag 1
    a = np.zeros((2, n))
    a[0, start - 1:n - 1] = e
    a[1, start - 2:n - 2] = e
    x = z - a.T @ np.linalg.solve(a @ a.T, a @ z)
    x += math.sqrt(1e-7) * np.linalg.norm(x[start - 1:n - 1]) * a[0] / np.linalg.norm(e)
    values = np.column_stack([y, w, x])
    engine = LagEngine(TimeSeriesMatrix(values, ["y", "w", "x"]), p)
    dropped, full = engine.scan("y", ["y", "w"]), engine.scan("y", ["y", "w", "x"])
    assert engine._lag_inverse is not None  # the Schur route
    for order in (1, 2):
        rss_r = lagged_rss_longdouble(values, 0, [0, 1], order, start)
        rss_u = lagged_rss_longdouble(values, 0, [0, 1, 2], order, start)
        assert abs(dropped.rss[0, order - 1] - rss_r) <= 1e-15 * rss_r
        assert abs(full.rss[0, order - 1] - rss_u) <= 1e-15 * rss_u
        d2 = engine.m - 3 * order - 1
        f_value = _f_values(dropped.rss[0, order - 1], full.rss[0, order - 1], order, d2)[0]
        f_exact = (rss_r - rss_u) / order / (rss_u / d2)
        # rounding of 1e-16 of the rss, over a difference of 1e-7 of it
        assert abs(f_value - f_exact) <= 1e-8 * f_exact
    assert 3e-8 < (rss_r - rss_u) / rss_u < 3e-7


def white_panel(labels=("a", "b"), n=30, seed=0):
    return TimeSeriesMatrix(np.random.default_rng(seed).standard_normal((n, len(labels))), labels)


@pytest.mark.parametrize("call, message", [
    (lambda: LagEngine([white_panel(), white_panel(n=31)], 2),
     "the series of a stack must share one shape and one set of labels"),
    (lambda: LagEngine([white_panel(), white_panel(("a", "c"))], 2),
     "the series of a stack must share one shape and one set of labels"),
    (lambda: LagEngine([white_panel(), white_panel(("a", "b", "c"))], 2),
     "the series of a stack must share one shape and one set of labels"),
    (lambda: LagEngine(white_panel(), 0), "p_max must be >= 1"),
    (lambda: LagSpec(0, []), "LagSpec needs at least one predictor"),
    (lambda: build_design(white_panel(), LagSpec(0, [(2, 1)])), "predictor variable 2 out of range"),
    (lambda: build_design(white_panel(), LagSpec(2, [(0, 1)])), "target variable 2 out of range"),
    (lambda: ols_fit(np.ones(5), np.ones(5)), "design must be 2-D"),
    (lambda: ols_fit(np.ones((5, 1)), np.ones(4)), "response length (4,) != design rows 5"),
    (lambda: stability_check(np.ones((2, 3))), "lag matrices must share one square shape"),
], ids=["stack lengths", "stack labels", "stack widths", "p_max 0", "no predictors", "predictor range",
        "target range", "1-D design", "response length", "non-square lag matrix"])
def test_validation_messages(call, message):
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value) == message
