import hashlib
import json
import math
import re
import sys
from collections import Counter

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from granger_mdl import regression, selection, timedomain
from granger_mdl.bench import NetworkSpec, builtin_3node, builtin_5node, simulate
from granger_mdl.errors import (
    DegenerateFitError,
    RankDeficiencyError,
    ValidationError,
)
from granger_mdl.timedomain import (
    CausalGraph,
    conditional_f_test_gc,
    conditional_mdl_gc,
    f_cdf,
    f_test_gc,
    infer_network,
    joint_mdl_gc,
    log_variance_ratio,
    mdl_gc,
    similarity,
    MethodConfig,
    _decided,
    _f_comparison,
    _f_dof,
)
from granger_mdl.regression import LagEngine
from granger_mdl.cli import main
from granger_mdl.selection import CRITERIA, _search_order, code_length_from_stats, select_order
from granger_mdl.spectral import fit_bivariate_var
from granger_mdl.timeseries import TimeSeriesMatrix, demean, save_csv

from oracles import f_cdf_oracle, lagged_rss_longdouble
from test_regression import memo_scan, near_copy


def sim3(seed, **kwargs):
    return demean(simulate(builtin_3node(**kwargs), seed))


def white_pair(seed, n=300):
    rng = np.random.default_rng(seed)
    return TimeSeriesMatrix(rng.standard_normal((n, 2)), ["x", "y"])


class TestFCdf:
    def test_zero(self):
        assert f_cdf(0.0, 3, 7) == 0.0

    def test_equal_dof_symmetry(self):
        for d in (1, 2, 5, 30):
            assert f_cdf(1.0, d, d) == pytest.approx(0.5, abs=1e-12)

    def test_against_continued_fraction_oracle(self):
        # frozen from the oracle: CDF(4; 2, 10)
        assert f_cdf(4.0, 2, 10) == pytest.approx(0.9470778505986553, abs=1e-12)
        assert abs(f_cdf(4.0, 2, 10) - f_cdf_oracle(4.0, 2, 10)) < 1e-10

    def test_invalid_dof(self):
        with pytest.raises(ValidationError):
            f_cdf(1.0, 0, 5)
        with pytest.raises(ValidationError):
            f_cdf(-1.0, 2, 5)


class TestFTest:
    def test_duplicate_source_surfaces_rank_error(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(100)
        ts = TimeSeriesMatrix(np.column_stack([x, x]), ["x", "y"])
        with pytest.raises(RankDeficiencyError):
            f_test_gc(ts, "x", "y", p=2, q=2)

    def test_equal_rss_means_not_significant(self):
        result = _f_comparison(rss_r=5.0, rss_u=5.0, q=2, d2=20, alpha=0.05)
        assert result.f_value == 0.0
        assert result.p_value == 1.0
        assert not result.significant

    def test_perfect_unrestricted_fit(self):
        result = _f_comparison(rss_r=5.0, rss_u=0.0, q=2, d2=20, alpha=0.05)
        assert result.f_value == math.inf
        assert result.p_value == 0.0
        assert result.significant

    def test_true_edge_detected_almost_always(self):
        hits = 0
        trials = 1000
        for t in range(trials):
            ts = sim3(20_000 + t)
            result = f_test_gc(ts, "node2", "node1", p=2, q=2, alpha=0.05)
            hits += result.significant
        assert hits >= 0.99 * trials

    def test_dof_accounting(self):
        ts = white_pair(1)
        result = f_test_gc(ts, "x", "y", p=3, q=2)
        m = 300 - 3
        assert result.dof == (2, m - 3 - 2 - 1)

    def test_small_sample_size_is_calibrated(self):
        # white-noise pairs at m = 22 (p = q = 2, so d2 = m - k - 1 = 17):
        # 10,000 replications put the standard error of the size at 0.2 points
        rng = np.random.default_rng(2024)
        trials = 10_000
        hits = sum(
            f_test_gc(TimeSeriesMatrix(rng.standard_normal((24, 2)), ["x", "y"]),
                      "x", "y", p=2, q=2, alpha=0.05).significant
            for _ in range(trials)
        )
        size = hits / trials
        se = math.sqrt(size * (1.0 - size) / trials)
        assert se <= 0.002
        assert size <= 0.05
        assert abs(size - 0.0416) <= 3.0 * se

    def test_p_value_is_the_upper_tail(self):
        # 1 - f_cdf cancels: on this grid it read 0.0 at 168 points with a positive tail
        rng = np.random.default_rng(0)
        for _ in range(1000):
            f_value = 10 ** rng.uniform(-3, 3)
            d1, d2 = int(rng.integers(1, 11)), int(round(10 ** rng.uniform(0, 4)))
            result = _f_comparison(1.0 + f_value * d1 / d2, 1.0, d1, d2, 0.05)
            expected = scipy.stats.f.sf(result.f_value, d1, d2)
            assert result.p_value == pytest.approx(expected, rel=1e-10, abs=0.0)

    def test_builds_no_lag_engine(self, monkeypatch):
        # an F test fits its own design on ols_fit's route
        built, init = [], LagEngine.__init__

        def counted_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(LagEngine, "__init__", counted_init)
        ts = demean(simulate(builtin_5node(), 0))
        f_test_gc(ts, 0, 1, 5, 5)
        conditional_f_test_gc(ts, 0, 1, [2, 3, 4], 5, 5, 5)
        assert built == []

    def test_late_window_matches_extended_precision_oracle(self):
        # p = q = r = 3 on the window from row 7, past the max lag
        ts = demean(simulate(builtin_5node(), 2))
        n, start = 3, 7
        result = conditional_f_test_gc(ts, "node2", "node1", ["node3", "node5"], n, n, n, start=start)
        rss_r = lagged_rss_longdouble(ts.values, 1, [1, 2, 4], n, start)
        rss_u = lagged_rss_longdouble(ts.values, 1, [1, 2, 4, 0], n, start)
        d2 = ts.n_samples - start - 4 * n - 1
        assert result.dof == (n, d2)
        assert result.rss_restricted == pytest.approx(float(rss_r), rel=1e-12)
        assert result.rss_unrestricted == pytest.approx(float(rss_u), rel=1e-12)
        assert result.f_value == pytest.approx(float((rss_r - rss_u) / n / (rss_u / d2)), rel=1e-12)

    def test_log_variance_ratio(self):
        result = _f_comparison(rss_r=8.0, rss_u=4.0, q=1, d2=20, alpha=0.05)
        assert log_variance_ratio(result) == pytest.approx(math.log(2.0))

    def test_validation(self):
        ts = white_pair(2)
        with pytest.raises(ValidationError):
            f_test_gc(ts, "x", "x", p=1, q=1)
        with pytest.raises(ValidationError):
            f_test_gc(ts, "x", "y", p=0, q=1)
        with pytest.raises(ValidationError):
            conditional_f_test_gc(ts, "x", "y", ["x"], p=1, q=1, r=1)


class TestMdlGc:
    def test_independent_noise_is_rarely_causal(self):
        trials = 400
        false_hits = 0
        rng_seeds = range(1000, 1000 + trials)
        for seed in rng_seeds:
            rng = np.random.default_rng(seed)
            n = 300
            x = np.zeros(n)
            e = rng.standard_normal(n) * 0.5
            for t in range(2, n):
                x[t] = 1.5 * x[t - 1] - 0.9 * x[t - 2] + e[t]
            y = rng.standard_normal(n)
            ts = demean(TimeSeriesMatrix(np.column_stack([x, y]), ["x", "y"]))
            false_hits += mdl_gc(ts, "x", "y", p_max=10).causal
        assert false_hits <= 0.05 * trials

    def test_true_edge_directionality(self):
        trials = 300
        forward = backward = 0
        f_forward = []
        f_backward = []
        for t in range(trials):
            ts = sim3(40_000 + t)
            fwd = mdl_gc(ts, "node2", "node1", p_max=10)
            bwd = mdl_gc(ts, "node1", "node2", p_max=10)
            forward += fwd.causal
            backward += bwd.causal
            f_forward.append(fwd.f_nats)
            f_backward.append(bwd.f_nats)
        assert forward >= 0.96 * trials
        assert backward <= 0.04 * trials
        # evidence is antisymmetric on a directed edge
        assert np.mean(f_forward) > 0 > np.mean(f_backward)

    def test_lagged_copy_degenerates(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(200)
        y = np.roll(x, 1)
        y[0] = 0.0
        ts = TimeSeriesMatrix(np.column_stack([x, y]), ["x", "y"])
        with pytest.raises(DegenerateFitError):
            mdl_gc(ts, "y", "x", p_max=6)

    def test_rank_break_after_order_one_is_an_error(self):
        # y.lag1 equals x.lag2: orders >= 2 of x's unrestricted family are
        # rank-broken, and the search must not quietly stop at order 1
        rng = np.random.default_rng(8)
        x = rng.standard_normal(200)
        y = np.roll(x, 1)
        y[0] = 0.0
        ts = TimeSeriesMatrix(np.column_stack([x, y]), ["x", "y"])
        with pytest.raises(RankDeficiencyError):
            mdl_gc(ts, "x", "y", p_max=4)

    def test_rank_error_names_labels(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(200)
        ts = TimeSeriesMatrix(np.column_stack([x, np.roll(x, 1)]), ["x", "y"])
        with pytest.raises(RankDeficiencyError, match=r"x\.lag2"):
            mdl_gc(ts, "x", "y", p_max=4)

    def test_duplicate_conditioning_variable_rejected(self):
        # an input error that names the label, before any fit, for both methods
        rng = np.random.default_rng(9)
        ts = TimeSeriesMatrix(rng.standard_normal((150, 3)), ["a", "b", "c"])
        for z_set in (["c", "c"], ["c", 2], [2, "c"]):
            with pytest.raises(ValidationError, match="conditioning variable c is listed more than once"):
                conditional_mdl_gc(ts, "a", "b", z_set, p_max=3)
            with pytest.raises(ValidationError, match="conditioning variable c is listed more than once"):
                conditional_f_test_gc(ts, "a", "b", z_set, 2, 2, 2)

    def test_saving_equals_length_difference(self):
        ts = sim3(77)
        result = mdl_gc(ts, "node2", "node1")
        assert result.f_nats == pytest.approx(
            result.restricted_len.total - result.unrestricted_len.total, abs=1e-10
        )
        assert result.causal == (result.f_nats > 0)


class TestConditionalMdl:
    def test_empty_conditioning_reduces_to_pairwise(self):
        ts = sim3(5)
        a = mdl_gc(ts, "node2", "node1", p_max=8)
        b = conditional_mdl_gc(ts, "node2", "node1", [], p_max=8)
        assert a == b

    def test_spurious_common_driver_edge_rejected_given_driver(self):
        trials = 300
        rejected = 0
        for t in range(60_000, 60_000 + trials):
            ts = sim3(t)
            cond = conditional_mdl_gc(ts, "node3", "node2", ["node1"], p_max=10)
            rejected += not cond.causal
        assert rejected >= 0.96 * trials

    def test_joint_measure_matches_recomputation(self):
        ts = sim3(6)
        joint = joint_mdl_gc(ts, "node3", "node1", "node2", p_max=8)
        expected = (
            min(joint.len_with_first.total, joint.len_with_second.total)
            - joint.len_with_both.total
        )
        assert joint.f_nats == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("network", ["3node", "5node"])
    def test_joint_lengths_are_the_conditional_ones(self, network):
        ts = sim3(1) if network == "3node" else demean(simulate(builtin_5node(), 1))
        joint = joint_mdl_gc(ts, 0, 1, 2, p_max=5)
        conditional = conditional_mdl_gc(ts, 0, 1, [2], p_max=5)
        assert joint.len_with_both == conditional.unrestricted_len
        assert joint.len_with_second == conditional.restricted_len

    def test_overlapping_conditioning_rejected(self):
        ts = sim3(7)
        with pytest.raises(ValidationError):
            conditional_mdl_gc(ts, "node1", "node2", ["node2"], p_max=4)


class TestInferNetwork:
    def test_fractional_p_max_rejected(self):
        with pytest.raises(ValidationError, match=re.escape("p_max must be an integer, got 2.5")):
            infer_network(white_pair(0), p_max=2.5)

    def test_two_variable_input_uses_pairwise_only(self):
        rng = np.random.default_rng(3)
        n = 400
        x = np.zeros(n)
        y = np.zeros(n)
        e = rng.standard_normal((n, 2)) * 0.5
        for t in range(1, n):
            x[t] = 0.5 * x[t - 1] + e[t, 0]
            y[t] = 0.4 * y[t - 1] + 0.5 * x[t - 1] + e[t, 1]
        ts = demean(TimeSeriesMatrix(np.column_stack([x, y]), ["x", "y"]))
        graph = infer_network(ts, "mdl", p_max=6)
        assert graph.adjacency[0, 1] == mdl_gc(ts, "y", "x", p_max=6).causal
        assert graph.adjacency[1, 0] == mdl_gc(ts, "x", "y", p_max=6).causal

    def test_3node_graph_recovered(self):
        trials = 200
        exact = 0
        truth = {(0, 1), (0, 2)}
        for t in range(trials):
            graph = infer_network(sim3(80_000 + t), "mdl", p_max=10)
            exact += set(graph.edges()) == truth
        assert exact >= 0.93 * trials

    def test_decisions_are_traversal_independent(self):
        # every edge of the assembled graph equals the standalone decision
        ts = sim3(9)
        graph = infer_network(ts, "mdl", p_max=8)
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                rest = [k for k in range(3) if k not in (i, j)]
                pairwise = mdl_gc(ts, i, j, p_max=8)
                expected = pairwise.causal
                if expected:
                    expected = conditional_mdl_gc(ts, i, j, rest, p_max=8).causal
                assert graph.adjacency[j, i] == expected

    @pytest.mark.parametrize("ts, p_max", [
        (sim3(9), 8),
        (demean(simulate(builtin_5node(), 31)), 10),
    ])
    def test_ftest_decisions_are_traversal_independent(self, ts, p_max):
        # every F edge equals the standalone conditional test at the AIC order
        graph = infer_network(ts, "ftest", p_max=p_max, alpha=0.05)
        nv = ts.n_variables
        for i in range(nv):
            for j in range(nv):
                if i == j:
                    continue
                rest = [k for k in range(nv) if k not in (i, j)]
                n = select_order(ts, i, [i] + rest, "AIC", p_max).order
                expected = conditional_f_test_gc(ts, i, j, rest, n, n, n, 0.05, start=p_max)
                assert graph.adjacency[j, i] == expected.significant
                assert graph.weight[j, i] == pytest.approx(expected.f_value, rel=1e-9)

    @pytest.mark.parametrize("nv, n, mdl_ok, ftest_ok", [
        (12, 125, False, False),
        (5, 58, False, False),
        (5, 62, True, True),
        (3, 45, True, True),
        # no pairwise gate passes, so MDL never asks for the 30-column family
        (3, 38, True, False),
    ])
    def test_short_panels(self, nv, n, mdl_ok, ftest_ok):
        ts = TimeSeriesMatrix(np.random.default_rng(2).standard_normal((n, nv)))
        for method, ok in (("mdl", mdl_ok), ("ftest", ftest_ok)):
            if ok:
                infer_network(ts, method, p_max=10)
            else:
                with pytest.raises(ValidationError):
                    infer_network(ts, method, p_max=10)

    def test_ftest_method_runs_and_tags(self):
        graph = infer_network(sim3(10), "ftest", p_max=8, alpha=0.05)
        assert graph.method == "F_TEST"
        assert graph.params["alpha"] == 0.05
        assert not graph.adjacency.diagonal().any()

    def test_rejects_single_variable(self):
        ts = TimeSeriesMatrix(np.random.default_rng(0).standard_normal((50, 1)), ["a"])
        with pytest.raises(ValidationError):
            infer_network(ts, "mdl")

    def test_unknown_method(self):
        with pytest.raises(ValidationError):
            infer_network(white_pair(0), "wald")

    def test_unknown_order_criterion(self):
        with pytest.raises(ValidationError, match="order criterion"):
            infer_network(white_pair(0), "mdl", order_criterion="XYZ")


class TestScaleInvariance:
    def test_f_test_decisions_scale_free(self):
        ts = sim3(11)
        scaled = TimeSeriesMatrix(ts.values * 37.5, ts.labels)
        for target, source in ((1, 0), (0, 1), (2, 0)):
            a = f_test_gc(ts, target, source, p=2, q=2)
            b = f_test_gc(scaled, target, source, p=2, q=2)
            assert a.significant == b.significant
            assert a.f_value == pytest.approx(b.f_value, rel=1e-9)

    def test_mdl_decisions_stable_away_from_pricing_boundary(self):
        # x1.5 keeps every noise variance and coefficient on its side of
        # the unit coding range, so decisions must not move
        ts = sim3(12)
        scaled = TimeSeriesMatrix(ts.values * 1.5, ts.labels)
        for target, source in ((1, 0), (0, 1), (2, 0), (1, 2)):
            assert (
                mdl_gc(ts, target, source, p_max=8).causal
                == mdl_gc(scaled, target, source, p_max=8).causal
            )


def ring_spec(nv=12, rows=300):
    """Own AR(2) on every node and one incoming cross edge per node, from a node one to three places on."""
    coefficients = []
    for t in range(nv):
        coefficients += [(t, t, 1, 0.5), (t, t, 2, -0.2), (t, (t + 1 + t % 3) % nv, 1 + t % 2, 0.3 * (-1) ** t)]
    return NetworkSpec(n_nodes=nv, coefficients=coefficients, noise_variances=[0.1] * nv,
                       total_len=rows, burn_in=100, initial_values=[0.0] * nv)


class TestPinnedWeights:
    """analyze's graph JSON, weights included, byte for byte.

    The digests were recorded before model families were named by kind
    and index. At 2 and 3 variables the kinds coincide: own is drop-one
    and pair is full at 2, pair is drop-one at 3.
    """

    GRAPH_SHA256 = {
        ("2", "mdl"): "1da527f38726b6e4f1ed9e3d00b079a480a338ca44c7a5de7be7322db267e70b",
        ("2", "ftest"): "7c5ca83f3354bbba36df069aa385e5c292b17f8e93892220565663c9a2d6a2f8",
        ("3", "mdl"): "8fad25ab93dd59c3eafb4ddc648e6cff1c9f4d7d6fff3c458be939d4057b5c9e",
        ("3", "ftest"): "682cc91f6d32e83ab2c3ea6fc9458e71893f81af0eb47bb91d5a9860674285d9",
        ("5", "mdl"): "b1112ef7783623219ff016eb8bf204471c1e12c5e62a424e81d4d50cab0abb4f",
        ("5", "ftest"): "f0295d8f90ef11ff38d792005dd8dc7b4bb2c885e2f6b98655992c0a64a2cb44",
        ("12", "mdl"): "7311499dfd0ab30381a802ea173c788ca47fb092e4633333ee200a15c3366162",
        ("12", "ftest"): "b952394d7c1a03a1255b30724aca3b0d4fe45137c1bae25601e91ed7ff3b46f9",
    }

    @staticmethod
    def panel(nv):
        three = sim3(1)
        if nv == "2":
            return TimeSeriesMatrix(three.values[:, :2], three.labels[:2])
        return {"3": three, "5": demean(simulate(builtin_5node(), 1)), "12": demean(simulate(ring_spec(), 5))}[nv]

    @pytest.mark.parametrize("nv, method", list(GRAPH_SHA256))
    def test_graph_json_matches_pinned_digest(self, nv, method):
        graph = infer_network(self.panel(nv), method, p_max=10)
        assert hashlib.sha256(graph.to_json().encode()).hexdigest() == self.GRAPH_SHA256[nv, method]


def sparse_var_panel(seed, nv, n=240):
    """A stable VAR(1) panel with own lags and a few cross edges."""
    rng = np.random.default_rng(seed)
    a = np.diag(rng.uniform(0.2, 0.6, nv))
    a[rng.integers(nv, size=nv), rng.integers(nv, size=nv)] += 0.4
    a *= 0.9 / max(0.9, np.abs(np.linalg.eigvals(a)).max())
    x = np.zeros((n + 50, nv))
    noise = rng.standard_normal((n + 50, nv))
    for t in range(1, n + 50):
        x[t] = a @ x[t - 1] + noise[t]
    return demean(TimeSeriesMatrix(x[50:]))


class TestPermutationEquivariance:
    @settings(max_examples=12, deadline=None, database=None)
    @given(data=st.data())
    def test_permuting_variables_permutes_the_graph(self, data):
        nv = data.draw(st.sampled_from([4, 5]))
        perm = data.draw(st.permutations(range(nv)))
        ts = sparse_var_panel(data.draw(st.integers(0, 2**31 - 1)), nv)
        permuted = TimeSeriesMatrix(ts.values[:, perm])
        for method in ("mdl", "ftest"):
            graph = infer_network(ts, method, p_max=5)
            moved = infer_network(permuted, method, p_max=5)
            np.testing.assert_array_equal(moved.adjacency, graph.adjacency[np.ix_(perm, perm)])
            np.testing.assert_allclose(
                moved.weight, graph.weight[np.ix_(perm, perm)], rtol=1e-9, atol=1e-9
            )


class TestGraphSerialization:
    def test_json_round_trip(self):
        graph = infer_network(sim3(13), "mdl", p_max=6)
        text = graph.to_json()
        payload = json.loads(text)
        assert payload["nodes"] == ["node1", "node2", "node3"]
        assert payload["method"] == "MDL"
        back = CausalGraph.from_json(text)
        assert back.edges() == graph.edges()
        np.testing.assert_array_equal(back.adjacency, graph.adjacency)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_json_round_trip_keeps_edges_and_weight_bytes(self, data):
        # any distinct labels, any adjacency (self-loops too), any finite weights
        labels = data.draw(st.lists(st.text(), max_size=5, unique=True))
        n = len(labels)
        extremes = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, sys.float_info.max, -sys.float_info.max])
        adjacency = data.draw(arrays(bool, (n, n)))
        weight = data.draw(arrays(np.float64, (n, n), elements=extremes | st.floats(allow_nan=False,
                                                                                   allow_infinity=False)))
        graph = CausalGraph(n, adjacency, weight, "MDL", {"p_max": 3}, tuple(labels))
        back = CausalGraph.from_json(graph.to_json())
        assert back.labels == graph.labels and back.edges() == graph.edges()
        assert back.weight[adjacency].tobytes() == weight[adjacency].tobytes()

    def test_malformed_json_rejected(self):
        with pytest.raises(ValidationError):
            CausalGraph.from_json("{\"nodes\": [\"a\"]}")

    @pytest.mark.parametrize("nodes, edge, message", [
        (["a", "b"], {"from": "a", "to": "b", "weight": True}, "edge a->b weight must be a number, got True"),
        (["a", "b"], {"from": "a", "to": "b", "weight": "2"}, "edge a->b weight must be a number, got '2'"),
        (["a", "a"], {"from": "a", "to": "a"}, "nodes must be distinct strings, got ['a', 'a']"),
        ([1, 2], {"from": 1, "to": 2}, "nodes must be distinct strings, got [1, 2]"),
        ("ab", {"from": "a", "to": "b"}, "nodes must be distinct strings, got 'ab'"),
    ])
    def test_nodes_and_weights_are_typed(self, nodes, edge, message):
        text = json.dumps({"nodes": nodes, "method": "MDL", "edges": [edge], "params": {}})
        with pytest.raises(ValidationError, match=re.escape(message)):
            CausalGraph.from_json(text)


def graph_from_edges(n, edges):
    adjacency = np.zeros((n, n), dtype=bool)
    weight = np.zeros((n, n))
    for j, i in edges:
        adjacency[j, i] = True
        weight[j, i] = 1.0
    labels = tuple(f"n{i}" for i in range(n))
    return CausalGraph(n, adjacency, weight, "MDL", {}, labels)


class TestSimilarity:
    def test_identical_graphs(self):
        g = graph_from_edges(3, [(0, 1), (0, 2)])
        assert similarity(g, g) == 1.0

    def test_disjoint_nonempty(self):
        a = graph_from_edges(3, [(0, 1)])
        b = graph_from_edges(3, [(1, 2)])
        assert similarity(a, b) == 0.0

    def test_hand_counted_half(self):
        a = graph_from_edges(3, [(0, 1), (0, 2), (1, 2)])
        b = graph_from_edges(3, [(0, 1), (1, 2), (2, 0)])
        assert similarity(a, b) == 0.5

    def test_empty_graphs_match(self):
        a = graph_from_edges(2, [])
        assert similarity(a, a) == 1.0

    @given(nv=st.integers(2, 5), data=st.data())
    def test_symmetry_and_bounds(self, nv, data):
        edges = st.sets(st.sampled_from([(j, i) for j in range(nv) for i in range(nv) if i != j]))
        ea, eb = data.draw(edges), data.draw(edges)
        a, b = graph_from_edges(nv, ea), graph_from_edges(nv, eb)
        s_ab, s_ba = similarity(a, b), similarity(b, a)
        assert similarity(a, graph_from_edges(nv, ea)) == 1.0  # identical, and two empty graphs
        assert s_ab == s_ba
        assert 0.0 <= s_ab <= 1.0
        assert (s_ab == 1.0) == (ea == eb)

    def test_node_count_mismatch(self):
        with pytest.raises(ValidationError):
            similarity(graph_from_edges(2, []), graph_from_edges(3, []))

    @given(nv=st.integers(2, 5), data=st.data())
    def test_edges_compare_by_label_in_any_node_order(self, nv, data):
        edges = data.draw(st.sets(st.sampled_from([(j, i) for j in range(nv) for i in range(nv) if i != j])))
        order = data.draw(st.permutations(range(nv)))
        a = graph_from_edges(nv, edges)
        # the same labelled edges over the nodes listed in another order
        position = {v: p for p, v in enumerate(order)}
        b = graph_from_edges(nv, [(position[j], position[i]) for j, i in edges])
        b = CausalGraph(nv, b.adjacency, b.weight, "MDL", {}, tuple(a.labels[v] for v in order))
        assert similarity(a, b) == similarity(b, a) == 1.0
        other = graph_from_edges(nv, edges)
        other = CausalGraph(nv, other.adjacency, other.weight, "MDL", {}, tuple(f"m{i}" for i in range(nv)))
        with pytest.raises(ValidationError, match=r"node labels differ: \['n0'.* vs \['m0'"):
            similarity(a, other)


def scores(engine, families, criterion):
    """``selection._scores`` of (target, blocks) families, one call per family, stacked on the family axis."""
    scored = [selection._scores(engine, kind, [t], [s], criterion)
              for kind, t, s in (engine._index(target, blocks) for target, blocks in families)]
    rss, errors, rows = zip(*scored)
    return np.concatenate(rss), np.concatenate(errors), np.concatenate(rows, axis=1)


def kind_families(nv):
    """Every (target, blocks) that is a target's own, pair, drop-one or full family on ``nv`` variables."""
    return [(target, blocks) for target in range(nv) for mask in range(1, 2 ** nv)
            if len(blocks := [v for v in range(nv) if mask >> v & 1]) >= nv - 1
            or target in blocks and len(blocks) <= 2]


def held(engine):
    """What each memo entry of each kind holds (see ``regression._Scans``), copied."""
    return {kind: scans.held.copy() for kind, scans in engine._memo.items()}


def assert_same_held(a, b):
    assert a.keys() == b.keys()
    for kind in a:
        np.testing.assert_array_equal(a[kind], b[kind])


class TestScannedOnce:
    """Scans are memoised per engine, scores are not: deciding again fits nothing and raises the same errors."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts of the engine's fitting routes: rank-checked slice QRs, batched slice QRs, Schur passes."""
        calls = {"_scan": 0, "_stacked": 0, "_drop_one_families": 0}

        def counted(name):
            fn = getattr(LagEngine, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(LagEngine, name, counted(name))
        return calls

    def test_second_mdl_decision_fits_nothing(self, calls):
        ts = demean(simulate(builtin_5node(), 11))
        engine = LagEngine(ts, 10)
        _, (first,), (error,) = _decided(engine, MethodConfig("mdl"))
        # own, pairwise and conditional families
        assert error is None and engine._memo.keys() == {"own", "pair", "drop", "full"}
        seen, families = dict(calls), held(engine)
        _, (again,), _ = _decided(engine, MethodConfig("mdl"))
        assert calls == seen
        assert_same_held(held(engine), families)
        np.testing.assert_array_equal(again, first)

    def test_three_node_pairs_are_scored_once(self, monkeypatch):
        # at 3 variables the gate's drop-one families are the pairwise ones:
        # their rows come from the pairwise pass, so only the own (3), the
        # pairwise (6) and the gated targets' full families are scored
        stack = LagEngine([sim3(seed) for seed in range(8)], 10)
        columns, curve = [], selection._code_length_curve

        def counted(coefficients, *args):
            columns.append(coefficients.shape[1])
            return curve(coefficients, *args)

        monkeypatch.setattr(selection, "_code_length_curve", counted)
        keep, weight, errors = _decided(stack, MethodConfig("mdl"))
        assert errors == [None] * 8
        assert columns == [3 * 8 * 10, 6 * 8 * 10, 2 * 8 * 10]
        monkeypatch.undo()
        for t, seed in enumerate(range(8)):
            graph = infer_network(sim3(seed), "mdl")
            assert keep[t].tobytes() == graph.adjacency.tobytes() and weight[t].tobytes() == graph.weight.tobytes()

    @pytest.mark.parametrize("method", ["mdl", "ftest"])
    def test_certified_decision_makes_no_per_family_object(self, method, monkeypatch):
        # families are (kind, target, source) index arrays: no block set is
        # mapped, no family scanned alone and no scan record made
        def forbidden(*args, **kwargs):
            raise AssertionError("a per-family route ran")

        for name in ("_index", "_scan", "scan"):
            monkeypatch.setattr(LagEngine, name, forbidden)
        monkeypatch.setattr(regression, "NestedScan", forbidden)
        for ts in (sim3(4), demean(simulate(builtin_5node(), 4)), demean(simulate(ring_spec(), 5))):
            engine = LagEngine(ts, 5)
            assert engine._lag_inverse is not None
            _decided(engine, MethodConfig(method, p_max=5))

    @pytest.mark.parametrize("method", ["mdl", "ftest"])
    def test_warm_decision_does_not_grow_with_the_families(self, method):
        # a decision whose scans are all memoised makes as many Python calls
        # at 12 variables (132 edges) as at 6 (30 edges)
        counts = []
        for nv in (6, 12):
            engine = LagEngine(demean(simulate(ring_spec(nv), 5)), 3)
            cfg = MethodConfig(method, p_max=3)
            _decided(engine, cfg)
            calls = Counter()
            sys.setprofile(lambda frame, event, arg: calls.update([event]) if event == "call" else None)
            try:
                _decided(engine, cfg)
            finally:
                sys.setprofile(None)
            counts.append(calls["call"])
        assert counts[0] == counts[1]

    def test_second_f_config_reads_stored_scans(self, calls):
        ts = demean(simulate(builtin_5node(), 12))
        engine = LagEngine(ts, 10)
        _decided(engine, MethodConfig("ftest", alpha=0.05))
        seen, families = dict(calls), held(engine)
        shared = _decided(engine, MethodConfig("ftest", alpha=0.01))
        assert calls == seen
        assert_same_held(held(engine), families)
        fresh = infer_network(ts, "ftest", alpha=0.01)
        np.testing.assert_array_equal(shared[0][0], fresh.adjacency)
        np.testing.assert_array_equal(shared[1][0], fresh.weight)

    @pytest.mark.parametrize("method", ["mdl", "ftest"])
    @pytest.mark.parametrize("name", ["lagged copy", "noiseless target of four", "noiseless single source"])
    def test_errors_raised_again_in_the_same_order(self, name, method, calls):
        engine = LagEngine(replay_panel(name), 3)
        _, _, (first,) = _decided(engine, MethodConfig(method, p_max=3))
        assert first is not None and engine._lag_inverse is None and calls["_scan"] > 0
        seen, families = dict(calls), held(engine)
        _, _, (again,) = _decided(engine, MethodConfig(method, p_max=3))
        assert calls == seen
        assert_same_held(held(engine), families)
        assert type(again) is type(first) and str(again) == str(first)
        with pytest.raises(type(first)) as info:
            infer_network(replay_panel(name), method, p_max=3)
        assert str(info.value) == str(first)

    @pytest.mark.parametrize("criterion", ["MDL", "AIC"])
    def test_rank_error_raised_again(self, criterion):
        x = np.random.default_rng(3).standard_normal(120)
        ts = TimeSeriesMatrix(np.column_stack([x, np.roll(x, 1)]), ["x", "y"])
        engine = LagEngine(ts, 4)
        for _ in range(2):
            with pytest.raises(RankDeficiencyError, match=r"x\.lag2"):
                _search_order(engine, [(0, [0, 1])], criterion)

    def test_noiseless_order_raised_again_before_rank_error(self):
        # x_t = 0.9 x_(t-1): order 1 leaves no residual, and x.lag2 is x.lag1 / 0.9
        ts = TimeSeriesMatrix((0.9 ** np.arange(80.0))[:, None], ["x"])
        engine = LagEngine(ts, 3)
        assert engine.scan(0, [0]).rank_error is not None
        for _ in range(2):
            with pytest.raises(DegenerateFitError):
                _search_order(engine, [(0, [0])], "MDL")


class TestCheckedParameters:
    """Public numeric parameters go through checked_value: a bad one names itself."""

    @pytest.mark.parametrize("call, name", [
        (lambda ts: f_test_gc(ts, 0, 1, 2.5, 2), "p"),
        (lambda ts: f_test_gc(ts, 0, 1, True, 2), "p"),
        (lambda ts: f_test_gc(ts, 0, 1, 2, "2"), "q"),
        (lambda ts: conditional_f_test_gc(ts, 0, 1, [2], 2, 2, 1.5), "r"),
        (lambda ts: f_test_gc(ts, 0, 1, 2, 2, alpha=2.0), "alpha"),
        (lambda ts: f_test_gc(ts, 0, 1, 2, 2, alpha=math.nan), "alpha"),
        (lambda ts: f_test_gc(ts, 0, 1, 2, 2, alpha=True), "alpha"),
        (lambda ts: f_test_gc(ts, 0, 1, 2, 2, start=3.5), "start"),
        (lambda ts: mdl_gc(ts, 0, 1, p_max=2.5), "p_max"),
        (lambda ts: select_order(ts, 0, [0], "AIC", p_max=2.5), "p_max"),
        (lambda ts: LagEngine(ts, None), "p_max"),
        (lambda ts: mdl_gc(ts, 0, 1, p_max=3, scale_floor=math.nan), "scale_floor"),
        (lambda ts: mdl_gc(ts, 0, 1, p_max=3, scale_floor=-1), "scale_floor"),
        (lambda ts: joint_mdl_gc(ts, 0, 1, 2, p_max=3, scale_floor=math.inf), "scale_floor"),
        (lambda ts: code_length_from_stats([0.5], 1.0, 10, 20, scale_floor="1"), "scale_floor"),
        (lambda ts: mdl_gc(ts, 0, 1, p_max=3, delta="x"), "delta"),
        (lambda ts: mdl_gc(ts, 0, 1, p_max=3, delta=math.inf), "delta"),
        (lambda ts: mdl_gc(ts, 0, 1, p_max=3, delta=True), "delta"),
        (lambda ts: mdl_gc(ts, 0, 1, p_max=3, delta=math.nan), "delta"),
        (lambda ts: mdl_gc(ts, 0, 1, p_max=3, delta=0), "delta"),
        (lambda ts: code_length_from_stats([0.5], 1.0, 10, 20, delta=math.inf), "delta"),
        (lambda ts: fit_bivariate_var(ts, 0, 1, 2.5), "order"),
        (lambda ts: fit_bivariate_var(ts, 0, 1, True), "order"),
        (lambda ts: fit_bivariate_var(ts, 0, 1, "2"), "order"),
        (lambda ts: f_cdf(math.nan, 2, 3), "x"),
        (lambda ts: f_cdf(1.0, True, 3), "d1"),
        (lambda ts: f_cdf(1.0, 2, math.inf), "d2"),
        (lambda ts: f_cdf(1.0, 2, math.nan), "d2"),
    ])
    def test_bad_value_names_the_parameter(self, call, name):
        ts = TimeSeriesMatrix(np.random.default_rng(4).standard_normal((80, 3)), ["x", "y", "z"])
        with pytest.raises(ValidationError, match=rf"\b{name}\b"):
            call(ts)

    def test_whole_floats_and_infinite_x_still_read(self):
        ts = white_pair(3)
        assert select_order(ts, 0, [0], "AIC", p_max=2.0) == select_order(ts, 0, [0], "AIC", p_max=2)
        assert f_cdf(math.inf, 2, 3) == 1.0
        # F(2, d2) at 1 tends to 1 - e^-1 as d2 grows
        assert f_cdf(1.0, 2, 1e12) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-9)


def edge_by_edge(ts, method, p_max, alpha=0.05):
    """The graph of the per-edge public route, or the class of the first error it raises."""
    nv = ts.n_variables
    adjacency, weight, scale = np.zeros((3, nv, nv))
    try:
        for i in range(nv):
            for j in range(nv):
                if i == j:
                    continue
                rest = [k for k in range(nv) if k not in (i, j)]
                if method == "mdl":
                    result = mdl_gc(ts, i, j, p_max)
                    if result.causal and rest:
                        result = conditional_mdl_gc(ts, i, j, rest, p_max)
                    adjacency[j, i], weight[j, i] = result.causal, result.f_nats
                    # the two code lengths the weight is the difference of
                    scale[j, i] = abs(result.restricted_len.total) + abs(result.unrestricted_len.total)
                else:
                    n = select_order(ts, i, [i] + rest, "AIC", p_max).order
                    result = conditional_f_test_gc(ts, i, j, rest, n, n, n, alpha, start=p_max)
                    adjacency[j, i], weight[j, i] = result.significant, result.f_value
                    # a relative change e in both rss moves F by about e times this
                    scale[j, i] = result.f_value + result.dof[1] / n
    except (ValidationError, RankDeficiencyError, DegenerateFitError) as exc:
        return type(exc)
    return adjacency.astype(bool), weight, scale


def one_engine_loop(ts, method, p_max, alpha=0.05):
    """The per-edge loop that the array decision replaced, on one ``LagEngine(ts, p_max)``.

    Its families are the engine's, with the columns in the same order as
    infer_network's. Returns the graph, or the (class, message) of the
    first error it raises.
    """
    engine, nv = LagEngine(ts, p_max), ts.n_variables
    adjacency, weight = np.zeros((2, nv, nv))
    try:
        for i in range(nv):
            for j in range(nv):
                if i == j:
                    continue
                rest = [k for k in range(nv) if k not in (i, j)]
                if method == "mdl":
                    # the pairwise saving, then where it is positive the conditional one
                    for given_ in ([], rest):
                        saving = (_search_order(engine, [(i, [i, *given_])], "MDL")[2][0].total
                                  - _search_order(engine, [(i, [i, j, *given_])], "MDL")[2][0].total)
                        if saving <= 0.0 or not rest:
                            break
                    adjacency[j, i], weight[j, i] = saving > 0.0, saving
                else:
                    n = _search_order(engine, [(i, [i] + rest)], "AIC")[0]
                    restricted = engine.scan(i, [i] + rest)
                    if (error := engine._underdetermined(nv, n)) is not None:
                        raise error
                    unrestricted = memo_scan(engine, i, [i, j] + rest)
                    if np.isnan(unrestricted.rss[0, n - 1]):  # rank-broken at or below n
                        raise unrestricted.rank_error
                    result = _f_comparison(restricted.rss[0, n - 1], unrestricted.rss[0, n - 1], n,
                                           _f_dof(engine.m, nv * n), alpha)
                    adjacency[j, i], weight[j, i] = result.significant, result.f_value
    except (ValidationError, RankDeficiencyError, DegenerateFitError) as exc:
        return type(exc), str(exc)
    return adjacency.astype(bool), weight


class TestArrayDecision:
    """The array decision of infer_network against the per-edge public functions."""

    @pytest.mark.parametrize("method", ["mdl", "ftest"])
    @pytest.mark.parametrize("kind", ["certified", "short", "near-collinear"])
    @settings(max_examples=15)
    @given(nv=st.integers(2, 8), p_max=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_the_per_edge_route(self, kind, method, nv, p_max, seed):
        rng = np.random.default_rng(seed)
        if kind == "near-collinear":
            # the copy's lag 1 is the original's lag 2; V p >= 9 keeps the
            # engine from certifying a kappa_1 of about 1e8
            nv, p_max = max(nv, 3), max(p_max, 3)
        # a short window has no more rows than lag columns: m <= V p
        m = int(rng.integers((nv - 1) * p_max + 1, nv * p_max + 1)) if kind == "short" \
            else nv * p_max + int(rng.integers(20, 150))
        values = rng.standard_normal((m + p_max, nv))
        # white noise on a short window, so that some of its graphs need no
        # family that would interpolate
        links, strength = rng.permutation(nv), 0.0 if kind == "short" else 0.45
        for t in range(1, m + p_max):
            values[t] += strength * values[t - 1, links]
        if kind == "near-collinear":
            # every family passes the rank rule, but the copy as a target
            # leaves no code length (DegenerateFitError under MDL)
            values[:, -1] = np.roll(values[:, 0], 1) + 1e-8 * rng.standard_normal(m + p_max)
        ts = demean(TimeSeriesMatrix(values))
        assert (LagEngine(ts, p_max)._lag_inverse is not None) == (kind == "certified")
        looped = one_engine_loop(ts, method, p_max)
        if isinstance(looped[0], type):
            with pytest.raises(looped[0]) as info:
                infer_network(ts, method, p_max=p_max)
            assert str(info.value) == looped[1]
            assert edge_by_edge(ts, method, p_max) is looped[0]
            return
        graph = infer_network(ts, method, p_max=p_max)
        np.testing.assert_array_equal(graph.adjacency, looped[0])
        np.testing.assert_allclose(graph.weight, looped[1], rtol=1e-12, atol=0)
        if kind == "near-collinear":
            return
        # the public functions build an engine per call, with the columns in
        # another order, so a weight moves by the rounding of the quantities
        # it is the difference of (near-collinear columns magnify that by
        # kappa_1, about 1e8, past any useful bound)
        adjacency, weight, scale = edge_by_edge(ts, method, p_max)
        np.testing.assert_array_equal(graph.adjacency, adjacency)
        assert (np.abs(graph.weight - weight) <= 1e-12 * scale).all()


def replay_panel(name):
    """Panels whose errors arise inside model families, as (series, description)."""
    rng = np.random.default_rng(7)
    x, z = rng.standard_normal((2, 120))
    if name == "lagged copy":  # y is x one step back, so x.lag2 repeats y.lag1
        return TimeSeriesMatrix(np.column_stack([x, np.roll(x, 1), z]), ["x", "y", "z"])
    w, z, u = rng.standard_normal((3, 150))
    t = np.zeros(150)
    if name == "noiseless target":  # t is exactly 0.6 w - 0.3 z at lag 1
        t[1:] = 0.6 * w[:-1] - 0.3 * z[:-1]
        return TimeSeriesMatrix(np.column_stack([w, z, t]), ["w", "z", "t"])
    if name == "noiseless target of four":
        t[1:] = 0.6 * w[:-1] - 0.3 * z[:-1]
        return TimeSeriesMatrix(np.column_stack([w, z, u, t]), ["w", "z", "u", "t"])
    t[1:] = 0.7 * w[:-1]  # "noiseless single source": t.lag1 repeats w.lag2
    return TimeSeriesMatrix(np.column_stack([w, z, t]), ["w", "z", "t"])


RANK = r"rank-deficient design: column {} depends on the columns before it " \
       r"\(1-norm condition number [0-9.]+e\+[0-9]+ > 1e\+10\)"
NOISELESS = r"degenerate noiseless fit: residual variance vanishes, the Gaussian code length is undefined"


class TestErrorReplay:
    """The first error of the per-edge traversal, as the loop over edges raised it.

    The outcomes were recorded from the per-edge loop that the array
    decision replaced: class, message (the condition number's digits
    aside) and the exit code of ``analyze``.
    """

    @pytest.mark.parametrize("p_max", [3, 10])
    @pytest.mark.parametrize("name, method, error, message", [
        ("lagged copy", "mdl", RankDeficiencyError, RANK.format(r"x\.lag2")),
        ("lagged copy", "ftest", RankDeficiencyError, RANK.format(r"x\.lag2")),
        ("noiseless target", "mdl", DegenerateFitError, NOISELESS),
        ("noiseless target of four", "mdl", DegenerateFitError, NOISELESS),
        ("noiseless target of four", "ftest", RankDeficiencyError, RANK.format(r"z\.lag2")),
        ("noiseless single source", "mdl", RankDeficiencyError, RANK.format(r"w\.lag2")),
        ("noiseless single source", "ftest", RankDeficiencyError, RANK.format(r"w\.lag2")),
    ])
    def test_infer_network_and_analyze_raise_the_first_error(
            self, name, method, error, message, p_max, tmp_path, capsys):
        ts = replay_panel(name)
        with pytest.raises(error) as info:
            infer_network(ts, method, p_max=p_max)
        assert re.fullmatch(message, str(info.value))
        path = tmp_path / "panel.csv"
        save_csv(ts, path)
        capsys.readouterr()
        code = main(["analyze", str(path), "--method", method, "--p-max", str(p_max), "--no-demean"])
        assert code == 3
        assert capsys.readouterr().err == f"numerical error: {info.value}\n"

    @pytest.mark.parametrize("p_max", [3, 10])
    def test_an_earlier_targets_gate_error_before_a_later_targets_pair_error(
            self, p_max, tmp_path, capsys):
        # y is exactly 0.5 x one step back and drives a. The gate passes y -> a,
        # and a's full family (a stage-3 family) breaks its rank at x.lag2;
        # the pairwise family of y on x, a later target's (stage 2), is noiseless
        rng = np.random.default_rng(7)
        x, e = rng.standard_normal((2, 150))
        y, a = np.zeros(150), np.zeros(150)
        y[1:] = 0.5 * x[:-1]
        a[1:] = 0.8 * y[:-1] + 0.3 * e[1:]
        ts = TimeSeriesMatrix(np.column_stack([a, y, x]), ["a", "y", "x"])
        _, errors, rows = scores(LagEngine(ts, p_max), [(0, [0]), (0, [0, 1]), (0, [0, 1, 2]), (1, [1, 2])], "MDL")
        errors, rows = errors[:, 0].tolist(), rows[0]  # the one trial's errors, the criterion row
        assert errors[:2] == [None, None] and np.nanmin(rows[0]) > np.nanmin(rows[1])
        assert isinstance(errors[2], RankDeficiencyError) and isinstance(errors[3], DegenerateFitError)
        with pytest.raises(RankDeficiencyError) as info:
            infer_network(ts, "mdl", p_max=p_max)
        assert str(info.value) == str(errors[2])
        assert one_engine_loop(ts, "mdl", p_max) == (RankDeficiencyError, str(errors[2]))
        path = tmp_path / "panel.csv"
        save_csv(ts, path)
        capsys.readouterr()
        code = main(["analyze", str(path), "--method", "mdl", "--p-max", str(p_max), "--no-demean"])
        assert code == 3
        assert capsys.readouterr().err == f"numerical error: {errors[2]}\n"

    @pytest.mark.parametrize("panel", ["certified", "lagged copy", "noiseless target of four"])
    def test_three_scoring_passes_per_network(self, panel, monkeypatch):
        # own, pair, then drop-one and full; at 3 variables a pair is the
        # drop-one family of the third, so the third pass scores full alone
        ts = demean(simulate(builtin_5node(), 3)) if panel == "certified" else replay_panel(panel)
        calls = []

        def counted(engine, kind, targets, *args):
            calls.append((kind, len(targets)))
            return selection._scores(engine, kind, targets, *args)

        monkeypatch.setattr(timedomain, "_scores", counted)
        try:
            infer_network(ts, "mdl", p_max=10)
        except (RankDeficiencyError, DegenerateFitError):
            pass
        nv = ts.n_variables
        kinds = ["own", "drop", "full"] if nv == 3 else ["own", "pair", "drop", "full"]
        assert [kind for kind, _ in calls] == kinds and [n for _, n in calls[:2]] == [nv, nv * (nv - 1)]

    def test_noiseless_target_passes_the_f_test(self):
        # the F path meets no noiseless code length: both sources are kept
        graph = infer_network(replay_panel("noiseless target"), "ftest", p_max=10)
        assert graph.edges() == [(0, 2), (1, 2)]

    @pytest.mark.parametrize("nv, n, method, message", [
        (12, 125, "mdl", "underdetermined scan: 115 rows ≤ 120 columns at order 10"),
        (4, 40, "ftest", "underdetermined scan: 30 rows ≤ 30 columns at order 10"),
        (6, 70, "ftest", "underdetermined scan: 60 rows ≤ 60 columns at order 10"),
        (3, 38, "ftest", "not enough samples: denominator degrees of freedom 0 < 1"),
        (2, 21, "mdl", "underdetermined scan: 11 rows ≤ 20 columns at order 10"),
        # the own family fails before the pairwise one
        (3, 18, "mdl", "underdetermined scan: 8 rows ≤ 10 columns at order 10"),
        (3, 18, "ftest", "underdetermined scan: 8 rows ≤ 20 columns at order 10"),
    ])
    def test_short_window_messages(self, nv, n, method, message):
        ts = TimeSeriesMatrix(np.random.default_rng(2).standard_normal((n, nv)))
        with pytest.raises(ValidationError) as info:
            infer_network(ts, method, p_max=10)
        assert str(info.value) == message


class TestOneFailureRule:
    """A family's error is a value, stored by one rule and raised as the search raises it."""

    @pytest.mark.parametrize("criterion", CRITERIA)
    @pytest.mark.parametrize("p_max", [3, 10])
    @pytest.mark.parametrize("name", ["lagged copy", "noiseless target", "noiseless target of four",
                                      "noiseless single source", "near copy"])
    def test_stored_error_is_the_search_error_alone(self, name, p_max, criterion):
        ts = near_copy(1e-10) if name == "near copy" else replay_panel(name)
        nv = ts.n_variables
        families = kind_families(nv)
        _, errors, rows = scores(LagEngine(ts, p_max), families, criterion)
        errors, rows = errors[:, 0], rows[0, :, 0]  # the one trial's
        assert any(error is not None for error in errors)
        for family, error, row in zip(families, errors, rows):
            alone = LagEngine(ts, p_max)
            if error is None:
                _search_order(alone, [family], criterion)
                assert not np.isnan(row).any()
                continue
            assert np.isnan(row).all()
            with pytest.raises(type(error)) as info:
                _search_order(alone, [family], criterion)
            assert str(info.value) == str(error)

    @staticmethod
    def driven_stack(epsilons):
        """Trials of [x = 0.8 s(t-1) + eps noise, s, z] on 200 rows, one eps per trial."""
        trials = []
        for seed, eps in enumerate(epsilons):
            s, z, e = np.random.default_rng(seed).standard_normal((3, 200))
            x = np.zeros(200)
            x[1:] = 0.8 * s[:-1] + eps * e[1:]
            trials.append(TimeSeriesMatrix(np.column_stack([x, s, z]), ["x", "s", "z"]))
        return trials

    @pytest.mark.parametrize("criterion", CRITERIA)
    @pytest.mark.parametrize("epsilons", [(1.0, 3e-7), (3e-7, 1.0), (1.0, 0.5, 3e-7), (3e-7, 3e-7)])
    def test_a_stack_fails_each_trial_as_that_trial_alone(self, epsilons, criterion):
        trials = self.driven_stack(epsilons)
        families = kind_families(3)
        stack = LagEngine(trials, 2)
        assert stack._lag_inverse is not None
        _, errors, (rows, *_) = scores(stack, families, criterion)
        for t, ts in enumerate(trials):
            _, alone_errors, (alone_rows, *_) = scores(LagEngine(ts, 2), families, criterion)
            np.testing.assert_array_equal(np.isnan(rows[:, t]), np.isnan(alone_rows[:, 0]))
            for error, alone, row in zip(errors[:, t], alone_errors[:, 0], rows[:, t]):
                assert (alone is None) == (not np.isnan(row).any())
                if alone is not None:
                    assert type(error) is type(alone) and str(error) == str(alone)
        # x's families with s's history leave no residual in the eps = 3e-7 trials
        noiseless = [(0, blocks) for target, blocks in families if target == 0 and 1 in blocks]
        noiseless = noiseless if criterion == "MDL" else []
        failing = [family for family, row in zip(families, rows) if np.isnan(row).any()]
        assert failing == (noiseless if 3e-7 in epsilons else [])
        for family, error, row in zip(families, errors, rows):
            assert np.isnan(row[:, 0]).tolist() == [family in noiseless and eps == 3e-7 for eps in epsilons]
            assert [e is not None for e in error] == np.isnan(row[:, 0]).tolist()
            assert np.equal(error, None).all() == (family not in failing)

    @pytest.mark.parametrize("method", ["mdl", "ftest"])
    @pytest.mark.parametrize("epsilons", [(1.0, 3e-7), (3e-7, 1.0), (1.0, 0.5, 3e-7, 3e-7, 0.5)])
    def test_a_stack_decides_each_trial_as_that_trial_alone(self, epsilons, method):
        trials = self.driven_stack(epsilons)
        stack = LagEngine(trials, 2)
        assert stack._lag_inverse is not None
        keep, weight, errors = _decided(stack, MethodConfig(method, p_max=2))
        assert [error is not None for error in errors] == [method == "mdl" and eps == 3e-7 for eps in epsilons]
        for t, ts in enumerate(trials):
            (alone_keep,), (alone_weight,), (alone_error,) = _decided(LagEngine(ts, 2), MethodConfig(method, p_max=2))
            assert repr(errors[t]) == repr(alone_error)
            if alone_error is None:
                assert keep[t].tobytes() == alone_keep.tobytes() and weight[t].tobytes() == alone_weight.tobytes()

    @staticmethod
    def mixed_panel():
        """[w, z, t, x, y] on 40 rows: t is exactly 0.7 w one step back, y is x to 1e-10."""
        rng = np.random.default_rng(3)
        w, z, x, e = rng.standard_normal((4, 40))
        t = np.zeros(40)
        t[1:] = 0.7 * w[:-1]
        return TimeSeriesMatrix(np.column_stack([w, z, t, x, x + 1e-10 * e]), ["w", "z", "t", "x", "y"])

    @pytest.mark.parametrize("criterion", ["MDL", "AIC"])
    @pytest.mark.parametrize("panel", ["one series", "stack", "short stack"])
    def test_rss_and_rows_are_nan_exactly_where_a_family_fails(self, panel, criterion):
        if panel == "one series":
            # at p_max 10 the window has 30 rows: three blocks interpolate it
            engine = LagEngine(self.mixed_panel(), 10)
            # own, pair and drop-one families: the drop-one ones interpolate the window, t's
            # pair with w leaves no residual, and x's pair with y is rank-deficient
            families = [(1, [1]), (1, [0, 1]), (1, [0, 1, 2, 3]), (2, [2]), (2, [0, 2]), (3, [3, 4]), (3, [3])]
            kinds = {ValidationError, RankDeficiencyError} | ({DegenerateFitError} if criterion == "MDL" else set())
        elif panel == "stack":
            engine = LagEngine(self.driven_stack((1.0, 3e-7, 0.5)), 2)
            families = kind_families(3)
            kinds = {DegenerateFitError} if criterion == "MDL" else set()
        else:
            engine = LagEngine([TimeSeriesMatrix(np.random.default_rng(seed).standard_normal((12, 3)))
                                for seed in range(2)], 5)
            families = [(0, [0, 1]), (1, [0, 1, 2])]
            kinds = {ValidationError}
        rss, errors, rows = scores(engine, families, criterion)
        failed = np.not_equal(errors, None)
        assert {type(error) for error in errors[failed]} == kinds
        assert rss.shape == failed.shape + (engine.p_max,) and rows.shape[1:] == rss.shape
        np.testing.assert_array_equal(np.isnan(rss), np.broadcast_to(failed[..., None], rss.shape))
        np.testing.assert_array_equal(np.isnan(rows), np.broadcast_to(failed[..., None], rows.shape))
        for (target, blocks), family_rss, family_rows, family_failed in zip(families, rss, rows.transpose(1, 2, 0, 3), failed):
            if family_failed.all():
                continue
            scan = engine.scan(target, blocks)
            k = len(blocks) * np.arange(1, engine.p_max + 1)
            for t in np.flatnonzero(~family_failed):
                np.testing.assert_array_equal(family_rss[t], scan.rss[t])
                if criterion == "MDL":
                    # C order, so that each order's terms are summed row by row, as in one call for all
                    want = selection._code_length_curve(np.ascontiguousarray(scan.coefficients[t]), k, scan.rss[t],
                                                         engine.m, engine.ts.n_samples, None, 1.0)
                else:
                    want = selection.aic(selection.gaussian_loglik(scan.rss[t], engine.m), k)[None]
                np.testing.assert_array_equal(family_rows[t], want)

    def test_malformed_family_raises_before_an_earlier_family_fails(self):
        # the first family alone raises "column x.lag2" RankDeficiencyError
        ts = near_copy(1e-10)
        with pytest.raises(RankDeficiencyError, match=r"x\.lag2"):
            _search_order(LagEngine(ts, 2), [("x", ["x", "y"])], "MDL")
        with pytest.raises(ValidationError, match=r"no model family has target 'x' and blocks \['x', 'x'\]"):
            _search_order(LagEngine(ts, 2), [("x", ["x", "y"]), ("x", ["x", "x"])], "MDL")

    @pytest.mark.parametrize("criterion", CRITERIA)
    def test_bad_delta_raises_before_any_family_fails(self, criterion):
        # order 1 leaves no residual and x.lag2 is x.lag1 / 0.9
        ts = TimeSeriesMatrix((0.9 ** np.arange(80.0))[:, None], ["x"])
        with pytest.raises(DegenerateFitError if criterion == "MDL" else RankDeficiencyError):
            _search_order(LagEngine(ts, 3), [("x", ["x"])], criterion)
        with pytest.raises(ValidationError, match=r"\bdelta\b"):
            _search_order(LagEngine(ts, 3), [("x", ["x"])], criterion, delta=-1.0)


class TestFScaleInvariance:
    """Rescaling each variable changes no F test: the regressions only rescale their columns."""

    @settings(max_examples=25, deadline=None)
    @given(nv=st.integers(2, 5), seed=st.integers(0, 2 ** 32 - 1),
           factors=st.lists(st.floats(1e-2, 1e2), min_size=5, max_size=5))
    def test_f_and_p_values_are_scale_free(self, nv, seed, factors):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((200, nv))
        links = rng.permutation(nv)
        for t in range(1, 200):
            values[t] += 0.4 * values[t - 1, links]
        ts = demean(TimeSeriesMatrix(values))
        scaled = TimeSeriesMatrix(ts.values * np.array(factors[:nv]), ts.labels)
        tests, f_values = [], timedomain._f_values

        def recorded(*args):
            tests.append(f_values(*args))
            return tests[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(timedomain, "_f_values", recorded)
            graphs = [infer_network(x, "ftest", p_max=4) for x in (ts, scaled)]
        (f0, p0, _), (f1, p1, _) = tests
        np.testing.assert_allclose(f1, f0, rtol=1e-9, atol=0)
        np.testing.assert_allclose(p1, p0, rtol=1e-9, atol=0)
        away = np.abs(p0 - 0.05) > 1e-6
        assert ((p0 < 0.05) == (p1 < 0.05))[away].all()
        if away.all():
            np.testing.assert_array_equal(graphs[0].adjacency, graphs[1].adjacency)


@pytest.mark.parametrize("call, message", [
    (lambda: MethodConfig.parse("ftest:abc"), "bad alpha in 'ftest:abc'"),
    (lambda: conditional_f_test_gc(sim3(0), 0, 1, [2], 2, 2, 0), "conditioning order r must be >= 1, got 0"),
    (lambda: joint_mdl_gc(sim3(0), 0, 1, 1), "x, y, z must be three distinct variables"),
], ids=["alpha not a number", "conditioning order 0", "joint sources repeat"])
def test_validation_messages(call, message):
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value) == message
