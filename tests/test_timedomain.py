import json
import math
import re

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from granger_mdl import selection
from granger_mdl.bench import builtin_3node, builtin_5node, simulate
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
    _f_comparison,
    _infer_network,
)
from granger_mdl.regression import LagEngine
from granger_mdl.selection import _search_order, select_order
from granger_mdl.timeseries import TimeSeriesMatrix, demean

from oracles import f_cdf_oracle


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
        rng = np.random.default_rng(9)
        ts = TimeSeriesMatrix(rng.standard_normal((150, 3)), ["a", "b", "c"])
        with pytest.raises(ValidationError):
            conditional_mdl_gc(ts, "a", "b", ["c", "c"], p_max=3)

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

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            ea = {(j, i) for j in range(4) for i in range(4)
                  if i != j and rng.random() < 0.4}
            eb = {(j, i) for j in range(4) for i in range(4)
                  if i != j and rng.random() < 0.4}
            a, b = graph_from_edges(4, ea), graph_from_edges(4, eb)
            s_ab, s_ba = similarity(a, b), similarity(b, a)
            assert s_ab == s_ba
            assert 0.0 <= s_ab <= 1.0
            assert (s_ab == 1.0) == (ea == eb)

    def test_node_count_mismatch(self):
        with pytest.raises(ValidationError):
            similarity(graph_from_edges(2, []), graph_from_edges(3, []))


class TestScoredOnce:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts of family scans, code-length curves and log-likelihood curves."""
        calls = {"scan": 0, "code_length": 0, "loglik": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(LagEngine, "_scan", counted("scan", LagEngine._scan))
        monkeypatch.setattr(selection, "_code_length_curve",
                            counted("code_length", selection._code_length_curve))
        monkeypatch.setattr(selection, "gaussian_loglik", counted("loglik", selection.gaussian_loglik))
        return calls

    # The full and drop-one families of a certified engine enter the memo
    # from its one inverse, not through _scan, so scored families are
    # counted in the memo: one code-length curve each, stored with it.

    def test_mdl_scores_each_visited_family_once(self, calls):
        ts = demean(simulate(builtin_5node(), 11))
        engines = {}
        first = _infer_network(ts, MethodConfig("mdl"), engines)
        memo = engines[10]._memo
        scored = sum(bool(scan.curves) for scan in memo.values())
        assert scored > 20  # pairwise and conditional families
        assert calls["code_length"] == scored
        seen, families = dict(calls), len(memo)
        again = _infer_network(ts, MethodConfig("mdl"), engines)
        assert calls == seen and len(memo) == families
        np.testing.assert_array_equal(again.weight, first.weight)

    def test_second_f_config_reads_stored_scans_and_curves(self, calls):
        ts = demean(simulate(builtin_5node(), 12))
        engines = {}
        _infer_network(ts, MethodConfig("ftest", alpha=0.05), engines)
        seen, families = dict(calls), len(engines[10]._memo)
        assert families > 0 and seen["loglik"] > 0 and seen["code_length"] == 0
        shared = _infer_network(ts, MethodConfig("ftest", alpha=0.01), engines)
        assert calls == seen and len(engines[10]._memo) == families
        fresh = _infer_network(ts, MethodConfig("ftest", alpha=0.01), {})
        np.testing.assert_array_equal(shared.adjacency, fresh.adjacency)
        np.testing.assert_array_equal(shared.weight, fresh.weight)

    @pytest.mark.parametrize("criterion", ["MDL", "AIC"])
    def test_rank_error_raised_again_and_never_stored(self, criterion):
        x = np.random.default_rng(3).standard_normal(120)
        ts = TimeSeriesMatrix(np.column_stack([x, np.roll(x, 1)]), ["x", "y"])
        engine = LagEngine(ts, 4)
        for _ in range(2):
            with pytest.raises(RankDeficiencyError, match=r"x\.lag2"):
                _search_order(engine, [(0, [0, 1])], criterion)
        assert engine.scan(0, [0, 1]).curves == {}

    def test_noiseless_order_raised_again_before_rank_error(self):
        # x_t = 0.9 x_(t-1): order 1 leaves no residual, and x.lag2 is x.lag1 / 0.9
        ts = TimeSeriesMatrix((0.9 ** np.arange(80.0))[:, None], ["x"])
        engine = LagEngine(ts, 3)
        assert engine.scan(0, [0]).rank_error is not None
        for _ in range(2):
            with pytest.raises(DegenerateFitError):
                _search_order(engine, [(0, [0])], "MDL")
        assert engine.scan(0, [0]).curves == {}
