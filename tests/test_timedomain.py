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
    _best_code_length,
    _f_comparison,
    _f_dof,
    _infer_network,
)
from granger_mdl.regression import LagEngine
from granger_mdl.cli import main
from granger_mdl.selection import CRITERIA, _search_order, code_length_from_stats, search_order, select_order
from granger_mdl.spectral import fit_bivariate_var
from granger_mdl.timeseries import TimeSeriesMatrix, demean, save_csv

from oracles import f_cdf_oracle
from test_regression import near_copy


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
        """Counts of family scans, and of calls and orders scored by the curve functions."""
        calls = {"scan": 0, "code_length": 0, "code_length_orders": 0, "loglik": 0, "loglik_orders": 0}

        def counted(name, fn, rss_at):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                if rss_at is not None:
                    calls[name + "_orders"] += np.size(args[rss_at])
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(LagEngine, "_scan", counted("scan", LagEngine._scan, None))
        monkeypatch.setattr(selection, "_code_length_curve",
                            counted("code_length", selection._code_length_curve, 2))
        monkeypatch.setattr(selection, "gaussian_loglik", counted("loglik", selection.gaussian_loglik, 0))
        return calls

    # A network's families are scored together, several to a curve call, so
    # each is counted by its orders: every order of every scored family in
    # the memo is scored once, and nothing is scored again.

    def test_mdl_scores_each_visited_family_once(self, calls):
        ts = demean(simulate(builtin_5node(), 11))
        engines = {}
        first = _infer_network(ts, MethodConfig("mdl"), engines)
        memo = engines[10]._memo
        scored = [scan for scan in memo.values() if scan.curves]
        assert len(scored) > 20  # pairwise and conditional families
        assert calls["code_length_orders"] == sum(scan.rss.size for scan in scored)
        assert calls["code_length"] < len(scored)
        seen, families = dict(calls), len(memo)
        again = _infer_network(ts, MethodConfig("mdl"), engines)
        assert calls == seen and len(memo) == families
        np.testing.assert_array_equal(again.weight, first.weight)

    def test_second_f_config_reads_stored_scans_and_curves(self, calls):
        ts = demean(simulate(builtin_5node(), 12))
        engines = {}
        _infer_network(ts, MethodConfig("ftest", alpha=0.05), engines)
        memo = engines[10]._memo
        seen, families = dict(calls), len(memo)
        scored = [scan for scan in memo.values() if scan.curves]
        assert len(scored) == 20 and seen["code_length"] == 0  # every (target, all but source)
        assert seen["loglik_orders"] == sum(scan.rss.size for scan in scored)
        shared = _infer_network(ts, MethodConfig("ftest", alpha=0.01), engines)
        assert calls == seen and len(memo) == families
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
        (lambda ts: LagEngine(ts, 2, start=3.5), "start"),
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
                        saving = (_best_code_length(engine, i, [i, *given_], None, 1.0).total
                                  - _best_code_length(engine, i, [i, j, *given_], None, 1.0).total)
                        if saving <= 0.0 or not rest:
                            break
                    adjacency[j, i], weight[j, i] = saving > 0.0, saving
                else:
                    n = _search_order(engine, [(i, [i] + rest)], "AIC")[0]
                    restricted = engine.scan(i, [i] + rest)
                    unrestricted = engine.scan(i, [i, j] + rest, orders=n)
                    if unrestricted.rss.size < n:
                        raise unrestricted.rank_error
                    result = _f_comparison(restricted.rss[n - 1], unrestricted.rss[n - 1], n,
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
        assert LagEngine(ts, p_max)._certified() == (kind == "certified")
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
        families = [(target, [v for v in range(nv) if mask >> v & 1])
                    for target in range(nv) for mask in range(1, 2 ** nv)]
        _, errors, rows = selection._scores(LagEngine(ts, p_max), families, criterion)
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

    def test_malformed_family_raises_before_an_earlier_family_fails(self):
        # the first family alone raises "column x.lag2" RankDeficiencyError
        ts = near_copy(1e-10)
        with pytest.raises(RankDeficiencyError, match=r"x\.lag2"):
            search_order(ts, [("x", ["x", "y"])], "MDL", 2)
        with pytest.raises(ValidationError, match="distinct and non-empty"):
            search_order(ts, [("x", ["x", "y"]), ("x", ["x", "x"])], "MDL", 2)

    @pytest.mark.parametrize("criterion", CRITERIA)
    def test_bad_delta_raises_before_any_family_fails(self, criterion):
        # order 1 leaves no residual and x.lag2 is x.lag1 / 0.9
        ts = TimeSeriesMatrix((0.9 ** np.arange(80.0))[:, None], ["x"])
        with pytest.raises(DegenerateFitError if criterion == "MDL" else RankDeficiencyError):
            search_order(ts, [("x", ["x"])], criterion, 3)
        with pytest.raises(ValidationError, match=r"\bdelta\b"):
            search_order(ts, [("x", ["x"])], criterion, 3, delta=-1.0)
