import gc
import hashlib
import json
import multiprocessing
import os
import re
import signal
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from granger_mdl import bench, timedomain
from granger_mdl.bench import (
    NOISE_PRESETS,
    MethodConfig,
    NetworkSpec,
    builtin_3node,
    builtin_5node,
    child_seeds,
    format_report_table,
    run_bench,
    run_bench_multi,
    simulate,
    true_edge_matrix,
)
from granger_mdl.errors import DivergenceError, ValidationError
from granger_mdl.regression import LagEngine
from granger_mdl.timeseries import demean
from oracles import simulate_by_loop

# a zero-variance node, a fixed variance, a range, a lag-3 term and no burn-in,
# so the retained rows start with the initial values
JSON_SPEC = json.dumps({
    "n_nodes": 3,
    "coefficients": [[0, 0, 1, 0.5], [1, 0, 3, -0.7], [1, 1, 1, 0.3], [2, 1, 2, 0.9],
                     [2, 2, 1, -0.2], [2, 0, 1, 0.4]],
    "noise_variances": [0.0, 0.5, [0.2, 0.6]],
    "total_len": 120,
    "burn_in": 0,
    "initial_values": [1.0, -2.0, 0.25],
})

# node2 is node0 one step back plus noise of variance at most 2e-15: at p_max 3
# about half of the trials certify the engine's inverse routes, and a stack of
# them does not
MIXED_SPEC = {
    "n_nodes": 3,
    "coefficients": [[0, 0, 1, 0.5], [1, 1, 1, 0.3], [1, 0, 1, 0.4], [2, 0, 1, 1.0]],
    "noise_variances": [0.2, 0.2, [0.0, 2e-15]],
    "total_len": 420,
    "burn_in": 100,
    "initial_values": [1.0, 1.0, 1.0],
}


class TestBuiltinSpecs:
    def test_3node_structure(self):
        spec = builtin_3node()
        truth = true_edge_matrix(spec)
        assert {(0, 1), (0, 2)} == {tuple(e) for e in np.argwhere(truth)}
        cross = {(t, s, lag): v for t, s, lag, v in spec.coefficients if t != s}
        assert cross[(1, 0, 1)] == 0.8
        assert cross[(2, 0, 1)] == -0.8
        self_terms = [(t, s) for t, s, _, _ in spec.coefficients if t == s]
        assert set(self_terms) == {(0, 0), (1, 1), (2, 2)}
        assert spec.total_len == 1000 and spec.burn_in == 700
        assert spec.noise_variances == ((0.15, 0.35),) * 3

    def test_3node_noise_presets(self):
        assert builtin_3node("table-low").noise_variances[0] == (1.5, 3.5)
        assert builtin_3node("high").noise_variances[0] == (0.35, 0.55)
        with pytest.raises(ValidationError):
            builtin_3node("extreme")

    def test_5node_structure(self):
        spec = builtin_5node()
        truth = true_edge_matrix(spec)
        expected = {(0, 1), (1, 2), (1, 3), (2, 3), (3, 4), (4, 3)}
        assert expected == {tuple(e) for e in np.argwhere(truth)}
        node4_terms = [c for c in spec.coefficients if c[0] == 3]
        assert len(node4_terms) == 8

    def test_spec_validation(self):
        with pytest.raises(ValidationError, match="burn_in"):
            NetworkSpec(1, [(0, 0, 1, 0.5)], [1.0], total_len=10, burn_in=10,
                        initial_values=[0.0])
        with pytest.raises(ValidationError, match="lag"):
            NetworkSpec(1, [(0, 0, 0, 0.5)], [1.0], total_len=10, burn_in=2,
                        initial_values=[0.0])
        with pytest.raises(ValidationError, match="out of range"):
            NetworkSpec(1, [(0, 1, 1, 0.5)], [1.0], total_len=10, burn_in=2,
                        initial_values=[0.0])

    def test_lag_must_be_below_total_len(self):
        with pytest.raises(ValidationError, match=re.escape("coefficient (0,1,50,0.5): lag must be below total_len 10")):
            NetworkSpec(2, [(0, 1, 50, 0.5)], [0.1, 0.1], total_len=10, burn_in=0, initial_values=[1.0, 1.0])
        # the longest lag that fits reads the first row from the last one
        spec = NetworkSpec(2, [(0, 1, 9, 0.5)], [0.1, 0.1], total_len=10, burn_in=0, initial_values=[1.0, 1.0])
        assert simulate(spec, 0).values.tobytes() == simulate_by_loop(spec, 0).tobytes()

    def test_values_are_bounded_before_any_allocation(self):
        at_bound = NetworkSpec(4, [], [0.1] * 4, total_len=bench.MAX_VALUES // 4, burn_in=0, initial_values=[1.0] * 4)
        assert at_bound.total_len * at_bound.n_nodes == bench.MAX_VALUES
        for n_nodes, total_len in ((4, bench.MAX_VALUES // 4 + 1), (1, 10**30)):
            with pytest.raises(ValidationError, match=f"is {n_nodes * total_len}, above the 10000000 values"):
                NetworkSpec(n_nodes, [], [0.1] * n_nodes, total_len=total_len, burn_in=0,
                            initial_values=[1.0] * n_nodes)

    def test_no_coefficients_is_white_noise(self):
        spec = NetworkSpec(2, [], [0.1, [0.2, 0.3]], total_len=120, burn_in=20, initial_values=[1.0, 1.0])
        assert spec.max_lag == 0 and not true_edge_matrix(spec).any()
        assert simulate(spec, 3).values.tobytes() == simulate_by_loop(spec, 3).tobytes()
        reports = run_bench_multi(spec, [MethodConfig("mdl", p_max=3), MethodConfig("ftest", p_max=3)], 10, 0)
        assert all(report.failures == () for report in reports.values())

    @pytest.mark.parametrize("path, value, message", [
        (("n_nodes",), 2.9, "n_nodes must be an integer, got 2.9"),
        (("total_len",), 200.5, "total_len must be an integer, got 200.5"),
        (("burn_in",), "0", "burn_in must be an integer, got '0'"),
        (("coefficients", 1, 2), 1.7, "coefficient 1 lag must be an integer, got 1.7"),
        (("coefficients", 1, 3), True, "coefficient 1 value must be a number, got True"),
        (("coefficients", 0), [0, 0, 1], "coefficient 0 must be a list of 4, got [0, 0, 1]"),
        (("noise_variances", 2, 0), True, "noise variance 2 must be a number, got True"),
        (("initial_values", 2), True, "initial value 2 must be a number, got True"),
        (("noise_variances",), 0.5, "noise_variances must be a list, got 0.5"),
        (("coefficients",), None, "coefficients must be a list, got None"),
    ] + [
        (path, value, f"{name} must be finite, got {value!r}")
        for path, name in [
            (("coefficients", 1, 3), "coefficient 1 value"),
            (("noise_variances", 1), "noise variance 1"),
            (("noise_variances", 2, 0), "noise variance 2"),
            (("noise_variances", 2, 1), "noise variance 2"),
            (("initial_values", 2), "initial value 2"),
        ]
        for value in (float("nan"), float("inf"), float("-inf"))
    ])
    def test_spec_fields_are_not_truncated(self, path, value, message):
        payload = json.loads(JSON_SPEC)
        *outer, last = path
        target = payload
        for key in outer:
            target = target[key]
        target[last] = value
        with pytest.raises(ValidationError, match=re.escape(message)):
            NetworkSpec.from_dict(payload)

    def test_spec_takes_whole_floats_and_numpy_numbers(self):
        spec = NetworkSpec.from_dict(json.loads(JSON_SPEC))
        payload = json.loads(JSON_SPEC)
        payload["n_nodes"], payload["total_len"] = 3.0, np.int64(120)
        payload["coefficients"][0] = [np.int64(0), 0.0, 1.0, np.float64(0.5)]
        again = NetworkSpec.from_dict(payload)
        assert again == spec
        assert type(again.n_nodes) is int and type(again.coefficients[0][2]) is int
        with pytest.raises(ValidationError, match="expected a JSON object"):
            NetworkSpec.from_dict([spec.to_dict()])

    def test_spec_dict_round_trip(self):
        spec = builtin_5node()
        again = NetworkSpec.from_dict(spec.to_dict())
        assert again == spec
        with pytest.raises(ValidationError, match="missing field"):
            NetworkSpec.from_dict({"n_nodes": 2})
        bad = spec.to_dict()
        bad["extra"] = 1
        with pytest.raises(ValidationError, match="unknown fields"):
            NetworkSpec.from_dict(bad)


class TestSimulate:
    def test_zero_noise_follows_recurrence(self):
        base = builtin_3node()
        spec = NetworkSpec(
            n_nodes=3,
            coefficients=base.coefficients,
            noise_variances=[0.0, 0.0, 0.0],
            total_len=60,
            burn_in=0,
            initial_values=[1.0, 1.0, 1.0],
        )
        ts = simulate(spec, seed=0)
        x = ts.values[:, 0]
        for t in range(2, 60):
            assert x[t] == pytest.approx(1.5 * x[t - 1] - 0.9 * x[t - 2], abs=1e-12)

    def test_same_seed_bit_identical(self):
        a = simulate(builtin_3node(), 123)
        b = simulate(builtin_3node(), 123)
        np.testing.assert_array_equal(a.values, b.values)

    @pytest.mark.parametrize("seed, message", [(-1, "seed must be >= 0, got -1"),
                                               (1.5, "seed must be an integer, got 1.5")])
    def test_seed_is_a_nonnegative_integer(self, seed, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            simulate(builtin_3node(), seed)

    def test_different_seeds_differ(self):
        a = simulate(builtin_3node(), 1)
        b = simulate(builtin_3node(), 2)
        assert not np.array_equal(a.values, b.values)

    def test_retained_length(self):
        ts = simulate(builtin_3node(), 5)
        assert ts.n_samples == 300
        assert ts.labels == ("node1", "node2", "node3")

    def test_divergence_error_names_node_and_step(self):
        spec = NetworkSpec(
            n_nodes=1,
            coefficients=[(0, 0, 1, 1.6)],
            noise_variances=[0.1],
            total_len=400,
            burn_in=0,
            initial_values=[1.0],
        )
        with pytest.raises(DivergenceError) as info:
            simulate(spec, seed=0)
        assert info.value.node == 0
        assert info.value.step > 0
        assert "node 0" in str(info.value)

    @pytest.mark.parametrize("spec, seeds", [
        *((builtin_3node(noise), range(25)) for noise in sorted(NOISE_PRESETS)),
        (builtin_5node(), range(40)),
        (NetworkSpec.from_dict(json.loads(JSON_SPEC)), range(20)),
    ])
    def test_bit_identical_to_per_element_loop(self, spec, seeds):
        for seed in seeds:
            got = simulate(spec, seed).values
            assert got.tobytes() == simulate_by_loop(spec, seed).tobytes()
            assert got.shape == (spec.total_len - spec.burn_in, spec.n_nodes)

    @pytest.mark.parametrize("coefficients", [
        [(0, 0, 1, 1.6)],
        [(0, 0, 1, 0.5), (1, 0, 2, 3.0), (1, 1, 1, 1.1)],
    ])
    def test_divergence_matches_per_element_loop(self, coefficients):
        n = 1 + max(t for t, _, _, _ in coefficients)
        spec = NetworkSpec(n, coefficients, [0.1] * n, 400, 0, [1.0] * n)
        with pytest.raises(DivergenceError) as want:
            simulate_by_loop(spec, 3)
        with pytest.raises(DivergenceError) as got:
            simulate(spec, 3)
        assert (got.value.node, got.value.step) == (want.value.node, want.value.step)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("noise, burn_in", [(0.1, 10), (0.0, 0)])
    def test_nan_step_diverges_at_that_step(self, noise, burn_in):
        # 1e300 * 1e10 - 1e300 * 1e10 is inf - inf: node 0 is NaN at step 1
        spec = NetworkSpec(3, [(0, 1, 1, 1e300), (0, 2, 1, -1e300)], [noise] * 3, 50, burn_in, [1e10] * 3)
        with pytest.raises(DivergenceError) as want, np.errstate(over="ignore", invalid="ignore"):
            simulate_by_loop(spec, 1)
        with pytest.raises(DivergenceError) as got:
            simulate(spec, 1)
        assert (got.value.node, got.value.step) == (want.value.node, want.value.step) == (0, 1)
        assert str(got.value) == str(want.value) == "trajectory diverged at node 0, step 1: |nan|"

    def test_trajectories_bounded_across_seeds(self):
        for spec in (builtin_3node(), builtin_5node()):
            for seed in range(1000):
                ts = simulate(spec, seed)
                assert np.abs(ts.values).max() < 1e3


class TestChildSeeds:
    def test_deterministic(self):
        np.testing.assert_array_equal(child_seeds(9, 16), child_seeds(9, 16))

    def test_prefix_stable(self):
        np.testing.assert_array_equal(child_seeds(9, 8), child_seeds(9, 16)[:8])

    def test_cross_trial_series_uncorrelated(self):
        # a resonant network keeps |corr| noisy regardless of seeding,
        # so check stream independence on a white network instead
        spec = NetworkSpec(
            n_nodes=1,
            coefficients=[(0, 0, 1, 0.0)],
            noise_variances=[1.0],
            total_len=1200,
            burn_in=200,
            initial_values=[0.0],
        )
        seeds = child_seeds(77, 100)
        series = [simulate(spec, int(s)).values[:, 0] for s in seeds]
        corrs = []
        rng = np.random.default_rng(0)
        for _ in range(100):
            i, j = rng.choice(100, size=2, replace=False)
            corrs.append(abs(np.corrcoef(series[i], series[j])[0, 1]))
        assert np.mean(corrs) < 0.05


@st.composite
def small_specs(draw, min_nodes=1, min_len=5):
    """Networks of 1-5 nodes and lags 1-4: repeated rows, signed zeros, some explosive."""
    n = draw(st.integers(min_nodes, 5))
    max_lag = draw(st.integers(1, 4))
    value = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-0.6, 0.6), st.floats(-3.0, 3.0))
    rows = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                   st.integers(1, max_lag), value), min_size=1, max_size=10))
    rows += draw(st.lists(st.sampled_from(rows), max_size=3))  # repeated (target, source, lag)
    variance = st.one_of(st.sampled_from([0.0, 0.5]), st.tuples(st.just(0.1), st.floats(0.1, 2.0)))
    total_len = draw(st.integers(min_len, min_len + 150))
    return NetworkSpec(
        n_nodes=n, coefficients=rows, noise_variances=draw(st.lists(variance, min_size=n, max_size=n)),
        total_len=total_len, burn_in=draw(st.integers(0, total_len - 1)),
        initial_values=draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)),
    )


class TestCompiledRecursion:
    """simulate's compiled step function against the per-element numpy loop."""

    @settings(max_examples=80, deadline=None)
    @given(spec=small_specs(), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_the_per_element_loop(self, spec, seed):
        try:
            want = simulate_by_loop(spec, seed)
        except DivergenceError as exc:
            with pytest.raises(DivergenceError) as got:
                simulate(spec, seed)
            assert (got.value.node, got.value.step) == (exc.node, exc.step)
            assert str(got.value) == str(exc)
            return
        assert simulate(spec, seed).values.tobytes() == want.tobytes()

    def test_one_function_per_structure(self):
        # 0.0 == -0.0, so a cache keyed by the values would run one spec with
        # the other's zero; a zero-variance node keeps the sign of its sum
        base = NetworkSpec.from_dict(json.loads(JSON_SPEC))
        specs = [replace(base, coefficients=((0, 0, 1, zero), *base.coefficients[1:])) for zero in (0.0, -0.0)]
        bench._recursion.cache_clear()
        for spec in specs * 2:
            assert simulate(spec, 4).values.tobytes() == simulate_by_loop(spec, 4).tobytes()
        assert bench._recursion.cache_info().currsize == 1
        assert simulate(specs[0], 4).values.tobytes() != simulate(specs[1], 4).values.tobytes()

    @settings(max_examples=4, deadline=None)
    @given(spec=small_specs(min_nodes=2, min_len=40), trials=st.integers(2, 8), seed=st.integers(0, 2 ** 32 - 1))
    def test_reports_identical_for_one_and_two_workers(self, spec, trials, seed):
        configs = [MethodConfig("mdl", p_max=2), MethodConfig("ftest", p_max=2)]
        if spec.total_len - spec.burn_in <= 2:  # no window fits p_max 2: rejected before any trial
            for workers in (1, 2):
                with pytest.raises(ValidationError, match="too short for orders up to 2"):
                    run_bench_multi(spec, configs, trials, seed, n_workers=workers)
            return
        bench._recursion.cache_clear()
        two = run_bench_multi(spec, configs, trials, seed, n_workers=2)
        # compiled in the parent before the fork, and run by the forked workers
        assert bench._recursion.cache_info().currsize == 1
        one = run_bench_multi(spec, configs, trials, seed, n_workers=1)
        assert {label: r.to_json() for label, r in one.items()} == \
            {label: r.to_json() for label, r in two.items()}


class TestRunBench:
    def test_reports_identical_across_runs_and_workers(self):
        spec = builtin_3node()
        cfg = [MethodConfig("mdl", p_max=6), MethodConfig("ftest", alpha=0.05, p_max=6)]
        a = run_bench_multi(spec, cfg, 12, master_seed=5, n_workers=1)
        b = run_bench_multi(spec, cfg, 12, master_seed=5, n_workers=1)
        c = run_bench_multi(spec, cfg, 12, master_seed=5, n_workers=2)
        for label in a:
            assert a[label].to_json() == b[label].to_json() == c[label].to_json()

    # sha256 of each report's to_json(), recorded before the simulator ran on
    # Python floats and before each family's criterion curve was memoised;
    # any change to a tally, an accuracy or a failure string shows here
    REPORT_SHA256 = {
        "3node": {
            "mdl": "9612edddb26d0e82eb19ac4f9fe4bc8cc1d27ef6aeac8380c0c20fd5830baffa",
            "ftest:0.05": "bf47336c8586068b9d1f6bc6120163c729c065c863d3003e53c42285bcddaf66",
            "ftest:0.01": "4a5c174cd96f6871f7feab71d048f402b313235c0e16de9d8a2c2aff241dc602",
        },
        "5node": {
            "mdl": "41676c9efcbb13d37b3688b4d460d3bed211007417ff8568b87a96ec5c4d72f5",
            "ftest:0.05": "be20eb0b74a10875172133617981490446a4cbadc1f9e17dd9311a159c507309",
            "ftest:0.01": "c1ea5e83269884a68fca9ce2308aeeb576d418f30b8587a5f5881fd85f150e01",
        },
    }

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("network", ["3node", "5node"])
    def test_reports_match_pinned_digests(self, network, workers):
        spec = builtin_3node() if network == "3node" else builtin_5node()
        configs = [MethodConfig.parse(tok) for tok in ("mdl", "ftest:0.05", "ftest:0.01")]
        reports = run_bench_multi(spec, configs, 24, master_seed=2024, n_workers=workers)
        digests = {
            label: hashlib.sha256(rep.to_json().encode()).hexdigest()
            for label, rep in reports.items()
        }
        assert digests == self.REPORT_SHA256[network]

    def test_counts_and_accuracy_consistency(self):
        spec = builtin_3node()
        rep = run_bench(spec, MethodConfig("mdl", p_max=8), 20, master_seed=3)
        assert rep.n_trials == 20
        counts = rep.per_edge_detection_counts
        assert counts.max() <= 20 and counts.min() >= 0
        assert counts.diagonal().sum() == 0
        assert 0.0 <= rep.total_accuracy <= 1.0
        assert all(0.0 <= a <= 1.0 for a in rep.per_node_accuracy)
        # the true edges should dominate detections on this easy network
        assert counts[0, 1] >= 18 and counts[0, 2] >= 18

    def test_total_accuracy_not_above_node_accuracy(self):
        rep = run_bench(builtin_3node(), MethodConfig("mdl", p_max=8), 15, master_seed=4)
        assert rep.total_accuracy <= min(rep.per_node_accuracy) + 1e-12

    def test_failed_trials_recorded(self):
        spec = NetworkSpec(
            n_nodes=2,
            coefficients=[(0, 0, 1, 1.4), (1, 0, 1, 0.5), (1, 1, 1, 0.2)],
            noise_variances=[0.1, 0.1],
            total_len=500,
            burn_in=0,
            initial_values=[1.0, 1.0],
        )
        rep = run_bench(spec, MethodConfig("mdl", p_max=4), 3, master_seed=1)
        assert len(rep.failures) == 3
        assert "DivergenceError" in rep.failures[0][1]
        assert rep.total_accuracy == 0.0

    def test_method_parsing(self):
        assert MethodConfig.parse("mdl").method == "mdl"
        assert MethodConfig.parse("ftest:0.01").alpha == 0.01
        assert MethodConfig.parse("ftest").alpha == 0.05
        with pytest.raises(ValidationError):
            MethodConfig.parse("wald")
        with pytest.raises(ValidationError):
            MethodConfig.parse("mdl:0.1")
        assert MethodConfig.parse("f").method == "ftest"

    @pytest.mark.parametrize("nv", [2, 3, 5, 12])
    def test_reduction_matches_per_trial_loop(self, nv, monkeypatch):
        spec = NetworkSpec(nv, [(i, (i + 1) % nv, 1, 0.3) for i in range(nv)],
                           [0.1] * nv, 10, 0, [0.0] * nv)
        truth = true_edge_matrix(spec)
        rng = np.random.default_rng(nv)
        trials = []

        def fake_chunk(args):
            _, configs, seeds, _ = args
            out = []
            for _ in seeds:
                if rng.random() < 0.15:
                    trials.append(None)
                    out.append((None, f"DivergenceError: {DivergenceError('fake', node=0, step=0)}"))
                    continue
                graphs = []
                for _ in configs:
                    adj = truth ^ (rng.random((nv, nv)) < 0.5 / nv**2)
                    np.fill_diagonal(adj, False)
                    graphs.append(adj)
                trials.append(graphs)
                out.append((graphs, None))
            return out

        monkeypatch.setattr(bench, "_run_chunk", fake_chunk)
        configs = [MethodConfig("mdl", p_max=3), MethodConfig("ftest", p_max=3)]  # the window is 10 rows
        n_trials = 40
        reports = run_bench_multi(spec, configs, n_trials, master_seed=0, n_workers=1)
        for c_idx, cfg in enumerate(configs):
            counts = np.zeros((nv, nv), dtype=int)
            node_hits = np.zeros(nv, dtype=int)
            exact = 0
            for graphs in filter(None, trials):
                adj = graphs[c_idx]
                counts += adj
                exact += bool((adj == truth).all())
                for node in range(nv):
                    involved = np.zeros((nv, nv), dtype=bool)
                    involved[node, :] = involved[:, node] = True
                    involved[node, node] = False
                    node_hits[node] += bool((adj[involved] == truth[involved]).all())
            rep = reports[cfg.label]
            np.testing.assert_array_equal(rep.per_edge_detection_counts, counts)
            assert rep.per_node_accuracy == tuple(h / n_trials for h in node_hits)
            assert rep.total_accuracy == exact / n_trials
            assert [f[0] for f in rep.failures] == [t for t, g in enumerate(trials) if g is None]

    @pytest.mark.parametrize("network", [builtin_3node(), builtin_5node()])
    def test_method_order_leaves_each_report_unchanged(self, network):
        # the F test and the code length share each stack's engine and scans
        configs = [MethodConfig("mdl", p_max=5), MethodConfig.parse("ftest:0.05", p_max=5)]
        first = run_bench_multi(network, configs, 12, master_seed=3, n_workers=1)
        second = run_bench_multi(network, configs[::-1], 12, master_seed=3, n_workers=1)
        assert {label: rep.to_json() for label, rep in first.items()} == \
               {label: rep.to_json() for label, rep in second.items()}

    @pytest.mark.parametrize("p_max", [1000, 300])
    def test_p_max_the_window_cannot_fit_raises_before_any_trial(self, p_max, monkeypatch):
        def no_chunk(args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(bench, "_run_chunk", no_chunk)
        configs = [MethodConfig("mdl", p_max=299), MethodConfig("ftest", p_max=p_max)]
        with pytest.raises(ValidationError, match=f"series of length 300 too short for orders up to {p_max}$"):
            run_bench_multi(builtin_3node(), configs, 2, master_seed=0)

    def test_f_test_alphas_are_distinct_configs(self):
        reports = run_bench_multi(
            builtin_3node(),
            [MethodConfig("f_test", alpha=0.05, p_max=4), MethodConfig("F-TEST", alpha=0.01, p_max=4)],
            1, master_seed=0,
        )
        assert sorted(reports) == ["ftest:0.01", "ftest:0.05"]
        assert reports["ftest:0.01"].params == {"p_max": 4, "alpha": 0.01, "order_criterion": "AIC"}

    def test_table_formatting(self):
        reports = run_bench_multi(
            builtin_3node(), [MethodConfig("mdl", p_max=6)], 5, master_seed=2
        )
        table = format_report_table(reports)
        assert "node1" in table and "total" in table
        assert "true edges:" in table and "false edges:" in table
        assert "/5" in table


def _report_blas_threads(args):
    """Pool task stand-in: every trial fails with this process's BLAS thread counts."""
    counts = [get() for get, _ in bench._loaded_openblas()]
    return [(None, f"threads {counts}")] * len(args[2])


def _fail(args):
    raise RuntimeError("chunk failed")


def _report_freeze_count(args):
    """Pool task stand-in: every trial fails with whether objects are frozen in this process."""
    return [(None, f"frozen {gc.get_freeze_count() > 0}")] * len(args[2])


def _report_chunk(args):
    """Pool task stand-in: every trial fails with its chunk's length and its own seed."""
    return [(None, f"chunk of {len(args[2])}, seed {seed}") for seed in args[2]]


@pytest.fixture(params=[True, False], ids=["gc on", "gc off"])
def collector(request):
    """The collector switched on or off for the test, with nothing frozen."""
    assert gc.get_freeze_count() == 0
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


@pytest.fixture
def started(monkeypatch):
    """The processes that run_bench starts, recorded through its pool context."""
    processes, context = [], bench._pool_context()

    class Recording:
        def __getattr__(self, name):
            return getattr(context, name)

        def Process(self, *args, **kwargs):
            processes.append(context.Process(*args, **kwargs))
            return processes[-1]

    monkeypatch.setattr(bench, "_pool_context", Recording)
    return processes


@pytest.fixture
def parent_blas_at_two():
    """The loaded OpenBLAS libraries' (get, set) calls, held at two threads."""
    calls = bench._loaded_openblas()
    if not calls:
        pytest.skip("no loaded OpenBLAS exposes a thread-count setter")
    saved = [get() for get, _ in calls]
    for _, set_ in calls:
        set_(2)
    yield calls
    for (_, set_), count in zip(calls, saved):
        set_(count)


@pytest.fixture(params=["fork", "forkserver"])
def default_start_method(request):
    """The interpreter's default start method, set to each Linux choice in turn."""
    if request.param not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {request.param} start method here")
    saved = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method(request.param, force=True)
    yield request.param
    multiprocessing.set_start_method(saved, force=True)


class TestPoolWorkers:
    @pytest.mark.parametrize("n_workers", [1, 2], ids=["serial", "pool"])
    def test_workers_run_one_blas_thread(self, parent_blas_at_two, default_start_method,
                                         n_workers, monkeypatch):
        # the caller's share, a serial run's only one, runs at one thread too
        monkeypatch.setattr(bench, "_run_chunk", _report_blas_threads)
        rep = run_bench(builtin_3node(), MethodConfig("mdl"), 12, master_seed=0, n_workers=n_workers)
        assert len(rep.failures) == 12
        assert {err for _, err in rep.failures} == {f"threads {[1] * len(parent_blas_at_two)}"}

    def test_parent_blas_threads_restored(self, parent_blas_at_two, monkeypatch):
        spec, cfg = builtin_3node(), MethodConfig("mdl", p_max=4)
        run_bench(spec, cfg, 4, master_seed=0, n_workers=2)
        assert [get() for get, _ in parent_blas_at_two] == [2] * len(parent_blas_at_two)
        monkeypatch.setattr(bench, "_run_chunk", _fail)
        with pytest.raises(RuntimeError, match="chunk failed"):
            run_bench(spec, cfg, 4, master_seed=0, n_workers=2)
        assert [get() for get, _ in parent_blas_at_two] == [2] * len(parent_blas_at_two)

    def test_workers_freeze_the_heap_they_inherit(self, collector, monkeypatch):
        spec, cfg = builtin_3node(), MethodConfig("mdl", p_max=4)
        monkeypatch.setattr(bench, "_run_chunk", _report_freeze_count)
        rep = run_bench(spec, cfg, 4, master_seed=0, n_workers=2)
        # the caller decides the first two trials and freezes nothing
        assert rep.failures == ((0, "frozen False"), (1, "frozen False"), (2, "frozen True"), (3, "frozen True"))
        assert gc.get_freeze_count() == 0 and gc.isenabled() == collector
        monkeypatch.setattr(bench, "_run_chunk", _fail)
        with pytest.raises(RuntimeError, match="chunk failed"):
            run_bench(spec, cfg, 4, master_seed=0, n_workers=2)
        assert gc.get_freeze_count() == 0 and gc.isenabled() == collector

    def test_parent_generation_counts_untouched(self):
        # gc.freeze() sets all three counts to 0 (CPython 3.11), so a freeze
        # in the parent fails this; the oldest generation's count is what
        # triggers the parent's full collections
        was_enabled = gc.isenabled()
        gc.disable()  # so that no collection moves the counts during the run
        try:
            gc.collect(1)
            gc.collect(0)
            before = gc.get_count()
            run_bench(builtin_3node(), MethodConfig("mdl", p_max=4), 4, master_seed=0, n_workers=2)
            assert gc.get_count()[1:] == before[1:] and min(before[1:]) > 0
        finally:
            if was_enabled:
                gc.enable()

    def test_callers_frozen_objects_stay_frozen(self, monkeypatch):
        # a frozen object is in none of the collector's generations
        monkeypatch.setattr(bench, "_run_chunk", _report_freeze_count)
        mine = [object()]
        gc.freeze()
        try:
            rep = run_bench(builtin_3node(), MethodConfig("mdl"), 4, master_seed=0, n_workers=2)
            assert not any(obj is mine for obj in gc.get_objects())
        finally:
            gc.unfreeze()
        assert any(obj is mine for obj in gc.get_objects())
        assert {err for _, err in rep.failures} == {"frozen True"}

    def test_pool_starts_no_idle_workers(self, started):
        run_bench(builtin_3node(), MethodConfig("mdl", p_max=4), 2, master_seed=0, n_workers=8)
        # two chunks of one trial: the caller decides one, one worker the other
        assert len(started) == 1

    def test_serial_run_starts_no_process(self, started):
        run_bench(builtin_3node(), MethodConfig("mdl", p_max=4), 4, master_seed=0, n_workers=1)
        assert started == []

    def test_dead_worker_names_its_exit_code(self, started, monkeypatch):
        caller = os.getpid()

        def exit_in_worker(args):
            if os.getpid() != caller:
                os._exit(9)
            return _report_chunk(args)

        monkeypatch.setattr(bench, "_run_chunk", exit_in_worker)
        with pytest.raises(RuntimeError, match="exited with code 9"):
            run_bench(builtin_3node(), MethodConfig("mdl", p_max=4), 6, master_seed=0, n_workers=3)
        assert len(started) == 2 and multiprocessing.active_children() == []

    def test_failing_share_stops_every_worker(self, started, monkeypatch):
        caller = os.getpid()

        def fail_in_caller(args):
            if os.getpid() == caller:
                raise RuntimeError("caller's share failed")
            time.sleep(60)

        monkeypatch.setattr(bench, "_run_chunk", fail_in_caller)
        t0 = time.perf_counter()
        with pytest.raises(RuntimeError, match="caller's share failed"):
            run_bench(builtin_3node(), MethodConfig("mdl", p_max=4), 6, master_seed=0, n_workers=3)
        assert time.perf_counter() - t0 < 30
        assert len(started) == 2 and multiprocessing.active_children() == []
        assert [proc.exitcode for proc in started] == [-signal.SIGTERM] * 2  # terminated, not finished

    def test_workers_exception_reaches_the_caller(self, started, monkeypatch):
        caller = os.getpid()

        def fail_in_worker(args):
            if os.getpid() != caller:
                raise ValidationError("worker's share failed")
            return _report_chunk(args)

        monkeypatch.setattr(bench, "_run_chunk", fail_in_worker)
        with pytest.raises(ValidationError, match="worker's share failed"):
            run_bench(builtin_3node(), MethodConfig("mdl", p_max=4), 4, master_seed=0, n_workers=2)
        assert len(started) == 1 and multiprocessing.active_children() == []

    @pytest.mark.parametrize("n_trials, workers, sizes", [
        (16, 2, [8, 8]),
        (300, 2, [50] * 6),
        (1000, 2, [63] * 8 + [62] * 8),
        (13, 3, [5, 4, 4]),
        (2, 8, [1, 1]),
        (4, 1, [4]),
    ])
    def test_chunks_are_even_stacks_per_worker(self, n_trials, workers, sizes, monkeypatch):
        monkeypatch.setattr(bench, "_run_chunk", _report_chunk)
        rep = run_bench(builtin_3node(), MethodConfig("mdl", p_max=4), n_trials,
                        master_seed=0, n_workers=workers)
        # each trial in its place with its own seed and its chunk's length,
        # which fixes the contiguous layout
        assert [err for _, err in rep.failures] == [
            f"chunk of {size}, seed {seed}"
            for size, seed in zip(np.repeat(sizes, sizes), child_seeds(0, n_trials))
        ]

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="OpenBLAS is found on Linux only")
    def test_pool_forks_on_linux(self):
        assert bench._pool_context().get_start_method() == "fork"

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity mask")
    def test_zero_workers_means_cpus_this_process_may_use(self):
        assert bench.worker_count(0) == len(os.sched_getaffinity(0))

    @pytest.mark.parametrize("kwargs, message", [
        ({"n_workers": 2.5}, "worker count must be an integer, got 2.5"),
        ({"n_workers": True}, "worker count must be an integer, got True"),
        ({"n_trials": 2.5}, "n_trials must be an integer, got 2.5"),
        ({"master_seed": 2.5}, "master_seed must be an integer, got 2.5"),
        ({"master_seed": -1}, "master_seed must be >= 0, got -1"),
    ])
    def test_counts_are_not_truncated(self, kwargs, message):
        args = {"n_trials": 2, "master_seed": 0, "n_workers": 1, **kwargs}
        with pytest.raises(ValidationError, match=re.escape(message)):
            run_bench(builtin_3node(), MethodConfig("mdl", p_max=4), **args)


class TestMethodConfig:
    def test_one_class(self):
        assert bench.MethodConfig is timedomain.MethodConfig

    @pytest.mark.parametrize("kwargs", [
        {"method": "wald"},
        {"method": "mdl", "alpha": 0},
        {"method": "ftest", "alpha": 1},
        {"method": "ftest", "alpha": 2},
        {"method": "mdl", "p_max": 0},
        {"method": "ftest", "order_criterion": "XYZ"},
    ])
    def test_invalid_config_rejected_at_construction(self, kwargs):
        with pytest.raises(ValidationError):
            MethodConfig(**kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        ({"alpha": "0.05"}, "alpha must be a number, got '0.05'"),
        ({"p_max": 2.5}, "p_max must be an integer, got 2.5"),
        ({"p_max": True}, "p_max must be an integer, got True"),
    ])
    def test_parameters_are_typed(self, kwargs, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            MethodConfig("ftest", **kwargs)

    def test_numpy_parameters_become_python_numbers(self):
        cfg = MethodConfig("ftest", alpha=np.float64(0.01), p_max=np.int64(4))
        assert cfg == MethodConfig("ftest", alpha=0.01, p_max=4)
        assert type(cfg.p_max) is int and type(cfg.alpha) is float

    def test_aliases_normalise(self):
        cfg = MethodConfig("FTEST", alpha=0.01, order_criterion="bic")
        assert cfg.method == "ftest" and cfg.label == "ftest:0.01" and cfg.tag == "F_TEST"
        assert cfg.params == {"p_max": 10, "alpha": 0.01, "order_criterion": "BIC"}
        assert MethodConfig(" Mdl ").params == {"p_max": 10}

    @given(
        name=st.sampled_from(["mdl", " MDL", "ftest", "FTest", "f_test", "f-test", "F"]),
        alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        p_max=st.integers(1, 50),
    )
    def test_label_round_trips(self, name, alpha, p_max):
        # the label names the method and, for the F-test, its alpha
        cfg = MethodConfig(name, p_max=p_max)
        if cfg.method == "ftest":
            cfg = replace(cfg, alpha=alpha)
        assert MethodConfig.parse(cfg.label, p_max=p_max) == cfg


@st.composite
def stack_specs(draw):
    """Small networks whose trials may diverge, copy a node nearly or exactly, or leave a short window.

    ``diverging``: node 0 is explosive, and its noise variance, drawn per
    trial, decides whether a trial crosses the limit before it ends.
    ``near copy``: the last node is node 0 one step back plus noise whose
    variance, drawn per trial, decides whether the trial certifies; at
    p_max 3 some do and some do not.
    ``duplicate``: the last two nodes are one noiseless copy of node 0.
    ``short``: a window with few rows for V p_max lag columns.
    """
    nv, p_max = draw(st.integers(2, 5)), draw(st.integers(2, 3))
    kind = draw(st.sampled_from(["plain", "diverging", "near copy", "duplicate", "short"]))
    coefficients = [[i, i, 1, draw(st.floats(-0.6, 0.6))] for i in range(nv)]
    for _ in range(draw(st.integers(0, 4))):
        coefficients.append([draw(st.integers(0, nv - 1)), draw(st.integers(0, nv - 1)),
                             draw(st.integers(1, 2)), draw(st.floats(-0.3, 0.3))])
    noise, rows = [[0.2, 1.0]] * nv, 120
    if kind == "diverging":
        coefficients[0][3], noise[0], rows = 1.15, [1e-12, 1e-6], 230
    copies = {"near copy": 1, "duplicate": 2}.get(kind, 0) if nv >= 3 else 0
    if copies:
        coefficients = [row for row in coefficients if row[0] < nv - copies]
        coefficients += [[nv - 1 - c, 0, 1, 1.0] for c in range(copies)]
        noise = noise[:nv - copies] + ([[0.0, 2e-14]] if kind == "near copy" else [0.0, 0.0])
        p_max = 3 if kind == "near copy" else p_max
    if kind == "short":
        rows = draw(st.integers((nv - 1) * p_max + p_max + 2, nv * p_max + p_max + 4))
    initial = [0.0 if kind == "diverging" else 1.0] + [1.0] * (nv - 1)  # node 0's growth starts from its noise
    spec = NetworkSpec(nv, coefficients, noise, rows + 20, 20, initial)
    methods = draw(st.permutations(["mdl", "ftest:0.05", "ftest:0.01"]))[:draw(st.integers(1, 3))]
    return spec, [MethodConfig.parse(method, p_max=p_max) for method in methods]


class TestStackedChunk:
    """A chunk decided as one stack gives each trial what its series alone gives."""

    @staticmethod
    def alone(spec, configs, seed):
        """(adjacencies, weights) of the trial's series under each config, or its failure text."""
        try:
            ts = demean(simulate(spec, int(seed)))
            timedomain._checked_network(ts)
            engine = LagEngine(ts, configs[0].p_max)  # the configs share one p_max
            decided = [timedomain._decided(engine, cfg) for cfg in configs]
            for _, _, (error,) in decided:
                if error is not None:
                    raise error
        except Exception as exc:
            return f"{type(exc).__name__}: {exc}"
        return np.array([keep[0] for keep, _, _ in decided]), np.array([weight[0] for _, weight, _ in decided])

    def test_trials_that_fail_alone_keep_their_places(self, monkeypatch):
        # every third trial fails before the stack is built, the others are decided in it
        spec, simulated = builtin_3node(), simulate
        configs = (MethodConfig("mdl", p_max=3), MethodConfig("ftest", p_max=3))

        def every_third_diverges(spec_, seed):
            if seed % 3 == 0:
                raise DivergenceError("fake", node=0, step=seed)
            return simulated(spec_, seed)

        monkeypatch.setattr(bench, "simulate", every_third_diverges)
        chunk = bench._run_chunk((spec, configs, list(range(9)), True))
        for seed, (graphs, error) in enumerate(chunk):
            if seed % 3 == 0:
                assert graphs is None and error == f"DivergenceError: {DivergenceError('fake', node=0, step=seed)}"
            else:
                assert error is None and graphs.tobytes() == self.alone(spec, configs, seed)[0].tobytes()

    @settings(max_examples=30, deadline=None)
    @given(spec_configs=stack_specs(), seeds=st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=8))
    def test_each_trial_as_alone(self, spec_configs, seeds):
        spec, configs = spec_configs
        chunk = bench._run_chunk((spec, tuple(configs), seeds, True))
        alone = [self.alone(spec, configs, seed) for seed in seeds]
        assert len(chunk) == len(seeds)
        for (graphs, error), want in zip(chunk, alone):
            if isinstance(want, str):
                assert (graphs, error) == (None, want)
            else:
                assert error is None and graphs.tobytes() == want[0].tobytes()
        # the weights too, on the stack of the series that pass their checks
        series = []
        for seed in seeds:
            try:
                ts = demean(simulate(spec, int(seed)))
                timedomain._checked_network(ts)
                series.append((ts, self.alone(spec, configs, seed)))
            except (DivergenceError, ValidationError):
                pass
        if not series:
            return
        for c, cfg in enumerate(configs):
            try:
                engine = LagEngine([ts for ts, _ in series], cfg.p_max)
            except ValidationError:
                continue
            _, weight, errors = timedomain._decided(engine, cfg)
            for (_, want), w, error in zip(series, weight, errors):
                if not isinstance(want, str):
                    assert error is None and w.tobytes() == want[1][c].tobytes()

    def test_a_stack_that_does_not_certify_scans_nothing(self):
        series = [demean(simulate(NetworkSpec.from_dict(MIXED_SPEC), int(seed))) for seed in child_seeds(0, 12)]
        stack = LagEngine(series, 3)
        assert stack._lag_inverse is None
        for target, blocks in [(0, [0, 1, 2]), (1, [1]), (2, [0, 2])]:
            with pytest.raises(ValidationError, match="does not certify"):
                stack.scan(target, blocks)
            with pytest.raises(ValidationError, match="does not certify"):
                stack._families(*stack._index(target, blocks), coefficients=False)
        assert stack._memo == {}

    def test_a_stack_that_does_not_certify_splits_into_its_series(self):
        spec = NetworkSpec.from_dict(MIXED_SPEC)
        configs = [MethodConfig.parse(method, p_max=3) for method in ("ftest:0.05", "ftest:0.01", "mdl")]
        series = [demean(simulate(spec, int(seed))) for seed in child_seeds(0, 12)]
        certified = [LagEngine(ts, 3)._lag_inverse is not None for ts in series]
        assert 0 < sum(certified) < len(series)
        stack = LagEngine(series, 3)
        groups = stack._groups()
        assert [group.tolist() for group, _ in groups] == [[t] for t in range(len(series))]
        assert all(part._series == [ts] for (_, part), ts in zip(groups, series))
        for cfg in configs:
            keep, weight, errors = timedomain._decided(stack, cfg)
            for t, ts in enumerate(series):
                (alone_keep,), (alone_weight,), (alone_error,) = timedomain._decided(LagEngine(ts, 3), cfg)
                assert keep[t].tobytes() == alone_keep.tobytes() and weight[t].tobytes() == alone_weight.tobytes()
                assert repr(errors[t]) == repr(alone_error)
        # the certified trials as one stack take the inverse, Schur and batched
        # routes, each trial that does not certify the rank-checked one
        together = LagEngine([ts for ts, passed in zip(series, certified) if passed], 3)
        for cfg in configs:
            timedomain._decided(together, cfg)
        # at 3 variables the pairwise families are drop-one ones
        assert together._lag_inverse is not None and together._memo.keys() == {"own", "drop", "full"}
        assert any(part._lag_inverse is None and part._memo["drop"].held.any() for _, part in groups)
        for engine in [together] + [part for _, part in groups]:
            trials = len(engine._series)
            assert engine._response_sq.shape == (3, trials)
            for scans in engine._memo.values():  # (target, source, trial, ...)
                assert scans.rss.shape[2] == trials and scans.coefficients.shape[2] == trials


SPEC = {"n_nodes": 2, "coefficients": [[0, 1, 1, 0.5]], "noise_variances": [0.1, 0.1],
        "total_len": 50, "burn_in": 10, "initial_values": [1.0, 1.0]}


@pytest.mark.parametrize("env, call, message", [
    (None, lambda: NetworkSpec(**{**SPEC, "n_nodes": 0}), "n_nodes must be >= 1"),
    (None, lambda: NetworkSpec(**{**SPEC, "noise_variances": [0.1]}), "1 noise variances for 2 nodes"),
    (None, lambda: NetworkSpec(**{**SPEC, "noise_variances": [0.1, [0.3, 0.2]]}),
     "bad noise variance range (0.3, 0.2)"),
    (None, lambda: NetworkSpec(**{**SPEC, "noise_variances": [0.1, [-0.1, 0.2]]}),
     "bad noise variance range (-0.1, 0.2)"),
    (None, lambda: NetworkSpec(**{**SPEC, "noise_variances": [0.1, [0.1, 0.2, 0.3]]}),
     "bad noise variance range (0.1, 0.2, 0.3)"),
    (None, lambda: NetworkSpec(**{**SPEC, "noise_variances": [0.1, -0.1]}),
     "noise variance must be nonnegative, got -0.1"),
    (None, lambda: NetworkSpec(**{**SPEC, "total_len": 0}), "total_len must be >= 1"),
    (None, lambda: NetworkSpec(**{**SPEC, "initial_values": [1.0]}), "1 initial values for 2 nodes"),
    (None, lambda: run_bench_multi(builtin_3node(), [MethodConfig("mdl")], 0, 1), "n_trials must be >= 1"),
    (None, lambda: run_bench_multi(builtin_3node(), [], 2, 1), "need at least one method config"),
    (None, lambda: run_bench_multi(builtin_3node(), [MethodConfig("mdl"), MethodConfig(" MDL")], 2, 1),
     "duplicate method configs"),
    ("two", lambda: bench.worker_count(), "GRANGER_MDL_THREADS must be an integer, got 'two'"),
    ("-1", lambda: bench.worker_count(), "worker count must be >= 0"),
    (None, lambda: bench.worker_count(-1), "worker count must be >= 0"),
], ids=["no nodes", "variance count", "reversed range", "negative range", "range of three", "negative variance",
        "no rows", "initial value count", "no trials", "no configs", "duplicate configs", "threads not a number",
        "negative threads", "negative workers"])
def test_validation_messages(env, call, message, monkeypatch):
    if env is not None:
        monkeypatch.setenv("GRANGER_MDL_THREADS", env)
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value) == message
