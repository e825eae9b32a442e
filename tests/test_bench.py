import gc
import hashlib
import json
import multiprocessing
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

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

        def fake_trial(spec_, configs, seed, apply_demean):
            if rng.random() < 0.15:
                trials.append(None)
                raise DivergenceError("fake", node=0, step=0)
            graphs = []
            for _ in configs:
                adj = truth ^ (rng.random((nv, nv)) < 0.5 / nv**2)
                np.fill_diagonal(adj, False)
                graphs.append(adj)
            trials.append(graphs)
            return graphs

        monkeypatch.setattr(bench, "_evaluate_trial", fake_trial)
        configs = [MethodConfig("mdl"), MethodConfig("ftest")]
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
    """Pool task stand-in: every trial fails with this worker's BLAS thread counts."""
    counts = [get() for get, _ in bench._loaded_openblas()]
    return [(None, f"threads {counts}")] * len(args[2])


def _fail_in_worker(args):
    raise RuntimeError("worker failed")


def _report_freeze_count(args):
    """Pool task stand-in: every trial fails with the objects frozen in this worker."""
    return [(None, f"frozen {gc.get_freeze_count() > 0}")] * len(args[2])


@pytest.fixture(params=[True, False], ids=["gc on", "gc off"])
def collector(request):
    """The collector switched on or off for the test, with nothing frozen."""
    assert gc.get_freeze_count() == 0
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


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
    def test_workers_run_one_blas_thread(self, parent_blas_at_two, default_start_method,
                                         monkeypatch):
        monkeypatch.setattr(bench, "_run_chunk", _report_blas_threads)
        rep = run_bench(builtin_3node(), MethodConfig("mdl"), 12, master_seed=0, n_workers=2)
        assert len(rep.failures) == 12
        assert {err for _, err in rep.failures} == {f"threads {[1] * len(parent_blas_at_two)}"}

    def test_parent_blas_threads_restored(self, parent_blas_at_two, monkeypatch):
        spec, cfg = builtin_3node(), MethodConfig("mdl", p_max=4)
        run_bench(spec, cfg, 4, master_seed=0, n_workers=2)
        assert [get() for get, _ in parent_blas_at_two] == [2] * len(parent_blas_at_two)
        monkeypatch.setattr(bench, "_run_chunk", _fail_in_worker)
        with pytest.raises(RuntimeError, match="worker failed"):
            run_bench(spec, cfg, 4, master_seed=0, n_workers=2)
        assert [get() for get, _ in parent_blas_at_two] == [2] * len(parent_blas_at_two)

    def test_workers_freeze_the_heap_they_inherit(self, collector, monkeypatch):
        spec, cfg = builtin_3node(), MethodConfig("mdl", p_max=4)
        monkeypatch.setattr(bench, "_run_chunk", _report_freeze_count)
        rep = run_bench(spec, cfg, 4, master_seed=0, n_workers=2)
        assert {err for _, err in rep.failures} == {"frozen True"}
        assert gc.get_freeze_count() == 0 and gc.isenabled() == collector
        monkeypatch.setattr(bench, "_run_chunk", _fail_in_worker)
        with pytest.raises(RuntimeError, match="worker failed"):
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

    def test_pool_starts_no_idle_workers(self, monkeypatch):
        sizes = []

        class RecordingPool(ProcessPoolExecutor):
            def __init__(self, max_workers, mp_context, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, mp_context, **kwargs)

        monkeypatch.setattr(bench, "ProcessPoolExecutor", RecordingPool)
        run_bench(builtin_3node(), MethodConfig("mdl", p_max=4), 2, master_seed=0, n_workers=8)
        assert sizes == [2]

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
