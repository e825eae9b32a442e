import argparse
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import granger_mdl

from granger_mdl import bench, cli
from granger_mdl.cli import main
from granger_mdl.timedomain import CausalGraph


def run_cli(*argv):
    return main(list(argv))


def write_columns(path, columns):
    path.write_text(",".join(columns) + "\n" + "\n".join(
        ",".join(f"{v:.17g}" for v in row) for row in zip(*columns.values())) + "\n")


def degenerate_panel(c):
    """Columns a and b of noise, and c a ``copy`` of a, a ``constant`` or all ``zero``."""
    a, b = np.random.default_rng(0).standard_normal((2, 120))
    return {"a": a, "b": b, "c": {"copy": a.copy(), "constant": np.full(120, 2.5),
                                  "zero": np.zeros(120)}[c]}


@pytest.fixture(scope="module")
def sim_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "sim3.csv"
    assert run_cli("simulate", "--network", "3node", "--seed", "7",
                   "--out", str(path)) == 0
    return path


class TestSimulate:
    def test_creates_expected_csv(self, sim_csv):
        lines = sim_csv.read_text().strip().split("\n")
        assert lines[0] == "node1,node2,node3"
        assert len(lines) == 301

    def test_byte_identical_reruns(self, tmp_path, sim_csv):
        other = tmp_path / "again.csv"
        assert run_cli("simulate", "--network", "3node", "--seed", "7",
                       "--out", str(other)) == 0
        assert other.read_bytes() == sim_csv.read_bytes()

    def test_custom_spec_file(self, tmp_path):
        spec = {
            "n_nodes": 2,
            "coefficients": [[0, 0, 1, 0.5], [1, 0, 1, 0.4], [1, 1, 1, 0.3]],
            "noise_variances": [0.5, [0.2, 0.4]],
            "total_len": 120,
            "burn_in": 20,
            "initial_values": [0.0, 0.0],
        }
        spec_path = tmp_path / "net.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "sim.csv"
        assert run_cli("simulate", "--network", str(spec_path), "--seed", "1",
                       "--out", str(out)) == 0
        assert len(out.read_text().strip().split("\n")) == 101

    @pytest.mark.parametrize("field, value, message", [
        ("n_nodes", 2.9, "n_nodes must be an integer, got 2.9"),
        ("total_len", 200.5, "total_len must be an integer, got 200.5"),
        ("coefficients", [[0, 0, 1.7, 0.5], [1, 0, 1, 0.4], [1, 1, 1, 0.3]],
         "coefficient 0 lag must be an integer, got 1.7"),
        ("coefficients", [[0, 0, 1, True], [1, 0, 1, 0.4], [1, 1, 1, 0.3]],
         "coefficient 0 value must be a number, got True"),
        ("initial_values", [0.0, True], "initial value 1 must be a number, got True"),
    ])
    def test_spec_file_value_not_truncated_exits_2(self, field, value, message, tmp_path, capsys):
        spec = {
            "n_nodes": 2,
            "coefficients": [[0, 0, 1, 0.5], [1, 0, 1, 0.4], [1, 1, 1, 0.3]],
            "noise_variances": [0.5, [0.2, 0.4]],
            "total_len": 120,
            "burn_in": 20,
            "initial_values": [0.0, 0.0],
            field: value,
        }
        spec_path = tmp_path / "net.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "sim.csv"
        assert run_cli("simulate", "--network", str(spec_path), "--out", str(out)) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_spec_exits_2(self, tmp_path, capsys):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps({
            "n_nodes": 1,
            "coefficients": [[0, 0, 1, 0.5]],
            "noise_variances": [1.0],
            "total_len": 50,
            "burn_in": 50,
            "initial_values": [0.0],
        }))
        code = run_cli("simulate", "--network", str(spec_path), "--seed", "1",
                       "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "burn_in" in capsys.readouterr().err


class TestAnalyze:
    def test_mdl_graph_on_simulated_data(self, sim_csv, tmp_path):
        out = tmp_path / "graph.json"
        assert run_cli("analyze", str(sim_csv), "--method", "mdl",
                       "--out", str(out)) == 0
        graph = CausalGraph.from_json(out.read_text())
        assert set(graph.edges()) == {(0, 1), (0, 2)}

    def test_ftest_runs(self, sim_csv, capsys):
        assert run_cli("analyze", str(sim_csv), "--method", "ftest",
                       "--alpha", "0.05") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "F_TEST"

    def test_single_column_exits_2(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("a\n1\n2\n3\n")
        assert run_cli("analyze", str(path)) == 2

    def test_missing_file_exits_2(self):
        assert run_cli("analyze", "/nonexistent.csv") == 2

    def test_numerical_failure_exits_3(self, tmp_path, capsys):
        # y is x one step back plus 1e-12 noise: no column is constant or a
        # copy, but y.lag1 and x.lag2 are collinear far past the 1e10 limit
        rng = np.random.default_rng(0)
        x, z = rng.standard_normal((2, 200))
        y = np.roll(x, 1) + 1e-12 * rng.standard_normal(200)
        path = tmp_path / "near.csv"
        write_columns(path, {"x": x, "y": y, "z": z})
        for method in ("mdl", "ftest"):
            assert run_cli("analyze", str(path), "--method", method) == 3
            assert "numerical error" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["mdl", "ftest"])
    @pytest.mark.parametrize("c, message", [
        ("copy", "variables a and c are identical"),
        ("constant", "variable c is constant"),
        ("zero", "variable c is constant"),
    ])
    def test_degenerate_column_exits_2_by_label(self, method, c, message, tmp_path, capsys):
        path = tmp_path / "panel.csv"
        write_columns(path, degenerate_panel(c))
        assert run_cli("analyze", str(path), "--method", method) == 2
        assert message in capsys.readouterr().err

    def test_interpolating_panel_exits_2(self, tmp_path, capsys):
        # 30 variables on 300 rows: at p_max 10 a restricted conditional
        # family has 29 * 10 = 290 columns on the 290-row window
        values = np.random.default_rng(0).standard_normal((300, 30))
        path = tmp_path / "wide.csv"
        path.write_text(",".join(f"v{i}" for i in range(30)) + "\n"
                        + "\n".join(",".join(f"{v:.17g}" for v in row) for row in values) + "\n")
        for method in ("mdl", "ftest"):
            assert run_cli("analyze", str(path), "--method", method) == 2
            assert "290 rows ≤ 290 columns" in capsys.readouterr().err

    def test_config_file_supplies_defaults(self, sim_csv, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"method": "mdl", "p_max": 6}))
        assert run_cli("analyze", str(sim_csv), "--config", str(config)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "MDL"
        assert payload["params"]["p_max"] == 6

    def test_config_criterion_is_normalised(self, sim_csv, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"method": "f_test", "p_max": 4, "order_criterion": "bic"}))
        assert run_cli("analyze", str(sim_csv), "--config", str(config)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "F_TEST"
        assert payload["params"] == {"alpha": 0.05, "order_criterion": "BIC", "p_max": 4}

    def test_flags_override_config(self, sim_csv, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"method": "mdl", "p_max": 6}))
        assert run_cli("analyze", str(sim_csv), "--config", str(config),
                       "--p-max", "4") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["params"]["p_max"] == 4

    def test_non_numeric_config_value_exits_2(self, sim_csv, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"alpha": "x"}))
        assert run_cli("analyze", str(sim_csv), "--config", str(config)) == 2
        assert "config 'alpha' must be a number, got 'x'" in capsys.readouterr().err


class TestSpectral:
    def test_frequency_grid_override_row_count(self, sim_csv, tmp_path):
        out = tmp_path / "freq.csv"
        assert run_cli("spectral", str(sim_csv), "--x", "node2", "--y", "node1",
                       "--freqs", "1:30,50,100", "--sample-rate", "200",
                       "--out", str(out)) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 33  # header + 32 grid rows

    def test_driven_direction_dominates(self, sim_csv, tmp_path):
        out = tmp_path / "freq.csv"
        assert run_cli("spectral", str(sim_csv), "--x", "node2", "--y", "node1",
                       "--freqs", "1:30", "--sample-rate", "200",
                       "--out", str(out)) == 0
        rows = np.genfromtxt(out, delimiter=",", names=True)
        assert (rows["f_y_to_x"] > 0).all()
        assert rows["f_y_to_x"].min() > rows["f_x_to_y"].max()

    def test_self_pair_exits_2(self, sim_csv, tmp_path):
        assert run_cli("spectral", str(sim_csv), "--x", "node1", "--y", "node1",
                       "--out", str(tmp_path / "x.csv")) == 2

    def test_unknown_variable_exits_2(self, sim_csv, tmp_path):
        assert run_cli("spectral", str(sim_csv), "--x", "node1", "--y", "nodeZ",
                       "--out", str(tmp_path / "x.csv")) == 2

    @pytest.mark.parametrize("order", [[], ["--order", "2"]])
    @pytest.mark.parametrize("c, message", [
        ("copy", "variables a and c are identical"),
        ("constant", "variable c is constant"),
    ])
    def test_degenerate_column_exits_2_by_label(self, order, c, message, tmp_path, capsys):
        path = tmp_path / "pair.csv"
        write_columns(path, degenerate_panel(c))
        assert run_cli("spectral", str(path), "--x", "a", "--y", "c", *order,
                       "--out", str(tmp_path / "x.csv")) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("freqs, message", [
        ("nan,5", "frequency nan is not finite"),
        ("5,inf", "frequency inf is not finite"),
        ("5,-inf", "frequency -inf is not finite"),
        ("1_0", "bad frequency '1_0'"),
        ("2:1_2", "bad frequency range '2:1_2'"),
    ])
    def test_bad_frequency_exits_2(self, freqs, message, sim_csv, tmp_path, capsys):
        assert run_cli("spectral", str(sim_csv), "--x", "node2", "--y", "node1",
                       "--sample-rate", "200", "--freqs", freqs,
                       "--out", str(tmp_path / "x.csv")) == 2
        assert f"error: {message}\n" == capsys.readouterr().err

    def test_frequencies_keep_the_order_given(self, sim_csv, tmp_path):
        out = tmp_path / "freq.csv"
        assert run_cli("spectral", str(sim_csv), "--x", "node2", "--y", "node1",
                       "--sample-rate", "200", "--freqs", "50,3:4,1",
                       "--out", str(out)) == 0
        rows = out.read_text().strip().split("\n")[1:]
        assert [float(row.split(",")[0]) for row in rows] == [50.0, 3.0, 4.0, 1.0]

    @pytest.mark.filterwarnings("ignore:fitted VAR is not stationary")
    def test_interpolating_order_exits_2(self, sim_csv, tmp_path, capsys):
        # at order 7 a 21-row series leaves m = 14 rows for 14 columns per equation
        rows = sim_csv.read_text().strip().split("\n")
        for n_rows, code in ((21, 2), (22, 0)):
            short = tmp_path / f"short{n_rows}.csv"
            short.write_text("\n".join(rows[: n_rows + 1]) + "\n")
            assert run_cli("spectral", str(short), "--x", "node2", "--y", "node1",
                           "--order", "7", "--out", str(tmp_path / "x.csv")) == code
        assert "14 rows ≤ 14 columns" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:fitted VAR is not stationary")
    def test_interpolating_order_search_exits_2(self, tmp_path, capsys):
        # the default p_max 10 on 30 rows leaves a 20-row window for order
        # 10's 20 columns; one more row gives the search a residual
        values = np.random.default_rng(0).standard_normal((31, 2))
        for n_rows, code in ((30, 2), (31, 0)):
            path = tmp_path / f"pair{n_rows}.csv"
            path.write_text("a,b\n" + "\n".join(f"{u:.17g},{v:.17g}" for u, v in values[:n_rows]) + "\n")
            assert run_cli("spectral", str(path), "--x", "a", "--y", "b",
                           "--out", str(tmp_path / "x.csv")) == code
        assert "20 rows ≤ 20 columns at order 10" in capsys.readouterr().err


class TestSimilarity:
    def graph_json(self, path, edges, nodes=("a", "b", "c")):
        payload = {
            "nodes": list(nodes),
            "method": "MDL",
            "edges": [{"from": f, "to": t, "weight": 1.0} for f, t in edges],
            "params": {},
        }
        path.write_text(json.dumps(payload))

    def test_identical_graphs(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        self.graph_json(a, [("a", "b")])
        assert run_cli("similarity", str(a), str(a)) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_hand_counted_half(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self.graph_json(a, [("a", "b"), ("a", "c"), ("b", "c")])
        self.graph_json(b, [("a", "b"), ("b", "c"), ("c", "a")])
        assert run_cli("similarity", str(a), str(b)) == 0
        assert capsys.readouterr().out.strip() == "0.5"

    def test_duplicate_node_labels_exit_2(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self.graph_json(a, [("a", "b")], nodes=("a", "b"))
        self.graph_json(b, [("a", "a")], nodes=("a", "a"))
        assert run_cli("similarity", str(a), str(b)) == 2
        assert "nodes must be distinct strings" in capsys.readouterr().err

    def test_node_count_mismatch_exits_2(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self.graph_json(a, [("a", "b")])
        self.graph_json(b, [("a", "b")], nodes=("a", "b"))
        assert run_cli("similarity", str(a), str(b)) == 2


@pytest.mark.parametrize("reader", ["csv", "config", "network spec", "graph"])
def test_non_utf8_file_exits_2_naming_it(reader, sim_csv, tmp_path, capsys):
    bad = tmp_path / "bad"
    content = b"a,b\n1,2\n3,\xff4\n" if reader == "csv" else b'{"nodes": ["\xff"]}\n'
    bad.write_bytes(content)
    argv = {
        "csv": ["analyze", str(bad)],
        "config": ["analyze", str(sim_csv), "--config", str(bad)],
        "network spec": ["simulate", "--network", str(bad), "--out", str(tmp_path / "x.csv")],
        "graph": ["similarity", str(bad), str(bad)],
    }[reader]
    assert run_cli(*argv) == 2
    what = "" if reader == "csv" else f"{reader} "
    assert capsys.readouterr().err == (
        f"error: cannot read {what}{bad}: 'utf-8' codec can't decode byte 0xff in position "
        f"{content.index(0xff)}: invalid start byte\n"
    )


class TestMcBench:
    def test_basic_run_and_determinism(self, tmp_path, capsys):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = ["mc-bench", "--network", "3node",
                "--methods", "mdl,ftest:0.05", "--trials", "6", "--seed", "11",
                "--p-max", "6"]
        assert run_cli(*args, "--out", str(out1)) == 0
        table = capsys.readouterr().out
        assert "mdl" in table and "ftest:0.05" in table
        assert run_cli(*args, "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_worker_count_invariance(self, tmp_path):
        out1, out2 = tmp_path / "w1.json", tmp_path / "w2.json"
        base = ["mc-bench", "--network", "3node", "--methods", "mdl",
                "--trials", "8", "--seed", "3", "--p-max", "6"]
        assert run_cli(*base, "--workers", "1", "--out", str(out1)) == 0
        assert run_cli(*base, "--workers", "2", "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_single_trial_is_legal(self, tmp_path):
        assert run_cli("mc-bench", "--network", "3node", "--methods", "mdl",
                       "--trials", "1", "--seed", "0", "--p-max", "6",
                       "--out", str(tmp_path / "r.json")) == 0

    def test_bad_method_exits_2(self):
        assert run_cli("mc-bench", "--network", "3node", "--methods", "wald",
                       "--trials", "2", "--seed", "0") == 2

    @pytest.mark.parametrize("flags", [
        ["--methods", "mdl,ftest:2"],
        ["--methods", "mdl", "--p-max", "0"],
    ])
    def test_bad_config_exits_2_before_any_trial(self, flags, monkeypatch):
        calls = []
        monkeypatch.setattr(bench, "simulate", lambda *a: calls.append(a))
        assert run_cli("mc-bench", "--network", "3node", "--trials", "2",
                       "--seed", "0", *flags) == 2
        assert calls == []

    def test_non_numeric_config_value_exits_2(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"trials": "ten"}))
        assert run_cli("mc-bench", "--network", "3node", "--config", str(config)) == 2
        assert "config 'trials' must be an integer, got 'ten'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "mc-bench"])
    def test_null_seed_exits_2(self, command, tmp_path, capsys):
        config = tmp_path / "null.json"
        config.write_text('{"seed": null}')
        extra = ["--out", str(tmp_path / "sim.csv")] if command == "simulate" else ["--trials", "2"]
        assert run_cli(command, "--network", "3node", *extra, "--config", str(config)) == 2
        assert "config 'seed' must be an integer, got None" in capsys.readouterr().err

    @pytest.mark.parametrize("text, shown", [
        ('{"trials": 1e999}', "inf"),
        ('{"trials": 2.7}', "2.7"),
        ('{"trials": null}', "None"),
        ('{"workers": true}', "True"),
    ])
    def test_config_value_not_an_integer_exits_2(self, text, shown, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(text)
        assert run_cli("mc-bench", "--network", "3node", "--config", str(config)) == 2
        key = json.loads(text).popitem()[0]
        assert f"config {key!r} must be an integer, got {shown}" in capsys.readouterr().err

    def test_whole_float_config_value_is_an_integer(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "run_bench_multi",
                            lambda spec, configs, trials, *a, **k: seen.append(trials) or {})
        config = tmp_path / "run.json"
        config.write_text('{"trials": 3.0}')
        assert run_cli("mc-bench", "--network", "3node", "--config", str(config)) == 0
        assert seen == [3]
        assert type(seen[0]) is int

    def test_config_supplies_workers(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "run_bench_multi",
                            lambda *a, n_workers: seen.append(n_workers) or {})
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"workers": 2}))
        assert run_cli("mc-bench", "--network", "3node", "--trials", "2",
                       "--config", str(config)) == 0
        assert seen == [2]


def _command(command, sim_csv, out):
    """Quick argv of each command that reads a --config; ``out`` is its output file."""
    return {
        "simulate": ["simulate", "--network", "3node", "--out", str(out)],
        "analyze": ["analyze", str(sim_csv), "--p-max", "3", "--out", str(out)],
        "spectral": ["spectral", str(sim_csv), "--x", "node2", "--y", "node1",
                     "--order", "2", "--sample-rate", "200", "--freqs", "1:5", "--out", str(out)],
        "mc-bench": ["mc-bench", "--network", "3node", "--trials", "1", "--p-max", "3",
                     "--out", str(out)],
    }[command]


class TestConfigTypes:
    @pytest.mark.parametrize("command, key", [
        ("simulate", "noise"),
        ("analyze", "method"),
        ("analyze", "order_criterion"),
        ("spectral", "freqs"),
        ("mc-bench", "noise"),
        ("mc-bench", "methods"),
    ])
    @pytest.mark.parametrize("value", [5, ["mdl"], True])
    def test_text_key_takes_only_a_string(self, command, key, value, sim_csv, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({key: value}))
        argv = _command(command, sim_csv, tmp_path / "out")
        if key == "freqs":  # the flag would win over the config
            argv = [a for a in argv if a not in ("--freqs", "1:5")]
        assert run_cli(*argv, "--config", str(config)) == 2
        assert f"config {key!r} must be a string, got {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key", [("analyze", "method"), ("mc-bench", "noise")])
    def test_null_text_key_exits_2(self, command, key, sim_csv, tmp_path, capsys):
        config = tmp_path / "null.json"
        config.write_text(json.dumps({key: None}))
        assert run_cli(*_command(command, sim_csv, tmp_path / "out"), "--config", str(config)) == 2
        assert f"config {key!r} must be a string, got None" in capsys.readouterr().err

    def test_null_freqs_is_the_default_grid(self, sim_csv, tmp_path):
        config = tmp_path / "null.json"
        config.write_text('{"freqs": null}')
        argv = [a for a in _command("spectral", sim_csv, tmp_path / "a.csv") if a not in ("--freqs", "1:5")]
        assert run_cli(*argv, "--config", str(config)) == 0
        argv = [a for a in _command("spectral", sim_csv, tmp_path / "b.csv") if a not in ("--freqs", "1:5")]
        assert run_cli(*argv) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("command", ["analyze", "spectral"])
    @pytest.mark.parametrize("value", ["no", 0, 1, None, [False]])
    def test_demean_takes_only_a_boolean(self, command, value, sim_csv, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"demean": value}))
        assert run_cli(*_command(command, sim_csv, tmp_path / "out"), "--config", str(config)) == 2
        assert f"config 'demean' must be true or false, got {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "spectral"])
    def test_demean_false_matches_no_demean_flag(self, command, sim_csv, tmp_path):
        outputs = {}
        for name, config, flags in (
            ("false", {"demean": False}, []),
            ("flag", {}, ["--no-demean"]),
            ("true", {"demean": True}, []),
            ("default", {}, []),
        ):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(config))
            out = tmp_path / f"{name}.out"
            assert run_cli(*_command(command, sim_csv, out), *flags, "--config", str(path)) == 0
            outputs[name] = out.read_bytes()
        assert outputs["false"] == outputs["flag"]
        assert outputs["true"] == outputs["default"]
        assert outputs["false"] != outputs["default"]


# Every other option names a file or a variable and is no config key.
NOT_SETTINGS = {"help", "config", "out", "network", "x", "y", "no_header"}
# A non-default flag value for every setting, by dest.
FLAG_TEXT = {
    "seed": "5", "noise": "high", "method": "ftest", "alpha": "0.01", "p_max": "4",
    "order_criterion": "BIC", "order": "3", "freqs": "1:5", "sample_rate": "200",
    "trials": "7", "methods": "mdl,ftest:0.01", "workers": "2",
}
REQUIRED = {
    "simulate": ["simulate", "--network", "3node", "--out", "sim.csv"],
    "analyze": ["analyze", "in.csv"],
    "spectral": ["spectral", "in.csv", "--x", "a", "--y", "b", "--out", "freq.csv"],
    "mc-bench": ["mc-bench", "--network", "3node"],
}


def _options():
    """(subcommand, option action) for every option of every subcommand."""
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return [(command, action) for command, sp in sub.choices.items()
            for action in sp._actions if action.option_strings]


def _parsed(argv):
    """The args ``main`` hands a command, without the --config path."""
    args = cli.build_parser().parse_args(argv)
    cli._apply_config(args)
    return {k: v for k, v in vars(args).items() if k != "config"}


class TestOptionTable:
    @pytest.mark.parametrize("command, action", [
        pytest.param(c, a, id=f"{c} {a.option_strings[0]}")
        for c, a in _options() if a.dest not in NOT_SETTINGS
    ])
    def test_config_value_parses_as_the_flag(self, command, action, tmp_path):
        if action.nargs == 0:  # a switch: --no-demean is {"demean": false}
            flag, value = [action.option_strings[0]], action.const
        else:
            text = FLAG_TEXT[action.dest]
            flag, value = [action.option_strings[0], text], action.type(text)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({action.dest: value}))
        by_flag = _parsed(REQUIRED[command] + flag)
        assert _parsed(REQUIRED[command] + ["--config", str(config)]) == by_flag
        assert _parsed(REQUIRED[command])[action.dest] != by_flag[action.dest]

    @pytest.mark.parametrize("command", sorted(REQUIRED))
    def test_other_options_are_no_config_keys(self, command, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: "elsewhere" for key in NOT_SETTINGS | {"input"}}))
        assert _parsed(REQUIRED[command] + ["--config", str(config)]) == _parsed(REQUIRED[command])


def fresh_process(argv):
    """(exit code, stdout, stderr) of ``granger-mdl argv`` run in a new interpreter."""
    src = os.path.dirname(os.path.dirname(granger_mdl.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "granger_mdl.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=300)
    return proc.returncode, proc.stdout, proc.stderr


class TestRepeatedCalls:
    def test_calls_in_one_process_match_fresh_processes(self, sim_csv, tmp_path, capsys,
                                                        monkeypatch):
        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        cli._parser.cache_clear()
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"order": 3, "freqs": "2:9", "demean": False}))
        out = tmp_path / "out"
        spectral = ["spectral", str(sim_csv), "--x", "node2", "--y", "node1",
                    "--sample-rate", "200", "--out", str(out)]
        calls = [
            ["analyze", str(sim_csv), "--no-demean"],
            ["analyze", str(sim_csv)],
            spectral + ["--config", str(config)],
            spectral,
            ["analyze", str(sim_csv), "--method", "bogus"],  # argparse exits 2
            ["analyze", str(sim_csv), "--method", "ftest"],
        ]
        seen = []
        try:
            for argv in calls:
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
                captured = capsys.readouterr()
                here = (code, captured.out, captured.err, out.read_bytes() if out.exists() else None)
                out.unlink(missing_ok=True)
                code, stdout, stderr = fresh_process(argv)
                assert here == (code, stdout, stderr, out.read_bytes() if out.exists() else None)
                out.unlink(missing_ok=True)
                seen.append(here)
        finally:
            cli._parser.cache_clear()
        assert [call[0] for call in seen] == [0, 0, 0, 0, 2, 0]
        assert seen[0][1] != seen[1][1] and seen[2][3] != seen[3][3]
        assert builds == [1]
