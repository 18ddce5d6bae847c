"""CLI tests (in-process via repro.cli.main)."""

import numpy as np
import pytest

from repro.cli import main
from repro.graphs import io, suite
from tests.conftest import random_graph


@pytest.fixture(autouse=True)
def clear_cache():
    yield
    suite.clear_graph_cache()


class TestInfo:
    def test_known_graph(self, capsys):
        assert main(["info", "mycielskian15"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out and "paper:" in out and "repro:" in out

    def test_unknown_graph_exits_2(self, capsys):
        assert main(["info", "nope"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "nope" in err
        assert "repro suite" in err  # points at the discovery command


class TestBC:
    def test_on_mtx_file(self, tmp_path, capsys):
        g = random_graph(40, 0.1, directed=False, seed=2)
        path = tmp_path / "g.mtx"
        io.write_matrix_market(g, path)
        assert main(["bc", str(path), "--source", "0", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "TurboBC" in out and "MTEPs" in out and "sync_readback" in out

    def test_on_edge_list_with_output(self, tmp_path, capsys):
        g = random_graph(30, 0.12, directed=True, seed=3)
        path = tmp_path / "g.txt"
        io.write_edge_list(g, path)
        out_file = tmp_path / "bc.txt"
        assert main(["bc", str(path), "--output", str(out_file), "--top", "3"]) == 0
        vec = np.loadtxt(out_file)
        assert vec.shape == (g.n,)

    def test_algorithm_pinned(self, tmp_path, capsys):
        g = random_graph(30, 0.12, directed=False, seed=4)
        path = tmp_path / "g.mtx"
        io.write_matrix_market(g, path)
        assert main(["bc", str(path), "--algorithm", "veccsc", "--source", "0"]) == 0
        assert "veCSC" in capsys.readouterr().out

    def test_rejects_bad_algorithm(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["bc", "whatever.mtx", "--algorithm", "csr5"])


class TestErrorPaths:
    """Bad inputs exit non-zero with a one-line message on stderr -- never a
    traceback.  argparse-level validation exits 2 via SystemExit; CLIError
    paths return 2; conformance divergences return 1."""

    def test_nonexistent_graph_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "no-such-graph.mtx"
        assert main(["bc", str(missing)]) == 2
        err = capsys.readouterr().err
        assert "graph file not found" in err and str(missing) in err

    @pytest.mark.parametrize("name, body, reason", [
        ("token.txt", "0 1\n1 x\n", "'x' is not an integer"),
        ("negative.txt", "0 1\n# note\n-1 2\n", "below 0"),
        ("huge.txt", "0 2147483648\n", "int32 index range"),
        ("short.txt", "0 1\n5\n", "expected two vertex ids"),
        ("token.mtx", "%%MatrixMarket matrix coordinate pattern general\n3 3 1\n1 y\n",
         "'y' is not an integer"),
        ("short.mtx", "%%MatrixMarket matrix coordinate pattern general\n3 3 2\n1 2\n3\n",
         "expected two vertex ids"),
    ])
    def test_malformed_graph_file_exits_2(self, tmp_path, capsys, name, body, reason):
        path = tmp_path / name
        path.write_text(body)
        assert main(["bc", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {path}:")
        assert reason in err
        line = body.count("\n")  # every case's fault is on its last line
        assert f":{line}: " in err

    def test_unknown_suite_name_exits_2(self, capsys):
        assert main(["bc", "not-a-suite-graph"]) == 2
        err = capsys.readouterr().err
        assert "unknown graph" in err
        assert ".mtx" in err  # explains what would have been accepted

    @pytest.mark.parametrize("bad", ["0", "-3", "huge"])
    def test_bad_batch_size_exits_2(self, tmp_path, bad):
        g = random_graph(10, 0.2, directed=False, seed=1)
        path = tmp_path / "g.mtx"
        io.write_matrix_market(g, path)
        with pytest.raises(SystemExit) as exc:
            main(["bc", str(path), "--batch-size", bad])
        assert exc.value.code == 2

    def test_batch_size_auto_accepted(self, tmp_path):
        g = random_graph(10, 0.2, directed=False, seed=1)
        path = tmp_path / "g.mtx"
        io.write_matrix_market(g, path)
        assert main(["bc", str(path), "--batch-size", "auto"]) == 0

    def test_conflicting_export_targets_exit_2(self, tmp_path, capsys):
        g = random_graph(10, 0.2, directed=False, seed=1)
        path = tmp_path / "g.mtx"
        io.write_matrix_market(g, path)
        shared = tmp_path / "out.json"
        assert main(["bc", str(path), "--trace-out", str(shared),
                     "--metrics-json", str(shared)]) == 2
        err = capsys.readouterr().err
        assert "--trace-out" in err and "--metrics-json" in err
        assert "must be distinct files" in err

    def test_conflict_detected_through_path_aliases(self, tmp_path, capsys):
        g = random_graph(10, 0.2, directed=False, seed=1)
        path = tmp_path / "g.mtx"
        io.write_matrix_market(g, path)
        a = tmp_path / "out.json"
        b = tmp_path / "sub" / ".." / "out.json"  # same file, different spelling
        assert main(["bc", str(path), "--output", str(a),
                     "--stats-json", str(b)]) == 2
        assert "must be distinct files" in capsys.readouterr().err

    def test_distinct_targets_accepted(self, tmp_path):
        g = random_graph(10, 0.2, directed=False, seed=1)
        path = tmp_path / "g.mtx"
        io.write_matrix_market(g, path)
        assert main(["bc", str(path), "--source", "0",
                     "--trace-out", str(tmp_path / "trace.json"),
                     "--metrics-json", str(tmp_path / "metrics.json")]) == 0


class TestSuiteCommand:
    def test_lists_all_graphs(self, capsys):
        assert main(["suite"]) == 0
        out = capsys.readouterr().out
        assert "33 graphs" in out
        assert "mycielskian19" in out and "sk-2005" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_table_validates_k(self):
        with pytest.raises(SystemExit):
            main(["table", "7"])


class TestObservabilityCLI:
    """`repro history` / `slo-check` / `trend` wiring and exit codes.

    Usage errors (missing ledger, malformed spec, empty window, bad
    --window) must exit 2 with an actionable message; gate failures
    (budget breach, flagged regression) exit 1; clean passes exit 0.
    """

    @pytest.fixture()
    def ledger(self, tmp_path):
        graph = tmp_path / "tiny.el"
        graph.write_text("0 1\n1 2\n2 3\n3 0\n0 2\n")
        path = tmp_path / "ledger.jsonl"
        for _ in range(3):
            assert main(["bc", str(graph), "--ledger", str(path)]) == 0
        return path

    def test_history_table_and_jsonl(self, ledger, capsys):
        assert main(["history", "--ledger", str(ledger)]) == 0
        out = capsys.readouterr().out
        assert "tiny" in out and out.count("sccsc/b1") == 3
        assert main(["history", "--ledger", str(ledger),
                     "--format", "jsonl", "--last", "1"]) == 0
        import json as _json
        rec = _json.loads(capsys.readouterr().out)
        assert rec["kind"] == "bc"

    def test_history_missing_ledger_exits_2(self, tmp_path, capsys):
        assert main(["history", "--ledger", str(tmp_path / "no.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--ledger" in err

    def test_slo_check_pass_and_breach(self, ledger, tmp_path, capsys):
        import json as _json
        spec = tmp_path / "budgets.json"
        spec.write_text(_json.dumps({"budgets": [
            {"name": "lat", "metric": "gpu_time_s", "max": 10.0}]}))
        assert main(["slo-check", "--ledger", str(ledger),
                     "--budgets", str(spec)]) == 0
        assert "PASS" in capsys.readouterr().out
        spec.write_text(_json.dumps({"budgets": [
            {"name": "lat", "metric": "gpu_time_s", "max": 1e-12}]}))
        assert main(["slo-check", "--ledger", str(ledger),
                     "--budgets", str(spec)]) == 1
        assert "breach" in capsys.readouterr().out

    def test_slo_check_missing_ledger_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "budgets.json"
        spec.write_text('{"budgets": [{"metric": "x", "max": 1.0}]}')
        assert main(["slo-check", "--ledger", str(tmp_path / "no.jsonl"),
                     "--budgets", str(spec)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "repro bc" in err

    def test_slo_check_malformed_spec_exits_2(self, ledger, tmp_path, capsys):
        spec = tmp_path / "budgets.json"
        spec.write_text('{"budgets": [{"max": 1.0}]}')
        assert main(["slo-check", "--ledger", str(ledger),
                     "--budgets", str(spec)]) == 2
        assert "missing 'metric'" in capsys.readouterr().err

    def test_slo_check_empty_window_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        spec = tmp_path / "budgets.json"
        spec.write_text('{"budgets": [{"metric": "x", "max": 1.0}]}')
        assert main(["slo-check", "--ledger", str(empty),
                     "--budgets", str(spec)]) == 2
        assert "no records" in capsys.readouterr().err

    def test_trend_clean_and_doctored(self, ledger, capsys, tmp_path):
        import json as _json
        assert main(["trend", "--ledger", str(ledger)]) == 0
        assert "PASS" in capsys.readouterr().out
        from repro import obs
        records = obs.read_ledger(ledger)
        doctored = _json.loads(_json.dumps(records[-1]))
        doctored["metrics"]["kernel_exec_s"] *= 2
        obs.Ledger(ledger).append(doctored)
        report = tmp_path / "trend.md"
        assert main(["trend", "--ledger", str(ledger),
                     "--report", str(report)]) == 1
        assert "kernel_exec_s" in report.read_text()

    def test_trend_missing_ledger_exits_2(self, tmp_path, capsys):
        assert main(["trend", "--ledger", str(tmp_path / "no.jsonl")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_trend_bad_window_exits_2(self, ledger, capsys):
        assert main(["trend", "--ledger", str(ledger), "--window", "0"]) == 2
        assert "--window must be >= 1" in capsys.readouterr().err

    def test_canary_missing_budget_spec_exits_2(self, tmp_path, capsys):
        assert main(["canary", "--seed", "0",
                     "--budgets", str(tmp_path / "no.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--bless-budgets" in err

    def test_perf_diff_baseline_flag_validation(self, tmp_path, capsys):
        bench = tmp_path / "BENCH_x.json"
        bench.write_text('{"criterion": {"achieved": 1.0}}')
        led = tmp_path / "l.jsonl"
        led.write_text("")
        # both a positional baseline and --baseline-ledger: ambiguous
        assert main(["perf-diff", str(bench), str(bench),
                     "--baseline-ledger", str(led)]) == 2
        assert "either" in capsys.readouterr().err
        # neither baseline source
        assert main(["perf-diff", str(bench)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        # ledger with no matching bench records
        assert main(["perf-diff", "--baseline-ledger", str(led),
                     str(bench)]) == 2
        assert 'no kind="bench" records' in capsys.readouterr().err
