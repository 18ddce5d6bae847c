"""Cross-run observability tests: run ledger, SLO budgets, canary, trend.

The load-bearing guarantees (DESIGN.md §16):

* **identity determinism** -- two sessions over the same graph/config
  produce byte-identical fingerprints and (on the deterministic
  simulator) byte-identical metric blocks;
* **one record per user-visible run** -- multi-GPU task loops and the
  dtype-auto overflow replay never double-append;
* **lossless bench ingestion** -- flattening an ingested record yields
  exactly the metric paths flattening the original ``BENCH_*.json``
  would, which is what lets ``perf-diff --baseline-ledger`` reproduce
  the paired-run verdict;
* **budgets bite** -- the canary spec passes clean and breaches under a
  modeled slowdown; trend flags drift in either direction.
"""

from __future__ import annotations

import json

import pytest

from repro import obs, turbo_bc
from repro.core.multigpu import multi_gpu_bc
from repro.gpusim.device import Device
from repro.obs.ledger import (
    Ledger,
    config_fingerprint,
    config_summary,
    filter_records,
    format_history,
    graph_fingerprint,
    read_ledger,
    run_fingerprint,
)
from repro.obs.slo import (
    BudgetSpecError,
    evaluate_budgets,
    load_budget_spec,
    metric_value,
    parse_budget_spec,
)
from repro.obs.trend import baseline_from_ledger, record_metrics, trend_report
from repro.graphs.graph import Graph
from tests.conftest import random_graph


@pytest.fixture(autouse=True)
def no_leaked_session():
    yield
    assert obs.get_telemetry() is None
    obs.deactivate()


def run_with_ledger(path, graph, **kwargs):
    """One turbo_bc run under a fresh ledger-carrying session."""
    with obs.session(trace=True, ledger=path):
        return turbo_bc(graph, device=Device(), **kwargs)


class TestFingerprints:
    def test_graph_fingerprint_ignores_edge_order(self):
        edges = [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)]
        a = Graph.from_edges(edges, 4, directed=False)
        b = Graph.from_edges(list(reversed(edges)), 4, directed=False)
        assert graph_fingerprint(a) == graph_fingerprint(b)

    def test_graph_fingerprint_normalises_undirected_endpoints(self):
        a = Graph.from_edges([(0, 1), (1, 2)], 3, directed=False)
        b = Graph.from_edges([(1, 0), (2, 1)], 3, directed=False)
        assert graph_fingerprint(a) == graph_fingerprint(b)

    def test_structural_change_changes_fingerprint(self):
        a = Graph.from_edges([(0, 1), (1, 2)], 3, directed=False)
        b = Graph.from_edges([(0, 1), (0, 2)], 3, directed=False)
        c = Graph.from_edges([(0, 1), (1, 2)], 3, directed=True)
        assert graph_fingerprint(a) != graph_fingerprint(b)
        assert graph_fingerprint(a) != graph_fingerprint(c)

    def test_config_fingerprint_is_order_insensitive(self):
        assert config_fingerprint({"a": 1, "b": "x"}) == config_fingerprint(
            {"b": "x", "a": 1}
        )
        assert config_fingerprint({"a": 1}) != config_fingerprint({"a": 2})

    def test_run_fingerprint_keys_on_graph_and_config(self):
        assert run_fingerprint("aaaa", {"k": 1}) != run_fingerprint(
            "bbbb", {"k": 1}
        )
        assert run_fingerprint("aaaa", {"k": 1}) != run_fingerprint(
            "aaaa", {"k": 2}
        )


class TestLedgerDeterminism:
    def test_two_sessions_byte_identical_records(self, tmp_path):
        """The ledger-determinism contract: identity AND metrics repeat."""
        g = random_graph(30, 0.12, directed=False, seed=5)
        run_with_ledger(tmp_path / "a.jsonl", g, batch_size=2)
        run_with_ledger(tmp_path / "b.jsonl", g, batch_size=2)
        (ra,) = read_ledger(tmp_path / "a.jsonl")
        (rb,) = read_ledger(tmp_path / "b.jsonl")
        assert ra["fingerprint"] == rb["fingerprint"]
        # wall-clock is the one nondeterministic field and lives outside
        # the metrics block; everything else must repeat byte-for-byte
        ra.pop("wall_time_s"), rb.pop("wall_time_s")
        assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)

    def test_record_shape(self, tmp_path):
        g = random_graph(25, 0.15, directed=True, seed=9)
        run_with_ledger(tmp_path / "l.jsonl", g, sources=[0, 1, 2])
        (rec,) = read_ledger(tmp_path / "l.jsonl")
        assert rec["schema"] == obs.LEDGER_SCHEMA
        assert rec["kind"] == "bc"
        assert rec["graph"]["n"] == g.n and rec["graph"]["m"] == g.m
        assert rec["config"]["driver"] == "turbo_bc"
        assert rec["config"]["sources"] == 3
        m = rec["metrics"]
        assert m["gpu_time_s"] > 0 and m["kernel_launches"] > 0
        assert m["peak_memory_bytes"] > 0
        assert m["kernel_exec_s"] > 0
        assert set(m["phase_time_s"]) <= {"setup", "forward", "backward",
                                          "rerun"}
        assert m["counters"]["kernel_launches"] == m["kernel_launches"]
        assert m["roofline_total_s"] == pytest.approx(
            sum(m["bound_time_s"].values())
        )

    def test_each_run_appends_one_record_with_per_run_deltas(self, tmp_path):
        g = random_graph(25, 0.15, directed=False, seed=2)
        with obs.session(trace=True, ledger=tmp_path / "l.jsonl"):
            turbo_bc(g, sources=[0], device=Device())
            turbo_bc(g, sources=[0], device=Device())
        r1, r2 = read_ledger(tmp_path / "l.jsonl")
        assert r1["fingerprint"] == r2["fingerprint"]
        # deltas, not session-cumulative totals: the second run's counters
        # and phase times must equal the first run's, not double them
        # (phase deltas come from a cumulative subtraction, so allow ulps)
        assert r1["metrics"]["counters"] == r2["metrics"]["counters"]
        p1, p2 = r1["metrics"]["phase_time_s"], r2["metrics"]["phase_time_s"]
        assert set(p1) == set(p2)
        for phase, t in p1.items():
            assert p2[phase] == pytest.approx(t)

    def test_multigpu_appends_one_record_not_per_task(self, tmp_path):
        g = random_graph(30, 0.12, directed=False, seed=4)
        with obs.session(trace=True, ledger=tmp_path / "l.jsonl"):
            _, mg = multi_gpu_bc(g, n_devices=2, sources=list(range(6)),
                                 batch_size=2)
        (rec,) = read_ledger(tmp_path / "l.jsonl")
        assert rec["kind"] == "multigpu"
        assert rec["config"]["n_devices"] == 2
        assert rec["metrics"]["schedule"]["scheduler"] == "cost"
        assert rec["metrics"]["link"]["transfers"] == mg.active_devices
        assert rec["metrics"]["parallel_efficiency"] == pytest.approx(
            mg.parallel_efficiency
        )

    def test_dtype_auto_overflow_appends_one_record(self, tmp_path):
        """The sigma-overflow float64 replay must not double-append."""
        # mycielski-style dense-ish graph with int32 path-count overflow is
        # expensive; the cheap proxy is dtype="auto" resolving without a
        # rerun -- still exercises the recursive driver call.
        g = random_graph(25, 0.2, directed=False, seed=8)
        run_with_ledger(tmp_path / "l.jsonl", g, forward_dtype="auto")
        records = read_ledger(tmp_path / "l.jsonl")
        assert len(records) == 1
        assert records[0]["config"]["forward_dtype"] != "auto"  # resolved

    def test_suspend_ledger_mutes_appends(self, tmp_path):
        g = random_graph(20, 0.15, directed=False, seed=1)
        with obs.session(trace=True, ledger=tmp_path / "l.jsonl") as tel:
            with tel.suspend_ledger():
                turbo_bc(g, sources=[0], device=Device())
            turbo_bc(g, sources=[0], device=Device())
        assert len(read_ledger(tmp_path / "l.jsonl")) == 1


def _append_records(path, writer: int, count: int) -> None:
    led = Ledger(path)
    for i in range(count):
        led.append({"kind": "bc", "writer": writer, "i": i, "pad": str(writer) * 20_000})


class TestLedgerFile:
    def test_torn_final_line_tolerated(self, tmp_path):
        path = tmp_path / "l.jsonl"
        led = Ledger(path)
        led.append({"kind": "bc", "fingerprint": "x"})
        with open(path, "a") as fh:
            fh.write('{"kind": "bc", "finger')  # crash mid-append
        assert len(read_ledger(path)) == 1

    def test_mid_file_corruption_raises_with_line_number(self, tmp_path):
        path = tmp_path / "l.jsonl"
        led = Ledger(path)
        led.append({"kind": "bc"})
        with open(path, "a") as fh:
            fh.write("not json\n")
        led.append({"kind": "bc"})
        with pytest.raises(ValueError, match=r":2:"):
            read_ledger(path)

    def test_concurrent_writers_never_interleave(self, tmp_path):
        """4 processes x 50 appends of lines longer than a write buffer:
        every record arrives whole, on its own line."""
        import multiprocessing

        path = tmp_path / "l.jsonl"
        ctx = multiprocessing.get_context("spawn")
        writers = [ctx.Process(target=_append_records, args=(path, w, 50))
                   for w in range(4)]
        try:
            for p in writers:
                p.start()
            for p in writers:
                p.join(timeout=60)
            assert [p.exitcode for p in writers] == [0] * 4
        finally:
            for p in writers:
                if p.is_alive():
                    p.kill()
        records = read_ledger(path)
        assert len(records) == 200
        assert sorted((r["writer"], r["i"]) for r in records) == [
            (w, i) for w in range(4) for i in range(50)]
        assert all(r["pad"] == str(r["writer"]) * 20_000 for r in records)

    def test_filter_records(self):
        recs = [
            {"kind": "bc", "graph": {"name": "a"}, "fingerprint": "0011"},
            {"kind": "canary", "graph": {"name": "a"}, "fingerprint": "0022"},
            {"kind": "bc", "graph": {"name": "b"}, "fingerprint": "0033"},
        ]
        assert len(filter_records(recs, kind="bc")) == 2
        assert len(filter_records(recs, graph="a")) == 2
        assert filter_records(recs, fingerprint="0033")[0]["kind"] == "bc"
        assert len(filter_records(recs, kind="bc", last=1)) == 1

    def test_format_history_renders_all_kinds(self, tmp_path):
        g = random_graph(20, 0.15, directed=False, seed=3)
        run_with_ledger(tmp_path / "l.jsonl", g, sources=[0])
        Ledger(tmp_path / "l.jsonl").append(
            {"kind": "bench", "bench": "adaptive", "fingerprint": "ff",
             "bench_payload": {}}
        )
        text = format_history(read_ledger(tmp_path / "l.jsonl"))
        assert "bc" in text and "bench" in text and "adaptive" in text

    def test_ingest_bench_is_lossless(self, tmp_path):
        """Flattened ingested record == flattened original file."""
        from repro.bench.baseline import flatten_metrics, load_bench_json

        bench = tmp_path / "BENCH_demo.json"
        doc = {
            "schema": "repro.bench/result/v1",
            "meta": {"bench": "demo", "config_fingerprint": "abcd1234",
                     "graph_hashes": {"g": "eeff0011"}},
            "graphs": [{"graph": "g", "gpu_time_s": 0.5, "launches": 7}],
            "criterion": {"achieved": 1.5},
        }
        bench.write_text(json.dumps(doc))
        rec = Ledger(tmp_path / "l.jsonl").ingest_bench(bench)
        assert rec["kind"] == "bench"
        assert rec["bench"] == "demo"
        assert rec["fingerprint"] == "abcd1234"  # lifted from the stamp
        assert record_metrics(rec) == flatten_metrics(load_bench_json(bench))

    def test_ingest_bench_without_meta_falls_back_to_filename(self, tmp_path):
        bench = tmp_path / "BENCH_legacy.json"
        bench.write_text(json.dumps({"x": 1}))
        rec = Ledger(tmp_path / "l.jsonl").ingest_bench(bench)
        assert rec["bench"] == "legacy"
        assert rec["fingerprint"]

    def test_config_summary(self):
        assert config_summary(
            {"config": {"algorithm": "adaptive", "batch_size": 4}}
        ) == "adaptive/b4"
        assert config_summary(
            {"config": {"algorithm": "sccsc", "batch_size": 1,
                        "n_devices": 2, "scheduler": "cost"}}
        ) == "sccsc/b1/gpus2/cost"
        assert config_summary(
            {"config": {"algorithm": "adaptive", "batch_size": 1,
                        "direction": "pull"}}
        ) == "adaptive/pull/b1"


class TestSLO:
    SPEC = {
        "schema": "repro.obs/slo/v1",
        "budgets": [
            {"name": "lat", "metric": "gpu_time_s", "max": 1.0},
            {"name": "eff", "metric": "parallel_efficiency", "min": 0.5},
        ],
    }

    def _record(self, **metrics):
        return {"kind": "bc", "graph": {"name": "g"},
                "config": {"algorithm": "sccsc", "batch_size": 1},
                "metrics": metrics}

    def test_parse_rejects_malformed_specs(self):
        cases = [
            ({}, "non-empty 'budgets'"),
            ({"budgets": []}, "non-empty 'budgets'"),
            ({"budgets": [{"metric": "x"}]}, "exactly one of 'max'/'min'"),
            ({"budgets": [{"metric": "x", "max": 1, "min": 0}]},
             "exactly one of 'max'/'min'"),
            ({"budgets": [{"max": 1.0}]}, "missing 'metric'"),
            ({"budgets": [{"metric": "x", "max": "fast"}]}, "must be a number"),
            ({"budgets": [{"metric": "x", "max": 1, "window": 0}]},
             "positive integer"),
            ({"budgets": [{"metric": "x", "max": 1, "typo": True}]},
             "unknown field"),
        ]
        for doc, msg in cases:
            with pytest.raises(BudgetSpecError, match=msg):
                parse_budget_spec(doc)

    def test_evaluate_ok_breach_missing(self):
        budgets = parse_budget_spec(self.SPEC)
        report = evaluate_budgets(budgets, [self._record(gpu_time_s=0.5)])
        by_name = {v.budget.name: v for v in report.verdicts}
        assert by_name["lat"].status == "ok"
        assert by_name["lat"].margin == pytest.approx(0.5)
        assert by_name["eff"].status == "missing"  # surfaced, not silent
        assert report.passed

        report = evaluate_budgets(budgets, [self._record(gpu_time_s=2.0)])
        v = {v.budget.name: v for v in report.verdicts}["lat"]
        assert v.status == "breach" and v.burn_rate == 1.0
        assert not report.passed

    def test_worst_of_window_and_burn_rate(self):
        budgets = parse_budget_spec(
            {"budgets": [{"name": "lat", "metric": "gpu_time_s", "max": 1.0}]}
        )
        recs = [self._record(gpu_time_s=t) for t in (0.5, 1.5, 0.8, 2.5)]
        (v,) = evaluate_budgets(budgets, recs).verdicts
        assert v.value == 2.5  # worst, not last
        assert v.burn_rate == pytest.approx(0.5)
        assert v.observed == 4

    def test_per_budget_window(self):
        budgets = parse_budget_spec(
            {"budgets": [{"name": "lat", "metric": "gpu_time_s", "max": 1.0,
                          "window": 2}]}
        )
        recs = [self._record(gpu_time_s=t) for t in (9.0, 0.5, 0.6)]
        (v,) = evaluate_budgets(budgets, recs).verdicts
        assert v.status == "ok" and v.observed == 2  # old breach aged out

    def test_filters_restrict_matching(self):
        budgets = parse_budget_spec(
            {"budgets": [
                {"name": "b", "metric": "gpu_time_s", "max": 1.0,
                 "graph": "grid-*", "kind": "canary", "config": "sccsc/*"},
            ]}
        )
        rec = {"kind": "canary", "graph": {"name": "grid-3x3"},
               "config": {"algorithm": "sccsc", "batch_size": 1},
               "metrics": {"gpu_time_s": 5.0}}
        other = {"kind": "bc", "graph": {"name": "grid-3x3"},
                 "config": {"algorithm": "sccsc", "batch_size": 1},
                 "metrics": {"gpu_time_s": 0.1}}
        (v,) = evaluate_budgets(budgets, [rec, other]).verdicts
        assert v.status == "breach" and v.observed == 1

    def test_derived_bound_share_metric(self):
        rec = self._record(
            bound_time_s={"bandwidth": 0.75, "compute": 0.25},
            roofline_total_s=1.0,
        )
        assert metric_value(rec, "bound_share.bandwidth") == 0.75
        assert metric_value(rec, "bound_share.mma") == 0.0
        assert metric_value(self._record(), "bound_share.bandwidth") is None

    def test_dotted_paths_and_non_numeric_leaves(self):
        rec = self._record(phase_time_s={"forward": 0.25}, note="hi")
        assert metric_value(rec, "phase_time_s.forward") == 0.25
        assert metric_value(rec, "phase_time_s.rerun") is None
        assert metric_value(rec, "note") is None

    def test_load_spec_json_and_errors(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text(json.dumps(self.SPEC))
        assert len(load_budget_spec(path)) == 2
        with pytest.raises(BudgetSpecError, match="not found"):
            load_budget_spec(tmp_path / "nope.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        with pytest.raises(BudgetSpecError, match="malformed JSON"):
            load_budget_spec(bad)

    def test_load_spec_toml(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")  # 3.11+
        del tomllib
        path = tmp_path / "b.toml"
        path.write_text(
            '[[budgets]]\nname = "lat"\nmetric = "gpu_time_s"\nmax = 1.0\n'
        )
        (b,) = load_budget_spec(path)
        assert b.name == "lat" and b.max == 1.0


@pytest.fixture(scope="module")
def canary_run():
    """One shared clean canary pass (the matrix is deterministic)."""
    return obs.run_canary(seed=0)


class TestCanary:
    def test_matrix_covers_the_dispatch_surface(self, canary_run):
        records = canary_run.records
        assert len(records) >= 12  # the acceptance floor
        assert not canary_run.golden_failures
        assert canary_run.wall_time_s < 60
        kinds = {r["kind"] for r in records}
        assert kinds == {"canary"}
        summaries = {config_summary(r) for r in records}
        assert "sccsc/b1" in summaries          # static kernel
        assert "adaptive/b4" in summaries       # batched SpMM
        assert "sccsc/b1/gpus2/cost" in summaries  # 2-device cost scheduler
        assert any(r["config"]["algorithm"] == "adaptive"
                   and r["config"]["batch_size"] == 1 for r in records)

    def test_probe_metrics_and_identity(self, canary_run):
        for rec in canary_run.records:
            assert rec["config"]["seed"] == 0
            assert rec["metrics"]["golden_max_abs_err"] <= 1e-6
            assert rec["metrics"]["kernel_exec_s"] > 0
        again = obs.run_canary(seed=0)
        a = [r["fingerprint"] for r in canary_run.records]
        b = [r["fingerprint"] for r in again.records]
        assert a == b  # seed-deterministic identity

    def test_committed_budgets_pass_clean(self, canary_run):
        report = obs.check_canary_budgets(canary_run)
        assert report.passed
        assert not report.missing  # every budget found its probe record

    def test_bless_then_check_roundtrip(self, canary_run, tmp_path):
        path = obs.bless_canary_budgets(canary_run, path=tmp_path / "b.json")
        report = obs.check_canary_budgets(canary_run, path=path)
        assert report.passed and not report.missing
        assert len(report.verdicts) == 3 * len(canary_run.results)

    def test_tightened_budget_breaches(self, canary_run, tmp_path):
        path = obs.bless_canary_budgets(canary_run, path=tmp_path / "b.json")
        doc = json.loads(path.read_text())
        for b in doc["budgets"]:
            if b["metric"] == "kernel_exec_s":
                b["max"] /= 10.0
        path.write_text(json.dumps(doc))
        report = obs.check_canary_budgets(canary_run, path=path)
        assert not report.passed
        assert len(report.breaches) == len(canary_run.results)

    def test_missing_corpus_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="golden corpus"):
            obs.run_canary(seed=0, golden_directory=tmp_path)

    def test_health_report_renders(self, canary_run):
        slo = obs.check_canary_budgets(canary_run)
        text = obs.render_canary_report(canary_run, slo)
        assert "HEALTHY" in text and "petersen:sccsc-b1" in text
        assert "Budgets" in text


class TestTrend:
    def _rec(self, fp, **metrics):
        return {"kind": "bc", "fingerprint": fp, "graph": {"name": "g"},
                "config": {"algorithm": "sccsc", "batch_size": 1},
                "metrics": metrics}

    def test_clean_repeats_pass(self):
        recs = [self._rec("aa", gpu_time_s=1.0, kernel_exec_s=0.5)
                for _ in range(4)]
        trend = trend_report(recs)
        assert trend.passed
        (g,) = trend.groups
        assert g.baseline_runs == 3

    def test_regression_flagged(self):
        recs = [self._rec("aa", kernel_exec_s=0.5) for _ in range(3)]
        recs.append(self._rec("aa", kernel_exec_s=1.0))
        trend = trend_report(recs)
        assert not trend.passed
        ((_, c),) = trend.regressions
        assert c.name == "kernel_exec_s" and c.ratio == pytest.approx(2.0)

    def test_silent_improvement_flagged_but_passes(self):
        recs = [self._rec("aa", kernel_exec_s=1.0) for _ in range(3)]
        recs.append(self._rec("aa", kernel_exec_s=0.5))
        trend = trend_report(recs)
        assert trend.passed  # improvements don't flip the gate bit
        assert len(trend.improvements) == 1

    def test_singletons_skipped_not_compared(self):
        recs = [self._rec("aa", gpu_time_s=1.0),
                self._rec("bb", gpu_time_s=1.0)]
        trend = trend_report(recs)
        assert trend.passed and not trend.groups and trend.singletons == 2

    def test_window_caps_the_baseline(self):
        recs = [self._rec("aa", gpu_time_s=9.0)]  # ancient outlier
        recs += [self._rec("aa", gpu_time_s=1.0) for _ in range(5)]
        recs.append(self._rec("aa", gpu_time_s=1.0))
        trend = trend_report(recs, window=5)
        assert trend.passed  # outlier aged out of the trailing window

    def test_end_to_end_ledger_drift(self, tmp_path):
        """Driver-produced records: a modeled change must be flagged."""
        g = random_graph(30, 0.12, directed=False, seed=6)
        path = tmp_path / "l.jsonl"
        for _ in range(3):
            run_with_ledger(path, g, sources=[0, 1])
        records = read_ledger(path)
        doctored = json.loads(json.dumps(records[-1]))
        doctored["metrics"]["kernel_exec_s"] *= 2
        Ledger(path).append(doctored)
        trend = trend_report(read_ledger(path))
        assert not trend.passed
        assert any(c.name == "kernel_exec_s" for _, c in trend.regressions)

    def test_baseline_from_ledger(self, tmp_path):
        led = Ledger(tmp_path / "l.jsonl")
        for i, name in enumerate(("adaptive", "adaptive", "kernels")):
            bench = tmp_path / f"BENCH_{name}_{i}.json"
            bench.write_text(json.dumps(
                {"meta": {"bench": name}, "criterion": {"achieved": 1.0 + i}}
            ))
            led.ingest_bench(bench)
        recs = led.records()
        assert baseline_from_ledger(recs)["criterion.achieved"] == [
            1.0, 2.0, 3.0
        ]
        assert baseline_from_ledger(recs, name="kernels")[
            "criterion.achieved"
        ] == [3.0]
        assert baseline_from_ledger(recs, window=1)["criterion.achieved"] == [
            3.0
        ]


class TestBenchRunnerLedger:
    def test_collect_telemetry_inherits_ambient_ledger(self, tmp_path):
        """A bench sweep under session(ledger=...) still appends records."""
        from repro.bench.runner import run_bc_per_vertex
        from repro.graphs import suite

        entry = suite.get("mycielskian15")
        with obs.session(trace=False, ledger=tmp_path / "l.jsonl"):
            row = run_bc_per_vertex(entry, systems=(), verify=False,
                                    collect_telemetry=True)
        assert row.telemetry is not None
        (rec,) = read_ledger(tmp_path / "l.jsonl")
        assert rec["kind"] == "bc"
        assert rec["graph"]["name"] == "mycielskian15"
