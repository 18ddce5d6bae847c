"""Smoke test of the benchmark on tiny graphs.

    python -m pytest perfbench/test_smoke.py

Checks that every workload emits every metric with its unit and direction,
that each layer's metrics are non-zero on the workloads where the layer
runs, that the layer self times fit inside the traced host time, that every
wrapped entry point is restored, and that failures and a missing program
are reported.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import spans  # noqa: E402

WORKLOADS = sorted(harness.WORKLOADS)

#: Per-layer metrics that must be non-zero, by the workloads their layer runs on.
LAYER_RUNS = {
    "all": [
        "graphs.build_s", "formats.views_s", "core.bc.self_s", "core.forward.s",
        "core.forward.levels", "core.backward.s", "core.backward.levels",
        "core.context.spmv_calls", "core.context.spmv_self_s",
        "core.context.frontier_density", "core.frontier.s", "core.frontier.calls",
        "gpusim.warp.s", "gpusim.warp.calls", "gpusim.device.launches",
        "gpusim.device.launch_s", "gpusim.device.readbacks",
        "trace.host_s_untraced", "trace.host_s_traced",
    ],
    "hub-adaptive": ["formats.tile_plan_s", "core.dispatch.s", "core.dispatch.decisions"],
    "regular-batched": [
        "formats.tile_plan_s", "core.dispatch.s", "core.dispatch.decisions",
        "spmv._spmm.segment_sums_s", "spmv._spmm.segment_sums_calls",
    ],
    "deep-static": [],
    "deep-multigpu-observed": [
        "formats.tile_plan_s", "core.dispatch.s", "core.dispatch.decisions",
        "core.schedule.estimate_s", "core.schedule.place_s",
        "core.multigpu.parallel_efficiency", "core.multigpu.reduction_s",
        "obs.hooks_s", "obs.hooks_calls", "obs.ledger_s",
    ],
}


def _printed(report) -> tuple[list[str], dict]:
    from io import StringIO

    buf = StringIO()
    harness.print_report(report, file=buf)
    lines = buf.getvalue().splitlines()
    return lines, json.loads(lines[-1])


def _check_printed(report, table) -> None:
    lines, result = _printed(report)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == list(table)
    for name, spec in table.items():
        assert result["metrics"][name]["unit"] == spec[0]
        row = next(ln.split() for ln in lines if ln.split()[:1] == [name])
        assert row[2:4] == [spec[0], spec[1]], row


def _restored() -> bool:
    return all(
        not hasattr(spans.inspect.getattr_static(owner, attr), "__wrapped__")
        for _, owner, attr, _, _ in spans.layers()
    )


@pytest.mark.parametrize("name", WORKLOADS)
def test_timed_run_emits_every_end_to_end_metric(name):
    report = harness.run_timed(name, 3, 0.0, setups=2, tiny=True)
    assert report.correct, report.errors
    assert report.attempted == 3      # two warm-ups and one timed call
    for metric in harness.END_TO_END:
        assert report.metrics[metric] > 0, metric
    assert report.inputs["sources"] == harness.WORKLOADS[name].n_sources
    _check_printed(report, harness.END_TO_END)


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_emits_every_layer_metric(name, tmp_path):
    report = harness.run_traced(name, 3, 0.0, tiny=True, spans_dir=tmp_path)
    assert report.correct, report.errors
    assert _restored()
    m = report.metrics
    for metric in LAYER_RUNS["all"] + LAYER_RUNS[name]:
        assert m[metric] > 0, metric
    assert sum(m[k] for k in harness.SELF_TIMES) <= m["trace.host_s_traced"]
    assert sum(m[f"core.dispatch.choices.{k}"] for k in harness.STRATEGIES) == (
        m["core.dispatch.decisions"]
    )
    shares = [m[f"gpusim.bound_share.{b}"] for b in harness.BOUND_CLASSES]
    assert sum(shares) == pytest.approx(1.0)
    assert m["core.forward.levels"] + m["core.backward.levels"] == (
        m["core.context.spmv_calls"]
    )
    _check_printed(report, harness.PER_LAYER)
    written = (tmp_path / f"spans-{name}-seed3.jsonl").read_text().splitlines()
    first = json.loads(written[0])
    assert {"name", "run_id", "start", "end", "parent", "self_s"} <= set(first)


def test_wrappers_are_restored_when_the_call_raises():
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with spans.traced(tracer):
            assert not _restored()
            raise RuntimeError("boom")
    assert _restored()


def test_self_time_excludes_children():
    ticks = iter([0.0, 1.0, 3.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    assert inner.parent == 0 and outer.parent is None
    assert (outer.duration_s, outer.self_s, inner.self_s) == (10.0, 8.0, 2.0)


def test_checker_counts_mismatches_and_oracle_misses():
    class Stats:
        gpu_time_s, peak_memory_bytes, kernel_launches = 1.0, 2, 3

    class Result:
        def __init__(self, bc):
            self.bc, self.stats = np.asarray(bc, dtype=float), Stats()

    checker = harness.Checker()
    for bc in ([1.0, 2.0], [1.0, 2.0], [1.0, 2.5]):
        checker.record([0, 1], Result(bc))
    checker.record([0], Result([0.5, 1.0]))
    checker.record_error(ValueError("bad input"))
    assert (checker.attempted, checker.failed) == (5, 2)
    checker.finish(lambda sources: np.array([1.0, 3.0]) if len(sources) == 2 else [0.5, 1.0])
    assert checker.failed == 4       # both calls that matched the first miss the oracle


def test_benchmark_alone_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "deep-static",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == harness.WORKLOADS[w["name"]].why
    for key, table in (("end_to_end", harness.END_TO_END), ("per_layer", harness.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in spec[key]} == {
            k: v[:2] for k, v in table.items()
        }
