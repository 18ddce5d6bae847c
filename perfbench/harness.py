"""Set-up, timed and traced runs of one workload, with the correctness checks.

``run_timed`` measures the end-to-end metrics with nothing wrapped;
``run_traced`` alternates untraced and traced calls and reports the layer
metrics of the median traced call.  Both check every call, outside the timed
region, against the run's first call (bit-identical ``bc``, identical
modeled time, peak bytes and launch count) and that first call against the
float64 Brandes oracle.
"""

from __future__ import annotations

import contextlib
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.baselines.brandes import brandes_bc
from repro.core.dispatch import STRATEGIES
from repro.obs.ledger import graph_fingerprint, sources_fingerprint
from repro.obs.roofline import BOUND_CLASSES, roofline_report

import spans as S
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
#: Where a traced run writes its spans when it ends.
SPANS_DIR = ROOT / ".perfbench-out"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3

#: ``bc`` must lie within this relative tolerance of the float64 oracle (the
#: program accumulates the backward stage in float32); ``ATOL`` covers
#: vertices whose oracle score is zero.
RTOL, ATOL = 1e-4, 1e-6

#: End-to-end metrics: name -> (unit, better, clock).
END_TO_END = {
    "host_s": ("s", "lower", "host"),
    "modeled_gpu_s": ("s", "lower", "modeled"),
    "peak_device_bytes": ("B", "lower", "modeled"),
    "host_peak_rss_bytes": ("B", "lower", "host"),
    "setup_s": ("s", "lower", "host"),
}

#: Per-layer metrics of the traced run: name -> (unit, better).  Every
#: ``*_s`` / ``*.s`` time is the layer's self time (children excluded).
PER_LAYER = {
    "graphs.build_s": ("s", "lower"),
    "formats.views_s": ("s", "lower"),
    "formats.tile_plan_s": ("s", "lower"),
    "core.bc.self_s": ("s", "lower"),
    "core.bc.rerun_share": ("ratio", "lower"),
    "core.forward.s": ("s", "lower"),
    "core.forward.levels": ("count", "lower"),
    "core.backward.s": ("s", "lower"),
    "core.backward.levels": ("count", "lower"),
    "core.context.spmv_calls": ("count", "lower"),
    "core.context.spmv_self_s": ("s", "lower"),
    "core.context.frontier_density": ("ratio", "higher"),
    "spmv._spmm.segment_sums_s": ("s", "lower"),
    "spmv._spmm.segment_sums_calls": ("count", "lower"),
    "core.frontier.s": ("s", "lower"),
    "core.frontier.calls": ("count", "lower"),
    "core.dispatch.s": ("s", "lower"),
    "core.dispatch.decisions": ("count", "lower"),
    **{f"core.dispatch.choices.{k}": ("count", "lower") for k in STRATEGIES},
    "gpusim.warp.s": ("s", "lower"),
    "gpusim.warp.calls": ("count", "lower"),
    "gpusim.device.launches": ("count", "lower"),
    "gpusim.device.launch_s": ("s", "lower"),
    "gpusim.device.readbacks": ("count", "lower"),
    **{
        f"gpusim.bound_share.{b}": (
            "ratio", "higher" if b in ("bandwidth", "compute", "mma") else "lower"
        )
        for b in BOUND_CLASSES
    },
    "core.schedule.estimate_s": ("s", "lower"),
    "core.schedule.place_s": ("s", "lower"),
    "core.multigpu.parallel_efficiency": ("ratio", "higher"),
    "core.multigpu.reduction_s": ("s", "lower"),
    "obs.hooks_s": ("s", "lower"),
    "obs.hooks_calls": ("count", "lower"),
    "obs.ledger_s": ("s", "lower"),
    "trace.host_s_untraced": ("s", "lower"),
    "trace.host_s_traced": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

#: Layer self times that partition a traced call (their sum is at most the
#: call's ``trace.host_s_traced``).
SELF_TIMES = (
    "core.bc.self_s", "core.forward.s", "core.backward.s", "core.context.spmv_self_s",
    "spmv._spmm.segment_sums_s", "core.frontier.s", "core.dispatch.s", "gpusim.warp.s",
    "gpusim.device.launch_s", "core.schedule.estimate_s", "core.schedule.place_s",
    "obs.hooks_s", "obs.ledger_s",
)


@dataclass
class Report:
    workload: str
    seed: int
    trace: bool
    inputs: dict
    metrics: dict              # name -> value, in the units of END_TO_END / PER_LAYER
    attempted: int
    failed: int
    notes: dict = field(default_factory=dict)   # metric -> base / sample description
    errors: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


class Checker:
    """Counts calls and failures.

    The first successful call on each source set is that set's reference:
    later calls must reproduce its ``bc`` bit for bit and its modeled time,
    peak device bytes and launch count exactly, and :meth:`finish` holds the
    reference against the oracle.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        #: source tuple -> [bc, (gpu_time_s, peak bytes, launches), result, matching calls]
        self.refs: dict[tuple, list] = {}
        self.errors: list[str] = []

    def record(self, sources, result) -> None:
        self.attempted += 1
        bc, st = result.bc, result.stats
        sig = (st.gpu_time_s, st.peak_memory_bytes, st.kernel_launches)
        ref = self.refs.get(tuple(sources))
        if ref is None:
            self.refs[tuple(sources)] = [bc.copy(), sig, result, 1]
        elif np.array_equal(bc, ref[0]) and sig == ref[1]:
            ref[3] += 1
        else:
            self.failed += 1
            self.errors.append(
                f"call {self.attempted}: bc or modeled (gpu_time_s, peak bytes, "
                f"launches) {sig} differ from the first call's {ref[1]}"
            )

    def record_error(self, exc: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        self.errors.append(
            f"call {self.attempted} raised: "
            + "".join(traceback.format_exception_only(type(exc), exc)).strip()
        )

    def finish(self, oracle) -> None:
        """Fail every call that matched a reference missing ``oracle(sources)``."""
        for sources, (bc, _, _, matching) in sorted(self.refs.items(), key=lambda r: len(r[0])):
            expected = oracle(sources)
            if not np.allclose(bc, expected, rtol=RTOL, atol=ATOL):
                worst = np.max(np.abs(bc - expected) / np.maximum(np.abs(expected), ATOL))
                self.failed += matching
                self.errors.append(
                    f"bc on {len(sources)} source(s) misses the Brandes oracle: max "
                    f"relative error {worst:.3g} (rtol {RTOL}, atol {ATOL})"
                )

    def result(self, sources):
        ref = self.refs.get(tuple(sources))
        return None if ref is None else ref[2]


def _call(wl, graph, sources, tmp, checker, tracer=None):
    """One checked call; returns ``(output or None, host seconds)``.

    Garbage from earlier calls is collected first and the check runs after
    the clock stops, both outside the timed region.  With ``tracer`` every
    layer is wrapped for the call, which runs inside a root span ``call``.
    """
    gc.collect()
    exc = out = None
    with S.traced(tracer) if tracer else contextlib.nullcontext():
        with tracer.span("call") if tracer else contextlib.nullcontext() as root:
            t0 = time.perf_counter()
            try:
                out = wl.call(graph, sources, tmp)
            except Exception as e:   # counted as a failure; the run goes on
                exc = e
            elapsed = time.perf_counter() - t0
    if exc is not None:
        checker.record_error(exc)
    else:
        checker.record(sources, out[0])
    return out, root.duration_s if tracer else elapsed


def _setup(wl, tiny, seed, tmp, checker, tracer=None):
    """Graph generation + sparse-view build + one untimed warm-up call.

    The warm-up runs the workload's call on its first ``wl.warmup`` sources:
    enough to take the same execution path and fill every lazily built
    cache, at a fraction of a full call's cost.
    """
    build_span = tracer.span("graphs.build") if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    with build_span:
        graph = wl.build(tiny)
    sources = wl.sources(graph, seed)
    graph.to_csc()          # the stored format of every workload's algorithm
    _call(wl, graph, sources[:wl.warmup], tmp, checker)
    return graph, sources, time.perf_counter() - t0


def _inputs(graph, sources) -> dict:
    return {
        "n": graph.n, "m": graph.m, "directed": graph.directed,
        "graph_fingerprint": graph_fingerprint(graph),
        "sources": len(sources), "sources_fingerprint": sources_fingerprint(sources),
    }


def _finish(checker, graph) -> None:
    """Check every reference against the float64 Brandes oracle.

    BC over a source set is the sum over its sources, and the warm-up's
    sources are a prefix of the timed calls', so each source is run through
    the oracle once.
    """
    done: dict[tuple, np.ndarray] = {(): 0.0}

    def oracle(sources):
        key = tuple(sources)
        if key not in done:
            prefix = max((k for k in done if key[:len(k)] == k), key=len)
            done[key] = done[prefix] + brandes_bc(graph, sources=list(key[len(prefix):]))
        return done[key]

    checker.finish(oracle)


def run_timed(name: str, seed: int, seconds: float, *, setups: int = SETUPS,
              tiny: bool = False) -> Report:
    """End-to-end metrics: ``setups`` set-ups, then untraced calls for ``seconds``."""
    wl = WORKLOADS[name]
    checker = Checker()
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        setup_s = []
        for _ in range(setups):
            graph = sources = None      # drop the previous instance first
            graph, sources, t = _setup(wl, tiny, seed, tmp, checker)
            setup_s.append(t)
        host = []
        t_start = time.perf_counter()
        while not host or time.perf_counter() - t_start < seconds:
            host.append(_call(wl, graph, sources, tmp, checker)[1])
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    _finish(checker, graph)
    ref = checker.result(sources)
    st = ref.stats if ref is not None else None
    metrics = {
        "host_s": statistics.median(host),
        "modeled_gpu_s": st.gpu_time_s if st else 0.0,
        "peak_device_bytes": st.peak_memory_bytes if st else 0,
        "host_peak_rss_bytes": rss,
        "setup_s": statistics.median(setup_s),
    }
    notes = {
        "host_s": _sample_note(host),
        "setup_s": f"median of {len(setup_s)} set-ups",
        "modeled_gpu_s": "makespan" if wl.name == "deep-multigpu-observed" else "",
    }
    return Report(name, seed, False, _inputs(graph, sources), metrics,
                  checker.attempted, checker.failed, notes, checker.errors)


def _sample_note(samples) -> str:
    n = len(samples)
    note = f"median of {n} calls"
    # the highest percentile with at least ten samples beyond it
    if n >= 11:
        k = n - 10
        note += f"; p{100 * k / n:.0f} {sorted(samples)[k - 1]:.4g} s"
    else:
        note += "; no tail percentile (needs >= 11 calls)"
    return note


def layer_metrics(spans, out, n_sources: int) -> dict:
    """Per-layer metrics of one traced call from its spans and its output."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s in spans:
        self_s[s.name] = self_s.get(s.name, 0.0) + s.self_s
        calls[s.name] = calls.get(s.name, 0) + 1
    ctx = [s for s in spans if s.name == "core.context"]
    rows = sum(s.attrs["rows"] for s in ctx)
    choices = [s.attrs.get("choice") for s in spans if s.name == "core.dispatch"]
    device_fns = [s.fn for s in spans if s.name == "gpusim.device"]
    m = {
        "core.bc.self_s": self_s.get("core.bc", 0.0),
        "core.bc.rerun_share": sum(
            s.attrs.get("reruns", 0) for s in spans if s.name == "core.bc"
        ) / n_sources,
        "core.forward.s": self_s.get("core.forward", 0.0),
        "core.forward.levels": sum(s.fn.endswith("_forward") for s in ctx),
        "core.backward.s": self_s.get("core.backward", 0.0),
        "core.backward.levels": sum(s.fn.endswith("_backward") for s in ctx),
        "core.context.spmv_calls": len(ctx),
        "core.context.spmv_self_s": self_s.get("core.context", 0.0),
        "core.context.frontier_density": (
            sum(s.attrs["nnz_rows"] for s in ctx) / rows if rows else 0.0
        ),
        "spmv._spmm.segment_sums_s": self_s.get("spmv._spmm.segment_sums", 0.0),
        "spmv._spmm.segment_sums_calls": calls.get("spmv._spmm.segment_sums", 0),
        "core.frontier.s": self_s.get("core.frontier", 0.0),
        "core.frontier.calls": calls.get("core.frontier", 0),
        "core.dispatch.s": self_s.get("core.dispatch", 0.0),
        "core.dispatch.decisions": len(choices),
        **{f"core.dispatch.choices.{k}": choices.count(k) for k in STRATEGIES},
        "gpusim.warp.s": self_s.get("gpusim.warp", 0.0),
        "gpusim.warp.calls": calls.get("gpusim.warp", 0),
        "gpusim.device.launches": len(device_fns),
        "gpusim.device.launch_s": self_s.get("gpusim.device", 0.0),
        "gpusim.device.readbacks": device_fns.count("Device.sync_readback"),
        "core.schedule.estimate_s": self_s.get("core.schedule.estimate", 0.0),
        "core.schedule.place_s": self_s.get("core.schedule.place", 0.0),
        "obs.hooks_s": self_s.get("obs.hooks", 0.0),
        "obs.hooks_calls": calls.get("obs.hooks", 0),
        "obs.ledger_s": self_s.get("obs.ledger", 0.0),
    }
    result, devices, mg = out
    launches = [launch for d in devices for launch in d.profiler.launches]
    roof = roofline_report(launches, devices[0].spec)
    m.update({f"gpusim.bound_share.{b}": roof.bound_share(b) for b in BOUND_CLASSES})
    m["core.multigpu.parallel_efficiency"] = mg.parallel_efficiency if mg else 0.0
    m["core.multigpu.reduction_s"] = mg.reduction_time_s if mg else 0.0
    return m


def _check_launch_spans(checker, spans, lo, hi, result) -> None:
    """The launches the spans saw must be the launches the run modeled.

    Launches under a call that raised (an int32 attempt whose sigma
    overflowed, which the device reset discards before the float64 re-run)
    are not part of the run's model.
    """
    aborted = set()
    seen = 0
    for i in range(lo, hi):
        s = spans[i]
        if "error" in s.attrs or s.parent in aborted:
            aborted.add(i)
        elif s.name == "gpusim.device":
            seen += 1
    if seen != result.stats.kernel_launches:
        checker.failed += 1
        checker.errors.append(
            f"traced call saw {seen} device launches, its stats model "
            f"{result.stats.kernel_launches}"
        )


def run_traced(name: str, seed: int, seconds: float, *, tiny: bool = False,
               spans_dir: Path | None = SPANS_DIR) -> Report:
    """Per-layer metrics: a traced set-up, then untraced/traced call pairs."""
    wl = WORKLOADS[name]
    checker = Checker()
    tracer = S.Tracer()
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        tracer.run_id = "setup"
        with S.traced(tracer), tracer.span("setup"):
            graph, sources, _ = _setup(wl, tiny, seed, tmp, checker, tracer)
        setup_spans = list(tracer.spans)
        untraced, calls = [], []     # calls: (host_s, first span, output)
        t_start = time.perf_counter()
        while not calls or time.perf_counter() - t_start < seconds:
            untraced.append(_call(wl, graph, sources, tmp, checker)[1])
            tracer.run_id = f"call-{len(calls)}"
            first = len(tracer.spans)
            out, host_s = _call(wl, graph, sources, tmp, checker, tracer)
            calls.append((host_s, first, len(tracer.spans), out))
            if out is not None:
                _check_launch_spans(checker, tracer.spans, first, len(tracer.spans), out[0])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    _finish(checker, graph)

    metrics = {
        "graphs.build_s": sum(s.duration_s for s in setup_spans if s.name == "graphs.build"),
        "formats.views_s": sum(s.self_s for s in setup_spans if s.name == "formats.views"),
        "formats.tile_plan_s": sum(
            s.self_s for s in setup_spans if s.name == "formats.tile_plan"
        ),
    }
    # The layers of the median traced call, so that its self times add up
    # within its own host time.
    host_traced, lo, hi, out = sorted(calls, key=lambda c: c[0])[(len(calls) - 1) // 2]
    if out is not None:
        metrics.update(layer_metrics(tracer.spans[lo:hi], out, len(sources)))
    else:
        metrics.update({k: 0.0 for k in PER_LAYER if k not in metrics})
    host_untraced = statistics.median(untraced)
    metrics.update({
        "trace.host_s_untraced": host_untraced,
        "trace.host_s_traced": host_traced,
        "trace.overhead_s": host_traced - host_untraced,
        "trace.overhead_ratio": (host_traced - host_untraced) / host_untraced,
    })
    if spans_dir is not None:
        spans_dir.mkdir(exist_ok=True)
        path = spans_dir / f"spans-{name}-seed{seed}.jsonl"
        with path.open("w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s.to_dict(), separators=(",", ":")) + "\n")
    notes = {
        "core.bc.rerun_share": f"base: {len(sources)} sources",
        "core.context.frontier_density": "base: rows scanned by the SpMV/SpMM calls",
        "trace.host_s_traced": f"median of {len(calls)} traced calls",
        "trace.host_s_untraced": f"median of {len(untraced)} untraced calls",
        "trace.overhead_ratio": "base: trace.host_s_untraced",
        **{f"gpusim.bound_share.{b}": "base: the call's modeled device time"
           for b in BOUND_CLASSES},
        "core.multigpu.parallel_efficiency": "base: active devices x makespan",
    }
    return Report(name, seed, True, _inputs(graph, sources), metrics,
                  checker.attempted, checker.failed, notes, checker.errors)


def print_report(report: Report, file=None) -> None:
    """Human-readable lines, then the one-line JSON result last."""
    file = file or sys.stdout
    inp = report.inputs
    print(f"# workload {report.workload}  seed {report.seed}  "
          f"{'traced' if report.trace else 'untraced'}", file=file)
    print(f"# graph n={inp['n']} m={inp['m']} "
          f"{'directed' if inp['directed'] else 'undirected'} "
          f"fingerprint={inp['graph_fingerprint']}  sources={inp['sources']} "
          f"fingerprint={inp['sources_fingerprint']}", file=file)
    table = PER_LAYER if report.trace else END_TO_END
    print(f"# {'metric':<36} {'value':>14}  {'unit':<6} {'better':<7} note", file=file)
    for name, spec in table.items():
        unit, better = spec[0], spec[1]
        clock = f"[{spec[2]}] " if len(spec) > 2 else ""
        note = report.notes.get(name, "")
        print(f"  {name:<36} {report.metrics[name]:>14.6g}  {unit:<6} {better:<7} "
              f"{clock}{note}", file=file)
    rate = report.failed / report.attempted if report.attempted else 1.0
    print(f"  {'failure_rate':<36} {rate:>14.6g}  {'ratio':<6} {'lower':<7} "
          f"{report.failed} failed / {report.attempted} attempted", file=file)
    for err in report.errors:
        print(f"# FAILED: {err}", file=file)
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": report.metrics[name], "unit": table[name][0]}
            for name in table
        },
    }), file=file)
