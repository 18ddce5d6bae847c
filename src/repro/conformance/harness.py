"""The differential conformance harness.

For every fuzz case the harness runs five layers of checks, cheapest first:

1. **format coherence** -- the graph's CSC/COOC/CSR views must encode the
   same matrix (:func:`repro.formats.convert.format_coherence_report`);
2. **kernel differential** -- each kernel (gather and scatter form) at
   ``B = 3`` against the sequential reference products, and lane ``j``
   against the same kernel at ``B = 1`` on column ``j`` (bit-identity);
3. **oracle validation** -- the Brandes oracle's own vector must pass the
   structural BC validator including the conservation identity;
4. **configuration differential** -- every registered execution
   configuration against the Brandes oracle (all configs are thereby
   transitively compared against each other);
5. **metamorphic oracles** -- one rotating ground-truth-free invariant per
   case (see :mod:`repro.conformance.oracles`).

A diverging configuration is reported with a *minimized* counterexample:
a delta-debugging shrink removes vertex blocks, then edge blocks, while
the divergence persists, which turns a 30-vertex fuzz instance into the
handful of vertices that actually trigger the bug.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.baselines.brandes import brandes_bc
from repro.conformance.configs import ExecutionConfig, default_configs, dynamic_configs
from repro.conformance.fuzzer import (
    EditScriptCase,
    EditScriptFuzzer,
    FuzzCase,
    GraphFuzzer,
)
from repro.conformance.oracles import (
    METAMORPHIC_ORACLES,
    check_incremental_edit_identity,
    check_sigma_doubling,
)
from repro.core.validate import validate_bc
from repro.formats.convert import format_coherence_report
from repro.graphs.graph import Graph
from repro.gpusim.device import Device
from repro.spmv import (
    EXTENDED_KERNEL_NAMES,
    pullcsc_spmm,
    pullcsc_spmm_scatter,
    reference_spmm,
    reference_spmm_scatter,
    sccooc_spmm,
    sccooc_spmm_scatter,
    sccsc_spmm,
    sccsc_spmm_scatter,
    tcspmm_spmm,
    tcspmm_spmm_scatter,
    veccsc_spmm,
    veccsc_spmm_scatter,
)

#: Differential tolerance: the device accumulates the backward stage in
#: float32, the oracle in float64.
RTOL, ATOL = 1e-6, 1e-8

#: Predicate-call budget of one shrink (each call is a config + oracle run).
SHRINK_BUDGET = 400


def _bc_close(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and bool(np.allclose(a, b, rtol=RTOL, atol=ATOL))


@dataclass
class Divergence:
    """One conformance failure, with its (possibly shrunk) witness."""

    case: str
    config: str
    kind: str        # "oracle-mismatch" | "exception" | "format" | "kernel"
    #                # | "oracle-invalid" | "metamorphic:<name>"
    detail: str
    max_abs_err: float | None = None
    counterexample: dict | None = None

    def to_record(self) -> dict:
        rec = {"type": "divergence", "case": self.case, "config": self.config,
               "kind": self.kind, "detail": self.detail}
        if self.max_abs_err is not None:
            rec["max_abs_err"] = self.max_abs_err
        if self.counterexample is not None:
            rec["counterexample"] = self.counterexample
        return rec


@dataclass
class ConformanceReport:
    """Everything one conformance run found."""

    seed: int
    budget: int
    configs: list[str]
    cases_run: int = 0
    checks_run: int = 0
    divergences: list[Divergence] = field(default_factory=list)
    elapsed_s: float = 0.0
    stopped_early: bool = False

    @property
    def ok(self) -> bool:
        return not self.divergences

    def to_records(self) -> list[dict]:
        """JSONL-ready records (one object per line, ``type`` discriminator)."""
        head = {"type": "conformance_run",
                "schema": "repro/conformance/report/v1",
                "seed": self.seed, "budget": self.budget,
                "configs": self.configs}
        tail = {"type": "summary", "cases_run": self.cases_run,
                "checks_run": self.checks_run,
                "divergences": len(self.divergences),
                "elapsed_s": self.elapsed_s,
                "stopped_early": self.stopped_early, "ok": self.ok}
        return [head, *[d.to_record() for d in self.divergences], tail]


def _counterexample_dict(graph: Graph, sources: Sequence[int] | None) -> dict:
    """A self-contained, JSON-able reproduction of a failing instance."""
    if graph.directed:
        pairs = np.stack([graph.src, graph.dst], axis=1)
    else:
        keep = graph.src <= graph.dst
        pairs = np.stack([graph.src[keep], graph.dst[keep]], axis=1)
    return {
        "n": graph.n,
        "directed": graph.directed,
        "edges": pairs.tolist(),
        "sources": None if sources is None else [int(s) for s in sources],
    }


def counterexample_graph(rec: dict) -> Graph:
    """Rebuild the graph of a :func:`_counterexample_dict` record."""
    edges = np.asarray(rec["edges"], dtype=np.int64).reshape(-1, 2)
    return Graph.from_edges(edges, rec["n"], directed=rec["directed"])


# -- delta-debugging shrink --------------------------------------------------


class _PredicateBudget:
    def __init__(self, limit: int):
        self.limit = limit
        self.calls = 0

    def spend(self) -> bool:
        self.calls += 1
        return self.calls <= self.limit


def _shrink_pass(items: list, rebuild, predicate, budget: _PredicateBudget):
    """Remove chunks of ``items`` while ``predicate(rebuild(items))`` holds."""
    chunk = max(1, len(items) // 2)
    while chunk >= 1:
        removed = True
        while removed and budget.spend():
            removed = False
            for start in range(0, len(items), chunk):
                candidate = items[:start] + items[start + chunk:]
                if len(candidate) == len(items):
                    continue
                built = rebuild(candidate)
                if built is not None and predicate(built):
                    items = candidate
                    removed = True
                    break
        chunk //= 2
    return items


def shrink_counterexample(
    graph: Graph,
    predicate: Callable[[Graph], bool],
    *,
    max_checks: int = SHRINK_BUDGET,
) -> Graph:
    """Minimize a failing graph while ``predicate`` (still diverges) holds.

    Two delta-debugging passes: vertex blocks first (removing a vertex via
    ``subgraph`` drops its edges too, so it shrinks fastest), then edge
    blocks on the survivor.  ``predicate`` must be true of ``graph`` itself;
    the budget caps total predicate evaluations, so shrinking always
    terminates even for flaky predicates.
    """
    if not predicate(graph):
        return graph
    budget = _PredicateBudget(max_checks)

    # Pass 1: vertices.
    def rebuild_vertices(keep: list):
        if not keep:
            return None
        sub, _ = graph.subgraph(keep)
        return sub

    vertices = _shrink_pass(
        list(range(graph.n)), rebuild_vertices, predicate, budget
    )
    graph_current = graph
    if len(vertices) < graph.n:
        graph_current, _ = graph.subgraph(vertices)

    # Pass 2: edges of the survivor.
    if graph_current.directed:
        pairs = list(map(tuple, np.stack(
            [graph_current.src, graph_current.dst], axis=1).tolist()))
    else:
        keep = graph_current.src <= graph_current.dst
        pairs = list(map(tuple, np.stack(
            [graph_current.src[keep], graph_current.dst[keep]], axis=1).tolist()))

    n = graph_current.n
    directed = graph_current.directed

    def rebuild_edges(edge_list: list):
        arr = np.asarray(edge_list, dtype=np.int64).reshape(-1, 2)
        return Graph.from_edges(arr, n, directed=directed)

    pairs = _shrink_pass(pairs, rebuild_edges, predicate, budget)
    shrunk = rebuild_edges(pairs)
    # Drop isolated tail vertices the edge pass may have left behind.
    used = np.zeros(n, dtype=bool)
    if shrunk.m:
        used[shrunk.src] = True
        used[shrunk.dst] = True
    if used.any() and not used.all():
        candidate, _ = shrunk.subgraph(np.flatnonzero(used))
        if predicate(candidate):
            shrunk = candidate
    return shrunk


def _predicate_sources(graph: Graph) -> list[int] | None:
    """Deterministic source policy used while shrinking (None = all)."""
    if graph.n <= 48:
        return None
    return list(range(8))


def _config_divergence_predicate(config: ExecutionConfig, oracle) -> Callable[[Graph], bool]:
    def predicate(g: Graph) -> bool:
        srcs = _predicate_sources(g)
        try:
            got = config.run(g, srcs)
        except Exception:
            return True
        return not _bc_close(np.asarray(got, dtype=np.float64),
                             np.asarray(oracle(g, sources=srcs), dtype=np.float64))

    return predicate


# -- kernel-level differential ----------------------------------------------

_GATHER = {"sccooc": sccooc_spmm, "sccsc": sccsc_spmm, "veccsc": veccsc_spmm,
           "pullcsc": pullcsc_spmm, "tcspmm": tcspmm_spmm}
_SCATTER = {"sccooc": sccooc_spmm_scatter, "sccsc": sccsc_spmm_scatter,
            "veccsc": veccsc_spmm_scatter,
            "pullcsc": pullcsc_spmm_scatter, "tcspmm": tcspmm_spmm_scatter}


def kernel_differential_report(graph: Graph, rng, device: Device | None = None) -> list[str]:
    """Every kernel, gather and scatter form, on three-lane frontiers.

    All checks are bit-strict:

    * small non-negative *integers* -- every sum is exact in float64, so any
      deviation from the reference product is a real kernel bug regardless
      of accumulation order;
    * *real values* (the backward stage's regime) -- here accumulation
      order itself is under test: each lane must match the sequential
      storage-order reference (``reference_spmm[_scatter]``) and the same
      kernel's ``B = 1`` product on that column.  Exact integer sums cannot
      see a reordering, which is how a pairwise-summing batched segment sum
      once drifted ULPs from the per-source bincount.
    """
    if graph.n == 0:
        return []
    device = device or Device()
    errors: list[str] = []
    X = rng.integers(0, 4, size=(graph.n, 3)).astype(np.float64)
    R = rng.uniform(0.1, 2.0, size=(graph.n, 3))
    csc, cooc = graph.to_csc(), graph.to_cooc()
    products = (("spmm", _GATHER, reference_spmm),
                ("spmm_scatter", _SCATTER, reference_spmm_scatter))
    for name in EXTENDED_KERNEL_NAMES:
        mat = cooc if name == "sccooc" else csc
        for form, table, reference in products:
            kernel = table[name]
            got, _ = kernel(device, mat, X)
            if not np.array_equal(got, reference(csc, X)):
                errors.append(f"{name}_{form} lanes != reference per-lane product")
            got, _ = kernel(device, mat, R)
            if not np.array_equal(got, reference(csc, R)):
                errors.append(
                    f"{name}_{form} real-valued lanes not bit-identical to the "
                    f"sequential reference (accumulation-order drift)")
            single = np.concatenate(
                [kernel(device, mat, R[:, j : j + 1])[0] for j in range(R.shape[1])],
                axis=1)
            if not np.array_equal(got, single):
                errors.append(
                    f"{name}_{form} real-valued lanes not bit-identical to its "
                    f"B = 1 product (accumulation-order drift)")
    return errors


# -- the harness -------------------------------------------------------------


def run_conformance(
    configs: Sequence[ExecutionConfig] | None = None,
    *,
    seed: int = 0,
    budget: int = 100,
    time_limit_s: float | None = None,
    oracle=brandes_bc,
    shrink: bool = True,
    kernel_checks: bool = True,
    metamorphic: bool = True,
    cases: Iterable[FuzzCase] | None = None,
    progress: Callable[[str], None] | None = None,
) -> ConformanceReport:
    """Fuzz ``budget`` cases through every configuration and every oracle.

    ``cases`` overrides the internal :class:`GraphFuzzer` stream (the tests
    inject hand-built instances this way).  ``time_limit_s`` stops drawing
    new cases once the wall-clock budget is spent -- the report's
    ``stopped_early`` flag records that the budget was cut short.
    """
    configs = list(default_configs() if configs is None else configs)
    report = ConformanceReport(
        seed=seed, budget=budget, configs=[c.name for c in configs]
    )
    t0 = time.perf_counter()
    say = progress or (lambda msg: None)

    # Forward-stage metamorphic oracle, once per kernel (graph-independent).
    if metamorphic:
        for kernel in EXTENDED_KERNEL_NAMES:
            report.checks_run += 1
            err = check_sigma_doubling(kernel)
            if err:
                report.divergences.append(Divergence(
                    case="diamond-chain", config=kernel,
                    kind="metamorphic:sigma-doubling", detail=err,
                ))

    meta_oracles = list(METAMORPHIC_ORACLES.items())
    case_stream = GraphFuzzer(seed).cases(budget) if cases is None else cases
    kernel_device = Device()

    for case in case_stream:
        if time_limit_s is not None and time.perf_counter() - t0 > time_limit_s:
            report.stopped_early = True
            break
        report.cases_run += 1
        graph, srcs = case.graph, case.sources
        src_list = case.source_list
        case_rng = np.random.default_rng([seed, case.index, 1])

        fmt_errors = format_coherence_report(graph)
        report.checks_run += 1
        for err in fmt_errors:
            report.divergences.append(Divergence(
                case=case.recipe, config="-", kind="format", detail=err,
                counterexample=_counterexample_dict(graph, srcs),
            ))
        if fmt_errors:
            continue

        if kernel_checks:
            report.checks_run += 1
            for err in kernel_differential_report(graph, case_rng, kernel_device):
                report.divergences.append(Divergence(
                    case=case.recipe, config="-", kind="kernel", detail=err,
                    counterexample=_counterexample_dict(graph, srcs),
                ))

        expected = np.asarray(oracle(graph, sources=srcs), dtype=np.float64)
        vr = validate_bc(graph, expected, check_conservation=True, sources=src_list)
        report.checks_run += 1
        if not vr.ok:
            report.divergences.append(Divergence(
                case=case.recipe, config="oracle", kind="oracle-invalid",
                detail="; ".join(vr.errors),
                counterexample=_counterexample_dict(graph, srcs),
            ))
            continue

        for config in configs:
            report.checks_run += 1
            div = _check_config(case, config, expected, oracle, shrink)
            if div is not None:
                say(f"divergence: {config.name} on case {case.index} ({case.recipe})")
                report.divergences.append(div)

        if metamorphic and graph.n:
            name, oracle_fn = meta_oracles[case.index % len(meta_oracles)]
            config = configs[case.index % len(configs)]
            # Metamorphic checks need full-source runs; cap the instance so
            # a big fuzz case does not cost n extra passes.
            meta_graph = graph
            if graph.n > 16:
                meta_graph, _ = graph.subgraph(range(12))
            report.checks_run += 1
            err = oracle_fn(lambda g, sources=None: config.run(g, sources),
                            meta_graph, case_rng)
            if err:
                say(f"metamorphic violation: {name} / {config.name} on case {case.index}")
                report.divergences.append(Divergence(
                    case=case.recipe, config=config.name,
                    kind=f"metamorphic:{name}", detail=err,
                    counterexample=_counterexample_dict(meta_graph, None),
                ))

    report.elapsed_s = time.perf_counter() - t0
    return report


def _check_config(
    case: FuzzCase,
    config: ExecutionConfig,
    expected: np.ndarray,
    oracle,
    shrink: bool,
) -> Divergence | None:
    graph, srcs = case.graph, case.sources
    try:
        got = config.run(graph, srcs)
    except Exception as exc:
        counter = graph
        if shrink:
            exc_type = type(exc)

            def raises_same(g: Graph) -> bool:
                try:
                    config.run(g, _predicate_sources(g))
                except exc_type:
                    return True
                except Exception:
                    return False
                return False

            counter = shrink_counterexample(graph, raises_same)
        return Divergence(
            case=case.recipe, config=config.name, kind="exception",
            detail=traceback.format_exception_only(exc)[-1].strip(),
            counterexample=_counterexample_dict(counter, None),
        )

    if _bc_close(got, expected):
        return None

    err = float(np.abs(got - expected).max()) if got.shape == expected.shape else None
    counter, counter_srcs = graph, srcs
    if shrink:
        predicate = _config_divergence_predicate(config, oracle)
        shrunk = shrink_counterexample(graph, predicate)
        if shrunk is not graph:
            counter, counter_srcs = shrunk, _predicate_sources(shrunk)
    return Divergence(
        case=case.recipe, config=config.name, kind="oracle-mismatch",
        detail=(f"bc differs from Brandes oracle by {err:.3e}" if err is not None
                else f"bc shape {got.shape} != {expected.shape}"),
        max_abs_err=err,
        counterexample=_counterexample_dict(counter, counter_srcs),
    )


# -- edit-script conformance (DESIGN.md §14) ---------------------------------


def _edit_counterexample_dict(graph: Graph, segments,
                              sources: Sequence[int] | None) -> dict:
    """JSON-able reproduction of a failing (graph, edit-script) instance."""
    rec = _counterexample_dict(graph, sources)
    rec["segments"] = [
        {"add": [[int(u), int(v)] for u, v in added],
         "remove": [[int(u), int(v)] for u, v in removed]}
        for added, removed in segments
    ]
    return rec


def counterexample_segments(rec: dict):
    """Rebuild the segments of an :func:`_edit_counterexample_dict` record."""
    return tuple(
        (tuple((int(u), int(v)) for u, v in seg["add"]),
         tuple((int(u), int(v)) for u, v in seg["remove"]))
        for seg in rec.get("segments", ())
    )


def _segments_from_items(n_segments: int, items) -> tuple:
    segments = []
    for k in range(n_segments):
        added = tuple((u, v) for kk, op, u, v in items if kk == k and op == "add")
        removed = tuple((u, v) for kk, op, u, v in items if kk == k and op == "remove")
        segments.append((added, removed))
    return tuple(segments)


def shrink_edit_counterexample(
    graph: Graph,
    segments,
    predicate: Callable[[Graph, tuple], bool],
    *,
    max_checks: int = SHRINK_BUDGET,
) -> tuple[Graph, tuple]:
    """Minimize a failing (graph, edit-script) pair under ``predicate``.

    Shrinks along both dimensions while the divergence persists: a ddmin
    pass over the flattened edit list first (segment structure preserved --
    an emptied update call stays an update call until a final cleanup pass
    proves the failure survives dropping it), then vertex blocks of the
    base graph with the surviving edits remapped through the subgraph
    relabeling (edits touching a dropped vertex are dropped; growth
    endpoints ``>= n`` keep their offset past the shrunk vertex count).
    """
    if not predicate(graph, segments):
        return graph, segments
    budget = _PredicateBudget(max_checks)
    n_segments = len(segments)

    # Pass 1: the edit list.
    items = [
        (k, op, int(u), int(v))
        for k, (added, removed) in enumerate(segments)
        for op, pairs in (("remove", removed), ("add", added))
        for u, v in pairs
    ]

    def rebuild_items(kept: list):
        return (graph, _segments_from_items(n_segments, kept))

    items = _shrink_pass(
        items, rebuild_items, lambda gs: predicate(*gs), budget
    )
    segments = _segments_from_items(n_segments, items)

    # Pass 2: vertex blocks, with edits remapped through the relabeling.
    def remap_segments(mapping: np.ndarray, sub_n: int) -> tuple:
        relabel = np.full(graph.n, -1, dtype=np.int64)
        relabel[mapping] = np.arange(mapping.size)

        def remap(w: int) -> int | None:
            if w >= graph.n:
                return sub_n + (w - graph.n)
            new = int(relabel[w])
            return None if new < 0 else new

        out = []
        for added, removed in segments:
            new_added = []
            new_removed = []
            for pairs, dest in ((added, new_added), (removed, new_removed)):
                for u, v in pairs:
                    nu, nv = remap(u), remap(v)
                    if nu is not None and nv is not None:
                        dest.append((nu, nv))
            out.append((tuple(new_added), tuple(new_removed)))
        return tuple(out)

    def rebuild_vertices(keep: list):
        if not keep:
            return None
        sub, mapping = graph.subgraph(keep)
        return (sub, remap_segments(mapping, sub.n))

    kept = _shrink_pass(
        list(range(graph.n)), rebuild_vertices, lambda gs: predicate(*gs), budget
    )
    if len(kept) < graph.n:
        sub, mapping = graph.subgraph(kept)
        graph, segments = sub, remap_segments(mapping, sub.n)

    # Cleanup: drop emptied update calls if the failure survives.
    compact = tuple(seg for seg in segments if seg[0] or seg[1])
    if len(compact) < len(segments) and budget.spend() and predicate(graph, compact):
        segments = compact
    return graph, segments


def _edit_check_runner(config: ExecutionConfig):
    """The per-config edit-identity check, honouring the config's axes."""
    kernel = config.axes.get("kernel", "adaptive")
    batch = config.axes.get("batch", 1)
    telemetry = bool(config.axes.get("telemetry", False))

    def run(graph: Graph, segments, sources) -> str | None:
        if telemetry:
            from repro.obs import telemetry as obs_telemetry
            from repro.obs.telemetry import RunTelemetry

            tel = RunTelemetry(trace=True)
            obs_telemetry.activate(tel)
            try:
                return check_incremental_edit_identity(
                    graph, segments, algorithm=kernel, batch_size=batch,
                    sources=sources,
                )
            finally:
                if tel.tracer is not None:
                    tel.tracer.finish()
                obs_telemetry.deactivate()
        return check_incremental_edit_identity(
            graph, segments, algorithm=kernel, batch_size=batch, sources=sources,
        )

    return run


def _check_edit_config(
    case: EditScriptCase,
    config: ExecutionConfig,
    shrink: bool,
) -> Divergence | None:
    graph, segments, srcs = case.graph, case.segments, case.sources
    check = _edit_check_runner(config)
    try:
        err = check(graph, segments, srcs)
    except Exception as exc:
        counter, counter_segments = graph, segments
        if shrink:
            exc_type = type(exc)

            def raises_same(g: Graph, segs) -> bool:
                try:
                    check(g, segs, _predicate_sources(g))
                except exc_type:
                    return True
                except Exception:
                    return False
                return False

            counter, counter_segments = shrink_edit_counterexample(
                graph, segments, raises_same
            )
        return Divergence(
            case=case.recipe, config=config.name, kind="exception",
            detail=traceback.format_exception_only(exc)[-1].strip(),
            counterexample=_edit_counterexample_dict(
                counter, counter_segments, None
            ),
        )
    if err is None:
        return None

    counter, counter_segments, counter_srcs = graph, segments, srcs
    if shrink:
        def still_fails(g: Graph, segs) -> bool:
            try:
                return check(g, segs, _predicate_sources(g)) is not None
            except Exception:
                return True

        counter, counter_segments = shrink_edit_counterexample(
            graph, segments, still_fails
        )
        if counter is not graph:
            counter_srcs = _predicate_sources(counter)
    return Divergence(
        case=case.recipe, config=config.name, kind="edit-mismatch",
        detail=err,
        counterexample=_edit_counterexample_dict(
            counter, counter_segments, counter_srcs
        ),
    )


def run_edit_conformance(
    configs: Sequence[ExecutionConfig] | None = None,
    *,
    seed: int = 0,
    budget: int = 100,
    time_limit_s: float | None = None,
    shrink: bool = True,
    cases: Iterable[EditScriptCase] | None = None,
    progress: Callable[[str], None] | None = None,
) -> ConformanceReport:
    """Fuzz ``budget`` edit scripts through every dynamic configuration.

    The edit-script analogue of :func:`run_conformance`: every case is a
    (graph, segmented edit script) pair, every config is a kernel/batch
    combination, and the check is :func:`check_incremental_edit_identity`
    (structure differential + bit-identity + accounting).  Divergences are
    shrunk along both the edit list and the graph.
    """
    configs = list(dynamic_configs() if configs is None else configs)
    report = ConformanceReport(
        seed=seed, budget=budget, configs=[c.name for c in configs]
    )
    t0 = time.perf_counter()
    say = progress or (lambda msg: None)
    case_stream = EditScriptFuzzer(seed).cases(budget) if cases is None else cases

    for case in case_stream:
        if time_limit_s is not None and time.perf_counter() - t0 > time_limit_s:
            report.stopped_early = True
            break
        report.cases_run += 1

        fmt_errors = format_coherence_report(case.graph)
        report.checks_run += 1
        if fmt_errors:
            for err in fmt_errors:
                report.divergences.append(Divergence(
                    case=case.recipe, config="-", kind="format", detail=err,
                    counterexample=_edit_counterexample_dict(
                        case.graph, case.segments, case.sources
                    ),
                ))
            continue

        for config in configs:
            report.checks_run += 1
            div = _check_edit_config(case, config, shrink)
            if div is not None:
                say(f"edit divergence: {config.name} on case {case.index} "
                    f"({case.recipe})")
                report.divergences.append(div)

    report.elapsed_s = time.perf_counter() - t0
    return report
