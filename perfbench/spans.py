"""Spans for the benchmark's traced run, recorded from the benchmark's own files.

:func:`traced` replaces the public functions and methods of each layer
(``LAYERS``) with wrappers that record a :class:`Span` per call and puts
every original back on exit.  A module-level function is also replaced
under every other ``repro`` module that imported it by name, so a call
through ``from x import f`` is seen too.  Spans stay in memory; the caller
writes them out once, when the run ends.

A span's self time is its duration minus the time its direct children
cover.  Calls are single-threaded and properly nested, so children never
overlap and the self times of all spans inside one root add up to the
root's duration.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from dataclasses import dataclass, field
from types import ModuleType

import numpy as np


@dataclass
class Span:
    name: str
    fn: str
    run_id: str
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration_s - self.child_s

    def to_dict(self) -> dict:
        return {
            "name": self.name, "fn": self.fn, "run_id": self.run_id,
            "parent": self.parent, "start": self.start, "end": self.end,
            "self_s": self.self_s, **self.attrs,
        }


class Tracer:
    """An in-memory span recorder; ``run_id`` tags the spans of one call."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.run_id = ""
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name: str, fn: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, fn, self.run_id, parent, self.clock())
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration_s

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """A span around the benchmark's own code (graph build, one call)."""
        span = self._open(name, name)
        span.attrs.update(attrs)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` recording a span named ``name`` per call.

        ``before(args, kwargs) -> dict`` runs ahead of the span's clock and
        ``after(span, args, kwargs, result)`` after it stops.  Their time is
        tracing overhead: it counts as covered in the enclosing span, so no
        layer's self time includes it.
        """
        tracer = self

        def hook(f, *args):
            t0 = tracer.clock()
            out = f(*args)
            if tracer._stack:
                tracer.spans[tracer._stack[-1]].child_s += tracer.clock() - t0
            return out

        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            attrs = hook(before, args, kwargs) if before is not None else None
            span = tracer._open(name, fn.__qualname__)
            if attrs:
                span.attrs.update(attrs)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                tracer._close(span)
                if after is not None:
                    hook(after, span, args, kwargs, exc)
                raise
            tracer._close(span)
            if after is not None:
                hook(after, span, args, kwargs, result)
            return result

        return traced_call

    def install(self, name: str, owner, attr: str, before=None, after=None) -> None:
        original = inspect.getattr_static(owner, attr)
        wrapped = self.wrap(name, original, before, after)
        targets = [owner]
        if isinstance(owner, ModuleType):
            targets += [
                mod for key, mod in list(sys.modules.items())
                if key.startswith("repro") and mod is not owner
                and getattr(mod, attr, None) is original
            ]
        for target in targets:
            setattr(target, attr, wrapped)
            self._restore.append((target, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            target, attr, original = self._restore.pop()
            setattr(target, attr, original)


def _public_functions(module: ModuleType) -> list[str]:
    return [
        name for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__
        and not name.startswith("_")
    ]


def _frontier_rows(args, kwargs) -> dict:
    """Useful rows (any non-zero) and scanned rows of an SpMV/SpMM frontier."""
    x = args[1] if len(args) > 1 else kwargs.get("x", kwargs.get("X"))
    nz = np.count_nonzero(x if x.ndim == 1 else x.any(axis=1))
    return {"nnz_rows": int(nz), "rows": int(x.shape[0])}


def _record_choice(span, args, kwargs, result) -> None:
    if isinstance(result, str):
        span.attrs["choice"] = result


def _record_reruns(span, args, kwargs, result) -> None:
    """Sources re-run in float64: a batched run lists them in its stats; a
    B=1 int32 attempt that raises makes its caller re-run every source."""
    from repro.core.forward import SigmaOverflowError

    if isinstance(result, SigmaOverflowError):
        sources = kwargs.get("sources")
        span.attrs["reruns"] = 1 if isinstance(sources, int) else len(list(sources))
    elif hasattr(result, "stats"):
        span.attrs["reruns"] = len(result.stats.rerun_sources)


def layers():
    """``(span name, owner, attribute, before, after)`` for every wrapped entry point."""
    import repro.core.backward as backward
    import repro.core.bc as bc
    import repro.core.frontier as frontier
    import repro.core.forward as forward
    import repro.core.multigpu as multigpu
    import repro.core.schedule as schedule
    import repro.gpusim.warp as warp
    import repro.obs.ledger as ledger
    import repro.spmv._spmm as spmm
    from repro.core.context import TurboBCContext
    from repro.core.dispatch import AdaptiveDispatcher
    from repro.formats.csc import CSCMatrix
    from repro.gpusim.device import Device
    from repro.graphs.graph import Graph
    from repro.obs.telemetry import RunTelemetry

    out = [
        ("core.bc", bc, "turbo_bc", None, _record_reruns),
        ("core.multigpu", multigpu, "multi_gpu_bc", None, None),
        ("core.forward", forward, "bfs_forward", None, None),
        ("core.forward", forward, "bfs_forward_batch", None, None),
        ("core.backward", backward, "accumulate_dependencies", None, None),
        ("core.backward", backward, "accumulate_dependencies_batch", None, None),
        ("spmv._spmm.segment_sums", spmm, "segment_sums", None, None),
        ("gpusim.device", Device, "launch", None, None),
        ("gpusim.device", Device, "sync_readback", None, None),
        ("core.schedule.estimate", schedule, "estimate_task_costs", None, None),
        ("core.schedule.place", schedule, "schedule_tasks", None, None),
        ("obs.ledger", ledger, "build_run_record", None, None),
        ("obs.ledger", ledger.Ledger, "append", None, None),
        ("formats.views", Graph, "to_csc", None, None),
        ("formats.views", Graph, "to_cooc", None, None),
        ("formats.views", Graph, "to_csr", None, None),
        ("formats.tile_plan", CSCMatrix, "tile_plan", None, None),
    ]
    out += [
        ("core.context", TurboBCContext, m, _frontier_rows, None)
        for m in ("spmv_forward", "spmv_backward", "spmm_forward", "spmm_backward")
    ]
    out += [
        ("core.dispatch", AdaptiveDispatcher, m, None, _record_choice)
        for m in ("choose_forward", "choose_backward",
                  "choose_forward_batch", "choose_backward_batch")
    ]
    out += [("core.frontier", frontier, f, None, None) for f in _public_functions(frontier)]
    out += [("gpusim.warp", warp, f, None, None) for f in _public_functions(warp)]
    out += [
        ("obs.hooks", RunTelemetry, m, None, None)
        for m in ("on_kernel_launch", "on_memory", "on_oom")
    ]
    return out


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Wrap every layer entry point for the block; restore all originals after."""
    try:
        for name, owner, attr, before, after in layers():
            tracer.install(name, owner, attr, before, after)
        yield tracer
    finally:
        tracer.uninstall()
