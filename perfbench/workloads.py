"""The benchmark's workloads: seeded inputs plus the public call each one times.

Every workload runs on one of the paper-suite stand-in graphs of
:mod:`repro.graphs.suite`, generated afresh from the suite's own fixed seed,
and ``--seed`` draws the source sample.  The program under test only ever
receives the generated graph and the sources.  The graph seed stays fixed
because it, not the sources, moves the modeled time most: with the seed also
driving the generator, the deep Jacobian's modeled time spread 25% (quartile
distance over median, 8 seeds) against 2.5% with the suite graph.

``tiny=True`` swaps in a few-thousand-vertex graph of the same generator and
shape for the smoke test; algorithms, batch widths and source counts stay.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import repro.core.bc as core_bc
import repro.core.multigpu as core_multigpu
from repro import obs
from repro.graphs.generators.jacobian import mark3jac_like
from repro.graphs.generators.mawi import traffic_trace_graph
from repro.graphs.generators.smallworld import small_world_graph
from repro.graphs.suite import SUITE
from repro.gpusim.device import Device


def draw_stratified(graph, n_sources: int, seed: int) -> list[int]:
    """One source drawn uniformly from each of ``n_sources`` equal id ranges.

    The stratified draw keeps the sample spread over the whole graph, so the
    modeled time moves little from seed to seed on graphs whose BFS depth
    depends on where the source sits (the banded Jacobians).
    """
    rng = np.random.default_rng(seed)
    edges = np.linspace(0, graph.n, n_sources + 1).astype(np.int64)
    return [int(rng.integers(lo, hi)) for lo, hi in zip(edges[:-1], edges[1:])]


def draw_leaves(graph, n_sources: int, seed: int) -> list[int]:
    """Sources drawn from the degree-1 vertices (leaf hosts), stratified by
    the degree of the vertex each hangs off.

    On the traffic-trace graph three vertices in four are leaves, and a BFS
    from any of them runs to about the same depth; its modeled cost still
    depends on which hub the leaf hangs off.  The leaves are ordered by that
    neighbour's degree and one source is drawn from each of ``n_sources``
    equal parts of the order.  With two sources and 10 seeds, the modeled
    time spread 9.5% (quartile distance over median) this way, 16% with a
    uniform draw over the leaves, and 17% (5 seeds) with a draw over all
    vertices, which also lands in the deeper flow chains.
    """
    rng = np.random.default_rng(seed)
    degree = np.bincount(graph.src, minlength=graph.n)
    leaves = np.flatnonzero(degree == 1)
    neighbour = np.zeros(graph.n, dtype=np.int64)
    neighbour[graph.src] = graph.dst        # exact for degree-1 vertices
    order = leaves[np.argsort(degree[neighbour[leaves]], kind="stable")]
    return sorted(int(rng.choice(part)) for part in np.array_split(order, n_sources))


@dataclass(frozen=True)
class Workload:
    name: str
    #: One line: why this workload is in the benchmark.
    why: str
    #: The paper-suite graph whose stand-in the workload runs on.
    graph: str
    #: A few-thousand-vertex graph of the same generator, for the smoke test.
    tiny: Callable
    n_sources: int
    #: ``(graph, sources, scratch_dir) -> (BCResult, devices, MultiGpuStats | None)``;
    #: ``devices`` are the simulated GPUs whose profilers saw the run.
    call: Callable
    #: Sources of the set-up's warm-up call: the fewest that take the
    #: workload's execution path (a batched run needs two).
    warmup: int = 1
    #: ``(graph, n_sources, seed) -> sorted sources``.
    draw: Callable = draw_stratified

    def sources(self, graph, seed: int) -> list[int]:
        return self.draw(graph, self.n_sources, seed)

    def build(self, tiny: bool = False):
        """A freshly generated graph (the suite's ``build`` would hand back a
        cached one)."""
        return self.tiny() if tiny else SUITE[self.graph].factory()


def _single_device(**kwargs):
    def call(graph, sources, scratch_dir):
        device = Device()
        result = core_bc.turbo_bc(graph, sources=sources, device=device, **kwargs)
        return result, [device], None
    return call


def _observed_multigpu(graph, sources, scratch_dir: Path):
    with obs.session(ledger=scratch_dir / "ledger.jsonl"):
        result, mg = core_multigpu.multi_gpu_bc(
            graph, n_devices=4, scheduler="cost", sources=sources,
            algorithm="adaptive", batch_size=1,
        )
    return result, [d for d in mg.devices if d is not None], mg


WORKLOADS = {
    w.name: w for w in [
        Workload(
            "hub-adaptive",
            "irregular hub graph with shallow huge frontiers: the pull arm fires and the "
            "kernel cost model plus the dispatcher carry the most host time",
            "mawi_201512012345", lambda: traffic_trace_graph(4_000, seed=0), 2,
            _single_device(algorithm="adaptive", batch_size=1), draw=draw_leaves,
        ),
        Workload(
            "regular-batched",
            "regular small-world graph on the B=16 SpMM path, where segment sums "
            "dominate host time and dense n x B host arrays set the memory peak",
            "smallworld", lambda: small_world_graph(4_000, k=10, rewire_p=0.08, seed=11), 16,
            _single_device(algorithm="adaptive", batch_size=16), warmup=2,
        ),
        Workload(
            "deep-static",
            "the paper's per-source scCSC pipeline on a deep directed Jacobian: "
            "levels, launches and the scatter backward kernels dominate",
            "mark3jac060sc", lambda: mark3jac_like(2_000, seed=28_000), 16,
            _single_device(algorithm="sccsc", batch_size=1),
        ),
        Workload(
            "deep-multigpu-observed",
            "4-device cost-scheduled run under a telemetry session with a ledger: the only "
            "workload that runs core.schedule, the multi-GPU fold, gpusim.link and obs",
            "mark3jac060sc", lambda: mark3jac_like(2_000, seed=28_000), 24,
            _observed_multigpu,
        ),
    ]
}
