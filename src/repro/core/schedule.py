"""Communication-aware task scheduling for multi-GPU source partitioning.

The multi-GPU driver decomposes a BC run into *tasks* -- contiguous chunks
of the canonical source list, one SpMM batch each -- and places them on
simulated devices.  The static deal it replaces (``src_list[k::n]``) is
blind to per-source cost: sources in a large component traverse thousands
of edges over many levels while sources in a fragment finish in one, and a
round-robin deal can pile every expensive source onto one device.

This module supplies the placement.  Per-task costs are the kernels' own
cost formulas, priced as the adaptive dispatcher prices a level
(:meth:`~repro.core.dispatch.AdaptiveDispatcher.price`) over
:class:`~repro.core.dispatch.LevelStats` filled from cheap per-component
signals: a weak-components pass (O(n + m)), one multi-source BFS from the
component representatives bounding each component's depth (O(m *
diameter), vectorised), per-component column sums and the component's
share of the tile directory (the tiles whose row and column stripes hold
its vertices).  A source's characteristic level has ``comp_n / levels``
frontier rows and ``comp_m / levels`` active entries against its
component's columns -- every column allowed, every tile active.  A task is
charged ``levels`` steps of a forward product (the masked gather), a
backward one (the unmasked gather, or the scatter on digraphs) and the
fixed per-level launch/readback overhead -- the deep-BFS regime where
overhead dominates falls out of the same terms the roofline attributes it
to.

The scheduler itself is the estee-style list scheduler: tasks in
longest-processing-time order, each placed on the device minimising the
*modeled finish* of the whole run -- concurrent per-device compute plus one
partial-``bc`` transfer per active device, serialised at the host ingest
link.  The transfer term is what makes it communication-aware: a device is
only opened when the compute it absorbs outweighs the extra partial vector
the host must drain.

Everything here is closed-form and deterministic: same graph, sources,
spec and batch always produce the same placement, which is what the
determinism tests and the resumable audit rely on.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.graphs.graph import Graph
from repro.gpusim.device import DeviceSpec
from repro.spmv.tcspmm import stripe_any, tile_stats

#: Placement policies ``multi_gpu_bc`` accepts: the communication-aware
#: cost-model scheduler, and the static deal it replaced (kept as the
#: audit baseline and for A/B benchmarks).
SCHEDULERS = ("cost", "roundrobin")

#: Kernel launches per traversal level charged as fixed overhead: the SpMV
#: itself, the frontier/mask update, and the element-wise fold, plus the
#: frontier-empty sync readback every level pays.
_LAUNCHES_PER_LEVEL = 3


@dataclass(frozen=True)
class SourceTask:
    """One schedulable unit: a contiguous chunk of the canonical source list.

    Task decomposition depends only on ``(sources, batch)`` -- never on the
    device count or the scheduler -- so per-task partial vectors are
    placement-independent and the host fold reproduces bit-identical ``bc``
    for every configuration.
    """

    index: int
    sources: tuple
    est_cost_s: float


def partition_sources(src_list, batch: int) -> list:
    """Cut the canonical source list into contiguous chunks of ``batch``."""
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    return [
        tuple(int(s) for s in src_list[i : i + batch])
        for i in range(0, len(src_list), batch)
    ]


def _component_stats(graph: Graph):
    """Weak components + per-component size and depth signals.

    Returns ``(labels, comp_n, comp_levels)`` where ``comp_levels`` bounds
    the BFS level count of a traversal inside the component (depth from the
    component representative, plus the root level).  Directed graphs use
    weak connectivity -- forward reachability is a subset, so the estimate
    errs toward the full component, which is the safe direction for load
    balancing.
    """
    n = graph.n
    if n == 0:
        z = np.zeros(0, dtype=np.int64)
        return z, z, z
    from scipy.sparse.csgraph import connected_components

    adj = graph.to_scipy_csc()
    ncomp, labels = connected_components(
        adj, directed=graph.directed, connection="weak"
    )
    comp_n = np.bincount(labels, minlength=ncomp).astype(np.int64)

    # Depth bound: one multi-source BFS from every component representative
    # at once over the undirected adjacency -- O(m) per level, all
    # components in parallel.
    undirected = (adj + adj.T).astype(np.int8).tocsr()
    reps = np.unique(labels, return_index=True)[1]
    visited = np.zeros(n, dtype=bool)
    visited[reps] = True
    frontier = visited.copy()
    level = np.zeros(n, dtype=np.int64)
    depth = 0
    while frontier.any():
        depth += 1
        reached = np.asarray(undirected @ frontier.astype(np.int8)).ravel() > 0
        nxt = reached & ~visited
        if not nxt.any():
            break
        visited |= nxt
        level[nxt] = depth
        frontier = nxt
    comp_depth = np.zeros(ncomp, dtype=np.int64)
    np.maximum.at(comp_depth, labels, level)
    comp_levels = comp_depth + 1  # + the root level
    return labels, comp_n, comp_levels


def estimate_task_costs(
    graph: Graph,
    chunks,
    *,
    spec: DeviceSpec,
    algorithm: str = "sccsc",
    batch: int = 1,
    forward_dtype=np.int32,
) -> list:
    """Closed-form modeled cost per task, priced by the kernels' cost formulas.

    Each task is charged ``traversal levels x (forward + backward product
    + per-level launch/readback overhead of both stages)``, the products
    priced by :meth:`AdaptiveDispatcher.price` at the task's dominant
    component's characteristic level.  ``algorithm`` picks which
    strategy's price to charge; ``"adaptive"`` charges the cheapest
    strategy per product, as the dispatcher would choose.
    """
    if not chunks:
        return []
    from repro.core.dispatch import AdaptiveDispatcher, LevelStats

    csc = graph.to_csc()
    labels, comp_n, comp_levels = _component_stats(graph)
    disp = AdaptiveDispatcher(csc, spec)
    ncomp = comp_n.size
    # per component: column degree, line-fill and strip sums, largest degree
    deg = disp.deg
    comp_cols = np.stack([np.bincount(labels, weights=c, minlength=ncomp)
                          for c in (deg, (deg + 7) >> 3, (deg + 31) >> 5)]).astype(np.int64)
    comp_dmax = np.zeros(ncomp, dtype=np.int64)
    np.maximum.at(comp_dmax, labels, deg)
    per_level_overhead = 2 * (
        _LAUNCHES_PER_LEVEL * spec.kernel_launch_overhead_us * 1e-6
        + spec.sync_readback_us * 1e-6
    )

    def charge(prices: dict) -> float:
        return prices[algorithm] if algorithm in prices else min(prices.values())

    cache: dict = {}  # (component, lanes) -> per-level product cost (s)
    tasks: list[SourceTask] = []
    for idx, chunk in enumerate(chunks):
        comps = labels[np.asarray(chunk, dtype=np.int64)]
        dom = int(comps[int(np.argmax(comp_cols[0][comps]))])
        levels = max(int(comp_levels[comps].max()) - 1, 1)
        lanes = min(max(len(chunk), 1), max(batch, 1))
        key = (dom, lanes)
        per_level = cache.get(key)
        if per_level is None:
            lv = max(int(comp_levels[dom]) - 1, 1)
            cn, nnz_x = int(comp_n[dom]), max(int(comp_n[dom]) // lv, 1)
            cm, lines, strips = (int(v) for v in comp_cols[:, dom])
            stripes = stripe_any(labels == dom)  # its share of the tile directory
            forward = LevelStats(
                scatter=False, masked=True, batch=lanes, dtype=np.dtype(forward_dtype),
                nnz_x=nnz_x, e_active=max(cm // lv, 1), n_proc=cn, slots=cn * lanes,
                s_proc=cm, lines=lines, strips=strips, dmax=int(comp_dmax[dom]),
                tiles=tile_stats(csc, stripes, stripes, "col"))
            if graph.directed:  # the scatter processes the level's active columns,
                # committing along every row stripe
                columns = dict(scatter=True, n_proc=nnz_x, s_proc=max(cm // lv, 1),
                               lines=lines // lv, strips=strips // lv, tiles=tile_stats(
                                   csc, np.ones_like(stripes), stripes, "row"))
            else:               # the unmasked gather processes every column
                columns = dict(n_proc=graph.n, **dict(zip(
                    ("s_proc", "lines", "strips", "dmax"), disp.all_columns)))
            backward = dataclasses.replace(
                forward, masked=False, dtype=np.dtype(np.float32),
                slots=columns["n_proc"] * lanes, **columns)
            per_level = charge(disp.price(forward)) + charge(disp.price(backward))
            cache[key] = per_level
        cost = levels * (per_level + per_level_overhead)
        tasks.append(
            SourceTask(index=idx, sources=tuple(chunk), est_cost_s=float(cost))
        )
    return tasks


def schedule_tasks(
    costs, n_devices: int, scheduler: str = "cost", *, transfer_s: float = 0.0
) -> list:
    """Place tasks on devices; returns ``placements[task] -> device``.

    ``"roundrobin"`` reproduces the static deal (task ``i`` on device ``i
    mod k``).  ``"cost"`` runs the LPT list scheduler against the modeled
    finish time ``max(device loads) + active_devices * transfer_s``: each
    task (longest estimate first) goes to the device minimising the
    resulting makespan, ties to the lowest device index -- which is what
    makes the placement deterministic.
    """
    if scheduler not in SCHEDULERS:
        raise ValueError(
            f"unknown scheduler {scheduler!r}; expected one of {SCHEDULERS}"
        )
    if n_devices < 1:
        raise ValueError(f"n_devices must be >= 1, got {n_devices}")
    n_tasks = len(costs)
    if scheduler == "roundrobin":
        return [i % n_devices for i in range(n_tasks)]
    placements = [0] * n_tasks
    loads = [0.0] * n_devices
    order = sorted(range(n_tasks), key=lambda i: (-costs[i], i))
    for i in order:
        best_d = 0
        best_key = None
        for d in range(n_devices):
            loads[d] += costs[i]
            active = sum(1 for t in loads if t > 0.0)
            key = (max(loads) + active * transfer_s, d)
            loads[d] -= costs[i]
            if best_key is None or key < best_key:
                best_key, best_d = key, d
        placements[i] = best_d
        loads[best_d] += costs[i]
    return placements
