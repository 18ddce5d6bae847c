"""The forward (BFS) stage of Algorithm 1, lines 11-28.

Level-synchronous masked-SpMV BFS: each iteration multiplies the frontier
by :math:`A^T`, masks out already-discovered vertices (``sigma != 0``) and
folds the surviving path counts into ``sigma`` while stamping discovery
depths into ``S``.  Two kernel launches per level, exactly as in the
Figure 2 pipeline: the (init+)SpMV kernel and the update kernel.  A batch
of B sources runs as the columns of ``n x B`` matrices through the same
launches (one SpMM per level); one source is the ``B = 1`` batch.

One pseudocode correction (documented in DESIGN.md §2): the printed
Algorithm 1 never clears frontier entries of discovered vertices; the
implemented semantics is ``f <- ft masked to sigma == 0, else 0``, which is
what makes the loop terminate.
"""

from __future__ import annotations

import numpy as np

from repro.core import frontier as FK
from repro.core.context import TurboBCContext
from repro.core.result import BatchedBFSResult, BFSResult
from repro.obs import telemetry as obs


class SigmaOverflowError(RuntimeError):
    """Shortest-path counts overflowed the forward integer dtype.

    The CUDA implementation stores ``sigma`` in int32 (Section 3.4); graphs
    with combinatorially many equal-length paths can exceed it.  Re-run with
    ``forward_dtype=np.int64`` or ``np.float64``.
    """


def bfs_forward_batch(ctx: TurboBCContext, sources) -> BatchedBFSResult:
    """Run the forward stage for a whole batch of sources at once.

    One BFS lane per column of the ``(n, B)`` arrays; each level is a single
    masked SpMM plus one batched update kernel.  The batch runs until every
    lane's frontier has drained (the per-lane convergence bitmap), with
    drained lanes masked out of the SpMM.  Per-lane results are bit-identical
    to a ``B = 1`` run of the lane's source (:func:`bfs_forward`).

    Sigma overflow is reported per lane in the result's ``overflowed``
    bitmap instead of raising -- the driver re-runs only the affected
    sources (or raises, for an explicitly requested integer dtype).
    """
    graph = ctx.graph
    n = graph.n
    src = [int(s) for s in sources]
    B = len(src)
    if B < 1:
        raise ValueError("sources batch must be non-empty")
    for s in src:
        if not 0 <= s < n:
            raise ValueError(f"source {s} out of range for n = {n}")
    Sigma, S, F = ctx.alloc_forward_batch(B)

    lanes = np.arange(B)
    tel = obs.get_telemetry()
    with obs.span("forward", sources=src, batch=B, phase="forward"):
        F[src, lanes] = 1
        Sigma[src, lanes] = 1
        FK.init_sources_kernel(ctx.device, n, B, tag="d=1")

        active = np.ones(B, dtype=bool)
        depths = np.zeros(B, dtype=np.int64)
        frontier_sizes: list[list[int]] = [[] for _ in range(B)]
        depth = 0
        while active.any():
            depth += 1
            tag = f"d={depth}"
            with obs.span("level", depth=depth) as sp:
                Ft, _ = ctx.spmm_forward(F, Sigma, active, tag=tag)
                if ctx.dispatcher is not None:
                    sp.set(**ctx.dispatcher.last.span_attrs())
                newF, new_per_lane, _ = FK.frontier_update_batch_kernel(
                    ctx.device, Ft, Sigma, S, depth, masked_spmv=ctx.mask_fused, tag=tag
                )
                F[...] = newF
                # One B-word readback serves the whole batch's convergence bitmap.
                ctx.device.sync_readback(words=B, tag=tag)
                got = new_per_lane > 0
                for j in np.flatnonzero(got):
                    size = int(new_per_lane[j])
                    frontier_sizes[j].append(size)
                    if tel is not None and tel.metrics is not None:
                        tel.metrics.histogram("frontier_size").record(size)
                sp.set(active_lanes=int(got.sum()))
                if got.any():
                    sp.set(**FK.level_density(newF, Sigma))
                depths[got] = depth
                active &= got
        if tel is not None and tel.metrics is not None:
            for d in depths:
                tel.metrics.histogram("bfs_depth").record(int(d))

    if np.issubdtype(Sigma.dtype, np.signedinteger):
        overflowed = (Sigma < 0).any(axis=0)
    else:
        overflowed = ~np.isfinite(Sigma).all(axis=0)
    return BatchedBFSResult(
        sources=src,
        sigma=Sigma,
        levels=S,
        depths=[int(d) for d in depths],
        frontier_sizes=frontier_sizes,
        overflowed=overflowed,
    )


def bfs_forward(ctx: TurboBCContext, source: int) -> BFSResult:
    """The forward stage from one ``source``: the ``B = 1`` batch.

    Returns the lane as a host-side :class:`BFSResult`; raises
    :class:`SigmaOverflowError` if its sigma overflowed the forward dtype.
    """
    fwd = bfs_forward_batch(ctx, [source])
    if fwd.overflowed[0]:
        raise SigmaOverflowError(
            f"sigma overflowed dtype {fwd.sigma.dtype} during BFS from {source}"
        )
    return fwd.lane(0)
