"""The backward (dependency-accumulation) stage of Algorithm 1, lines 31-42.

Walks the BFS levels in reverse, applying the Brandes recurrence (Eq. 4)
with three kernel launches per level (the Figure 2 pipeline): build
``delta_u`` from the depth-d slice, one SpMV (an SpMM over the batch's
``n x B`` matrices), then fold the weighted result into ``delta`` on the
depth-(d-1) slice.
"""

from __future__ import annotations

import numpy as np

from repro.core import frontier as FK
from repro.core.context import TurboBCContext
from repro.core.result import BatchedBFSResult, BFSResult
from repro.obs import telemetry as obs


def accumulate_dependencies_batch(ctx: TurboBCContext, fwd: BatchedBFSResult) -> np.ndarray:
    """Batched backward stage: the Brandes recurrence on ``(n, B)`` matrices.

    Walks from the *deepest* lane's level down to 2; a lane whose BFS tree
    is shorter selects no vertices at the deeper levels (its ``S`` column
    never holds them), so its delta column stays exactly zero until the walk
    reaches its own depth -- from where it proceeds identically to a
    ``B = 1`` run of the lane's source.  The forward stage's ``Sigma`` and
    ``S`` are read in place.
    """
    with obs.span("backward", sources=fwd.sources, batch=fwd.batch_size, phase="backward"):
        Delta, _Delta_u, _Delta_ut = ctx.swap_to_backward_batch()
        Sigma = fwd.sigma
        S = fwd.levels
        depth = fwd.depth
        while depth > 1:
            tag = f"d={depth}"
            with obs.span("level", depth=depth) as sp:
                Delta_u, _ = FK.delta_u_batch_kernel(
                    ctx.device, S, Sigma, Delta, depth, tag=tag
                )
                Delta_ut, _ = ctx.spmm_backward(
                    Delta_u.astype(ctx.backward_dtype, copy=False), tag=tag
                )
                if ctx.dispatcher is not None:
                    sp.set(**ctx.dispatcher.last.span_attrs())
                FK.delta_update_batch_kernel(
                    ctx.device, S, Sigma, Delta, Delta_ut, depth, tag=tag
                )
            depth -= 1
    return Delta


def accumulate_dependencies(ctx: TurboBCContext, fwd: BFSResult) -> np.ndarray:
    """The backward stage of one source's forward result: the ``B = 1``
    batch.  Returns the ``delta`` vector."""
    batch = BatchedBFSResult(
        sources=[fwd.source], sigma=fwd.sigma[:, None], levels=fwd.levels[:, None],
        depths=[fwd.depth], frontier_sizes=[fwd.frontier_sizes],
        overflowed=np.zeros(1, dtype=bool),
    )
    return accumulate_dependencies_batch(ctx, batch)[:, 0]
