"""Device-side state of a TurboBC run.

Owns exactly the arrays of the paper's Figure 4 data flow (TurboBC column):
the single sparse-format copy of the adjacency matrix, the forward-stage
int vectors (``f``, ``ft``, ``sigma``, ``S``), the backward-stage float
vectors (``delta``, ``delta_u``, ``delta_ut``) and the ``bc`` output -- and
enforces the Section 3.4 choreography: the forward vectors are *freed*
before the backward vectors are allocated, so the device peak stays at
``7 n + m`` words for CSC.
"""

from __future__ import annotations

import numpy as np

from repro.core.dispatch import AdaptiveDispatcher, DIRECTIONS, STRATEGY_KERNELS
from repro.formats.coo import COOCMatrix
from repro.formats.csc import CSCMatrix
from repro.gpusim.device import Device
from repro.gpusim.kernel import KernelLaunch
from repro.gpusim.memory import DeviceArena
from repro.obs import telemetry as obs
from repro.spmv._spmm import gather_product, scatter_product
from repro.spmv import (
    pullcsc_spmm,
    pullcsc_spmm_scatter,
    sccooc_spmm,
    sccooc_spmm_scatter,
    sccsc_spmm,
    sccsc_spmm_scatter,
    tcspmm_spmm,
    tcspmm_spmm_scatter,
    veccsc_spmm,
    veccsc_spmm_scatter,
)

#: Kernel name -> (storage format attribute, mask fused into the SpMV?)
#: ``adaptive`` stores CSC (the paper's ``7n + m`` discipline) and re-picks
#: the kernel strategy every level; its thread-per-edge strategy runs over
#: CSC via :mod:`repro.spmv.edgecsc`, so the mask stays fused.  ``pullcsc``
#: (bottom-up) and ``tcspmm`` (blocked tensor-core) are first-class static
#: algorithms too -- all over the same stored CSC.
ALGORITHMS = {
    "sccooc": ("cooc", False),
    "sccsc": ("csc", True),
    "veccsc": ("csc", True),
    "pullcsc": ("csc", True),
    "tcspmm": ("csc", True),
    "adaptive": ("csc", True),
}

#: Static CSC algorithm -> kernel function, per product shape (the
#: ``sccooc`` algorithm runs over the COOC format and keeps its own
#: branches below).
_STATIC_SPMM = {
    "sccsc": sccsc_spmm,
    "veccsc": veccsc_spmm,
    "pullcsc": pullcsc_spmm,
    "tcspmm": tcspmm_spmm,
}
_STATIC_SPMM_SCATTER = {
    "sccsc": sccsc_spmm_scatter,
    "veccsc": veccsc_spmm_scatter,
    "pullcsc": pullcsc_spmm_scatter,
    "tcspmm": tcspmm_spmm_scatter,
}


#: Device-array names of the per-source working set: the paper's vector
#: names at ``B = 1``, capitalised for the ``(n, B)`` matrices of a batch.
_MATRIX_NAMES = {k: k for k in ("F", "Ft", "Sigma", "Delta", "Delta_u", "Delta_ut")}
_VECTOR_NAMES = {k: k.lower() for k in _MATRIX_NAMES}


class TurboBCContext:
    """Transfers the graph once and manages the per-source vector arrays."""

    def __init__(
        self,
        device: Device,
        graph,
        algorithm: str,
        *,
        forward_dtype=np.int32,
        backward_dtype=np.float32,
        direction: str = "auto",
    ):
        if algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {algorithm!r}; expected one of {sorted(ALGORITHMS)}"
            )
        if direction not in DIRECTIONS:
            raise ValueError(
                f"unknown direction {direction!r}; expected one of {DIRECTIONS}"
            )
        if direction != "auto" and algorithm != "adaptive":
            raise ValueError(
                "direction forcing requires algorithm='adaptive' "
                f"(got algorithm={algorithm!r}, direction={direction!r})"
            )
        self.device = device
        self.graph = graph
        self.algorithm = algorithm
        self.forward_dtype = np.dtype(forward_dtype)
        self.backward_dtype = np.dtype(backward_dtype)
        self.mask_fused = ALGORITHMS[algorithm][1]

        fmt = ALGORITHMS[algorithm][0]
        mem = device.memory
        if fmt == "cooc":
            self.matrix: COOCMatrix | CSCMatrix = graph.to_cooc()
            self._mat_arrays = [
                mem.h2d("row_A", self.matrix.row),
                mem.h2d("col_A", self.matrix.col),
            ]
        else:
            self.matrix = graph.to_csc()
            self._mat_arrays = [
                mem.h2d("CP_A", self.matrix.col_ptr),
                mem.h2d("row_A", self.matrix.row),
            ]
        self.bc_arr = mem.alloc("bc", graph.n, self.backward_dtype)
        # per-source arrays, carved from the run's arena slab
        self._forward_arrs: list = []
        self._backward_arrs: list = []
        self._arena: DeviceArena | None = None
        #: Per-level kernel chooser; only set for ``algorithm="adaptive"``.
        self.dispatcher: AdaptiveDispatcher | None = (
            AdaptiveDispatcher(self.matrix, device.spec, direction=direction,
                               scatter_backward=graph.directed)
            if algorithm == "adaptive"
            else None
        )

    # -- per-source array lifecycle -------------------------------------------
    #
    # All per-source arrays are carved from a per-run DeviceArena slab
    # (DESIGN.md §10): one device allocation sized to the per-source peak
    # serves every source/batch of the run, so the allocator sees zero
    # alloc/free traffic after the first source.  The slab is
    # max(forward chunk, backward chunk) bytes -- exactly the old per-phase
    # maximum, so the run peak (and the paper's 7n + 1 + m accounting) is
    # byte-identical to per-source allocation.

    def _ensure_arena(self, batch: int) -> DeviceArena:
        if self._arena is None:
            n = self.graph.n
            fwd = self.forward_dtype.itemsize
            bwd = self.backward_dtype.itemsize
            forward_chunk = batch * n * (3 * fwd + 4)        # f, ft, sigma + S
            backward_chunk = batch * n * (fwd + 4 + 3 * bwd)  # sigma, S + deltas
            self._arena = DeviceArena(
                self.device.memory, max(forward_chunk, backward_chunk)
            )
        return self._arena

    def alloc_forward_batch(self, batch: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Allocate ``F``/``Ft`` (int), ``Sigma`` (int), ``S`` (int32) as
        ``(n, B)`` matrices, one lane per source.

        Row-major layout keeps each vertex's B lane values contiguous -- the
        B-wide coalesced loads the SpMM cost model charges for.  Returns the
        backing arrays for (Sigma, S, F); ``Ft`` lives inside the SpMM call
        (the simulator charges the allocation; the CUDA code holds ``Ft`` as
        a separate device array, so it is allocated here too).
        """
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        n = self.graph.n
        arena = self._ensure_arena(batch)
        names = _VECTOR_NAMES if batch == 1 else _MATRIX_NAMES
        self._forward_arrs = [
            arena.carve(names["F"], (n, batch), self.forward_dtype),
            arena.carve(names["Ft"], (n, batch), self.forward_dtype),
            arena.carve(names["Sigma"], (n, batch), self.forward_dtype),
            arena.carve("S", (n, batch), np.int32),
        ]
        f, _ft, sigma, S = self._forward_arrs
        return sigma.data, S.data, f.data

    def swap_to_backward_batch(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Free ``F``/``Ft`` and allocate the float dependency matrices.

        This is the Section 3.4 memory optimization: the int frontier
        arrays never coexist with all three float dependency arrays.  The
        batched peak -- matrix + ``bc`` + ``Sigma`` + ``S`` + three delta
        matrices -- is the ``5nB + 2n + 1 + m`` words of the batched
        footprint model (``7n + 1 + m`` at ``B = 1``).  Returns the (Delta,
        Delta_u, Delta_ut) backing arrays; ``Sigma`` and ``S`` survive the
        swap (the backward stage reads them).
        """
        arena = self._arena
        f, ft, sigma, S = self._forward_arrs
        arena.release(f)
        arena.release(ft)
        self._forward_arrs = [sigma, S]
        shape = sigma.shape
        names = _VECTOR_NAMES if shape[1] == 1 else _MATRIX_NAMES
        self._backward_arrs = [
            arena.carve(names[name], shape, self.backward_dtype)
            for name in ("Delta", "Delta_u", "Delta_ut")
        ]
        return tuple(a.data for a in self._backward_arrs)

    def release_source(self) -> None:
        """Release every per-source array back to the arena, keeping
        matrix + ``bc`` (and the arena slab, for the next source)."""
        for arr in self._forward_arrs + self._backward_arrs:
            if not arr.is_freed:
                self._arena.release(arr)
        self._forward_arrs = []
        self._backward_arrs = []

    def _record_arena_metrics(self) -> None:
        tel = obs.get_telemetry()
        if tel is not None and tel.metrics is not None and self._arena is not None:
            tel.metrics.counter("arena_carves").inc(self._arena.carves)
            tel.metrics.counter("arena_reuses").inc(self._arena.reuses)
            if self._arena.fallback_oversized:
                tel.metrics.counter("arena_fallbacks", reason="oversized").inc(
                    self._arena.fallback_oversized)
            if self._arena.fallback_fragmented:
                tel.metrics.counter("arena_fallbacks", reason="fragmented").inc(
                    self._arena.fallback_fragmented)

    def abort(self) -> None:
        """Free everything device-side without transferring results."""
        self.release_source()
        self._record_arena_metrics()
        if self._arena is not None:
            self._arena.destroy()
        mem = self.device.memory
        for arr in [self.bc_arr, *self._mat_arrays]:
            if not arr.is_freed:
                mem.free(arr)

    def close(self) -> np.ndarray:
        """Transfer ``bc`` back and free everything device-side."""
        bc = self.device.memory.d2h(self.bc_arr)
        self.release_source()
        self._record_arena_metrics()
        if self._arena is not None:
            self._arena.destroy()
        self.device.memory.free(self.bc_arr)
        for arr in self._mat_arrays:
            self.device.memory.free(arr)
        return bc

    # -- adaptive launch + dispatch audit -------------------------------------

    def _adaptive_launch(self, kernel: str, x, *, allowed=None, scatter=False, tag=""):
        """Launch the chosen adaptive strategy and record its measured time.

        The product is computed once (the numerics are every kernel's), and
        the chosen kernel's cost formula prices its exact profile.  Under
        ``RunTelemetry(audit_dispatch=True)`` the *unchosen* candidates'
        exact profiles are filled from the same product and timed on the
        device's model without being recorded, so every decision ends up
        with all candidates' measured times and obs/audit.py can report
        regret; the run's launches, modeled times and metrics are untouched.
        """
        csc, device = self.matrix, self.device
        p = scatter_product(csc, x) if scatter else gather_product(csc, x, allowed)
        l2 = device.spec.l2_bytes

        def stats(k):
            kernel = STRATEGY_KERNELS[k]
            return kernel.cost(kernel.profile(csc, p, l2), device.spec)

        launch = device.launch(stats(kernel), tag=tag)
        self.dispatcher.record_measured(kernel, launch)
        tel = obs.get_telemetry()
        if tel is not None and tel.audit_dispatch:
            # only the candidates the decision priced: a forced direction
            # narrows the set, and regret is measured against it
            for other in self.dispatcher.last.est_us:
                if other != kernel:
                    self.dispatcher.record_measured(other, device.model(stats(other)))
        return p.Y, launch

    # -- SpMM dispatch --------------------------------------------------------

    def spmm_forward(
        self, X: np.ndarray, Sigma: np.ndarray, active: np.ndarray, *, tag: str = ""
    ) -> tuple[np.ndarray, KernelLaunch]:
        """The line-19 product ``Ft = A^T F`` over all batch lanes.

        CSC kernels fuse the per-(column, lane) ``sigma == 0`` mask ANDed
        with the lane-active bitmap, so drained lanes cost nothing; the COOC
        kernel is unmasked (drained lanes have all-zero frontier columns).
        """
        if self.algorithm == "sccooc":
            return sccooc_spmm(self.device, self.matrix, X, tag=tag)
        allowed = (Sigma == 0) & active[None, :]
        if self.algorithm == "adaptive":
            kernel = self.dispatcher.choose_forward_batch(X, allowed)
            return self._adaptive_launch(kernel, X, allowed=allowed, tag=tag)
        return _STATIC_SPMM[self.algorithm](
            self.device, self.matrix, X, allowed=allowed, tag=tag
        )

    def spmm_backward(self, X: np.ndarray, *, tag: str = "") -> tuple[np.ndarray, KernelLaunch]:
        """The line-37 product over all batch lanes.

        Undirected graphs reuse the gather kernel (A is symmetric); digraphs
        need dependencies to flow against edge direction, i.e. ``A X``,
        served by the scatter variant of the *same* stored format (the
        paper's single-format discipline is preserved -- see DESIGN.md on
        this pseudocode correction).
        """
        if self.algorithm == "adaptive":
            kernel = self.dispatcher.choose_backward_batch(X)
            return self._adaptive_launch(kernel, X, scatter=self.graph.directed, tag=tag)
        if self.graph.directed:
            if self.algorithm == "sccooc":
                return sccooc_spmm_scatter(self.device, self.matrix, X, tag=tag)
            return _STATIC_SPMM_SCATTER[self.algorithm](
                self.device, self.matrix, X, tag=tag
            )
        if self.algorithm == "sccooc":
            return sccooc_spmm(self.device, self.matrix, X, tag=tag)
        return _STATIC_SPMM[self.algorithm](self.device, self.matrix, X, tag=tag)

    # The benchmark's traced run wraps these two names (perfbench/spans.py);
    # they are the B = 1 spelling of the products above.
    spmv_forward = spmm_forward
    spmv_backward = spmm_backward
