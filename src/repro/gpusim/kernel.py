"""Kernel launch records and the timing model.

A simulated kernel does two things: it computes its result with vectorised
NumPy, and it reports a :class:`KernelStats` describing what the equivalent
CUDA kernel would have done -- warp cycles (divergence-aware), DRAM traffic
(transaction-exact) and SM-side requested load bytes.  The device turns the
stats into a :class:`KernelLaunch` with the canonical bulk-parallel timing
model::

    time = max(compute_time, memory_time) + launch_overhead

    compute_time = warp_cycles / (SMs * schedulers_per_SM * clock)
    memory_time  = dram_bytes  / peak_DRAM_bandwidth

This is the roofline abstraction: a kernel is either issue-bound (divergence
shows up here) or bandwidth-bound (coalescing shows up here).  The GLT
profiler metric of the paper's Figure 5b is ``requested_load_bytes / time``
-- requested bytes count each lane's load, so cache hits and broadcasts can
push GLT *above* DRAM bandwidth, exactly as nvprof reports for TurboBC.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gpusim.errors import InvalidKernelError


@dataclass
class KernelStats:
    """What a kernel did, in hardware-visible units.

    Attributes
    ----------
    name:
        Kernel identity, e.g. ``"sccsc_spmm"``; the profiler aggregates by it.
    threads:
        Launched thread count.
    warp_cycles:
        Total issue cycles summed over warps, *including* divergence stalls.
    dram_read_bytes / dram_write_bytes:
        DRAM traffic after coalescing (transactions x 32 B).
    requested_load_bytes:
        Bytes requested by lanes before coalescing/caching -- the numerator
        of the GLT metric.
    serial_updates:
        Length of the same-address atomic chain: the maximum number of
        atomic updates any single location receives.  The memory system
        serialises these, so they floor the kernel's latency no matter the
        parallelism -- the dominant cost on hub graphs (mawi traces).
    critical_warp_cycles:
        Cycles of the single slowest warp (divergence critical path): a
        kernel cannot retire before its longest warp does, which is what
        kills thread-per-column kernels on hub columns.
    flops:
        Arithmetic operations (informational).
    mma_ops:
        16x16x16 matrix-multiply-accumulate operations issued to the MMA
        pipe (tensor-core kernels only).  Each op performs
        ``MMA_FLOPS_PER_OP`` dense flops regardless of how many are useful;
        the ratio ``flops / (mma_ops * MMA_FLOPS_PER_OP / 2)`` is the
        tile-fill occupancy the counters report.
    """

    name: str
    threads: int = 0
    warp_cycles: int = 0
    dram_read_bytes: int = 0
    dram_write_bytes: int = 0
    requested_load_bytes: int = 0
    serial_updates: int = 0
    critical_warp_cycles: int = 0
    flops: int = 0
    mma_ops: int = 0

    def __post_init__(self):
        for attr in (
            "threads",
            "warp_cycles",
            "dram_read_bytes",
            "dram_write_bytes",
            "requested_load_bytes",
            "serial_updates",
            "critical_warp_cycles",
            "flops",
            "mma_ops",
        ):
            if getattr(self, attr) < 0:
                raise InvalidKernelError(f"{self.name}: {attr} must be non-negative")

    @property
    def dram_bytes(self) -> int:
        return self.dram_read_bytes + self.dram_write_bytes

    def merge(self, other: "KernelStats") -> "KernelStats":
        """Combine stats of two kernels fused into one launch."""
        return KernelStats(
            name=self.name,
            threads=max(self.threads, other.threads),
            warp_cycles=self.warp_cycles + other.warp_cycles,
            dram_read_bytes=self.dram_read_bytes + other.dram_read_bytes,
            dram_write_bytes=self.dram_write_bytes + other.dram_write_bytes,
            requested_load_bytes=self.requested_load_bytes + other.requested_load_bytes,
            serial_updates=max(self.serial_updates, other.serial_updates),
            critical_warp_cycles=max(self.critical_warp_cycles, other.critical_warp_cycles),
            flops=self.flops + other.flops,
            mma_ops=self.mma_ops + other.mma_ops,
        )


@dataclass(frozen=True)
class KernelLaunch:
    """A timed kernel execution, as recorded by the profiler."""

    stats: KernelStats
    compute_time_s: float
    memory_time_s: float
    overhead_s: float
    serial_time_s: float = 0.0
    #: Time the MMA pipe is busy: ``mma_ops * MMA_FLOPS_PER_OP`` dense flops
    #: against the spec's ``mma_tflops`` ceiling.  A fourth roofline arm --
    #: tensor-core kernels can be MMA-bound while the CUDA cores idle.
    mma_time_s: float = 0.0
    #: Time the inter-device link is busy moving this launch's payload (the
    #: pseudo-launches :class:`~repro.gpusim.link.Link` records).  A fifth
    #: roofline arm: bulk transfers are link-bound, tiny ones latency-bound
    #: (their fixed link latency lands in ``overhead_s``).
    link_time_s: float = 0.0
    tag: str = field(default="", compare=False)

    @property
    def name(self) -> str:
        return self.stats.name

    @property
    def exec_time_s(self) -> float:
        """In-kernel time (excludes launch overhead)."""
        return max(self.compute_time_s, self.memory_time_s, self.serial_time_s,
                   self.mma_time_s, self.link_time_s)

    @property
    def time_s(self) -> float:
        return self.exec_time_s + self.overhead_s

    @property
    def is_memory_bound(self) -> bool:
        return self.memory_time_s >= self.compute_time_s

    @property
    def glt_bytes_per_s(self) -> float:
        """Global-memory Load Throughput: requested load bytes / exec time.

        Zero-duration launches (empty work) report zero throughput.
        """
        t = self.exec_time_s
        if t <= 0.0:
            return 0.0
        return self.stats.requested_load_bytes / t
