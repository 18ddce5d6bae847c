"""The simulated device: spec, launch bookkeeping, memory, profiler."""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

from repro.gpusim.kernel import KernelLaunch, KernelStats
from repro.gpusim.memory import DeviceMemory
from repro.gpusim.profiler import Profiler
from repro.gpusim.warp import MMA_FLOPS_PER_OP
from repro.obs.telemetry import get_telemetry


@dataclass(frozen=True)
class DeviceSpec:
    """Hardware parameters of the simulated GPU.

    Defaults reproduce the NVIDIA TITAN Xp the paper used (Section 4):
    30 SMs x 128 cores, 1.58 GHz boost clock, 12196 MB global memory.  The
    theoretical GLT ceiling of 575 GB/s quoted by the paper is carried
    explicitly because Figure 5b plots kernels against it.
    """

    name: str = "NVIDIA TITAN Xp (simulated)"
    num_sms: int = 30
    cores_per_sm: int = 128
    warp_size: int = 32
    warp_schedulers_per_sm: int = 4
    clock_ghz: float = 1.58
    global_memory_bytes: int = 12196 * 2**20
    #: L2 capacity; scaled-down suite instances scale this too so the
    #: cache-residency regime of the paper-scale run is preserved (see
    #: DESIGN.md on the scaled-device mode).
    l2_bytes: int = 3 * 2**20
    dram_bandwidth_gbs: float = 547.6
    theoretical_glt_gbs: float = 575.0
    kernel_launch_overhead_us: float = 5.0
    sync_readback_us: float = 28.0
    #: Same-address atomic updates serialise at the L2; ~2.5 ns per update
    #: on Pascal-class parts.
    atomic_serialization_s: float = 2.5e-9
    #: Inter-device interconnect of the multi-GPU extension: the bandwidth
    #: and latency a :class:`~repro.gpusim.link.Link` charges per transfer.
    #: The default models the paper server's PCIe-attached peers (matching
    #: the 11 GB/s effective host-transfer rate the memory model uses);
    #: NVLink-class parts raise ``link_bandwidth_gbs`` to 25+ GB/s.
    link_bandwidth_gbs: float = 11.0
    link_latency_s: float = 10e-6
    #: Peak MMA-pipe throughput in TFLOP/s for the blocked tensor-core
    #: kernels.  The TITAN Xp (Pascal) has no tensor cores; this is a
    #: *simulated* Volta-class extension (V100 tensor peak ~112 TFLOP/s,
    #: half of it modeled as sustainable on this part's 30 SMs) so the
    #: dispatcher and roofline can attribute when a blocked MMA formulation
    #: would beat the warp kernels.  Compare the CUDA-core FMA peak of
    #: ~12 GFLOP/s x 512 = 6.07 TFLOP/s: the MMA pipe is ~9x denser, but
    #: only sparse tiles that are actually occupied make use of it.
    mma_tflops: float = 56.0

    @property
    def warp_issue_rate(self) -> float:
        """Warp-instructions issued per second, device-wide."""
        return self.num_sms * self.warp_schedulers_per_sm * self.clock_ghz * 1e9

    @property
    def max_resident_threads(self) -> int:
        return self.num_sms * 2048


TITAN_XP = DeviceSpec()


def model_launch(stats: KernelStats, spec: DeviceSpec, *, tag: str = "") -> KernelLaunch:
    """The roofline timing of one kernel: a pure function of its stats.

    :meth:`Device.launch` records exactly this (times any injected
    slowdown), and the adaptive dispatcher prices its candidates with it,
    so an estimate is the ``exec_time_s`` the launch would report for the
    same stats.
    """
    # Two latency floors throughput cannot hide: the same-address atomic
    # chain and the slowest warp's own execution.
    serial = max(
        stats.serial_updates * spec.atomic_serialization_s,
        stats.critical_warp_cycles / (spec.clock_ghz * 1e9),
    )
    # The MMA pipe runs concurrently with the CUDA cores; its busy time is a
    # fourth roofline arm (dense flops against the mma_tflops peak).
    mma = (
        stats.mma_ops * MMA_FLOPS_PER_OP / (spec.mma_tflops * 1e12)
        if stats.mma_ops
        else 0.0
    )
    return KernelLaunch(
        stats=stats,
        compute_time_s=stats.warp_cycles / spec.warp_issue_rate,
        memory_time_s=stats.dram_bytes / (spec.dram_bandwidth_gbs * 1e9),
        overhead_s=spec.kernel_launch_overhead_us * 1e-6,
        serial_time_s=serial,
        mma_time_s=mma,
        tag=tag,
    )


def _parse_slowdown(value: str) -> dict[str, float]:
    """Parse ``REPRO_INJECT_SLOWDOWN`` into ``{kernel_name: factor}``.

    A bare number (``"2.0"``) slows every kernel; ``"sccsc_spmm:2,bfs:3"``
    slows only the named ones.  The hook scales *modeled time only* --
    results are untouched -- and exists so the perf-regression gate can be
    tested end-to-end against a genuine (injected) slowdown.
    """
    value = value.strip()
    if not value:
        return {}
    factors: dict[str, float] = {}
    for part in value.split(","):
        name, _, factor = part.rpartition(":")
        factors[name.strip() or "*"] = float(factor)
    return factors


class Device:
    """A simulated GPU: spec + memory + profiler + launch timing.

    Parameters
    ----------
    spec:
        Hardware description; defaults to the paper's TITAN Xp.
    backed:
        If False the device only *plans* allocations (sizes, OOM) without
        backing NumPy arrays -- used for paper-scale footprint experiments.
    """

    def __init__(self, spec: DeviceSpec = TITAN_XP, *, backed: bool = True):
        self.spec = spec
        self.memory = DeviceMemory(spec.global_memory_bytes, backed=backed)
        self.profiler = Profiler()
        self._slowdown = _parse_slowdown(os.environ.get("REPRO_INJECT_SLOWDOWN", ""))

    def model(self, stats: KernelStats, *, tag: str = "") -> KernelLaunch:
        """Time a kernel from its stats without recording it: the pure
        :func:`model_launch`, scaled by any ``REPRO_INJECT_SLOWDOWN`` factor."""
        launch = model_launch(stats, self.spec, tag=tag)
        factor = self._slowdown.get(stats.name, self._slowdown.get("*", 1.0))
        if factor == 1.0:
            return launch
        return dataclasses.replace(
            launch,
            compute_time_s=launch.compute_time_s * factor,
            memory_time_s=launch.memory_time_s * factor,
            serial_time_s=launch.serial_time_s * factor,
            mma_time_s=launch.mma_time_s * factor,
        )

    def launch(self, stats: KernelStats, *, tag: str = "") -> KernelLaunch:
        """Time a kernel from its stats and record it with the profiler.

        ``tag`` annotates the launch (e.g. the BFS level) for later
        inspection without affecting aggregation.
        """
        launch = self.model(stats, tag=tag)
        self.profiler.record(launch)
        tel = get_telemetry()
        if tel is not None:
            tel.on_kernel_launch(launch, self.profiler.total_time_s(), spec=self.spec)
        return launch

    def sync_readback(self, *, words: int = 1, tag: str = "") -> KernelLaunch:
        """A host-blocking device-to-host readback (e.g. a convergence flag).

        Level-synchronous GPU BFS must learn each level whether the frontier
        emptied; the ``cudaMemcpy`` + stream-sync latency this costs is what
        dominates deep-BFS graphs (the paper's luxembourg row runs at
        ~48 us/level).  Modeled as a fixed-latency pseudo-launch.
        """
        launch = KernelLaunch(
            stats=KernelStats(name="sync_readback", threads=0, dram_read_bytes=4 * words),
            compute_time_s=0.0,
            memory_time_s=0.0,
            overhead_s=self.spec.sync_readback_us * 1e-6,
            tag=tag,
        )
        self.profiler.record(launch)
        tel = get_telemetry()
        if tel is not None:
            tel.on_kernel_launch(launch, self.profiler.total_time_s(), spec=self.spec)
        return launch

    def reset(self) -> None:
        """Free all memory and clear the profiler (fresh run)."""
        self.memory.free_all()
        self.profiler.clear()
        tel = get_telemetry()
        if tel is not None and tel.memtrace is not None:
            tel.memtrace.on_device_reset()

    def __repr__(self) -> str:
        return (
            f"Device({self.spec.name!r}, "
            f"{self.memory.used_bytes / 2**20:.0f}/{self.spec.global_memory_bytes / 2**20:.0f} MiB, "
            f"{len(self.profiler.launches)} launches)"
        )
