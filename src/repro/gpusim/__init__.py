"""A simulated CUDA device.

The paper's experiments ran on an NVIDIA TITAN Xp.  This package substitutes
a behavioural simulation of that device with three faithful pieces:

* :mod:`repro.gpusim.memory` -- a device-memory allocator with the TITAN Xp's
  12196 MB capacity.  Allocation failure raises
  :class:`~repro.gpusim.errors.DeviceOutOfMemoryError`, which is how the
  paper's gunrock-OOM results (Table 4) are reproduced.  The allocator can
  run *backed* (allocations carry real NumPy arrays) or *planned* (sizes
  only), the latter enabling paper-scale footprint experiments without
  paper-scale RAM.
* :mod:`repro.gpusim.warp` -- access-pattern analysis: DRAM transaction
  counts for coalesced and gathered warp accesses, and divergence-aware warp
  cycle counts.  These are *computed from the same index arrays the CUDA
  kernels would dereference*, so the model is structure-exact.
* :mod:`repro.gpusim.kernel` / :mod:`repro.gpusim.device` -- the timing
  model: a kernel launch costs
  ``max(compute, memory) + launch_overhead`` where compute time comes from
  divergence-aware warp cycles over the device's warp-issue throughput and
  memory time from DRAM transactions over peak bandwidth
  (:func:`~repro.gpusim.device.model_launch`, a pure function of the
  stats that the adaptive dispatcher prices its candidates with too).
* :mod:`repro.gpusim.profiler` -- an nvprof-like event log, including the
  Global-memory Load Throughput (GLT) metric of the paper's Figure 5.
"""

from repro.gpusim.device import Device, DeviceSpec, TITAN_XP, model_launch
from repro.gpusim.errors import DeviceOutOfMemoryError, GpuSimError, InvalidKernelError
from repro.gpusim.kernel import KernelLaunch, KernelStats
from repro.gpusim.link import Link, TransferEvent
from repro.gpusim.memory import ArenaBlock, DeviceArena, DeviceArray, DeviceMemory
from repro.gpusim.profiler import Profiler

__all__ = [
    "Device",
    "DeviceSpec",
    "TITAN_XP",
    "ArenaBlock",
    "DeviceArena",
    "DeviceArray",
    "DeviceMemory",
    "DeviceOutOfMemoryError",
    "GpuSimError",
    "InvalidKernelError",
    "KernelLaunch",
    "KernelStats",
    "Link",
    "Profiler",
    "TransferEvent",
    "model_launch",
]
