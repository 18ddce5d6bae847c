"""Ablation (Section 3.4): integer vs floating-point forward vectors.

The paper measured the forward-stage SpMV up to 2.7x faster with integer
``f``/``ft`` vectors than with floating-point ones -- the motivation for
the int->float array swap between the stages.  In the model the effect has
two sources: doubled traffic for 8-byte values, and the fp64 atomic path
(CAS loops on Pascal) multiplying both the per-edge issue cost and the
same-address serialisation chain.  It therefore shows most strongly on the
atomic-heavy scCOOC graphs (the mawi hub traces) and fades on kernels that
are DRAM-bound on index traffic -- which is the shape the reproduction
asserts: every graph at >= 1.0x, the atomic-heavy ones past 2x.
"""

import numpy as np

from repro.core.bc import turbo_bc
from repro.graphs import suite
from repro.gpusim.device import Device

GRAPHS = ["mawi_201512012345", "smallworld", "mycielskian16", "kron_g500-logn18"]


def _forward_time(graph, algorithm, dtype) -> float:
    device = Device()
    turbo_bc(graph, sources=0, algorithm=algorithm, device=device, forward_dtype=dtype)
    fwd = [
        launch
        for launch in device.profiler.launches
        if "_spmm" in launch.name and "scatter" not in launch.name
    ]
    return sum(l.time_s for l in fwd)


def test_ablation_forward_dtype(report, benchmark):
    def run():
        rows = []
        for name in GRAPHS:
            entry = suite.get(name)
            g = entry.build()
            t_int = _forward_time(g, entry.algorithm, np.int32)
            t_float = _forward_time(g, entry.algorithm, np.float64)
            rows.append((name, entry.algorithm, t_int, t_float))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [
        "Ablation (Section 3.4) -- forward-stage SpMV time: int32 vs float64 vectors",
        f"{'graph':20s} {'kernel':8s} {'int32 (ms)':>11s} {'float64 (ms)':>13s} {'speedup':>8s}",
    ]
    for name, alg, t_int, t_float in rows:
        lines.append(
            f"{name:20s} {alg:8s} {t_int * 1e3:11.3f} {t_float * 1e3:13.3f} "
            f"{t_float / t_int:7.2f}x"
        )
    lines.append("paper: integer SpMV up to 2.7x faster than floating point")
    report("ablation_dtype.txt", "\n".join(lines))

    ratios = [t_float / t_int for _, _, t_int, t_float in rows]
    assert all(r >= 0.99 for r in ratios), ratios     # float never wins
    assert max(ratios) >= 2.0, ratios                 # the paper's "up to" regime
