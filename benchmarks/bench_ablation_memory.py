"""Ablation (Sections 3/5): the memory-footprint design choices.

Quantifies each of the paper's three footprint decisions in isolation:

1. **single-format storage** -- keeping one CSC copy instead of gunrock's
   CSR+CSC pair saves ``n + 1 + m`` words;
2. **forward/backward array swap** -- freeing the int frontier vectors
   before allocating the float dependency vectors caps the peak at
   ``7n + m`` instead of ``9n + m``;
3. **no value array** -- a binary adjacency matrix stored without values
   halves the matrix footprint.

Also measures the fused sigma-mask: the masked scCSC SpMV does strictly
less work than unmasked-SpMV-plus-separate-mask on every BFS level past the
first.
"""

import numpy as np

from repro.core.context import TurboBCContext
from repro.core.forward import bfs_forward
from repro.graphs import suite
from repro.gpusim.device import Device
from repro.perf.memory_model import FootprintModel
from repro.spmv import sccsc_spmm


def _footprint_variants(n: int, m: int):
    base = FootprintModel(n, m)
    single_format = base.turbobc_bytes("csc")
    dual_format = single_format + 4 * (n + 1 + m)
    no_swap = single_format + 4 * 2 * n          # f/ft coexist with deltas
    with_values = single_format + 4 * m          # explicit value array
    return single_format, dual_format, no_swap, with_values


def test_ablation_footprint_choices(report, benchmark):
    p = suite.get("sk-2005").paper
    single, dual, no_swap, with_values = benchmark.pedantic(
        lambda: _footprint_variants(p.n, p.m), rounds=1, iterations=1
    )
    cap = Device().spec.global_memory_bytes
    lines = [
        "Ablation -- footprint design choices at sk-2005 scale "
        f"(n={p.n}, m={p.m}, capacity {cap / 2**30:.1f} GiB)",
        f"  TurboBC as designed (7n+m):        {single / 2**30:7.2f} GiB  fits={single <= cap}",
        f"  + second format copy (CSR+CSC):    {dual / 2**30:7.2f} GiB  fits={dual <= cap}",
        f"  + no forward/backward swap:        {no_swap / 2**30:7.2f} GiB  fits={no_swap <= cap}",
        f"  + explicit value array:            {with_values / 2**30:7.2f} GiB  fits={with_values <= cap}",
    ]
    report("ablation_memory.txt", "\n".join(lines))

    assert single <= cap
    # each undone optimization individually blows the budget on the paper's
    # largest graph except the (small) swap, which matters at kmer scale:
    assert dual > cap
    assert with_values > cap
    k = suite.get("kmer_V1r").paper
    single_k, _, no_swap_k, _ = _footprint_variants(k.n, k.m)
    assert single_k <= cap
    report(
        "ablation_memory_kmer.txt",
        f"kmer_V1r: designed {single_k / 2**30:.2f} GiB fits={single_k <= cap}; "
        f"without the stage swap {no_swap_k / 2**30:.2f} GiB fits={no_swap_k <= cap}",
    )


def test_ablation_fused_mask(report, benchmark):
    """The fused sigma-mask saves SpMV work as discovery progresses."""

    def run():
        g = suite.get("delaunay_n15").build()
        device = Device()
        ctx = TurboBCContext(device, g, "sccsc", forward_dtype=np.int64)
        fwd = bfs_forward(ctx, 0)
        ctx.abort()
        masked = [
            l for l in device.profiler.launches if l.name == "sccsc_spmm"
        ]
        # replay the same frontiers unmasked on a fresh device
        device2 = Device()
        x = np.zeros((g.n, 1), dtype=np.int64)
        x[0] = 1
        _, unmasked_launch = sccsc_spmm(device2, g.to_csc(), x)
        total_masked = sum(l.exec_time_s for l in masked)
        per_level_unmasked = unmasked_launch.exec_time_s * len(masked)
        return fwd.depth, total_masked, per_level_unmasked

    depth, masked_t, unmasked_t = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "ablation_mask.txt",
        f"delaunay_n15 forward stage ({depth} levels):\n"
        f"  masked scCSC SpMV total:     {masked_t * 1e3:8.3f} ms\n"
        f"  unmasked full sweeps total:  {unmasked_t * 1e3:8.3f} ms\n"
        f"  fused mask saves {unmasked_t / masked_t:.2f}x of SpMV work",
    )
    assert masked_t < unmasked_t
