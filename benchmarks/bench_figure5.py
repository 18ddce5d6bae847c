"""Figure 5: memory usage, GLT and MTEPs-vs-GLT for the mycielski group.

Three panels reproduced on the simulated device (repro-scale instances for
the kernel metrics, paper-scale plans for the memory panel):

a) GPU memory usage grows linearly in n + m, with gunrock up to ~60 % above
   TurboBC-veCSC;
b) per-kernel Global-memory Load Throughput: TurboBC's hot SpMV kernel runs
   *above* the 575 GB/s theoretical GLT line (requested loads are cache-
   amplified), while gunrock's kernels sit below it;
c) MTEPs as a function of GLT: the TurboBC points dominate the gunrock
   points.
"""

from repro.baselines.gunrock import gunrock_bc
from repro.core.bc import turbo_bc
from repro.graphs import suite
from repro.gpusim.device import Device, TITAN_XP
from repro.perf.memory_model import FootprintModel
from repro.perf.mteps import bc_per_vertex_mteps

#: repro-scale instances used for the kernel-metric panels
GROUP = ["mycielskian15", "mycielskian16", "mycielskian17"]


def _panel_a():
    rows = []
    for name in suite.MYCIELSKI_GROUP:
        p = suite.get(name).paper
        model = FootprintModel(p.n, p.m)
        rows.append((name, p.n + p.m, model.turbobc_bytes(), model.gunrock_measured_bytes()))
    return rows


def _panel_bc():
    rows = []
    for name in GROUP:
        g = suite.get(name).build()
        dev_t = Device()
        res = turbo_bc(g, sources=0, algorithm="veccsc", device=dev_t)
        spmv = dev_t.profiler.summary("veccsc_spmm")
        dev_g = Device()
        gres = gunrock_bc(g, sources=0, device=dev_g)
        g_kernels = [
            dev_g.profiler.summary(k)
            for k in dev_g.profiler.kernel_names()
            if k.startswith("gunrock") and "aux" not in k
        ]
        g_hot = max(g_kernels, key=lambda s: s.requested_load_bytes)
        rows.append(
            {
                "name": name,
                "turbo_glt": spmv.glt_gbs,
                "turbo_mteps": bc_per_vertex_mteps(g.m, res.stats.gpu_time_s),
                "gunrock_glt": g_hot.glt_gbs,
                "gunrock_mteps": bc_per_vertex_mteps(g.m, gres.stats.gpu_time_s),
            }
        )
    return rows


def test_figure5_memory_glt_mteps(report, benchmark):
    panel_a, panel_bc = benchmark.pedantic(
        lambda: (_panel_a(), _panel_bc()), rounds=1, iterations=1
    )
    lines = ["Figure 5a -- GPU memory vs n+m (paper scale)"]
    lines.append(f"{'graph':16s} {'n+m':>12s} {'TurboBC MiB':>12s} {'gunrock MiB':>12s} {'ratio':>6s}")
    for name, nm, tb, gb in panel_a:
        lines.append(f"{name:16s} {nm:12d} {tb / 2**20:12.1f} {gb / 2**20:12.1f} {gb / tb:6.2f}")
    lines.append("")
    lines.append(
        f"Figure 5b/5c -- hot-kernel GLT and MTEPs (repro scale; GLT ceiling "
        f"{TITAN_XP.theoretical_glt_gbs:.0f} GB/s)"
    )
    lines.append(
        f"{'graph':16s} {'TurboBC GLT':>12s} {'gunrock GLT':>12s} "
        f"{'TurboBC MTEPs':>14s} {'gunrock MTEPs':>14s}"
    )
    for r in panel_bc:
        lines.append(
            f"{r['name']:16s} {r['turbo_glt']:12.1f} {r['gunrock_glt']:12.1f} "
            f"{r['turbo_mteps']:14.0f} {r['gunrock_mteps']:14.0f}"
        )
    report("figure5.txt", "\n".join(lines))

    # 5a: linear growth, gunrock consistently above TurboBC
    for name, nm, tb, gb in panel_a:
        assert 1.2 <= gb / tb <= 2.4, (name, gb / tb)
    sizes = [nm for _, nm, _, _ in panel_a]
    turbo = [tb for _, _, tb, _ in panel_a]
    assert sorted(sizes) == sizes and sorted(turbo) == turbo

    # 5b: TurboBC's hot kernel beats the theoretical GLT line on the big
    # instances; gunrock's never does
    assert any(r["turbo_glt"] > TITAN_XP.theoretical_glt_gbs for r in panel_bc)
    assert all(r["gunrock_glt"] < TITAN_XP.theoretical_glt_gbs for r in panel_bc)
    # 5c: at matched GLT, TurboBC's MTEPs dominate
    for r in panel_bc:
        assert r["turbo_mteps"] > r["gunrock_mteps"], r["name"]
        assert r["turbo_glt"] > r["gunrock_glt"], r["name"]
