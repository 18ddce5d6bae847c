"""The launch-stats golden grid at ``B = 4``: ``tests/golden/kernel_stats_b4.json``.

Every kernel x product (gather / scatter) x frontier (int32 forward /
float32 backward) on three golden-corpus graphs -- masked where the kernel
takes a mask -- at ``B = 4``, with frontiers and ``allowed`` masks that
differ per lane.  ``tests/test_spmv.py`` asserts that every launch
reproduces the committed ``KernelStats`` field by field, so a launch
formula can only move through a reviewed diff of the golden file::

    make bless-kernel-stats      # PYTHONPATH=src python -m tests.kernel_stats
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import numpy as np

GOLDEN = pathlib.Path(__file__).parent / "golden" / "kernel_stats_b4.json"
SCHEMA = "repro/kernel-stats-b4/v1"
GRAPHS = ("petersen", "lollipop-4-3", "asym-digraph")
KERNELS = ("sccooc", "sccsc", "veccsc", "edgecsc", "pullcsc", "tcspmm")
B = 4


def load_graph(name: str):
    from repro.conformance.golden import golden_dir, load_golden_case

    return load_golden_case(golden_dir() / f"{name}.json")[0]


def make_frontiers(n: int, seed: int) -> dict:
    """Per-lane frontiers: each lane draws its own support and values."""
    rng = np.random.default_rng(seed)
    forward = rng.integers(1, 4, (n, B)) * (rng.random((n, B)) < 0.4)
    backward = (rng.random((n, B)) + 0.5) * (rng.random((n, B)) < 0.5)
    allowed = rng.random((n, B)) < 0.5
    return {
        "forward": forward.astype(np.int32).tolist(),
        "backward": backward.astype(np.float32).tolist(),
        "allowed": allowed.tolist(),
    }


def cases():
    """``(graph, kernel, product, frontier, masked)`` for the 72 launches."""
    for graph in GRAPHS:
        for kernel in KERNELS:
            for product in ("gather", "scatter"):
                for frontier in ("forward", "backward"):
                    masked = (kernel != "sccooc" and product == "gather"
                              and frontier == "forward")
                    yield graph, kernel, product, frontier, masked


def launch_stats(graph, kernel: str, product: str, frontier: str, masked: bool,
                 frontiers: dict):
    """Run one case on a fresh device; returns its ``KernelStats``."""
    from repro import spmv
    from repro.gpusim.device import Device

    dtype = np.int32 if frontier == "forward" else np.float32
    X = np.asarray(frontiers[frontier], dtype=dtype)
    kw = {"allowed": np.asarray(frontiers["allowed"], dtype=bool)} if masked else {}
    mat = graph.to_cooc() if kernel == "sccooc" else graph.to_csc()
    suffix = "_spmm" if product == "gather" else "_spmm_scatter"
    _, launch = getattr(spmv, kernel + suffix)(Device(), mat, X, **kw)
    return launch.stats


def generate() -> dict:
    graphs = {name: load_graph(name) for name in GRAPHS}
    frontiers = {name: make_frontiers(g.n, seed) for seed, (name, g) in
                 enumerate(graphs.items())}
    return {
        "schema": SCHEMA,
        "frontiers": frontiers,
        "cases": [
            {"graph": g, "kernel": k, "product": p, "frontier": f, "masked": m,
             "stats": dataclasses.asdict(
                 launch_stats(graphs[g], k, p, f, m, frontiers[g]))}
            for g, k, p, f, m in cases()
        ],
    }


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(generate(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
