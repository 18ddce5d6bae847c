"""Unit tests of the non-SpMV pipeline kernels (core.frontier).

The kernels run on ``(n, B)`` matrices, one BFS lane per column; every case
runs at each width in ``BATCHES`` with the same vector in every lane, and
each lane must get the per-source result.
"""

import numpy as np
import pytest

from repro.core import frontier as FK
from repro.gpusim.device import Device

BATCHES = (1, 3)


def lanes(v, B):
    """``B`` copies of vector ``v`` as the columns of a C-ordered matrix."""
    return np.repeat(np.asarray(v)[:, None], B, axis=1)


@pytest.fixture
def device():
    return Device()


class TestInitKernel:
    def test_records_launch(self, device):
        FK.init_sources_kernel(device, 100, 1)
        assert device.profiler.kernel_names() == ["bfs_init"]


class TestFrontierUpdate:
    def test_masks_discovered_when_not_fused(self, device):
        for B in BATCHES:
            ft = lanes(np.array([3, 2, 5, 0], dtype=np.int64), B)
            sigma = lanes(np.array([1, 0, 0, 0], dtype=np.int64), B)
            S = np.zeros((4, B), dtype=np.int32)
            f, new, _ = FK.frontier_update_batch_kernel(
                device, ft, sigma, S, 2, masked_spmv=False)
            assert (f.T == [0, 2, 5, 0]).all()
            assert new.tolist() == [2] * B
            assert (sigma.T == [1, 2, 5, 0]).all()
            assert (S.T == [0, 2, 2, 0]).all()

    def test_fused_mask_passthrough(self, device):
        # CSC kernels already zeroed discovered entries
        for B in BATCHES:
            ft = lanes(np.array([0, 2, 0], dtype=np.int64), B)
            sigma = lanes(np.array([1, 0, 0], dtype=np.int64), B)
            S = np.zeros((3, B), dtype=np.int32)
            f, new, _ = FK.frontier_update_batch_kernel(
                device, ft, sigma, S, 1, masked_spmv=True)
            assert f is ft
            assert (new > 0).all()

    def test_convergence_flag_false_when_empty(self, device):
        for B in BATCHES:
            ft = np.zeros((3, B), dtype=np.int64)
            sigma = np.ones((3, B), dtype=np.int64)
            S = np.zeros((3, B), dtype=np.int32)
            _, new, _ = FK.frontier_update_batch_kernel(
                device, ft, sigma, S, 3, masked_spmv=True)
            assert not new.any()

    def test_fused_reads_fewer_words(self, device):
        for B in BATCHES:
            ft = np.ones((64, B), dtype=np.int64)
            sigma = np.zeros((64, B), dtype=np.int64)
            _, _, fused = FK.frontier_update_batch_kernel(
                device, ft.copy(), sigma.copy(), np.zeros((64, B), np.int32), 1,
                masked_spmv=True,
            )
            _, _, unfused = FK.frontier_update_batch_kernel(
                device, ft.copy(), sigma.copy(), np.zeros((64, B), np.int32), 1,
                masked_spmv=False,
            )
            assert fused.stats.requested_load_bytes < unfused.stats.requested_load_bytes


class TestBackwardKernels:
    def test_delta_u_selects_depth_slice(self, device):
        for B in BATCHES:
            S = lanes(np.array([0, 1, 2, 2, 0], dtype=np.int32), B)
            sigma = lanes(np.array([1, 1, 2, 0, 0], dtype=np.float64), B)
            delta = lanes(np.array([0.0, 0.0, 1.0, 0.0, 0.0]), B)
            delta_u, _ = FK.delta_u_batch_kernel(device, S, sigma, delta, 2)
            # only vertex 2 qualifies (S == 2 and sigma > 0)
            assert (delta_u.T == [0, 0, (1 + 1.0) / 2, 0, 0]).all()

    def test_delta_u_skips_sigma_zero(self, device):
        for B in BATCHES:
            S = np.full((1, B), 2, dtype=np.int32)
            delta_u, _ = FK.delta_u_batch_kernel(
                device, S, np.zeros((1, B)), np.zeros((1, B)), 2)
            assert not delta_u.any()

    def test_delta_update_in_place(self, device):
        for B in BATCHES:
            S = lanes(np.array([0, 1, 1, 2], dtype=np.int32), B)
            sigma = lanes(np.array([1.0, 2.0, 3.0, 1.0]), B)
            delta = np.zeros((4, B))
            delta_ut = lanes(np.array([9.0, 0.5, 0.25, 9.0]), B)
            FK.delta_update_batch_kernel(device, S, sigma, delta, delta_ut, 2)
            # only S == 1 vertices updated: delta += delta_ut * sigma
            assert (delta.T == [0.0, 1.0, 0.75, 0.0]).all()

    def test_bc_update_excludes_source_and_halves(self, device):
        bc = np.zeros(3)
        delta = lanes(np.array([5.0, 4.0, 2.0]), 1)
        FK.bc_update_batch_kernel(device, bc, delta, [0], undirected=True)
        assert bc.tolist() == [0.0, 2.0, 1.0]
        # a second lane folds in batch order, again skipping its own source
        FK.bc_update_batch_kernel(device, bc, lanes(np.array([5.0, 4.0, 2.0]), 2),
                                  [0, 2], undirected=True)
        assert bc.tolist() == [2.5, 6.0, 2.0]

    def test_bc_update_directed_full_weight(self, device):
        bc = np.ones(3)
        delta = lanes(np.array([5.0, 4.0, 2.0]), 1)
        FK.bc_update_batch_kernel(device, bc, delta, [1], undirected=False)
        assert bc.tolist() == [6.0, 1.0, 3.0]
        # skipped (overflowed) lanes fold nothing
        FK.bc_update_batch_kernel(device, bc, delta, [1], undirected=False,
                                  skip=np.array([True]))
        assert bc.tolist() == [6.0, 1.0, 3.0]
