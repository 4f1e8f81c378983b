"""BufferPool recycling: immediate reuse, deferred send-strip reclaim, and
pooled gather/scatter alltoall payloads."""

import numpy as np
import pytest

from repro.comm import BufferPool, run_spmd
from repro.core.dist_layers import DistPool2d
from repro.core.parallelism import activation_dist
from repro.nn import functional as F
from repro.tensor import DistTensor, Distribution, ProcessGrid


class TestImmediateReuse:
    def test_take_give_roundtrip(self):
        pool = BufferPool()
        a = pool.take((4, 4), np.float64)
        pool.give(a)
        b = pool.take((4, 4), np.float64)
        assert b is a
        assert pool.stats() == (1, 1)

    def test_mismatched_shape_allocates(self):
        pool = BufferPool()
        pool.give(pool.take((4, 4), np.float64))
        c = pool.take((8, 2), np.float64)
        assert c.shape == (8, 2)
        assert pool.stats() == (0, 2)

    def test_views_and_readonly_rejected(self):
        pool = BufferPool()
        a = np.zeros((4, 4))
        pool.give(a[:2])  # view: base is not None
        ro = np.zeros((4, 4))
        ro.flags.writeable = False
        pool.give(ro)
        assert pool.take((2, 4), np.float64) is not None
        assert pool.stats() == (0, 1)


class TestDeferredReclaim:
    def test_reclaims_only_after_view_dropped(self):
        pool = BufferPool()
        buf = pool.take((8,), np.float64)
        view = buf.view()
        view.flags.writeable = False
        pool.give_deferred(buf, view)
        # The view is still alive (simulating a mailbox holding it): the
        # buffer must NOT come back.
        again = pool.take((8,), np.float64)
        assert again is not buf
        del view
        reclaimed = pool.take((8,), np.float64)
        assert reclaimed is buf


class TestGatherScatterPayloadPooling:
    """gather_region replies and scatter_region_add contributions are
    staged through the pool and recycled across calls."""

    def test_gather_region_reply_payloads_recycled(self):
        x = np.arange(144.0).reshape(12, 12)
        dist = Distribution.make((2, 2))
        iters = 6

        def prog(comm):
            grid = ProcessGrid(comm, (2, 2))
            dt = DistTensor.from_global(grid, dist, x)
            pool = BufferPool(max_buffers_per_key=16)
            (hlo, hhi), (wlo, whi) = dt.bounds
            for _ in range(iters):
                out = dt.gather_region((hlo - 2, wlo - 2), (hhi + 2, whi + 2), pool=pool)
                comm.barrier()  # peers drain -> reply views reclaimable
                pool.give(out)
            return pool.stats()

        for hits, misses in run_spmd(4, prog):
            # O(1) allocations over O(iters) takes: only the warmup
            # populations miss, everything afterwards recycles.
            assert hits > misses, (hits, misses)

    def test_gather_region_pooled_matches_unpooled(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((9, 13))
        dist = Distribution.make((2, 2))

        def prog(comm):
            grid = ProcessGrid(comm, (2, 2))
            dt = DistTensor.from_global(grid, dist, x)
            pool = BufferPool()
            (hlo, hhi), (wlo, whi) = dt.bounds
            region = ((hlo - 1, wlo - 2), (hhi + 2, whi + 1))
            for _ in range(3):
                got = dt.gather_region(*region, pool=pool)
                want = dt.gather_region(*region)
                np.testing.assert_array_equal(got, want)
                pool.give(got)
            return True

        assert all(run_spmd(4, prog))

    @pytest.mark.parametrize("pooled", [True, False])
    def test_scatter_region_add_matches_global_accumulation(self, pooled):
        """Pooled or not, scatter-add leaves what accumulating every rank's
        region into the global array leaves (regions past the edge drop)."""
        rng = np.random.default_rng(8)
        contributions = rng.integers(-8, 9, size=(4, 7, 7)).astype(np.float64)
        dist = Distribution.make((2, 2))
        want = np.zeros((10, 10))
        for r in range(4):
            h = min(7, 10 - r)
            want[r : r + h, r : r + h] += 2 * contributions[r, :h, :h]

        def prog(comm):
            grid = ProcessGrid(comm, (2, 2))
            pool = BufferPool() if pooled else None
            dt = DistTensor.zeros(grid, dist, (10, 10))
            for _ in range(2):
                dt.scatter_region_add(
                    contributions[comm.rank], (comm.rank, comm.rank), pool=pool
                )
            return dt.to_global()

        # Small integers: every partial sum is exact, so the accumulation
        # order cannot blur the comparison.
        for got in run_spmd(4, prog):
            np.testing.assert_array_equal(got, want)

    def test_dist_pool2d_numerics_unchanged_under_pooling(self):
        """DistPool2d now routes its gather/scatter traffic through an
        internal pool; forward/backward must replicate the single-device
        result exactly, and repeated steps must recycle buffers."""
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 3, 8, 8))
        y_ref, argmax = F.maxpool2d_forward(x, (2, 2), (2, 2), 0)
        dy = rng.standard_normal(y_ref.shape)
        dx_ref = F.maxpool2d_backward(dy, argmax, x.shape, (2, 2), (2, 2), 0)
        grid_shape = (1, 1, 2, 2)

        def prog(comm):
            grid = ProcessGrid(comm, grid_shape)
            dist = activation_dist(grid_shape, x.shape)
            xd = DistTensor.from_global(grid, dist, x)
            layer = DistPool2d(grid, "max", 2, 2)
            for _ in range(3):
                y = layer.forward(xd)
                dyd = DistTensor.from_global(grid, y.dist, dy)
                dx = layer.backward(dyd)
                comm.barrier()
            return y.to_global(), dx.to_global(), layer._pool.stats()

        for y, dx, (hits, misses) in run_spmd(4, prog):
            np.testing.assert_array_equal(y, y_ref)
            np.testing.assert_array_equal(dx, dx_ref)
            assert hits > 0, (hits, misses)  # later steps recycled buffers
