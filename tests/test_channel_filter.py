"""Channel- and filter-parallel convolution (§III-D extension)."""

import numpy as np
import pytest

from repro.comm import run_spmd
from repro.core.channel_filter import (
    ChannelParallelConv2d,
    FilterParallelConv2d,
    _channel_replicated_dist,
)
from repro.nn import functional as F
from repro.tensor import DistTensor, Distribution, ProcessGrid

RTOL = 1e-10


def reference(x, w, s, p):
    y = F.conv2d_forward(x, w, stride=s, pad=p)
    rng = np.random.default_rng(99)
    dy = rng.standard_normal(y.shape)
    dx = F.conv2d_backward_data(dy, w, stride=s, pad=p, x_spatial=x.shape[2:])
    dw = F.conv2d_backward_filter(x, dy, kernel=w.shape[2], stride=s, pad=p)
    return y, dy, dx, dw


class TestChannelParallel:
    @pytest.mark.parametrize(
        "grid_shape,s,p,k",
        [
            ((1, 2, 1, 1), 1, 1, 3),
            ((1, 4, 1, 1), 1, 1, 3),
            ((1, 2, 2, 1), 2, 2, 5),  # channel + spatial hybrid
            ((2, 2, 1, 1), 1, 0, 1),  # sample + channel
        ],
    )
    def test_exactness(self, grid_shape, s, p, k):
        nranks = int(np.prod(grid_shape))
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 8, 12, 12))
        w = rng.standard_normal((5, 8, k, k))
        y_ref, dy_ref, dx_ref, dw_ref = reference(x, w, s, p)

        def prog(comm):
            grid = ProcessGrid(comm, grid_shape)
            x_dist = Distribution.make(grid_shape)  # C block-split
            xd = DistTensor.from_global(grid, x_dist, x)
            conv = ChannelParallelConv2d(grid, w, stride=s, pad=p)
            y = conv.forward(xd)
            dy = DistTensor.from_global(grid, y.dist, dy_ref)
            dx, dw_local = conv.backward(dy)
            # dw reduction group: every axis except the channel axis.
            axes = [d for d in (0, 2, 3) if grid.shape[d] > 1]
            if axes:
                dw_local = grid.axes_comm(axes).allreduce(dw_local)
            return y.to_global(), dx.to_global(), dw_local, conv.c_lo, conv.c_hi

        for y, dx, dw_slice, c_lo, c_hi in run_spmd(nranks, prog):
            np.testing.assert_allclose(y, y_ref, rtol=RTOL, atol=1e-12)
            np.testing.assert_allclose(dx, dx_ref, rtol=RTOL, atol=1e-12)
            np.testing.assert_allclose(
                dw_slice, dw_ref[:, c_lo:c_hi], rtol=1e-9, atol=1e-11
            )

    def test_output_replicated_across_channel_group(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 4, 6, 6))
        w = rng.standard_normal((3, 4, 3, 3))

        def prog(comm):
            grid = ProcessGrid(comm, (1, 2, 1, 1))
            xd = DistTensor.from_global(grid, Distribution.make((1, 2, 1, 1)), x)
            y = ChannelParallelConv2d(grid, w, pad=1).forward(xd)
            assert not y.dist.is_split(1)
            return y.local.copy()

        ys = run_spmd(2, prog)
        np.testing.assert_array_equal(ys[0], ys[1])

    def test_pool_recycles_with_stable_numerics(self):
        """Channel-parallel twin of the filter-parallel pooling test."""
        rng = np.random.default_rng(22)
        x = rng.standard_normal((2, 4, 10, 10))
        w = rng.standard_normal((5, 4, 3, 3))

        def prog(comm):
            grid = ProcessGrid(comm, (1, 2, 1, 1))
            xd = DistTensor.from_global(grid, Distribution.make((1, 2, 1, 1)), x)
            conv = ChannelParallelConv2d(grid, w, pad=1)
            outs = []
            for _ in range(3):
                y = conv.forward(xd)
                dyd = DistTensor.from_global(
                    grid, y.dist, np.ones(y.global_shape)
                )
                dx, dw_local = conv.backward(dyd)
                outs.append((y.to_global(), dx.to_global(), dw_local.copy()))
                comm.barrier()
            return outs, conv._pool.stats()

        for outs, (hits, misses) in run_spmd(2, prog):
            first = outs[0]
            for later in outs[1:]:
                for a, b in zip(later, first):
                    np.testing.assert_array_equal(a, b)
            assert hits > 0, (hits, misses)

    def test_rejects_unsplit_input(self):
        def prog(comm):
            grid = ProcessGrid(comm, (1, 2, 1, 1))
            xd = DistTensor.from_global(
                grid, _channel_replicated_dist((1, 2, 1, 1), (1, 4, 6, 6)),
                np.zeros((1, 4, 6, 6)),
            )
            ChannelParallelConv2d(grid, np.zeros((2, 4, 3, 3))).forward(xd)

        with pytest.raises(ValueError, match="channel-partitioned"):
            run_spmd(2, prog, timeout=10)

    def test_rejects_trivial_grid(self):
        def prog(comm):
            grid = ProcessGrid(comm, (1, 1, 1, 1))
            ChannelParallelConv2d(grid, np.zeros((2, 4, 3, 3)))

        with pytest.raises(ValueError, match="axis 1"):
            run_spmd(1, prog, timeout=10)


class TestFilterParallel:
    @pytest.mark.parametrize(
        "grid_shape,s,p,k",
        [
            ((1, 2, 1, 1), 1, 1, 3),
            ((1, 4, 1, 1), 1, 1, 3),
            ((1, 2, 1, 2), 2, 1, 3),  # filter + spatial hybrid
            ((2, 2, 1, 1), 1, 0, 1),  # sample + filter ("model-parallel FC")
        ],
    )
    def test_exactness(self, grid_shape, s, p, k):
        nranks = int(np.prod(grid_shape))
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 6, 12, 12))
        w = rng.standard_normal((8, 6, k, k))
        y_ref, dy_ref, dx_ref, dw_ref = reference(x, w, s, p)

        def prog(comm):
            grid = ProcessGrid(comm, grid_shape)
            x_dist = _channel_replicated_dist(grid_shape, x.shape)
            xd = DistTensor.from_global(grid, x_dist, x)
            conv = FilterParallelConv2d(grid, w, stride=s, pad=p)
            y = conv.forward(xd)
            assert y.dist.is_split(1) or grid.shape[1] == 1
            dy = DistTensor.from_global(grid, y.dist, dy_ref)
            dx, dw_local = conv.backward(dy)
            axes = [d for d in (0, 2, 3) if grid.shape[d] > 1]
            if axes:
                dw_local = grid.axes_comm(axes).allreduce(dw_local)
            return y.to_global(), dx.to_global(), dw_local, conv.f_lo, conv.f_hi

        for y, dx, dw_slice, f_lo, f_hi in run_spmd(nranks, prog):
            np.testing.assert_allclose(y, y_ref, rtol=RTOL, atol=1e-12)
            np.testing.assert_allclose(dx, dx_ref, rtol=RTOL, atol=1e-12)
            np.testing.assert_allclose(
                dw_slice, dw_ref[f_lo:f_hi], rtol=1e-9, atol=1e-11
            )

    def test_filter_feeds_channel_without_shuffle(self):
        """Filter-parallel output (F split) is directly the C-split input of
        a channel-parallel successor — the §III-D pairing."""
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 4, 8, 8))
        w1 = rng.standard_normal((6, 4, 3, 3))
        w2 = rng.standard_normal((5, 6, 3, 3))
        y1_ref = F.conv2d_forward(x, w1, pad=1)
        y2_ref = F.conv2d_forward(y1_ref, w2, pad=1)

        def prog(comm):
            grid = ProcessGrid(comm, (1, 2, 1, 1))
            xd = DistTensor.from_global(
                grid, _channel_replicated_dist((1, 2, 1, 1), x.shape), x
            )
            conv1 = FilterParallelConv2d(grid, w1, pad=1)
            conv2 = ChannelParallelConv2d(grid, w2, pad=1)
            y1 = conv1.forward(xd)
            y2 = conv2.forward(y1)  # no redistribution in between
            return y2.to_global()

        for y2 in run_spmd(2, prog):
            np.testing.assert_allclose(y2, y2_ref, rtol=RTOL, atol=1e-12)

    def test_rejects_split_input(self):
        def prog(comm):
            grid = ProcessGrid(comm, (1, 2, 1, 1))
            xd = DistTensor.from_global(
                grid, Distribution.make((1, 2, 1, 1)), np.zeros((1, 4, 6, 6))
            )
            FilterParallelConv2d(grid, np.zeros((4, 4, 3, 3))).forward(xd)

        with pytest.raises(ValueError, match="replicated"):
            run_spmd(2, prog, timeout=10)

    def test_pool_recycles_with_stable_numerics(self):
        """The channel/filter convolutions stage their gathered regions and
        alltoall reply payloads through an internal BufferPool; repeated
        steps must recycle buffers without perturbing any value."""
        rng = np.random.default_rng(21)
        x = rng.standard_normal((2, 4, 10, 10))
        w = rng.standard_normal((6, 4, 3, 3))

        def prog(comm):
            grid = ProcessGrid(comm, (1, 2, 1, 1))
            xd = DistTensor.from_global(
                grid, _channel_replicated_dist((1, 2, 1, 1), x.shape), x
            )
            conv = FilterParallelConv2d(grid, w, pad=1)
            outs = []
            for _ in range(3):
                y = conv.forward(xd)
                dyd = DistTensor.from_global(
                    grid, y.dist, np.ones(y.global_shape)
                )
                dx, dw_local = conv.backward(dyd)
                outs.append((y.to_global(), dx.to_global(), dw_local.copy()))
                comm.barrier()
            return outs, conv._pool.stats()

        for outs, (hits, misses) in run_spmd(2, prog):
            first_y, first_dx, first_dw = outs[0]
            for y, dx, dw_local in outs[1:]:
                np.testing.assert_array_equal(y, first_y)
                np.testing.assert_array_equal(dx, first_dx)
                np.testing.assert_array_equal(dw_local, first_dw)
            assert hits > 0, (hits, misses)  # buffers actually recycled

    def test_too_few_filters(self):
        def prog(comm):
            grid = ProcessGrid(comm, (1, 4, 1, 1))
            xd = DistTensor.from_global(
                grid, _channel_replicated_dist((1, 4, 1, 1), (1, 2, 6, 6)),
                np.zeros((1, 2, 6, 6)),
            )
            FilterParallelConv2d(grid, np.zeros((2, 2, 3, 3))).forward(xd)

        with pytest.raises(ValueError, match="fewer filters"):
            run_spmd(4, prog, timeout=10)


class TestPlannedGather:
    """The plan-cached RegionExchange gather of the channel/filter layers
    assembles exactly what the plan-free ``gather_region`` reference
    fetches.  The kernels stay fused, so the exchange is finished right
    after it starts."""

    @pytest.mark.parametrize(
        "cls,grid_shape",
        [
            (ChannelParallelConv2d, (1, 2, 2, 1)),  # channel x spatial
            (ChannelParallelConv2d, (2, 2, 1, 1)),  # sample x channel
            (FilterParallelConv2d, (1, 2, 2, 1)),   # filter x spatial
            (FilterParallelConv2d, (2, 2, 1, 1)),   # sample x filter
        ],
    )
    def test_gather_equals_gather_region(self, cls, grid_shape):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 4, 9, 9))
        w = rng.standard_normal((4, 4, 3, 3))

        def prog(comm):
            grid = ProcessGrid(comm, grid_shape)
            if cls is ChannelParallelConv2d:
                dist = Distribution.make(grid_shape)
            else:
                dist = _channel_replicated_dist(grid_shape, x.shape)
            xd = DistTensor.from_global(grid, dist, x)
            conv = cls(grid, w, stride=1, pad=1)
            outs = []
            for _ in range(2):  # second pass runs on the cached plan
                y = conv.forward(xd)
                (g,) = conv._geom.values()  # one geometry, built once
                np.testing.assert_array_equal(
                    conv._x_ext, xd.gather_region(g.lo, g.hi)
                )
                dyd = DistTensor.from_global(grid, y.dist, np.ones(y.global_shape))
                dx, dw_local = conv.backward(dyd)
                del conv._geom[next(reversed(conv._geom))]  # drop the bwd entry
                outs.append((y.local.copy(), dx.local.copy(), dw_local.copy()))
            return outs

        for first, second in run_spmd(int(np.prod(grid_shape)), prog):
            for a, b in zip(first, second):
                np.testing.assert_array_equal(a, b)

    def test_gathers_are_pt2pt(self):
        """The region gathers issue no all-to-all collectives; traffic
        volume is recorded under the region_data stat."""
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 4, 8, 8))
        w = rng.standard_normal((4, 4, 3, 3))

        def prog(comm):
            grid = ProcessGrid(comm, (1, 2, 2, 1))
            xd = DistTensor.from_global(grid, Distribution.make(grid.shape), x)
            conv = ChannelParallelConv2d(grid, w, pad=1)
            comm.stats.reset()
            y = conv.forward(xd)
            dyd = DistTensor.from_global(grid, y.dist, np.ones(y.global_shape))
            conv.backward(dyd)
            s = comm.stats
            return (
                s.collectives.get("alltoall", 0),
                s.collective_bytes.get("region_data", 0),
            )

        for a2a, nbytes in run_spmd(4, prog):
            assert a2a == 0 and nbytes > 0

    def test_overlap_allreduce_pipelines_filter_blocks(self):
        """The piecewise forward launches one channel iallreduce per filter
        block (block k's reduction travels while block k+1's convolution
        computes) and matches the fused blocking path."""
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 4, 8, 8))
        w = rng.standard_normal((8, 4, 3, 3))

        def prog(comm, overlap_ar, nblk):
            grid = ProcessGrid(comm, (1, 2, 1, 1))
            xd = DistTensor.from_global(grid, Distribution.make(grid.shape), x)
            conv = ChannelParallelConv2d(
                grid, w, pad=1,
                overlap_allreduce=overlap_ar, allreduce_blocks=nblk,
            )
            comm.stats.reset()
            y = conv.forward(xd)
            s = comm.stats
            return (
                y.to_global(),
                s.collectives.get("iallreduce", 0),
                s.collectives.get("allreduce", 0),
            )

        blocking = run_spmd(2, prog, False, 4)
        pipelined = run_spmd(2, prog, True, 4)
        single = run_spmd(2, prog, True, 1)  # degenerate: falls back to fused
        for (y_b, nb_b, ar_b), (y_p, nb_p, ar_p), (y_1, nb_1, ar_1) in zip(
            blocking, pipelined, single
        ):
            np.testing.assert_allclose(y_p, y_b, rtol=RTOL, atol=1e-12)
            np.testing.assert_array_equal(y_1, y_b)  # same fused path
            assert (nb_b, ar_b) == (0, 1)
            assert (nb_p, ar_p) == (4, 0)  # one iallreduce per filter block
            assert (nb_1, ar_1) == (0, 1)
