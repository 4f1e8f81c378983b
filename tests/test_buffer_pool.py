"""BufferPool recycling: the free-list itself, and the assembly buffers of
region exchanges, pooling and convolution layers."""

import numpy as np
import pytest

from conftest import Driven, region_of, region_plan
from repro.comm import BufferPool, run_spmd
from repro.core.dist_layers import DistPool2d
from repro.core.parallelism import activation_dist
from repro.nn import functional as F
from repro.tensor import DistTensor, Distribution, ProcessGrid, start_region_exchange
from repro.tensor.halo import local_region


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

    def test_free_list_keeps_two_buffers_per_key(self):
        """A key's free-list is capped: a third buffer given back is
        dropped, and a fresh key starts its own list."""
        pool = BufferPool()
        bufs = [pool.take((4,), np.float64) for _ in range(3)]
        for buf in bufs:
            pool.give(buf)
        again = [pool.take((4,), np.float64) for _ in range(3)]
        assert [a is b for a, b in zip(again, bufs[1::-1])] == [True, True]
        assert all(again[2] is not b for b in bufs)
        pool.give(pool.take((4,), np.float32))
        assert pool.take((4,), np.float32).dtype == np.float32
        assert pool.stats() == (3, 5)


class TestGatherScatterPayloadPooling:
    """A pool changes where a gathered region is assembled, never what a
    gather or a scatter-add computes."""

    def test_region_exchange_assembly_buffers_recycled(self):
        """A gathered region given back is the buffer the next exchange of
        the same shape assembles into: one allocation, then only hits."""
        x = np.arange(144.0).reshape(12, 12)
        dist = Distribution.make((2, 2))
        iters = 6

        def prog(comm):
            grid = ProcessGrid(comm, (2, 2))
            dt = DistTensor.from_global(grid, dist, x)
            pool = BufferPool()
            regions = []
            for r in range(comm.size):
                (hlo, hhi), (wlo, whi) = dist.local_bounds(x.shape, grid.coords_of(r))
                regions.append(((hlo - 2, wlo - 2), (hhi + 2, whi + 2)))
            plan = region_plan(dt, regions)
            outs = []
            for _ in range(iters):
                out = start_region_exchange(dt, plan, pool=pool).finish()
                outs.append(id(out))
                pool.give(out)
            return pool.stats(), len(set(outs))

        for (hits, misses), distinct in run_spmd(4, prog):
            assert (hits, misses) == (iters - 1, 1)
            assert distinct == 1

    def test_region_exchange_pooled_matches_unpooled(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((9, 13))
        dist = Distribution.make((2, 2))

        def prog(comm):
            grid = ProcessGrid(comm, (2, 2))
            dt = DistTensor.from_global(grid, dist, x)
            pool = BufferPool()
            regions = []
            for r in range(comm.size):
                (hlo, hhi), (wlo, whi) = dist.local_bounds(x.shape, grid.coords_of(r))
                regions.append(((hlo - 1, wlo - 2), (hhi + 2, whi + 1)))
            plan = region_plan(dt, regions)
            for _ in range(3):
                got = start_region_exchange(dt, plan, pool=pool).finish()
                want = start_region_exchange(dt, plan).finish()
                np.testing.assert_array_equal(got, want)
                np.testing.assert_array_equal(got, region_of(x, *regions[comm.rank]))
                pool.give(got)
            return True

        assert all(run_spmd(4, prog))

    def test_scatter_region_add_matches_global_accumulation(self):
        """Scatter-add leaves what accumulating every rank's region into the
        global array leaves (regions past the edge drop)."""
        rng = np.random.default_rng(8)
        contributions = rng.integers(-8, 9, size=(4, 7, 7)).astype(np.float64)
        dist = Distribution.make((2, 2))
        want = np.zeros((10, 10))
        for r in range(4):
            h = min(7, 10 - r)
            want[r : r + h, r : r + h] += 2 * contributions[r, :h, :h]

        def prog(comm):
            grid = ProcessGrid(comm, (2, 2))
            dt = DistTensor.zeros(grid, dist, (10, 10))
            plan = region_plan(dt, [((r, r), (r + 7, r + 7)) for r in range(comm.size)])
            for _ in range(2):
                dt.scatter_region_add(contributions[comm.rank], (comm.rank, comm.rank), plan)
            return dt.to_global()

        # Small integers: every partial sum is exact, so the accumulation
        # order cannot blur the comparison.
        for got in run_spmd(4, prog):
            np.testing.assert_array_equal(got, want)

    def test_dist_pool2d_numerics_unchanged_under_pooling(self):
        """DistPool2d's gather assembles in the layer's own pool;
        forward/backward must replicate the single-device result
        exactly.  Windows that straddle shards (or read padding) stage the
        gathered region through the pool and repeated steps recycle it;
        windows aligned with the shards gather a view of the input and
        touch the pool not at all."""
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 3, 8, 8))
        grid_shape = (1, 1, 2, 2)

        for kernel, stride, pad, staged in [(2, 2, 0, False), (3, 2, 1, True)]:
            y_ref, argmax = F.maxpool2d_forward(x, kernel, stride, pad)
            dy = rng.standard_normal(y_ref.shape)
            dx_ref = F.maxpool2d_backward(dy, argmax, x.shape, kernel, stride, pad)

            def prog(comm):
                grid = ProcessGrid(comm, grid_shape)
                dist = activation_dist(grid_shape, x.shape)
                xd = DistTensor.from_global(grid, dist, x)
                layer = Driven(DistPool2d(grid, "max", kernel, stride, pad))
                for _ in range(3):
                    y = layer.forward(xd)
                    dyd = DistTensor.from_global(grid, y.dist, dy)
                    dx = layer.backward(dyd)
                    comm.barrier()
                return y.to_global(), dx.to_global(), layer.buffers.stats()

            for y, dx, (hits, misses) in run_spmd(4, prog):
                np.testing.assert_array_equal(y, y_ref)
                np.testing.assert_array_equal(dx, dx_ref)
                if staged:
                    assert hits > 0, (hits, misses)  # later steps recycled buffers
                else:
                    assert hits == misses == 0, (hits, misses)


class TestLocalRegion:
    """``local_region`` hands out a view when the box needs neither padding
    nor remote data, and stages through the pool otherwise — decided from
    the box alone."""

    X = np.arange(2 * 3 * 8 * 6, dtype=np.float64).reshape(2, 3, 8, 6)

    @staticmethod
    def _on_row_shards(body):
        """Run ``body(dt, rows)`` on 2 ranks that own 4 rows each."""
        grid_shape = (1, 1, 2, 1)

        def prog(comm):
            grid = ProcessGrid(comm, grid_shape)
            dt = DistTensor.from_global(
                grid, activation_dist(grid_shape, TestLocalRegion.X.shape), TestLocalRegion.X
            )
            return body(dt, dt.bounds[2])

        return run_spmd(2, prog)

    def test_view_iff_the_box_lies_inside_the_tensor(self):
        def body(dt, rows):
            r0, r1 = rows
            pool = BufferPool()
            inside = [
                ((0, 0, r0, 0), (2, 3, r1, 6)),          # the whole shard
                ((0, 1, r0 + 1, 2), (2, 2, r1 - 1, 5)),  # a sub-block
            ]
            for lo, hi in inside:
                got = local_region(dt, lo, hi, pool=pool)
                assert np.shares_memory(got, dt.local)
                # A view object, never the shard itself: give() must not
                # be able to recycle the activation.
                assert got is not dt.local and got.base is not None
                assert not got.flags.writeable and dt.local.flags.writeable
                np.testing.assert_array_equal(
                    got, self.X[tuple(slice(a, b) for a, b in zip(lo, hi))]
                )
                pool.give(got)
            assert pool.stats() == (0, 0) and not pool._free

            # Leaving the tensor (columns -1..7 are virtual padding): staged,
            # with the fill in place; recycled on the second call.
            lo, hi = (0, 0, r0, -1), (2, 3, r1, 7)
            for fill in (0.0, -np.inf):
                got = local_region(dt, lo, hi, fill=fill, pool=pool)
                assert not np.shares_memory(got, dt.local) and got.base is None
                assert (got[..., 0] == fill).all() and (got[..., -1] == fill).all()
                np.testing.assert_array_equal(got[..., 1:-1], dt.local)
                pool.give(got)
            assert pool.stats() == (1, 1)
            return True

        assert self._on_row_shards(body) == [True, True]

    def test_padded_three_by_three_box_is_staged(self):
        """What a padded 3x3 convolution asks for on one rank: the tensor
        plus a ring of one."""
        def prog(comm):
            grid = ProcessGrid(comm, (1, 1, 1, 1))
            dt = DistTensor.from_global(
                grid, activation_dist(grid.shape, self.X.shape), self.X
            )
            got = local_region(dt, (0, 0, -1, -1), (2, 3, 9, 7), fill=7.0)
            assert not np.shares_memory(got, dt.local)
            np.testing.assert_array_equal(
                got, np.pad(self.X, ((0, 0), (0, 0), (1, 1), (1, 1)), constant_values=7.0)
            )
            return True

        assert run_spmd(1, prog) == [True]

    def test_unowned_box_still_raises(self):
        def body(dt, rows):
            other = (4, 8) if rows == (0, 4) else (0, 4)
            for lo, hi in [
                ((0, 0, other[0], 0), (2, 3, other[1], 6)),  # inside, a peer's
                ((0, 0, 0, -1), (2, 3, 8, 7)),               # padded, both shards
            ]:
                with pytest.raises(ValueError, match="not owned locally"):
                    local_region(dt, lo, hi)
            return True

        assert self._on_row_shards(body) == [True, True]

    def test_no_pooled_buffer_aliases_a_live_activation(self):
        """Three sample-parallel ResNet steps — unpadded 1x1 convolutions
        gather views, padded ones stage — and no layer's free-list holds
        memory an activation (or the next step's input) lives in."""
        from repro.core import DistNetwork, DistTrainer, LayerParallelism
        from repro.nn.resnet import build_resnet_tiny

        spec = build_resnet_tiny(image_size=16)
        rng = np.random.default_rng(17)
        x, t = rng.standard_normal((4, 3, 16, 16)), rng.integers(0, 10, size=4)

        def prog(comm):
            net = DistNetwork(spec, comm, LayerParallelism(sample=2), seed=0)
            trainer = DistTrainer(net)
            for _ in range(3):
                trainer.step(x, t)
            pools = [
                impl.buffers for impl in net._layers.values() if hasattr(impl, "buffers")
            ]
            pooled = [arr for pool in pools for stack in pool._free.values() for arr in stack]
            live = [act.local for act in net._acts.values()]
            assert pooled and len(live) == len(net._layers)
            assert not any(np.shares_memory(a, b) for a in pooled for b in live)
            return sum(pool.hits for pool in pools)

        assert all(hits > 0 for hits in run_spmd(2, prog))
