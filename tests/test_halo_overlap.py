"""Overlapped halo exchange: correctness and accounting (§IV-A).

The network posts a windowed layer's halo strips; the layer runs the
interior kernels while they travel and the boundary kernels after
``finish()``.  Layers run here through ``conftest.Driven``, which starts
their exchanges as ``DistNetwork`` does.  These tests hold pooling to the
fused kernel on the global array, the exchange to the global array sliced
in content and to a cell count in bytes, and check that the wait/overlap
split of the halo time is measured.  That arrival timing
never changes a bit is checked per layer here and network-wide by
``tests/test_dist_network.py::TestTimingIndependence``, both under
injected delays.

The equivalence tests run on every world backend (the ``backend``
fixture); the forked backends cover a reduced geometry matrix.
"""

import functools
from time import monotonic

import numpy as np
import pytest

from conftest import (
    DELAY_PLANS, DELAY_S, Driven, reduce_for_process, region_of, region_plan,
    standalone_window,
)
from repro.comm import run_spmd
from repro.core.dist_conv import DistConv2d, _read
from repro.core.dist_layers import DistPool2d
from repro.core.window import _frame_pieces, window_geometry
from repro.core.parallelism import activation_dist
from repro.nn import functional as F
from repro.tensor import DistTensor, Distribution, ProcessGrid
from repro.tensor.halo import HALO_OP, start_region_exchange


GEOMETRIES = [
    # (grid_shape, N, C, H, W, F, K, S, P) — spatial / hybrid / edge cases
    ((1, 1, 2, 2), 2, 3, 8, 8, 5, 3, 1, 1),     # 2x2 spatial
    ((1, 1, 4, 1), 1, 3, 16, 8, 5, 3, 1, 1),    # 4x1 spatial
    ((2, 1, 2, 1), 2, 3, 8, 8, 4, 3, 1, 1),     # hybrid 2 samples x 2-way
    ((2, 1, 2, 2), 2, 2, 8, 8, 4, 3, 1, 1),     # hybrid 2 x 2x2 (8 ranks)
    ((1, 1, 2, 2), 1, 3, 9, 11, 4, 3, 1, 1),    # odd sizes, uneven partitions
    ((1, 1, 2, 2), 1, 2, 12, 12, 4, 5, 2, 2),   # K=5 S=2
    ((1, 1, 2, 2), 2, 3, 8, 8, 5, 1, 1, 0),     # 1x1: no halo at all
    ((1, 1, 2, 2), 1, 2, 11, 13, 3, 3, 2, 1),   # odd sizes + stride 2
    ((1, 1, 2, 2), 1, 2, 9, 9, 3, 5, 1, 2),     # K=5 halo of 2, odd image
    ((4, 1, 1, 1), 4, 3, 8, 8, 5, 3, 1, 1),     # pure sample: local fast path
]

POOL_GEOMS = [
    # (grid_shape, N, C, H, W, K, S, P)
    ((1, 1, 2, 2), 2, 3, 9, 11, 3, 2, 1),   # classic 3x3/2 overlap pool
    ((1, 1, 2, 2), 2, 3, 8, 8, 3, 1, 1),    # K > S on every boundary
    ((2, 1, 2, 1), 2, 2, 8, 8, 2, 2, 0),    # K == S: no halo at all
    ((1, 1, 4, 1), 1, 2, 16, 8, 3, 2, 1),   # deep 1D spatial split
]


def _conv_job(geom, backend, faults=None):
    """Per rank: the bytes of ``(y, dx, dw, db)`` of one DistConv2d forward
    and backward on ``geom`` (a GEOMETRIES row), and its region_data bytes,
    under the ``REPRO_FAULTS`` plan ``faults``."""
    grid_shape, n, c, h, w_, f, k, s, p = geom
    rng = np.random.default_rng(42)
    x = rng.standard_normal((n, c, h, w_))
    w = rng.standard_normal((f, c, k, k))
    b = rng.standard_normal(f)

    def prog(comm):
        grid = ProcessGrid(comm, grid_shape)
        xd = DistTensor.from_global(grid, activation_dist(grid_shape, x.shape), x)
        conv = Driven(DistConv2d(grid, w, stride=s, pad=p, bias=b))
        y = conv.forward(xd)
        dy = np.random.default_rng(99).standard_normal(y.global_shape)
        dx, dw, db = conv.backward(DistTensor.from_global(grid, y.dist, dy))
        return (
            [a.tobytes() for a in (y.local, dx.local, dw, db)],
            comm.stats.collective_bytes.get("region_data", 0),
        )

    return run_spmd(int(np.prod(grid_shape)), prog, backend=backend, faults=faults)


def _pool_job(geom, mode, backend, faults=None):
    """Per rank: the bytes of ``(y, dx)`` of one DistPool2d forward and
    backward on ``geom`` (a POOL_GEOMS row), and its region_data bytes."""
    grid_shape, n, c, h, w_, k, s, p = geom
    x = np.random.default_rng(17).standard_normal((n, c, h, w_))

    def prog(comm):
        grid = ProcessGrid(comm, grid_shape)
        xd = DistTensor.from_global(grid, activation_dist(grid_shape, x.shape), x)
        pool = Driven(DistPool2d(grid, mode, k, s, p))
        y = pool.forward(xd)
        dy = np.random.default_rng(7).standard_normal(y.global_shape)
        dx = pool.backward(DistTensor.from_global(grid, y.dist, dy))
        return (
            [a.tobytes() for a in (y.local, dx.local)],
            comm.stats.collective_bytes.get("region_data", 0),
        )

    return run_spmd(int(np.prod(grid_shape)), prog, backend=backend, faults=faults)


@functools.lru_cache(maxsize=None)
def _calm_run(job, *args):
    """The undelayed ``job(*args)``, shared by the delay plans."""
    return job(*args)


def _geom_ids(geoms):
    return ["x".join(map(str, g[0])) + "-" + "-".join(map(str, g[1:])) for g in geoms]


def _assert_delays_move_no_bit(job, plan, *args):
    """``job(*args)`` under DELAY_PLANS[plan] equals the undelayed run; a
    layer that exchanges halos waited for the delays."""
    calm = _calm_run(job, *args)
    t0 = monotonic()
    assert job(*args, faults=DELAY_PLANS[plan]) == calm
    if any(region_bytes for _, region_bytes in calm):
        assert monotonic() - t0 >= DELAY_S


class TestLayerTimingIndependence:
    """Halo strips that arrive late or out of order move no bit of a
    windowed layer: forward, backward and the backward scatter-add of the
    halo contributions (folded own-first, then by comm rank, not as they
    arrive) equal the undelayed run under each recurring delay plan of
    ``DELAY_PLANS``."""

    @pytest.mark.parametrize("plan", list(DELAY_PLANS))
    @pytest.mark.parametrize("geom", GEOMETRIES, ids=_geom_ids(GEOMETRIES))
    def test_conv_delayed_halos_move_no_bit(self, geom, plan, backend):
        reduce_for_process(backend, np.prod(geom[0]) > 4, "nranks <= 4")
        _assert_delays_move_no_bit(_conv_job, plan, geom, backend)

    @pytest.mark.parametrize("plan", list(DELAY_PLANS))
    @pytest.mark.parametrize("mode", ["max", "avg"])
    @pytest.mark.parametrize("geom", POOL_GEOMS, ids=_geom_ids(POOL_GEOMS))
    def test_pool_delayed_halos_move_no_bit(self, geom, mode, plan, backend):
        _assert_delays_move_no_bit(_pool_job, plan, geom, mode, backend)


class TestPoolAgainstGlobalArray:
    """DistPool2d — interior windows behind the in-flight halo strips,
    boundary strips after ``finish()``, backward scatter-add — must
    reproduce the fused kernel on the global array."""

    @pytest.mark.parametrize("mode", ["max", "avg"])
    @pytest.mark.parametrize("grid_shape,n,c,h,w_,k,s,p", POOL_GEOMS)
    def test_pool_matches_global_kernel(
        self, grid_shape, n, c, h, w_, k, s, p, mode, backend
    ):
        nranks = int(np.prod(grid_shape))
        reduce_for_process(
            backend, (grid_shape, mode) != ((1, 1, 2, 2), "max"),
            "one representative geometry",
        )
        rng = np.random.default_rng(17)
        x = rng.standard_normal((n, c, h, w_))
        if mode == "max":
            y_ref, argmax = F.maxpool2d_forward(x, k, s, p)
            dy_ref = np.random.default_rng(7).standard_normal(y_ref.shape)
            dx_ref = F.maxpool2d_backward(dy_ref, argmax, x.shape, k, s, p)
        else:
            y_ref = F.avgpool2d_forward(x, k, s, p)
            dy_ref = np.random.default_rng(7).standard_normal(y_ref.shape)
            dx_ref = F.avgpool2d_backward(dy_ref, x.shape, k, s, p)

        def prog(comm):
            grid = ProcessGrid(comm, grid_shape)
            xd = DistTensor.from_global(
                grid, activation_dist(grid_shape, x.shape), x
            )
            pool = Driven(DistPool2d(grid, mode, k, s, p))
            y = pool.forward(xd)
            dx = pool.backward(DistTensor.from_global(grid, y.dist, dy_ref))
            return y.to_global(), dx.to_global()

        for y, dx in run_spmd(nranks, prog, backend=backend):
            # Window reductions are per output element: exact.
            np.testing.assert_array_equal(y, y_ref)
            # Overlapping windows accumulate own-first, then by rank.
            np.testing.assert_allclose(dx, dx_ref, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("mode", ["max", "avg"])
    def test_piecewise_kernels_equal_fused_bitwise(self, mode):
        """Kernel level: pooling an extended region piece by piece (the
        only way exchanged layers run) gives the fused kernel's bits."""
        rng = np.random.default_rng(23)
        x_ext = rng.standard_normal((2, 3, 11, 13))
        k, s = 3, 2

        def prog(comm):
            grid = ProcessGrid(comm, (1, 1, 1, 1))
            layer = DistPool2d(grid, mode, k, s, 0)
            xd = DistTensor.from_global(
                grid, activation_dist(grid.shape, x_ext.shape), x_ext
            )
            g = window_geometry(grid.coords, *standalone_window(layer, xd))
            def piece(rows, cols):
                box = g.source_box(rows, cols)
                return layer._pool_piece(x_ext[tuple(slice(*b) for b in box)], (0, 0), g, rows, cols)

            fused = piece(*g.bounds[2:])
            oh, ow = fused[0].shape[2:]
            pieces = _frame_pieces(g.bounds[2], g.bounds[3], (1, oh - 1), (2, ow - 1))
            assert len(pieces) == 5
            outs = [np.full(fused[0].shape, -1, dtype=f.dtype) for f in fused]
            for rows, cols, _ in pieces:
                for out, part in zip(outs, piece(rows, cols)):
                    out[g.block_index(rows, cols)] = part
            assert len(outs) == (2 if mode == "max" else 1)  # y (+ argmax)
            for out, f in zip(outs, fused):
                np.testing.assert_array_equal(out, f)
            return True

        assert all(run_spmd(1, prog))

    def test_pool_halo_time_recorded_when_windows_overlap(self):
        """With K > S the overlapped pool forward drives real nonblocking
        strips: the halo_exchange wait/overlap split must be measured."""
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 2, 12, 12))

        def prog(comm):
            grid = ProcessGrid(comm, (1, 1, 2, 2))
            xd = DistTensor.from_global(
                grid, activation_dist(grid.shape, x.shape), x
            )
            pool = Driven(DistPool2d(grid, "max", 3, 1, 1))
            comm.stats.reset()
            pool.forward(xd)
            s = comm.stats
            return (
                s.wait_seconds.get(HALO_OP, 0.0)
                + s.overlap_seconds.get(HALO_OP, 0.0),
                s.collectives.get("region_data", 0),
            )

        for halo_time, exchanges in run_spmd(4, prog):
            assert halo_time > 0.0
            assert exchanges == 1  # the forward gather, nonblocking


class TestRegionExchange:
    def test_matches_global_slice(self, backend):
        """The overlapped exchange assembles exactly the region of the
        global tensor — virtual padding (zero) and uneven partitions
        included."""
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 3, 9, 11))
        grid_shape = (1, 1, 2, 2)
        dist = Distribution.make(grid_shape)

        def prog(comm):
            grid = ProcessGrid(comm, grid_shape)
            dt = DistTensor.from_global(grid, dist, x)
            # Every rank gathers its block extended by one halo cell on the
            # split axes (reaching into virtual padding at the edges).
            regions = []
            for r in range(comm.size):
                b = dist.local_bounds(x.shape, grid.coords_of(r))
                regions.append(
                    (
                        (b[0][0], b[1][0], b[2][0] - 1, b[3][0] - 1),
                        (b[0][1], b[1][1], b[2][1] + 1, b[3][1] + 1),
                    )
                )
            plan = region_plan(dt, regions)
            ex = start_region_exchange(dt, plan, (plan.box,))
            (got,) = ex.finish()
            # Staged clipped to the tensor: the padding is never staged.
            lo, hi = zip(*ex.boxes[0])
            assert lo == tuple(max(b, 0) for b in regions[comm.rank][0])
            assert hi == tuple(min(h, n) for h, n in zip(regions[comm.rank][1], x.shape))
            np.testing.assert_array_equal(got, region_of(dt.to_global(), lo, hi))
            return True

        assert all(run_spmd(4, prog, backend=backend))

    def test_halo_traffic_volume_matches_cell_count(self):
        """A rank's ``region_data`` bytes are the cells of every peer's
        window region (clipped to the tensor) that lie in this rank's
        block: the O = 1 row halos the paper's cost model charges."""
        n, c, h, w_, f, k = 1, 2, 16, 8, 3, 3
        rng = np.random.default_rng(7)
        x = rng.standard_normal((n, c, h, w_))
        w = rng.standard_normal((f, c, k, k))

        def prog(comm):
            grid = ProcessGrid(comm, (1, 1, 4, 1))
            dist = activation_dist(grid.shape, x.shape)
            xd = DistTensor.from_global(grid, dist, x)
            conv = Driven(DistConv2d(grid, w, stride=1, pad=1))
            comm.stats.reset()
            conv.forward(xd)
            # K = 3, S = 1, P = 1: a peer's output rows [a, b) read input
            # rows [a - 1, b + 1); every peer reads all channels and columns.
            (r0, r1) = dist.local_bounds(x.shape, grid.coords)[2]
            cells = 0
            for peer in range(comm.size):
                if peer != comm.rank:
                    a, b = dist.local_bounds(x.shape, grid.coords_of(peer))[2]
                    lo, hi = max(a - 1, 0, r0), min(b + 1, h, r1)
                    cells += max(hi - lo, 0) * n * c * w_
            return comm.stats.collective_bytes.get("region_data", 0), cells * 8

        ovl_bytes, counted = zip(*run_spmd(4, prog))
        assert ovl_bytes == counted
        halo_row = n * c * w_ * 8  # O=1 row of float64
        assert ovl_bytes == (halo_row, 2 * halo_row, 2 * halo_row, halo_row)

    def test_halo_wait_and_overlap_measured(self):
        """CommStats separates exposed (waited) from hidden (in flight
        behind the interior conv) halo time on the overlapped path."""
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 2, 12, 12))
        w = rng.standard_normal((3, 2, 3, 3))

        def prog(comm):
            grid = ProcessGrid(comm, (1, 1, 2, 2))
            xd = DistTensor.from_global(grid, activation_dist(grid.shape, x.shape), x)
            conv = Driven(DistConv2d(grid, w, pad=1))
            comm.stats.reset()
            y = conv.forward(xd)
            dy = DistTensor.from_global(grid, y.dist, np.ones(y.global_shape))
            conv.backward(dy)
            s = comm.stats
            return (
                s.wait_seconds.get(HALO_OP, 0.0) + s.overlap_seconds.get(HALO_OP, 0.0),
                s.collectives.get("region_data", 0),
            )

        for halo_time, exchanges in run_spmd(4, prog):
            assert halo_time > 0.0  # the timing split is actually recorded
            assert exchanges == 2  # one forward + one backward exchange

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


class TestRead:
    """``dist_conv._read`` reads a window's source box from the shard or a
    staged buffer alike: a read-only view of the box clipped to what the
    array holds, and the rows and columns clipped before it as the kernel's
    left offset."""

    X = np.arange(2 * 3 * 8 * 6, dtype=np.float64).reshape(2, 3, 8, 6)

    @pytest.mark.parametrize(
        "rows,cols,offset",
        [((5, 7), (1, 4), (0, 0)), ((3, 9), (-1, 7), (1, 1)), ((4, 6), (-2, 2), (0, 2))],
        ids=["inside", "padded_all_round", "padded_left"],
    )
    def test_view_of_the_box_clipped_to_its_array(self, rows, cols, offset):
        held = self.X[:, :, 4:8].copy()  # global rows 4..7, all columns
        got, virtual = _read(held, ((0, 2), (0, 3), (4, 8), (0, 6)), ((0, 2), (0, 3), rows, cols))
        assert np.shares_memory(got, held) and not got.flags.writeable
        assert held.flags.writeable
        assert virtual == offset
        (r0, r1), (c0, c1) = (max(rows[0], 4), min(rows[1], 8)), (max(cols[0], 0), min(cols[1], 6))
        np.testing.assert_array_equal(got, self.X[:, :, r0:r1, c0:c1])
