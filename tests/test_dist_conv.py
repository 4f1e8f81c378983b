"""Layer-level exactness of distributed convolution (paper §III-A).

"Our algorithms exactly replicate convolution as if it were performed on a
single GPU (up to floating point accumulation issues)."
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Driven, region_of, standalone_window, start_window
from repro.comm import run_spmd
from repro.core.dist_conv import DistConv2d
from repro.core.dist_layers import DistPool2d
from repro.core.window import transposed_window, window_geometry
from repro.nn import functional as F
from repro.tensor import DistTensor, Distribution, ProcessGrid
from repro.tensor.halo import local_region
from repro.core.parallelism import activation_dist

RTOL = 1e-11


def run_dist_conv(nranks, grid_shape, x, w, stride, pad, bias=None):
    """Run fwd+bwd distributed; return per-rank (y, dx, dw, db) globals."""

    def prog(comm):
        grid = ProcessGrid(comm, grid_shape)
        xd = DistTensor.from_global(grid, activation_dist(grid_shape, x.shape), x)
        conv = Driven(DistConv2d(grid, w, stride=stride, pad=pad, bias=bias))
        y = conv.forward(xd)
        rng = np.random.default_rng(99)
        dy_global = rng.standard_normal(y.global_shape)
        dy = DistTensor.from_global(grid, y.dist, dy_global)
        dx, dw_partial, db_partial = conv.backward(dy)
        # Complete Eq. 2 with the allreduce over the split axes.
        axes = [d for d in range(4) if y.dist.is_split(d)]
        dw = grid.axes_comm(axes).allreduce(dw_partial) if axes else dw_partial
        db = None
        if db_partial is not None:
            db = grid.axes_comm(axes).allreduce(db_partial) if axes else db_partial
        return y.to_global(), dx.to_global(), dw, db, dy_global

    return run_spmd(nranks, prog)


GEOMETRIES = [
    # (grid_shape, N, C, H, W, F, K, S, P) — sample / spatial / hybrid
    ((4, 1, 1, 1), 4, 3, 8, 8, 5, 3, 1, 1),     # pure sample
    ((1, 1, 2, 2), 2, 3, 8, 8, 5, 3, 1, 1),     # 2x2 spatial
    ((1, 1, 4, 1), 1, 3, 16, 8, 5, 3, 1, 1),    # 4x1 spatial
    ((2, 1, 2, 1), 2, 3, 8, 8, 4, 3, 1, 1),     # hybrid 2 samples x 2-way
    ((2, 1, 2, 2), 2, 2, 8, 8, 4, 3, 1, 1),     # hybrid 2 x 2x2 (8 ranks)
    ((1, 1, 2, 2), 1, 3, 9, 11, 4, 3, 1, 1),    # uneven partitions
    ((1, 1, 2, 2), 1, 2, 12, 12, 4, 5, 2, 2),   # K=5 S=2 (mesh conv1_1 class)
    ((1, 1, 2, 2), 1, 2, 12, 12, 4, 7, 2, 3),   # K=7 S=2 (resnet conv1 class)
    ((1, 1, 2, 2), 2, 3, 8, 8, 5, 1, 1, 0),     # 1x1: no halo at all
    ((1, 1, 2, 2), 1, 2, 11, 13, 3, 3, 2, 1),   # odd sizes + stride
    ((1, 1, 4, 4), 1, 1, 16, 16, 2, 3, 1, 1),   # 16-way spatial
]


class TestDistConvExactness:
    @pytest.mark.parametrize("grid_shape,n,c,h,w_,f,k,s,p", GEOMETRIES)
    def test_forward_backward_match_local(self, grid_shape, n, c, h, w_, f, k, s, p):
        nranks = int(np.prod(grid_shape))
        rng = np.random.default_rng(1234)
        x = rng.standard_normal((n, c, h, w_))
        w = rng.standard_normal((f, c, k, k))

        results = run_dist_conv(nranks, grid_shape, x, w, s, p)
        y_ref = F.conv2d_forward(x, w, stride=s, pad=p)
        rng2 = np.random.default_rng(99)
        dy = rng2.standard_normal(y_ref.shape)
        dx_ref = F.conv2d_backward_data(dy, w, stride=s, pad=p, x_spatial=(h, w_))
        dw_ref = F.conv2d_backward_filter(x, dy, kernel=k, stride=s, pad=p)

        for y_got, dx_got, dw_got, _, dy_used in results:
            np.testing.assert_array_equal(dy_used, dy)
            np.testing.assert_allclose(y_got, y_ref, rtol=RTOL, atol=1e-12)
            np.testing.assert_allclose(dx_got, dx_ref, rtol=RTOL, atol=1e-12)
            np.testing.assert_allclose(dw_got, dw_ref, rtol=1e-10, atol=1e-11)

    def test_bias_gradients(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 2, 8, 8))
        w = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal(3)
        results = run_dist_conv(4, (1, 1, 2, 2), x, w, 1, 1, bias=b)
        y_ref = F.conv2d_forward(x, w, stride=1, pad=1, bias=b)
        rng2 = np.random.default_rng(99)
        dy = rng2.standard_normal(y_ref.shape)
        for y_got, _, _, db_got, _ in results:
            np.testing.assert_allclose(y_got, y_ref, rtol=RTOL)
            np.testing.assert_allclose(db_got, dy.sum(axis=(0, 2, 3)), rtol=1e-10)

    def test_sample_parallel_needs_no_spatial_traffic(self):
        """Pure sample parallelism: the gather degenerates to the local
        block — zero point-to-point bytes moved (the paper's 'cheapest'
        decomposition)."""
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 2, 6, 6))
        w = rng.standard_normal((3, 2, 3, 3))

        def prog(comm):
            grid = ProcessGrid(comm, (4, 1, 1, 1))
            xd = DistTensor.from_global(grid, activation_dist(grid.shape, x.shape), x)
            conv = Driven(DistConv2d(grid, w, stride=1, pad=1))
            comm.stats.reset()
            conv.forward(xd)
            return comm.stats.collective_bytes.get("region_data", 0)

        assert run_spmd(4, prog) == [0, 0, 0, 0]

    def test_spatial_halo_volume_matches_model(self):
        """Spatial parallelism moves exactly the O-row halos the paper's
        cost model charges: 2 * SR(O * N * C * W_local) for a 1D height
        decomposition with interior ranks sending two halos."""
        n, c, h, w_, f, k = 1, 2, 16, 8, 3, 3
        rng = np.random.default_rng(7)
        x = rng.standard_normal((n, c, h, w_))
        w = rng.standard_normal((f, c, k, k))

        def prog(comm):
            grid = ProcessGrid(comm, (1, 1, 4, 1))
            xd = DistTensor.from_global(grid, activation_dist(grid.shape, x.shape), x)
            conv = Driven(DistConv2d(grid, w, stride=1, pad=1))
            comm.stats.reset()
            conv.forward(xd)
            return comm.stats.collective_bytes.get("region_data", 0)

        byte_counts = run_spmd(4, prog)
        halo_row_bytes = 1 * n * c * w_ * 8  # O=1 row of float64
        # Edge ranks serve one neighbor, interior ranks two.
        assert byte_counts == [
            halo_row_bytes, 2 * halo_row_bytes, 2 * halo_row_bytes, halo_row_bytes,
        ]

    def test_replicated_spatial_dims(self):
        """1x1 'FC-as-conv' on a (N, C, 1, 1) tensor with spatial axes
        replicated (the classifier head case)."""
        rng = np.random.default_rng(8)
        x = rng.standard_normal((4, 6, 1, 1))
        w = rng.standard_normal((3, 6, 1, 1))

        def prog(comm):
            grid = ProcessGrid(comm, (2, 1, 2, 1))
            dist = activation_dist(grid.shape, x.shape)
            assert not dist.is_split(2)  # H=1 < 2 parts -> replicated
            xd = DistTensor.from_global(grid, dist, x)
            conv = Driven(DistConv2d(grid, w))
            y = conv.forward(xd)
            dy = DistTensor.from_global(
                grid, y.dist, np.ones(y.global_shape)
            )
            dx, dw_p, _ = conv.backward(dy)
            axes = [d for d in range(4) if y.dist.is_split(d)]
            dw = grid.axes_comm(axes).allreduce(dw_p) if axes else dw_p
            return y.to_global(), dx.to_global(), dw

        y_ref = F.conv2d_forward(x, w)
        dy = np.ones(y_ref.shape)
        dx_ref = F.conv2d_backward_data(dy, w, x_spatial=(1, 1))
        dw_ref = F.conv2d_backward_filter(x, dy, kernel=1)
        for y_got, dx_got, dw_got in run_spmd(4, prog):
            np.testing.assert_allclose(y_got, y_ref, rtol=RTOL)
            np.testing.assert_allclose(dx_got, dx_ref, rtol=RTOL)
            np.testing.assert_allclose(dw_got, dw_ref, rtol=1e-10)

    @pytest.mark.parametrize(
        "make",
        [
            lambda grid: DistConv2d(grid, np.zeros((2, 2, 3, 3)), pad=1),
            lambda grid: DistPool2d(grid, "max", 2),
        ],
        ids=["DistConv2d", "DistPool2d"],
    )
    def test_channel_axis_rejected(self, make):
        """Channels are never split: a windowed layer on a grid with axis 1
        > 1 raises at its first geometry instead of gathering a channel
        block."""

        def prog(comm):
            grid = ProcessGrid(comm, (1, 2, 1, 1))
            x = np.zeros((1, 2, 4, 4))
            Driven(make(grid)).forward(
                DistTensor.from_global(grid, activation_dist(grid.shape, x.shape), x)
            )

        with pytest.raises(ValueError, match="grid axis 1 must be 1"):
            run_spmd(2, prog, timeout=10)


class TestInPlaceWindows:
    """A window that exchanges nothing — every convolution at p = 1 or under
    sample parallelism — reads the shard in place: forward, ``dw`` and
    ``dx`` are bitwise the kernels on the shard, what forward saves for
    backward is a view of its input (the layer holds no array of its own),
    and its buffer pool is never asked for a region."""

    @pytest.mark.parametrize("grid_shape", [(1, 1, 1, 1), (2, 1, 1, 1)], ids=["p1", "sample2"])
    @pytest.mark.parametrize(
        "n,c,h,w_,f,k,s,p",
        [
            (2, 18, 32, 32, 4, 5, 2, 2),  # conv1_1's K5 S2 P2: one row of bottom padding
            (2, 3, 9, 9, 4, 3, 2, 1),
            (2, 3, 8, 8, 5, 1, 1, 0),     # unpadded 1x1
            (2, 2, 7, 6, 3, 1, 1, 2),     # P >= K: border outputs read padding only
        ],
    )
    def test_bitwise_kernels_on_the_shard(self, grid_shape, n, c, h, w_, f, k, s, p):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((n, c, h, w_))
        w = rng.standard_normal((f, c, k, k))

        def owned(layer):
            """The arrays the layer holds that own their memory, its
            parameters (the network's) aside."""
            held = [v for name, v in vars(layer).items() if name not in ("w", "bias")]
            held = [a for v in held for a in (v if isinstance(v, tuple) else (v,))]
            return [a for a in held if isinstance(a, np.ndarray) and a.base is None]

        def prog(comm):
            grid = ProcessGrid(comm, grid_shape)
            xd = DistTensor.from_global(grid, activation_dist(grid_shape, x.shape), x)
            conv = Driven(DistConv2d(grid, w, stride=s, pad=p))
            for step in range(3):
                y = conv.forward(xd)
                assert owned(conv.layer) == []
                assert np.shares_memory(conv.saved[0], xd.local)
                dy = np.random.default_rng(step).standard_normal(y.global_shape)
                dyd = DistTensor.from_global(grid, y.dist, dy)
                dx, dw, _ = conv.backward(dyd)
            assert conv.buffers.stats() == (0, 0) and not conv.buffers._free
            xl, dyl = xd.local, dyd.local
            np.testing.assert_array_equal(y.local, F.conv2d_forward(xl, w, stride=s, pad=p))
            np.testing.assert_array_equal(
                dw, F.conv2d_backward_filter(xl, dyl, kernel=k, stride=s, pad=p)
            )
            np.testing.assert_array_equal(
                dx.local, F.conv2d_backward_data(dyl, w, stride=s, pad=p, x_spatial=(h, w_))
            )
            return True

        assert all(run_spmd(int(np.prod(grid_shape)), prog))


class TestWindowGeometry:
    """Every windowed layer gathers, on every rank, a region spanning all of
    its source's channels, and the cached exchange plan assembles exactly
    that region of the global tensor, ``fill`` outside it."""

    @staticmethod
    def geometry(kind, grid, x):
        """``(layer, window, source)`` of conv forward, conv Eq. 3 or max
        pooling over ``x``."""
        xd = DistTensor.from_global(grid, activation_dist(grid.shape, x.shape), x)
        layer = (
            DistPool2d(grid, "max", 3, 2, 1) if kind == "pool"
            else DistConv2d(grid, np.ones((4, x.shape[1], 3, 3)), stride=2, pad=1)
        )
        window = standalone_window(layer, xd)
        if kind != "conv_eq3":
            return layer, window, xd
        y_shape = layer.output_global_shape(x.shape)
        dy = np.random.default_rng(4).standard_normal(y_shape)
        dyd = DistTensor.from_global(grid, activation_dist(grid.shape, y_shape), dy)
        return layer, transposed_window(window), dyd

    @pytest.mark.parametrize("kind", ["conv_forward", "conv_eq3", "pool"])
    @pytest.mark.parametrize(
        "grid_shape",
        [(4, 1, 1, 1), (1, 1, 2, 2), (1, 1, 4, 1), (2, 1, 2, 1)],
        ids=["sample4", "spatial2x2", "spatial4x1", "hybrid2x2x1"],
    )
    def test_region_spans_channels_and_gathers_exactly(self, kind, grid_shape):
        x = np.random.default_rng(3).standard_normal((4, 3, 12, 10))

        def prog(comm):
            grid = ProcessGrid(comm, grid_shape)
            layer, window, src = self.geometry(kind, grid, x)
            g, ex = start_window(layer, src, window)
            assert (g.lo[1], g.hi[1]) == (0, src.global_shape[1])
            assert g.exchanged == (grid_shape[2] * grid_shape[3] > 1)
            got = (
                local_region(src, g.lo, g.hi, fill=layer.fill) if ex is None
                else ex.finish()
            )
            np.testing.assert_array_equal(
                got, region_of(src.to_global(), g.lo, g.hi, fill=layer.fill)
            )
            return True

        assert all(run_spmd(int(np.prod(grid_shape)), prog))

    @pytest.mark.parametrize(
        "grid_shape", [(1, 2, 1, 1), (1, 2, 2, 1), (2, 2, 1, 1)],
        ids=["channel2", "channel2_spatial2", "sample2_channel2"],
    )
    def test_rejects_channel_split_source(self, grid_shape):
        """The guard holds on hybrid grids too, where a spatial halo plan
        would otherwise be built around a channel block."""
        x = np.zeros((2, 4, 8, 8))

        def prog(comm):
            grid = ProcessGrid(comm, grid_shape)
            xd = DistTensor.from_global(grid, Distribution.make(grid_shape), x)
            placement = (xd.dist, x.shape)
            window_geometry(grid.coords, placement, placement, (3, 3), (1, 1), (1, 1))

        with pytest.raises(ValueError, match="grid axis 1 must be 1"):
            run_spmd(int(np.prod(grid_shape)), prog, timeout=10)


class TestHandedExchange:
    """The network decides whether a window exchanges; a layer only checks
    that what it is handed fits the geometry.  A window that reads
    off-shard handed no exchange — which would silently read the halo's
    fill — raises before any kernel runs, and so does a window that reads
    nothing off-shard handed one."""

    @pytest.mark.parametrize("kind", ["conv_forward", "conv_eq3", "pool"])
    def test_exchanged_window_handed_none_raises(self, kind):
        x = np.random.default_rng(5).standard_normal((1, 2, 8, 6))

        def prog(comm):
            grid = ProcessGrid(comm, (1, 1, 2, 1))
            xd = DistTensor.from_global(grid, activation_dist(grid.shape, x.shape), x)
            layer = (
                DistPool2d(grid, "max", 3, 1, 1) if kind == "pool"
                else DistConv2d(grid, np.ones((3, 2, 3, 3)), pad=1)
            )
            window = standalone_window(layer, xd)
            if kind == "conv_eq3":
                driven = Driven(layer)
                y = driven.forward(xd, window)
                dy = DistTensor.from_global(grid, y.dist, np.ones(y.global_shape))
                g = window_geometry(grid.coords, *transposed_window(window))
                assert g.exchanged
                with pytest.raises(ValueError, match="reads off-shard was handed no"):
                    layer.backward(dy, driven.saved, g, None)
                return True
            g = window_geometry(grid.coords, *window)
            assert g.exchanged
            with pytest.raises(ValueError, match="reads off-shard was handed no"):
                layer.forward(xd, g, None)
            # Nothing computed: no region taken from the layer's pool.
            assert layer.buffers.stats() == (0, 0)
            return True

        assert run_spmd(2, prog) == [True, True]

    def test_local_window_handed_an_exchange_raises(self):
        x = np.zeros((2, 2, 4, 4))

        def prog(comm):
            grid = ProcessGrid(comm, (2, 1, 1, 1))
            xd = DistTensor.from_global(grid, activation_dist(grid.shape, x.shape), x)
            conv = DistConv2d(grid, np.ones((1, 2, 3, 3)), pad=1)
            g = window_geometry(grid.coords, *standalone_window(conv, xd))
            assert not g.exchanged
            with pytest.raises(ValueError, match="does not read off-shard was handed a"):
                conv.forward(xd, g, object())
            return True

        assert run_spmd(2, prog) == [True, True]


@settings(max_examples=12, deadline=None)
@given(
    h=st.integers(6, 14),
    w=st.integers(6, 14),
    k=st.sampled_from([1, 3, 5]),
    s=st.integers(1, 2),
    seed=st.integers(0, 50),
)
def test_dist_conv_property(h, w, k, s, seed):
    """Exactness over random geometries on a 2x2 spatial grid."""
    p = k // 2
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((1, 2, h, w))
    wt = rng.standard_normal((3, 2, k, k))
    results = run_dist_conv(4, (1, 1, 2, 2), x, wt, s, p)
    y_ref = F.conv2d_forward(x, wt, stride=s, pad=p)
    for y_got, *_ in results:
        np.testing.assert_allclose(y_got, y_ref, rtol=1e-10, atol=1e-12)
