"""Layer-level exactness of distributed convolution (paper §III-A).

"Our algorithms exactly replicate convolution as if it were performed on a
single GPU (up to floating point accumulation issues)."
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Driven, region_of, standalone_window, start_window
from repro.comm import run_spmd
from repro.core import dist_conv, dist_layers
from repro.core.dist_conv import DistConv2d
from repro.core.dist_layers import DistPool2d
from repro.core.window import transposed_window, window_geometry
from repro.nn import functional as F
from repro.tensor import DistTensor, Distribution, ProcessGrid
from repro.tensor import halo
from repro.tensor.exchange import cells, clip
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
    """Every convolution and pooling window reads its shard in place.  A
    window that exchanges nothing — every convolution at p = 1 or under
    sample parallelism — is one piece over the shard: forward, ``dw`` and
    ``dx`` are bitwise the kernels on the shard, and what forward saves for
    backward is a view of its input (the layer holds no array of its own).
    A window that exchanges reads its interior in place too and stages only
    its boundary pieces' source boxes, clipped to the tensor: no buffer the
    size of its region."""

    @staticmethod
    def owned(obj):
        """The arrays in ``obj`` (a layer's attributes, its parameters
        aside, or what its forward saved) that own their memory."""
        if hasattr(obj, "grid"):
            obj = [v for name, v in vars(obj).items() if name not in ("w", "bias")]
        if isinstance(obj, np.ndarray):
            return [obj] if obj.base is None else []
        if isinstance(obj, (tuple, list)):
            return [a for v in obj for a in TestInPlaceWindows.owned(v)]
        return []

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

        def prog(comm):
            grid = ProcessGrid(comm, grid_shape)
            xd = DistTensor.from_global(grid, activation_dist(grid_shape, x.shape), x)
            conv = Driven(DistConv2d(grid, w, stride=s, pad=p))
            for step in range(3):
                y = conv.forward(xd)
                ((_, src, _),) = conv.saved
                assert self.owned(conv.layer) == [] and self.owned(conv.saved) == []
                assert np.shares_memory(src, xd.local)
                dy = np.random.default_rng(step).standard_normal(y.global_shape)
                dyd = DistTensor.from_global(grid, y.dist, dy)
                dx, dw, _ = conv.backward(dyd)
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

    @pytest.mark.parametrize(
        "grid_shape", [(1, 1, 2, 1), (1, 1, 2, 2)], ids=["height2", "height2_width2"]
    )
    @pytest.mark.parametrize(
        "n,c,h,w_,f,k,s,p,interior",
        [
            (2, 3, 12, 10, 4, 3, 1, 1, True),
            (2, 3, 13, 11, 4, 3, 2, 1, True),
            (1, 4, 24, 20, 3, 5, 2, 2, True),     # conv1_1's K5 S2 P2
            (2, 3, 4, 6, 4, 5, 1, 2, False),      # 2 rows a rank: no interior
            (2, 3, 16, 14, None, 3, 2, 1, True),  # ResNet's pool1: max K3 S2 P1
        ],
        ids=["k3s1", "k3s2", "k5s2_conv1_1", "thin", "pool1_k3s2p1"],
    )
    def test_exchanged_windows_stage_only_the_boundary(
        self, monkeypatch, grid_shape, n, c, h, w_, f, k, s, p, interior
    ):
        rng = np.random.default_rng(22)
        x = rng.standard_normal((n, c, h, w_))
        if f is None:  # max pooling
            y_ref, argmax = F.maxpool2d_forward(x, k, s, p)
            dy = rng.standard_normal(y_ref.shape)
            dx_ref = F.maxpool2d_backward(dy, argmax, x.shape, k, s, p)
        else:
            w = rng.standard_normal((f, c, k, k))
            y_ref = F.conv2d_forward(x, w, stride=s, pad=p)
            dy = rng.standard_normal(y_ref.shape)
            dw_ref = F.conv2d_backward_filter(x, dy, kernel=k, stride=s, pad=p)
            dx_ref = F.conv2d_backward_data(dy, w, stride=s, pad=p, x_spatial=(h, w_))

        # What each rank's forward ran its pieces on: the gather it was
        # handed and what every piece read.
        forward, run_block = threading.local(), dist_conv.run_block

        def spy(piece, source, g, ex, dtypes):
            out, forward.reads = run_block(piece, source, g, ex, dtypes)
            forward.ex = ex
            return out, forward.reads

        monkeypatch.setattr(dist_layers, "run_block", spy)
        monkeypatch.setattr(dist_conv, "run_block", spy)

        def prog(comm):
            grid = ProcessGrid(comm, grid_shape)
            xd = DistTensor.from_global(grid, activation_dist(grid_shape, x.shape), x)
            layer = Driven(
                DistPool2d(grid, "max", k, s, p) if f is None
                else DistConv2d(grid, w, stride=s, pad=p)
            )
            y = layer.forward(xd)
            g = window_geometry(grid.coords, *layer.window)
            assert g.exchanged and any(inside for *_, inside in g.pieces) == interior
            # The interior piece reads a view of the shard, each boundary
            # piece the buffer staged of its box clipped to the tensor.
            tensor = tuple((0, e) for e in x.shape)
            boxes = tuple(clip(box, tensor) for box in g.boundary_boxes)
            ex = forward.ex
            assert ex.boxes == boxes
            assert [b.shape for b in ex.buffers] == [
                tuple(hi - lo for lo, hi in box) for box in boxes
            ]
            assert max(map(cells, boxes), default=0) < cells(g.plan.box) or not interior
            views = [src for (_, src, _), tile in zip(forward.reads, g.tiles) if tile[2]]
            assert bool(views) == interior
            assert all(np.shares_memory(view, xd.local) for view in views)
            staged = [src for (_, src, _), tile in zip(forward.reads, g.tiles) if not tile[2]]
            assert [src.base is buf for src, buf in zip(staged, ex.buffers)] == [True] * len(boxes)
            assert self.owned(layer.layer) == []
            dyd = DistTensor.from_global(grid, y.dist, dy)
            if f is None:
                return y.to_global(), layer.backward(dyd).to_global(), None
            # Forward saved what its pieces read, and Eq. 3's gather stages
            # its boundary boxes, clipped, nothing else.
            assert layer.saved is forward.reads and self.owned(layer.saved) == []
            g3, ex3 = start_window(layer.layer, dyd, transposed_window(layer.window))
            boxes3 = [clip(box, tuple((0, e) for e in y.global_shape)) for box in g3.boundary_boxes]
            assert [b.shape for b in ex3.finish()] == [
                tuple(hi - lo for lo, hi in box) for box in boxes3
            ]
            dx, dw, _ = layer.backward(dyd)
            axes = [d for d in range(4) if y.dist.is_split(d)]
            return y.to_global(), dx.to_global(), grid.axes_comm(axes).allreduce(dw)

        for y, dx, dw in run_spmd(int(np.prod(grid_shape)), prog):
            np.testing.assert_allclose(y, y_ref, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(dx, dx_ref, rtol=1e-12, atol=1e-12)
            if f is not None:
                np.testing.assert_allclose(dw, dw_ref, rtol=1e-12, atol=1e-12)


class TestWindowGeometry:
    """Every windowed layer gathers, on every rank, a region spanning all of
    its source's channels, and the cached exchange plan stages exactly the
    boxes of it that the layer reads off its shard — its boundary pieces'
    source boxes, clipped to the tensor — as the global tensor holds them,
    every cell written by the exchange."""

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
    def test_region_spans_channels_and_gathers_exactly(self, monkeypatch, kind, grid_shape):
        """The staging buffers are allocated uninitialised, so here they
        come NaN-poisoned: a cell the exchange leaves unwritten fails."""

        class Poisoned:
            """numpy, whose ``empty`` hands out NaN-filled arrays."""

            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def empty(shape, dtype=float):
                return np.full(shape, np.nan, dtype=dtype)

        monkeypatch.setattr(halo, "np", Poisoned())
        x = np.random.default_rng(3).standard_normal((4, 3, 12, 10))

        def prog(comm):
            grid = ProcessGrid(comm, grid_shape)
            layer, window, src = self.geometry(kind, grid, x)
            g, ex = start_window(layer, src, window)
            assert (g.lo[1], g.hi[1]) == (0, src.global_shape[1])
            assert g.exchanged == (grid_shape[2] * grid_shape[3] > 1)
            whole = src.to_global()
            if ex is None:
                return 0
            tensor = tuple((0, e) for e in src.global_shape)
            assert ex.boxes == tuple(clip(box, tensor) for box in g.boundary_boxes)
            for box, got in zip(ex.boxes, ex.finish(), strict=True):
                np.testing.assert_array_equal(got, region_of(whole, *zip(*box)))
            return len(ex.boxes)

        staged = run_spmd(int(np.prod(grid_shape)), prog)
        assert (sum(staged) > 0) == (grid_shape[2] * grid_shape[3] > 1)

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
    off-shard handed no exchange — whose boundary pieces would have no
    staged box to read — raises before any kernel runs, and so does a
    window that reads nothing off-shard handed one."""

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
