"""Channel- and filter-parallel convolution (paper §III-D).

The paper sketches these decompositions and defers implementation ("we
leave implementation to future work"); this module implements them as an
extension, following the sketch:

* **Channel parallelism** — the input's C dimension is partitioned (grid
  axis 1).  Each rank holds the weight slice ``w[:, c_lo:c_hi]`` and
  computes a *partial* output (the summation over channels in Eq. 1 "may
  involve a global reduce"); an allreduce over the channel group completes
  ``y``, which is then replicated across the group.  Backward-data and
  backward-filter are purely local in the channel dimension.
* **Filter parallelism** — the F dimension is partitioned.  Each rank
  holds ``w[f_lo:f_hi]`` and computes its slice of ``y`` locally; the
  summation over filters in Eq. 3 requires an allreduce over the filter
  group to complete ``dL/dx``.

As the paper notes, the two compose naturally: a filter-parallel layer
produces ``y`` partitioned on F, which is exactly a C-partitioned input for
a channel-parallel successor — no redistribution needed.

Both compose with spatial partitioning: a layer is a window geometry and a
kernel, and the geometry (:mod:`repro.core.window`) operates on the
channel-sliced tensors unchanged — only the dim-1 slot of each rank's
dependency region differs.  The input/error-signal gathers run the cached
plan through :class:`~repro.tensor.halo.RegionExchange`; when no rank's
region reaches off-shard, the gather degenerates to a purely local
materialization with zero communication.  The convolution kernels here stay
fused, so each exchange is finished right after it starts.
"""

from __future__ import annotations

import numpy as np

from repro.comm.buffers import BufferPool
from repro.nn import functional as F
from repro.tensor.dist_tensor import DistTensor
from repro.tensor.distribution import DimKind, Distribution
from repro.tensor.grid import ProcessGrid
from repro.tensor.halo import local_region
from repro.tensor.indexing import block_bounds
from repro.core.dist_conv import start_gather
from repro.core.window import WindowGeometry, window_geometry


class _SlicedConv:
    """What the channel- and filter-parallel convolutions share: a weight
    slice ``w_local``, the cached window geometry of each direction, and
    the gathered regions the fused local kernels run on."""

    w_local: np.ndarray

    def __init__(self, grid: ProcessGrid, weights: np.ndarray, stride, pad) -> None:
        if grid.ndim != 4 or grid.shape[1] < 2:
            raise ValueError(
                f"{type(self).__name__} needs a 4D grid with axis 1 > 1"
            )
        self.grid = grid
        self.stride = F._pair(stride)
        self.pad = F._pair(pad)
        self.kernel = (weights.shape[2], weights.shape[3])
        self.w_full_shape = weights.shape
        self._x_ext: np.ndarray | None = None
        self._x_meta: tuple | None = None
        # Recycles the gathered input / error-signal regions and the
        # exchange payloads across steps.
        self._pool = BufferPool()
        # Cached window geometry per direction and distribution.
        self._geom: dict = {}

    def _gather(
        self, source: DistTensor, dist, shape, channels_of, transposed=False
    ) -> tuple[WindowGeometry, np.ndarray]:
        """This rank's dependency region of ``source`` for the kernel
        producing block tensor ``(dist, shape)``; ``channels_of(coords)``
        is any rank's dim-1 slot of it.  The geometry (and with it the
        exchange plan and the no-communication decision) is computed once
        and reused every step; the kernels are fused, so the exchange is
        finished where it starts."""
        key = (transposed, source.dist, source.global_shape, dist, shape)
        g = self._geom.get(key)
        if g is None:
            g = self._geom[key] = window_geometry(
                source, dist, shape, self.kernel, self.stride, self.pad,
                channels_of, transposed,
            )
        ex = start_gather(source, g, self._pool, overlap=False)
        if ex is None:
            return g, local_region(source, g.lo, g.hi, pool=self._pool)
        return g, ex.out

    def _forward_input(self, x: DistTensor, y_dist, y_shape, channels_of) -> np.ndarray:
        """Gather (and keep for backward) the input region of this rank's
        output block."""
        _, self._x_ext = self._gather(x, y_dist, y_shape, channels_of)
        self._x_meta = (x.dist, x.global_shape)
        return self._x_ext

    def _backward_local(self, dy: DistTensor, channels_of) -> tuple[DistTensor, np.ndarray]:
        """Eq. 2 and Eq. 3 on the weight slice: ``(dx, dw_local)``, ``dx``
        summed over the local filters only.  ``channels_of`` is the dim-1
        slot of the gathered error signal."""
        if self._x_ext is None:
            raise RuntimeError("backward() before forward()")
        x_dist, x_shape = self._x_meta
        dw_local = F.conv2d_backward_filter(
            self._x_ext, dy.local, kernel=self.kernel, stride=self.stride, pad=0
        )
        g, dy_ext = self._gather(dy, x_dist, x_shape, channels_of, transposed=True)
        rows, cols = g.bounds[2], g.bounds[3]
        dx_local = F.conv2d_backward_data(
            dy_ext, self.w_local, stride=self.stride,
            pad=g.transposed_pad(rows, cols),
            x_spatial=(rows[1] - rows[0], cols[1] - cols[0]),
        )
        self._pool.give(self._x_ext)
        self._x_ext = None
        self._pool.give(dy_ext)
        return DistTensor(self.grid, x_dist, x_shape, dx_local), dw_local


def _channel_replicated_dist(grid_shape, shape) -> Distribution:
    """Activation distribution with dim 1 replicated across grid axis 1."""
    kinds = [
        DimKind.BLOCK if int(n) >= g else DimKind.REPLICATED
        for n, g in zip(shape, grid_shape)
    ]
    kinds[1] = DimKind.REPLICATED
    return Distribution(tuple(int(g) for g in grid_shape), tuple(kinds))


class ChannelParallelConv2d(_SlicedConv):
    """Convolution with the input-channel dimension partitioned (grid axis 1).

    Expects ``x`` block-distributed on C; produces ``y`` with F *replicated*
    across the channel group (completed by the allreduce).  Weight
    gradients cover only the local channel slice; their reduction group is
    the sample x spatial axes (each channel shard is unique).

    With ``overlap_allreduce`` (the default) the partial-sum completion is
    pipelined: the local convolution runs piecewise over up to
    ``allreduce_blocks`` filter blocks, launching each block's channel
    ``iallreduce`` as soon as its partial sums exist — so block ``k``'s
    reduction travels while block ``k+1``'s convolution computes (filter
    outputs are independent, so the piecewise kernels are bitwise
    identical to the fused one).  Each block's allreduce still combines
    contributions exactly like the blocking call on the same payload;
    only algorithms that chunk by payload size may pick different
    schedule boundaries for the smaller blocks, where results match to
    floating-point allclose instead of bitwise.
    """

    def __init__(
        self,
        grid: ProcessGrid,
        weights: np.ndarray,
        stride=1,
        pad=0,
        overlap_allreduce: bool = True,
        allreduce_blocks: int = 4,
    ) -> None:
        super().__init__(grid, weights, stride, pad)
        c_total = weights.shape[1]
        self.c_lo, self.c_hi = block_bounds(c_total, grid.shape[1], grid.coords[1])
        self.w_local = np.ascontiguousarray(weights[:, self.c_lo : self.c_hi])
        self.overlap_allreduce = bool(overlap_allreduce)
        if allreduce_blocks < 1:
            raise ValueError(
                f"allreduce_blocks must be >= 1, got {allreduce_blocks}"
            )
        self.allreduce_blocks = int(allreduce_blocks)

    def forward(self, x: DistTensor) -> DistTensor:
        if not x.dist.is_split(1):
            raise ValueError("input must be channel-partitioned (dim 1 split)")
        n, c, h, w = x.global_shape
        oh, ow = F.conv2d_output_shape((h, w), self.kernel, self.stride, self.pad)
        f = self.w_full_shape[0]
        y_shape = (n, f, oh, ow)
        y_dist = _channel_replicated_dist(self.grid.shape, y_shape)
        x_ext = self._forward_input(
            x, y_dist, y_shape,
            lambda coords: block_bounds(c, self.grid.shape[1], coords[1]),
        )

        # Complete the channel summation of Eq. 1 over the channel group.
        group = self.grid.axis_comm(1)
        nblk = min(self.allreduce_blocks, f)
        if not self.overlap_allreduce or group.size == 1 or nblk < 2:
            partial = F.conv2d_forward(
                x_ext, self.w_local, stride=self.stride, pad=0
            )
            y_local = group.allreduce(partial)
            return DistTensor(self.grid, y_dist, y_shape, y_local)
        # Piecewise partial sums, pipelined into the channel allreduce:
        # block k's reduction is in flight while block k+1's convolution
        # computes (filter outputs are independent, so the piecewise
        # kernels are bitwise identical to the fused one).  Every group
        # member sees the same f/nblk, so the iallreduce order lines up.
        pending = []
        for b in range(nblk):
            f0, f1 = block_bounds(f, nblk, b)
            partial = F.conv2d_forward(
                x_ext, self.w_local[f0:f1], stride=self.stride, pad=0
            )
            pending.append((f0, f1, group.iallreduce(partial)))
        y_local: np.ndarray | None = None
        for f0, f1, req in pending:
            reduced = req.wait()
            if y_local is None:
                y_local = np.empty(
                    (reduced.shape[0], f) + reduced.shape[2:],
                    dtype=reduced.dtype,
                )
            y_local[:, f0:f1] = reduced
        return DistTensor(self.grid, y_dist, y_shape, y_local)

    def backward(self, dy: DistTensor) -> tuple[DistTensor, np.ndarray]:
        """Returns (dx, dw_local_slice); dw reduction group excludes axis 1."""
        dy_channels = dy.global_shape[1]
        return self._backward_local(dy, lambda coords: (0, dy_channels))


class FilterParallelConv2d(_SlicedConv):
    """Convolution with the filter dimension partitioned (grid axis 1).

    Expects ``x`` with C replicated across the filter group; produces ``y``
    block-distributed on F.  ``dL/dx`` needs the allreduce over the filter
    group (the summation over filters in Eq. 3).  This is also the
    model-parallel FC layer when applied to 1x1 spatial extents.
    """

    def __init__(
        self,
        grid: ProcessGrid,
        weights: np.ndarray,
        stride=1,
        pad=0,
    ) -> None:
        super().__init__(grid, weights, stride, pad)
        f_total = weights.shape[0]
        self.f_lo, self.f_hi = block_bounds(f_total, grid.shape[1], grid.coords[1])
        self.w_local = np.ascontiguousarray(weights[self.f_lo : self.f_hi])

    def forward(self, x: DistTensor) -> DistTensor:
        if x.dist.is_split(1):
            raise ValueError(
                "input must have C replicated across the filter group"
            )
        n, c, h, w = x.global_shape
        oh, ow = F.conv2d_output_shape((h, w), self.kernel, self.stride, self.pad)
        f = self.w_full_shape[0]
        y_shape = (n, f, oh, ow)
        y_dist = Distribution.make(self.grid.shape)  # F block-split on axis 1
        if f < self.grid.shape[1]:
            raise ValueError("fewer filters than filter-group size")
        yb = y_dist.local_bounds(y_shape, self.grid.coords)
        (f_lo, f_hi) = yb[1]
        if (f_lo, f_hi) != (self.f_lo, self.f_hi):
            raise AssertionError("filter slice misaligned with distribution")

        x_ext = self._forward_input(x, y_dist, y_shape, lambda coords: (0, c))
        y_local = F.conv2d_forward(x_ext, self.w_local, stride=self.stride, pad=0)
        return DistTensor(self.grid, y_dist, y_shape, y_local)

    def backward(self, dy: DistTensor) -> tuple[DistTensor, np.ndarray]:
        """Returns (dx, dw_local_slice)."""
        f_total = self.w_full_shape[0]
        dx, dw_local = self._backward_local(
            dy, lambda coords: block_bounds(f_total, self.grid.shape[1], coords[1])
        )
        # Complete the filter summation of Eq. 3 over the filter group.
        dx.local = self.grid.axis_comm(1).allreduce(dx.local)
        return dx, dw_local
