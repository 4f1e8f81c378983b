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

Both compose with spatial partitioning: the spatial halo machinery operates
on the channel-sliced tensors unchanged.  The input/error-signal region
gathers run through :class:`~repro.tensor.halo.RegionExchange` — eager
send strips plus posted ``irecv``s from a plan cached per layer and
direction; when no rank's region reaches off-shard, the exchange
degenerates to a purely local materialization with zero communication.
The convolution kernels here stay fused, so the exchange is finished right
after it starts and ``overlap_halo`` (kept for symmetry with
:class:`~repro.core.dist_conv.DistConv2d`) has no ``finish()`` to move.
"""

from __future__ import annotations

import numpy as np

from repro.comm.buffers import BufferPool
from repro.nn import functional as F
from repro.tensor.dist_tensor import DistTensor
from repro.tensor.distribution import DimKind, Distribution
from repro.tensor.grid import ProcessGrid
from repro.tensor.halo import (
    any_region_remote,
    local_region,
    plan_region_exchange,
    start_region_exchange,
)
from repro.tensor.indexing import block_bounds
from repro.core.dist_conv import (
    _bwd_region_builder,
    _floor_div,
    _fwd_region_builder,
    _pair,
)


def _gather_planned(
    dt: DistTensor,
    grid: ProcessGrid,
    cache: dict,
    key,
    region_of_coords,
    pool,
) -> np.ndarray:
    """Gather this rank's dependency region for a conv layer.

    The gather runs through a cached exchange plan;
    ``region_of_coords(coords)`` must yield any rank's ``(lo, hi)`` region
    from shared layer geometry — which is what lets every rank mirror the
    send side of the exchange without a request round-trip.  The schedule
    (and the no-communication fast path decision) is computed once per
    ``key`` and reused every step.
    """
    entry = cache.get(key)
    if entry is None:
        regions = [
            region_of_coords(grid.coords_of(r)) for r in range(grid.comm.size)
        ]
        lo, hi = regions[grid.comm.rank]
        exchanged = any_region_remote(dt, regions)
        plan = plan_region_exchange(dt, lo, hi, regions) if exchanged else None
        entry = cache[key] = (lo, hi, exchanged, plan)
    lo, hi, exchanged, plan = entry
    if not exchanged:
        return local_region(dt, lo, hi, pool=pool)
    return start_region_exchange(dt, lo, hi, pool=pool, plan=plan).finish()


def _channel_replicated_dist(grid_shape, shape) -> Distribution:
    """Activation distribution with dim 1 replicated across grid axis 1."""
    kinds = [
        DimKind.BLOCK if int(n) >= g else DimKind.REPLICATED
        for n, g in zip(shape, grid_shape)
    ]
    kinds[1] = DimKind.REPLICATED
    return Distribution(tuple(int(g) for g in grid_shape), tuple(kinds))


class ChannelParallelConv2d:
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
        overlap_halo: bool = True,
        overlap_allreduce: bool = True,
        allreduce_blocks: int = 4,
    ) -> None:
        if grid.ndim != 4 or grid.shape[1] < 2:
            raise ValueError("ChannelParallelConv2d needs a 4D grid with axis 1 > 1")
        self.grid = grid
        self.stride = _pair(stride)
        self.pad = _pair(pad)
        self.kernel = (weights.shape[2], weights.shape[3])
        c_total = weights.shape[1]
        self.c_lo, self.c_hi = block_bounds(c_total, grid.shape[1], grid.coords[1])
        self.w_full_shape = weights.shape
        self.w_local = np.ascontiguousarray(weights[:, self.c_lo : self.c_hi])
        self.overlap_halo = bool(overlap_halo)
        self.overlap_allreduce = bool(overlap_allreduce)
        if allreduce_blocks < 1:
            raise ValueError(
                f"allreduce_blocks must be >= 1, got {allreduce_blocks}"
            )
        self.allreduce_blocks = int(allreduce_blocks)
        self._x_ext: np.ndarray | None = None
        self._x_meta: tuple | None = None
        # Recycles the gathered input / error-signal regions and the
        # exchange payloads across steps.
        self._pool = BufferPool()
        # Cached (region, exchange plan) per direction and distribution.
        self._geom: dict = {}

    def forward(self, x: DistTensor) -> DistTensor:
        if not x.dist.is_split(1):
            raise ValueError("input must be channel-partitioned (dim 1 split)")
        n, c, h, w = x.global_shape
        oh, ow = F.conv2d_output_shape((h, w), self.kernel, self.stride, self.pad)
        f = self.w_full_shape[0]
        y_shape = (n, f, oh, ow)
        y_dist = _channel_replicated_dist(self.grid.shape, y_shape)
        region_of = _fwd_region_builder(
            self.kernel, self.stride, self.pad, y_dist, y_shape,
            lambda coords: block_bounds(c, self.grid.shape[1], coords[1]),
        )
        x_ext = _gather_planned(
            x, self.grid, self._geom, ("fwd", x.dist, x.global_shape),
            region_of, self._pool,
        )
        self._x_ext = x_ext
        self._x_meta = (x.dist, x.global_shape)

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
        if self._x_ext is None:
            raise RuntimeError("backward() before forward()")
        x_dist, x_shape = self._x_meta
        kh, kw = self.kernel
        sh, sw = self.stride
        ph, pw = self.pad

        dw_local = F.conv2d_backward_filter(
            self._x_ext, dy.local, kernel=self.kernel, stride=self.stride, pad=0
        )

        xb = x_dist.local_bounds(x_shape, self.grid.coords)
        (n_lo, n_hi), _, (xh_lo, xh_hi), (xw_lo, xw_hi) = xb
        dh_lo = _floor_div(xh_lo + ph - (kh - 1), sh)
        dw_lo_ = _floor_div(xw_lo + pw - (kw - 1), sw)
        dy_channels = dy.global_shape[1]
        region_of = _bwd_region_builder(
            self.kernel, self.stride, self.pad, x_dist, x_shape,
            lambda coords: (0, dy_channels),
        )
        dy_ext = _gather_planned(
            dy, self.grid, self._geom,
            ("bwd", dy.dist, dy.global_shape, x_dist, x_shape),
            region_of, self._pool,
        )
        pad_eff = (xh_lo + ph - sh * dh_lo, xw_lo + pw - sw * dw_lo_)
        dx_local = F.conv2d_backward_data(
            dy_ext, self.w_local, stride=self.stride, pad=pad_eff,
            x_spatial=(xh_hi - xh_lo, xw_hi - xw_lo),
        )
        self._pool.give(self._x_ext)
        self._x_ext = None
        self._pool.give(dy_ext)
        dx = DistTensor(self.grid, x_dist, x_shape, dx_local)
        return dx, dw_local


class FilterParallelConv2d:
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
        overlap_halo: bool = True,
    ) -> None:
        if grid.ndim != 4 or grid.shape[1] < 2:
            raise ValueError("FilterParallelConv2d needs a 4D grid with axis 1 > 1")
        self.grid = grid
        self.stride = _pair(stride)
        self.pad = _pair(pad)
        self.kernel = (weights.shape[2], weights.shape[3])
        f_total = weights.shape[0]
        self.f_lo, self.f_hi = block_bounds(f_total, grid.shape[1], grid.coords[1])
        self.w_full_shape = weights.shape
        self.w_local = np.ascontiguousarray(weights[self.f_lo : self.f_hi])
        self.overlap_halo = bool(overlap_halo)
        self._x_ext: np.ndarray | None = None
        self._x_meta: tuple | None = None
        self._pool = BufferPool()
        self._geom: dict = {}

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

        region_of = _fwd_region_builder(
            self.kernel, self.stride, self.pad, y_dist, y_shape,
            lambda coords: (0, c),
        )
        x_ext = _gather_planned(
            x, self.grid, self._geom, ("fwd", x.dist, x.global_shape),
            region_of, self._pool,
        )
        self._x_ext = x_ext
        self._x_meta = (x.dist, x.global_shape)
        y_local = F.conv2d_forward(x_ext, self.w_local, stride=self.stride, pad=0)
        return DistTensor(self.grid, y_dist, y_shape, y_local)

    def backward(self, dy: DistTensor) -> tuple[DistTensor, np.ndarray]:
        """Returns (dx, dw_local_slice)."""
        if self._x_ext is None:
            raise RuntimeError("backward() before forward()")
        x_dist, x_shape = self._x_meta
        kh, kw = self.kernel
        sh, sw = self.stride
        ph, pw = self.pad

        dw_local = F.conv2d_backward_filter(
            self._x_ext, dy.local, kernel=self.kernel, stride=self.stride, pad=0
        )

        xb = x_dist.local_bounds(x_shape, self.grid.coords)
        (n_lo, n_hi), _, (xh_lo, xh_hi), (xw_lo, xw_hi) = xb
        dh_lo = _floor_div(xh_lo + ph - (kh - 1), sh)
        dw_lo_ = _floor_div(xw_lo + pw - (kw - 1), sw)
        f_total = self.w_full_shape[0]
        region_of = _bwd_region_builder(
            self.kernel, self.stride, self.pad, x_dist, x_shape,
            lambda coords: block_bounds(f_total, self.grid.shape[1], coords[1]),
        )
        dy_ext = _gather_planned(
            dy, self.grid, self._geom,
            ("bwd", dy.dist, dy.global_shape, x_dist, x_shape),
            region_of, self._pool,
        )
        pad_eff = (xh_lo + ph - sh * dh_lo, xw_lo + pw - sw * dw_lo_)
        partial_dx = F.conv2d_backward_data(
            dy_ext, self.w_local, stride=self.stride, pad=pad_eff,
            x_spatial=(xh_hi - xh_lo, xw_hi - xw_lo),
        )
        self._pool.give(self._x_ext)
        self._x_ext = None
        self._pool.give(dy_ext)
        # Complete the filter summation of Eq. 3 over the filter group.
        dx_local = self.grid.axis_comm(1).allreduce(partial_dx)
        dx = DistTensor(self.grid, x_dist, x_shape, dx_local)
        return dx, dw_local
