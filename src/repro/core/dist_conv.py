"""Distributed convolution: sample, spatial, and hybrid parallelism (§III-A).

A layer is a window geometry and a kernel.  The region algebra — which
input rows an output block reads, which error-signal rows an input block
is influenced by (Eq. 3), which of the block's points need no halo — lives
in :mod:`repro.core.window`; this module supplies the convolution kernels:

* **forward** — the rank gathers its output block's input region (its own
  block plus halo; out-of-range parts are virtual padding, zero-filled by
  the gather) and runs a *local* convolution with ``pad=0``;
* **backward-filter** (Eq. 2) — reuses the forward's gathered input region
  against the local error signal, again with ``pad=0``; the partial ``dw``
  is then summed over the grid by an allreduce;
* **backward-data** (Eq. 3) — the rank gathers the error-signal region of
  its input block and evaluates the transposed convolution with the
  effective left padding that aligns the two.  The kernel is one GEMM over
  the gathered region itself plus a col2im scatter clipped to the block
  (:func:`repro.nn.functional.conv2d_backward_data`), and the whole step —
  gather included — is skipped when the network tells the layer its parent
  needs no error signal (``backward(dy, need_dx=False)``).

**Overlapped halo exchange (§IV-A).**  When the layer is spatially
partitioned, each direction runs the one sequence of
:func:`run_block`: post the halo strips, run the
interior kernel while they travel, ``finish()`` the exchange, run the
boundary kernels; in backward the error-signal exchange additionally hides
inside the filter convolution (Eq. 2 needs no halo).  The kernel sequence
does not depend on when the strips arrive — each lands in its fixed slot
of the gathered region — so the result is bitwise the same under any
message delay.

Because communication is expressed through the same region algebra as
``gather_region``, the same code handles pure sample parallelism (zero
communication), pure spatial, hybrid, strides, uneven partitions, and
replicated dimensions — and replicates the single-device result to
floating-point accumulation order.
"""

from __future__ import annotations

import numpy as np

from repro.comm.buffers import BufferPool
from repro.nn import functional as F
from repro.tensor.dist_tensor import DistTensor
from repro.tensor.grid import ProcessGrid
from repro.tensor.halo import RegionExchange, local_region, start_region_exchange
from repro.core.parallelism import activation_dist
from repro.core.window import WindowGeometry, transposed_window, window_geometry


def start_gather(
    source: DistTensor,
    g: WindowGeometry,
    pool,
    fill: float = 0.0,
) -> RegionExchange | None:
    """Post the halo exchange of ``g``'s dependency region, for the caller
    to ``finish()`` — ``None`` when no rank needs remote data (materialize
    it with :func:`~repro.tensor.halo.local_region` instead)."""
    if not g.exchanged:
        return None
    return start_region_exchange(source, g.plan, fill=fill, pool=pool)


def own_window(layer, x: DistTensor) -> tuple:
    """The forward window of windowed ``layer`` driven on its own, without
    a lowered op's: ``x`` read into its grid's placement of the output, the
    one every activation has (:func:`~repro.core.parallelism.activation_dist`)."""
    y_shape = layer.output_global_shape(x.global_shape)
    block = activation_dist(layer.grid.shape, y_shape), y_shape
    return (x.dist, x.global_shape), block, layer.kernel, layer.stride, layer.pad, False


def run_block(
    piece,
    source: DistTensor,
    g: WindowGeometry,
    ex: RegionExchange | None,
    pool,
    dtypes: tuple,
    fill: float = 0.0,
) -> tuple[tuple, np.ndarray]:
    """Evaluate a windowed kernel over this rank's block.

    ``piece(ext, g, rows, cols)`` returns the tuple of output arrays for
    block rows/cols from the gathered region ``ext``.  When nothing is
    exchanged (``ex is None``: pure sample parallelism / replicated spatial
    dims) that is one fused kernel on the locally materialized region.
    Otherwise the block is assembled (one array per entry of ``dtypes``)
    from the interior pieces, computed while the halo strips travel, and
    the boundary pieces, computed after ``ex.finish()``.  Returns
    ``(outputs, gathered region)``.
    """
    if ex is None:
        ext = local_region(source, g.lo, g.hi, fill=fill, pool=pool)
        return piece(ext, g, g.bounds[2], g.bounds[3]), ext
    ext = ex.out
    blocks = tuple(np.empty(g.block_shape, dtype=dt) for dt in dtypes)

    def run(want_interior: bool) -> None:
        for rows, cols, interior in g.pieces:
            if interior == want_interior:
                index = g.block_index(rows, cols)
                for block, out in zip(blocks, piece(ext, g, rows, cols)):
                    block[index] = out

    run(True)
    ex.finish()
    run(False)
    return blocks, ext


class DistConv2d:
    """A distributed 2D convolutional layer.

    Weights (and bias) are replicated on every rank of ``grid``; the
    activation tensors are distributed along (N, H, W) per the grid shape;
    the halo exchange's ``finish()`` comes after the interior kernels.
    """

    def __init__(
        self,
        grid: ProcessGrid,
        weights: np.ndarray,
        stride=1,
        pad=0,
        bias: np.ndarray | None = None,
    ) -> None:
        if grid.ndim != 4:
            raise ValueError("DistConv2d expects a 4D (N, C, H, W) grid")
        self.grid = grid
        self.w = weights
        self.bias = bias
        self.stride = F._pair(stride)
        self.pad = F._pair(pad)
        self.kernel = (weights.shape[2], weights.shape[3])
        self._x_ext: np.ndarray | None = None
        self._window: tuple | None = None
        # Recycles the gathered input / error-signal assembly buffers
        # across steps.
        self._pool = BufferPool()

    # -- geometry ------------------------------------------------------------------
    def output_global_shape(self, x_shape: tuple[int, ...]) -> tuple[int, ...]:
        n, c, h, w = x_shape
        oh, ow = F.conv2d_output_shape(
            (h, w), self.kernel, self.stride, self.pad
        )
        return (n, self.w.shape[0], oh, ow)

    # -- kernels over one sub-rectangle of the block ---------------------------------
    def _fwd_piece(self, x_ext, g: WindowGeometry, rows, cols) -> tuple:
        """Convolve output rows/cols from their slice of ``x_ext``."""
        return (
            F.conv2d_forward(
                x_ext[g.source_index(rows, cols)],
                self.w,
                stride=self.stride,
                pad=0,
                bias=self.bias,
            ),
        )

    def _bwd_piece(self, dy_ext, g: WindowGeometry, rows, cols) -> tuple:
        """Transposed-convolve input rows/cols from their slice of ``dy_ext``."""
        return (
            F.conv2d_backward_data(
                dy_ext[g.source_index(rows, cols)],
                self.w,
                stride=self.stride,
                pad=g.transposed_pad(rows, cols),
                x_spatial=(rows[1] - rows[0], cols[1] - cols[0]),
            ),
        )

    # -- forward ---------------------------------------------------------------------
    def forward(self, x: DistTensor, window: tuple | None = None) -> DistTensor:
        """``window`` is the layer's lowered forward window
        (:attr:`~repro.core.schedule.LayerOp.window`), which the network
        hands it; ``None``: :func:`own_window`."""
        window = window or own_window(self, x)
        g = window_geometry(self.grid.coords, *window)
        ex = start_gather(x, g, self._pool)
        (y_local,), self._x_ext = run_block(
            self._fwd_piece, x, g, ex, self._pool,
            (np.result_type(x.dtype, self.w.dtype),),
        )
        self._window = window
        return DistTensor(self.grid, g.dist, g.shape, y_local)

    # -- backward --------------------------------------------------------------------
    def backward(
        self, dy: DistTensor, need_dx: bool = True
    ) -> tuple[DistTensor | None, np.ndarray, np.ndarray | None]:
        """Returns ``(dx, dw_partial, db_partial)``.

        The weight-gradient partials still need the allreduce over the
        layer's gradient group (paper Eq. 2's sum over N) — performed by the
        network so it can be overlapped/batched.  The error-signal halo
        exchange is posted first and hides behind the filter convolution and
        the interior data convolution.

        ``need_dx=False`` — passed by the network when the layer's parent
        needs no error signal — runs Eq. 2 alone: no Eq. 3, no error-signal
        halo exchange, exchange plan or staging buffer, and ``dx`` is
        ``None``.
        """
        if self._x_ext is None:
            raise RuntimeError("backward() before forward()")

        g = ex = None
        if need_dx:
            # Post the dy halo exchange before Eq. 2: the filter
            # convolution needs no remote data, so the strips travel
            # behind it.
            g = window_geometry(self.grid.coords, *transposed_window(self._window))
            ex = start_gather(dy, g, self._pool)

        # Eq. 2: local filter gradients from the saved extended input region.
        dw = F.conv2d_backward_filter(
            self._x_ext, dy.local, kernel=self.kernel, stride=self.stride, pad=0
        )
        db = dy.local.sum(axis=(0, 2, 3)) if self.bias is not None else None
        self._pool.give(self._x_ext)
        self._x_ext = None
        if not need_dx:
            return None, dw, db

        # Eq. 3 over the dy dependency region of our input block.
        if ex is not None:
            ex.poll()
        (dx_local,), dy_ext = run_block(
            self._bwd_piece, dy, g, ex, self._pool,
            (np.result_type(dy.dtype, self.w.dtype),),
        )
        self._pool.give(dy_ext)
        return DistTensor(self.grid, g.dist, g.shape, dx_local), dw, db
