"""Distributed convolution: sample, spatial, and hybrid parallelism (§III-A).

A layer is a window geometry and a kernel.  The region algebra — which
input rows an output block reads, which error-signal rows an input block
is influenced by (Eq. 3), which of the block's points need no halo — lives
in :mod:`repro.core.window`; this module supplies the convolution kernels:

* **forward** — the rank's output block is computed from its input region
  (its own block plus halo; out-of-range parts are virtual padding, zero);
* **backward-filter** (Eq. 2) — reuses the forward's input region against
  the local error signal; the partial ``dw`` is then summed over the grid
  by an allreduce;
* **backward-data** (Eq. 3) — the error-signal region of the rank's input
  block is evaluated with the transposed convolution at the effective left
  padding that aligns the two.  The kernel is one GEMM over the region
  itself plus a col2im scatter clipped to the block
  (:func:`repro.nn.functional.conv2d_backward_data`), and the whole step is
  skipped when the layer is handed no Eq. 3 window (its parent needs no
  error signal).

**Regions in place.**  A window that exchanges nothing (every convolution
at p = 1 or under sample parallelism, and the 1x1 convolutions at any p)
reads its region straight out of the shard: the kernels take the region's
virtual padding as their left offset and the block as their output extent
(:func:`_in_place`), so no padded copy of the activation or the error
signal is ever made, and what forward saves for Eq. 2 is a view of its
input, not a copy.  Only a window that exchanges assembles
its region — halo and virtual padding — into a buffer of the layer's pool,
and runs the kernels on it with ``pad=0``.

**Overlapped halo exchange (§IV-A).**  The layer decides neither its
window nor whether it exchanges: the network
(:class:`~repro.core.dist_network.DistNetwork`) hands each direction the
window's :class:`~repro.core.window.WindowGeometry` and the gather it
started for it — exactly when the lowered schedule has a
:class:`~repro.core.schedule.HaloOp` there — or ``None``.  Each direction
is then the one sequence of :func:`run_block`: run the interior kernel
while the strips travel, ``finish()`` the exchange, run the boundary
kernels; in backward the network posts the error-signal exchange before
the filter convolution (Eq. 2 needs no halo), so it hides there too.  The
kernel sequence does not depend on when the strips arrive — each lands in
its fixed slot of the assembled region — so the result is bitwise the
same under any message delay.

Because communication is expressed through the one region algebra, the
same code handles pure sample parallelism (zero communication), pure
spatial, hybrid, strides, uneven partitions, and replicated dimensions —
and replicates the single-device result to floating-point accumulation
order.
"""

from __future__ import annotations

import numpy as np

from repro.comm.buffers import BufferPool
from repro.nn import functional as F
from repro.tensor.dist_tensor import DistTensor
from repro.tensor.grid import ProcessGrid
# ``start_region_exchange`` is what the network starts a window's gather
# with (``ex`` below); ``benchmarks/e2e/spans.py`` finds it here too.
from repro.tensor.halo import RegionExchange, local_region, start_region_exchange  # noqa: F401
from repro.core.window import WindowGeometry


def _check_handed(g: WindowGeometry, ex: RegionExchange | None) -> None:
    """Raise unless the network handed a gather exactly to a window that
    reads off-shard (``g.exchanged``)."""
    if (ex is None) == g.exchanged:
        raise ValueError(
            f"a window that {'reads' if g.exchanged else 'does not read'} "
            f"off-shard was handed {'no' if ex is None else 'a'} halo exchange"
        )


def _in_place(source: DistTensor, g: WindowGeometry) -> tuple[np.ndarray, tuple[int, int]]:
    """``(view, (top, left))`` of a window that exchanges nothing: a
    read-only view of the shard over ``g``'s region clipped to the tensor,
    and the virtual padding the region has before it — the left offset the
    convolution kernels read the view at."""
    clipped = []
    for b, h, n in zip(g.lo, g.hi, source.global_shape):
        lo = min(max(b, 0), n)
        clipped.append((lo, max(lo, min(h, n))))
    view = source._local_slice_of(clipped)  # raises unless this rank owns it
    view.flags.writeable = False
    return view, (clipped[2][0] - g.lo[2], clipped[3][0] - g.lo[3])


def run_block(
    piece,
    source: DistTensor,
    g: WindowGeometry,
    ex: RegionExchange | None,
    pool,
    dtypes: tuple,
    fill: float = 0.0,
) -> tuple[tuple, np.ndarray]:
    """Evaluate a windowed kernel over this rank's block from its assembled
    region.

    ``piece(ext, g, rows, cols)`` returns the tuple of output arrays for
    block rows/cols from the assembled region ``ext``.  ``ex`` is the
    in-flight gather of ``g``'s region, started by the network exactly when
    some rank's window reads off-shard (``g.exchanged``); a window that
    exchanges but is handed none raises.  The block is assembled (one array
    per entry of ``dtypes``) from the interior pieces, computed while the
    halo strips travel, and the boundary pieces, computed after
    ``ex.finish()``.  When nothing is exchanged — only pooling runs such a
    window through here; convolution reads it in place (:func:`_in_place`)
    — the kernel is one fused call on the region
    :func:`~repro.tensor.halo.local_region` stages.  Returns ``(outputs,
    assembled region)``.
    """
    _check_handed(g, ex)
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
    activation tensors are distributed along (N, H, W) per the grid shape.
    Each direction runs over the window geometry and in-flight exchange the
    network hands it: in place when the window exchanges nothing
    (:func:`_in_place`), else the interior / boundary sequence of
    :func:`run_block` over the assembled region.
    """

    #: Virtual padding of both gathered regions (input, error signal).
    fill = 0.0

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
        #: Recycles the assembled input / error-signal regions of exchanged
        #: windows across steps (the network starts those exchanges into it).
        self.buffers = BufferPool()

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
    def forward(
        self, x: DistTensor, g: WindowGeometry, ex: RegionExchange | None
    ) -> tuple[DistTensor, tuple[np.ndarray, tuple[int, int]]]:
        """Convolve this rank's output block: ``g`` is the forward window's
        geometry on this rank, ``ex`` the gather of its input region the
        network started (``None`` when no window reads off-shard).

        Returns ``(output, saved)``: ``saved`` is the input region and the
        left offset Eq. 2 reads it at — a view of the activation, or an
        assembled region of the pool."""
        if g.exchanged:
            (y_local,), x_src = run_block(
                self._fwd_piece, x, g, ex, self.buffers,
                (np.result_type(x.dtype, self.w.dtype),),
            )
            pad = (0, 0)
        else:
            _check_handed(g, ex)
            x_src, pad = _in_place(x, g)
            y_local = F.conv2d_forward(
                x_src, self.w, stride=self.stride, pad=pad, bias=self.bias,
                y_spatial=g.block_shape[2:],
            )
        return DistTensor(self.grid, g.dist, g.shape, y_local), (x_src, pad)

    # -- backward --------------------------------------------------------------------
    def backward(
        self,
        dy: DistTensor,
        saved: tuple[np.ndarray, tuple[int, int]],
        g: WindowGeometry | None = None,
        ex: RegionExchange | None = None,
    ) -> tuple[DistTensor | None, np.ndarray, np.ndarray | None]:
        """Returns ``(dx, dw_partial, db_partial)``; ``saved`` is what
        :meth:`forward` returned beside the output.

        The weight-gradient partials still need the allreduce over the
        layer's gradient group (paper Eq. 2's sum over N) — performed by the
        network so it can be overlapped/batched.

        ``g`` is Eq. 3's window geometry on this rank and ``ex`` the
        error-signal gather the network started for it before this call,
        so the strips travel behind the filter convolution and the interior
        data convolution.  Without a ``g`` — the parent needs no error
        signal — this runs Eq. 2 alone and ``dx`` is ``None``.
        """
        # Eq. 2: local filter gradients from forward's input region.
        x_src, pad = saved
        dw = F.conv2d_backward_filter(
            x_src, dy.local, kernel=self.kernel, stride=self.stride, pad=pad
        )
        db = dy.local.sum(axis=(0, 2, 3)) if self.bias is not None else None
        self.buffers.give(x_src)  # recycles an assembled region, never a view
        if g is None:
            return None, dw, db

        # Eq. 3 over the dy dependency region of our input block.
        if g.exchanged:
            if ex is not None:
                ex.poll()
            (dx_local,), dy_ext = run_block(
                self._bwd_piece, dy, g, ex, self.buffers,
                (np.result_type(dy.dtype, self.w.dtype),),
            )
            self.buffers.give(dy_ext)
        else:
            _check_handed(g, ex)
            dy_src, virtual = _in_place(dy, g)
            # The offset aligning the clipped region, not the padded one.
            pad = tuple(
                p - s * v
                for p, s, v in zip(g.transposed_pad(*g.bounds[2:]), self.stride, virtual)
            )
            dx_local = F.conv2d_backward_data(
                dy_src, self.w, stride=self.stride, pad=pad, x_spatial=g.block_shape[2:]
            )
        return DistTensor(self.grid, g.dist, g.shape, dx_local), dw, db
