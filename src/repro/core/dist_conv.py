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

**Windows in place.**  Every convolution window reads its shard in place:
the kernels take a window's virtual padding as their left offset and the
block (or piece) as their output extent (:func:`_in_place`), so no padded
copy of the activation or the error signal is ever made.  A window that
exchanges nothing (every convolution at p = 1 or under sample
parallelism, and the 1x1 convolutions at any p) is one piece over the
shard.  A window that exchanges is its interior piece, read in place the
same way, and its boundary pieces, each reading a small staging buffer of
its own source box that the gather fills with the halo cells and the few
owned rows the box needs
(:attr:`~repro.core.window.WindowGeometry.boundary_boxes`); nothing
assembles the whole region.  What forward saves for Eq. 2 is what its
pieces read — a view of the input and the boundary staging buffers — and
Eq. 2 sums the pieces' partial ``dw``.

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
its fixed slots of the staging buffers — so the result is bitwise the
same under any message delay.

Because communication is expressed through the one region algebra, the
same code handles pure sample parallelism (zero communication), pure
spatial, hybrid, strides, uneven partitions, and replicated dimensions —
and replicates the single-device result to floating-point accumulation
order.
"""

from __future__ import annotations

import numpy as np

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


def _in_place(source: DistTensor, box) -> tuple[np.ndarray, tuple[int, int]]:
    """``(view, (top, left))`` of a source ``box`` whose windows need only
    this rank's shard: a read-only view of the shard over ``box`` clipped
    to it, and the rows and columns clipped before it — the left offset the
    convolution kernels read the view at, as zeros.  What is clipped is
    virtual padding, or (Eq. 3 at stride > 1) a first row of the window's
    span that no kernel tap reaches."""
    index, first = [], []
    for (b, h), (m_lo, m_hi) in zip(box, source.bounds):
        lo = min(max(b, m_lo), m_hi)
        index.append(slice(lo - m_lo, max(lo, min(h, m_hi)) - m_lo))
        first.append(lo - b)
    view = source.local[tuple(index)]
    view.flags.writeable = False
    return view, (first[2], first[3])


def run_block(
    piece,
    source: DistTensor,
    g: WindowGeometry,
    ex: RegionExchange | None,
    dtypes: tuple,
    fill: float = 0.0,
    in_place: bool = False,
) -> tuple[tuple, tuple]:
    """Evaluate a windowed kernel over this rank's block, piece by piece.

    ``piece(src, virtual, g, rows, cols)`` returns the tuple of output
    arrays for block rows/cols from ``src``, their windows' source box
    (:meth:`~repro.core.window.WindowGeometry.source_box`) with its first
    ``virtual`` rows and columns of padding clipped off.  ``ex`` is the
    in-flight gather of ``g``'s window, started by the network exactly when
    some rank's window reads off-shard (``g.exchanged``); a window that
    exchanges but is handed none raises.  The interior pieces run while the
    halo strips travel, the boundary pieces after ``ex.finish()``; a window
    that exchanges nothing is one interior piece over the block.  The
    block is assembled (one array per entry of ``dtypes``) from the pieces'
    outputs, or is the one piece's.

    Where a piece reads: ``in_place`` (convolution), an interior piece
    reads the shard (:func:`_in_place`) and a boundary piece the buffer the
    gather staged of its source box (``g.boundary_boxes``, in order).
    Otherwise (pooling) every piece reads its slice of the whole region,
    staged with ``fill`` — the gather's one buffer, or
    :func:`~repro.tensor.halo.local_region` when nothing is exchanged.

    Returns ``(outputs, reads)``: one ``(block index, src, virtual)`` per
    piece, in the order they ran.
    """
    _check_handed(g, ex)
    if not in_place:
        ext = local_region(source, g.lo, g.hi, fill=fill) if ex is None else ex.buffers[0]
    staged = iter(() if ex is None else ex.buffers)
    whole = len(g.tiles) == 1
    out = None if whole else tuple(np.empty(g.block_shape, dtype=dt) for dt in dtypes)
    reads = []
    finished = ex is None
    for rows, cols, inside, index, box in g.tiles:  # interior pieces first
        if not (inside or finished):
            ex.finish()
            finished = True
        if not in_place:
            src, virtual = ext[g.source_index(rows, cols)], (0, 0)
        elif inside:
            src, virtual = _in_place(source, box)
        else:
            src, virtual = next(staged), (0, 0)
        reads.append((index, src, virtual))
        got = piece(src, virtual, g, rows, cols)
        if whole:
            out = got
        else:
            for block, part in zip(out, got):
                block[index] = part
    if not finished:
        ex.finish()
    return out, tuple(reads)


class DistConv2d:
    """A distributed 2D convolutional layer.

    Weights (and bias) are replicated on every rank of ``grid``; the
    activation tensors are distributed along (N, H, W) per the grid shape.
    Each direction runs the pieces of :func:`run_block` over the window
    geometry and in-flight exchange the network hands it, reading the shard
    in place and the staged boundary boxes.
    """

    #: Virtual padding of both gathered windows (input, error signal).
    fill = 0.0
    #: Reads a window's interior in place: the network stages only the
    #: boundary pieces' source boxes.
    in_place = True

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

    # -- geometry ------------------------------------------------------------------
    def output_global_shape(self, x_shape: tuple[int, ...]) -> tuple[int, ...]:
        n, c, h, w = x_shape
        oh, ow = F.conv2d_output_shape(
            (h, w), self.kernel, self.stride, self.pad
        )
        return (n, self.w.shape[0], oh, ow)

    # -- kernels over one piece of the block ------------------------------------------
    def _fwd_piece(self, x, virtual, g: WindowGeometry, rows, cols) -> tuple:
        """Convolve output rows/cols from their windows' source box ``x``."""
        return (
            F.conv2d_forward(
                x, self.w, stride=self.stride, pad=virtual, bias=self.bias,
                y_spatial=(rows[1] - rows[0], cols[1] - cols[0]),
            ),
        )

    def _bwd_piece(self, dy, virtual, g: WindowGeometry, rows, cols) -> tuple:
        """Transposed-convolve input rows/cols from their windows' source
        box ``dy``, at the offset aligning its clipped start with them."""
        pad = tuple(
            p - s * v for p, s, v in zip(g.transposed_pad(rows, cols), self.stride, virtual)
        )
        return (
            F.conv2d_backward_data(
                dy, self.w, stride=self.stride, pad=pad,
                x_spatial=(rows[1] - rows[0], cols[1] - cols[0]),
            ),
        )

    # -- forward ---------------------------------------------------------------------
    def forward(
        self, x: DistTensor, g: WindowGeometry, ex: RegionExchange | None
    ) -> tuple[DistTensor, tuple]:
        """Convolve this rank's output block: ``g`` is the forward window's
        geometry on this rank, ``ex`` the gather of its boundary boxes the
        network started (``None`` when no window reads off-shard).

        Returns ``(output, saved)``: ``saved`` is what the pieces read, one
        ``(block index, source, left offset)`` each — views of the input
        and the boundary staging buffers — for Eq. 2."""
        (y_local,), reads = run_block(
            self._fwd_piece, x, g, ex,
            (np.result_type(x.dtype, self.w.dtype),), in_place=True,
        )
        return DistTensor(self.grid, g.dist, g.shape, y_local), reads

    # -- backward --------------------------------------------------------------------
    def backward(
        self,
        dy: DistTensor,
        saved: tuple,
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
        # Eq. 2: the pieces' filter gradients, from what forward read.
        dw = None
        for index, src, virtual in saved:
            part = F.conv2d_backward_filter(
                src, dy.local[index], kernel=self.kernel, stride=self.stride, pad=virtual
            )
            if dw is None:
                dw = part
            else:
                dw += part
        if dw is None:  # an empty block reads nothing
            dw = np.zeros(self.w.shape, dtype=np.result_type(dy.dtype, self.w.dtype))
        db = dy.local.sum(axis=(0, 2, 3)) if self.bias is not None else None
        if g is None:
            return None, dw, db

        # Eq. 3 over the dy dependency region of our input block.
        if ex is not None:
            ex.poll()
        (dx_local,), _ = run_block(
            self._bwd_piece, dy, g, ex,
            (np.result_type(dy.dtype, self.w.dtype),), in_place=True,
        )
        return DistTensor(self.grid, g.dist, g.shape, dx_local), dw, db
