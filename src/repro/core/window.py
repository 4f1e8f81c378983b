"""Window geometry: the kernel/stride/pad region algebra of windowed layers.

A layer is a window geometry and a kernel.  Convolution (forward and
Eq. 3's transposed form), pooling and the channel/filter-parallel
convolutions all evaluate, for every index of a rank's block, a kernel over
a window of another tensor; which rows that window covers is the only thing
that distinguishes them here.  Let a rank own block rows ``[a, b)`` (W is
symmetric).  With kernel K, stride S, padding P:

* **forward** — output row ``j`` reads input rows ``[jS - P, jS - P + K)``,
  so the block depends on input region ``[aS - P, (b - 1)S - P + K)`` (its
  own rows plus halo; out-of-range parts are virtual padding, filled by the
  gather).  When S=1 the halo is exactly ``O = floor(K/2)`` rows on each
  side — the paper's halo exchange;
* **transposed** (Eq. 3) — input row ``i`` is influenced by output rows
  ``[(i + P - K + 1)/S, (i + P)/S]``; the block gathers error-signal rows
  ``[floor((a + P - K + 1)/S), floor((b - 1 + P)/S) + 1)``, and the
  transposed convolution runs with effective left padding
  ``a + P - S*lo`` (>= K-1 by construction), which aligns the gathered
  region with the block exactly.

:func:`window_geometry` turns that into everything a layer needs per
(direction, shape, distribution), computed once and cached by the layer:
every rank's dependency region, whether any of them reaches off-shard, the
decomposition of this rank's block into an *interior* — indices whose
windows lie entirely in locally owned data or virtual padding — and up to
four *boundary* strips that depend on halo cells (§IV-A), and the exchange
plan.  :func:`~repro.core.dist_conv.start_gather` and
:func:`~repro.core.dist_conv.run_block` are the one sequence every such
layer runs on it: post the halo strips, run the interior kernels while they
travel, ``finish()`` the exchange, run the boundary kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.tensor.dist_tensor import DistTensor
from repro.tensor.exchange import TransferPlan
from repro.tensor.halo import any_region_remote, plan_region_exchange
from repro.tensor.indexing import ceil_div

Span = tuple[int, int]


@dataclass(frozen=True)
class Window:
    """One spatial axis of a windowed layer (forward, or Eq. 3 transposed)."""

    kernel: int
    stride: int
    pad: int
    transposed: bool = False

    def span(self, a: int, b: int) -> Span:
        """Source rows block rows ``[a, b)`` depend on (empty for ``b <= a``)."""
        k, s, p = self.kernel, self.stride, self.pad
        if self.transposed:
            lo = (a + p - (k - 1)) // s
            return lo, ((b - 1 + p) // s + 1 if b > a else lo)
        lo = a * s - p
        return lo, ((b - 1) * s - p + k if b > a else lo)

    def interior(self, block: Span, owned: Span, extent: int) -> Span:
        """Rows of ``block`` whose windows need only the ``owned`` source
        rows.  Windows reaching past the global edge (``0`` / ``extent``)
        read virtual padding, which is local knowledge, so global-boundary
        ranks keep a full interior on that side."""
        k, s, p = self.kernel, self.stride, self.pad
        (a, b), (o_lo, o_hi) = block, owned
        if self.transposed:
            first, last = s * (o_lo - 1) + k - p, s * o_hi - p
        else:
            first, last = ceil_div(o_lo + p, s), (o_hi + p - k) // s + 1
        return (
            a if o_lo == 0 else max(a, first),
            b if o_hi == extent else min(b, last),
        )


def _frame_pieces(
    outer_h: Span, outer_w: Span, inner_h: Span, inner_w: Span
) -> list[tuple[Span, Span, bool]]:
    """Decompose rectangle ``outer`` into the ``inner`` core plus a frame.

    Returns ``[(rows, cols, is_interior), ...]`` in a fixed deterministic
    order (interior, top, bottom, left, right; empty pieces dropped).  When
    the interior is empty the whole outer rectangle is one boundary piece.
    """
    (oh_lo, oh_hi), (ow_lo, ow_hi) = outer_h, outer_w
    ih_lo = max(inner_h[0], oh_lo)
    ih_hi = min(inner_h[1], oh_hi)
    iw_lo = max(inner_w[0], ow_lo)
    iw_hi = min(inner_w[1], ow_hi)
    if oh_hi <= oh_lo or ow_hi <= ow_lo:
        return []
    if ih_hi <= ih_lo or iw_hi <= iw_lo:
        return [((oh_lo, oh_hi), (ow_lo, ow_hi), False)]
    pieces = [((ih_lo, ih_hi), (iw_lo, iw_hi), True)]
    if ih_lo > oh_lo:
        pieces.append(((oh_lo, ih_lo), (ow_lo, ow_hi), False))
    if oh_hi > ih_hi:
        pieces.append(((ih_hi, oh_hi), (ow_lo, ow_hi), False))
    if iw_lo > ow_lo:
        pieces.append(((ih_lo, ih_hi), (ow_lo, iw_lo), False))
    if ow_hi > iw_hi:
        pieces.append(((ih_lo, ih_hi), (iw_hi, ow_hi), False))
    return pieces


@dataclass(frozen=True)
class WindowGeometry:
    """Static execution geometry of one layer and direction on this rank.

    Everything here is a pure function of (global shapes, distributions,
    layer hyper-parameters), so layers compute it once per (direction,
    shape, distribution) — including the halo plan — rather than per step.
    The *block* tensor is the one the kernel produces (the output in
    forward, the input gradient in Eq. 3); the *source* is the one it
    reads through windows.
    """

    dist: object                 # distribution of the block tensor
    shape: tuple[int, ...]       # global shape of the block tensor
    bounds: tuple[Span, ...]     # this rank's block
    lo: tuple[int, ...]          # gathered dependency region, inclusive start
    hi: tuple[int, ...]          # gathered dependency region, exclusive end
    exchanged: bool              # does any rank need remote data?
    pieces: tuple                # ((rows, cols, is_interior), ...) if exchanged
    plan: TransferPlan           # the region gather's schedule
    windows: tuple[Window, Window]

    @property
    def block_shape(self) -> tuple[int, ...]:
        return tuple(hi - lo for lo, hi in self.bounds)

    def block_index(self, rows: Span, cols: Span) -> tuple:
        """Index of block rows/cols ``rows`` x ``cols`` in the local block."""
        h0, w0 = self.bounds[2][0], self.bounds[3][0]
        return (
            slice(None), slice(None),
            slice(rows[0] - h0, rows[1] - h0), slice(cols[0] - w0, cols[1] - w0),
        )

    def source_index(self, rows: Span, cols: Span) -> tuple:
        """Index, in the gathered region, of the windows of ``rows`` x ``cols``."""
        (h0, h1), (w0, w1) = self.windows[0].span(*rows), self.windows[1].span(*cols)
        return (
            slice(None), slice(None),
            slice(h0 - self.lo[2], h1 - self.lo[2]),
            slice(w0 - self.lo[3], w1 - self.lo[3]),
        )

    def transposed_pad(self, rows: Span, cols: Span) -> tuple[int, int]:
        """Effective left padding aligning the gathered error-signal rows of
        block ``rows`` x ``cols`` with the block (Eq. 3)."""
        return tuple(
            a + w.pad - w.stride * w.span(a, b)[0]
            for w, (a, b) in zip(self.windows, (rows, cols))
        )


def window_geometry(
    source: DistTensor,
    dist,
    shape: tuple[int, ...],
    kernel: tuple[int, int],
    stride: tuple[int, int],
    pad: tuple[int, int],
    channels_of: Callable[[tuple[int, ...]], Span],
    transposed: bool = False,
) -> WindowGeometry:
    """Geometry of a windowed kernel producing the block tensor ``(dist,
    shape)`` from windows of ``source``.

    ``channels_of(coords)`` supplies any rank's dim-1 slot of the gathered
    region (the layer decides whether that is the full extent, the rank's
    own block, or a channel/filter slice).
    """
    grid = source.grid
    windows = tuple(
        Window(k, s, p, transposed) for k, s, p in zip(kernel, stride, pad)
    )

    def region_of(coords):
        (n_lo, n_hi), _, rows, cols = dist.local_bounds(shape, coords)
        c_lo, c_hi = channels_of(coords)
        (h0, h1), (w0, w1) = windows[0].span(*rows), windows[1].span(*cols)
        return (n_lo, c_lo, h0, w0), (n_hi, c_hi, h1, w1)

    regions = [region_of(grid.coords_of(r)) for r in range(grid.comm.size)]
    lo, hi = regions[grid.comm.rank]
    bounds = dist.local_bounds(shape, grid.coords)
    exchanged = any_region_remote(source, regions)
    pieces: tuple = ()
    if exchanged:
        owned = source.bounds
        inner = [
            w.interior(bounds[d], owned[d], source.global_shape[d])
            for d, w in zip((2, 3), windows)
        ]
        pieces = tuple(_frame_pieces(bounds[2], bounds[3], *inner))
    plan = plan_region_exchange(source, lo, hi, regions)
    return WindowGeometry(
        dist, shape, bounds, lo, hi, exchanged, pieces, plan, windows
    )
