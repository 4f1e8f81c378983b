"""Window geometry: the kernel/stride/pad region algebra of windowed layers.

A layer is a window geometry and a kernel.  Convolution (forward and
Eq. 3's transposed form) and pooling both evaluate, for every index of a
rank's block, a kernel over a window of another tensor; which rows that
window covers is the only thing that distinguishes them here.  Samples and
space are split, channels never are: every rank gathers the source's full
channel range.  Let a rank own block rows ``[a, b)`` (W is
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
(rank, direction, placements): the rank's dependency region, whether any
rank's window reads off-shard, the decomposition of the rank's block into
an *interior* — indices whose windows lie entirely in locally owned data or
virtual padding — and up to four *boundary* strips that depend on halo
cells (§IV-A), and the exchange plan.  It is a pure, cached function of the
rank's grid coordinates, the two placements and the window — no tensor, no
communicator; the plans of a sample group are made together
(:func:`group_plans`) — so the engine's layers, the lowered schedule's
:class:`~repro.core.schedule.HaloOp` and every model that prices one ask
for the same answer.  This is the one place a halo is decided: which
source rows a window reads, whom a rank exchanges them with, and which
block points wait for them.  Its key after the coordinates, a layer's
window, is built once: :func:`~repro.core.schedule.lower` builds it from
the step's placements, and the network hands the layer its geometry (Eq. 3's
window is :func:`transposed_window` of it).

The network (:class:`~repro.core.dist_network.DistNetwork`) posts a
window's halo strips when the schedule has a
:class:`~repro.core.schedule.HaloOp` for it, and
:func:`~repro.core.dist_conv.run_block` is the one sequence every such
layer runs on the geometry and exchange it is handed: the interior kernels
while the strips travel, ``finish()`` the exchange, the boundary kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from repro.tensor.dist_tensor import plan_regions
from repro.tensor.distribution import Distribution
from repro.tensor.exchange import TransferPlan, cells
from repro.tensor.indexing import ceil_div

Span = tuple[int, int]
#: Where a tensor lives: ``(distribution, global shape)``.
Placement = tuple[Distribution, tuple[int, ...]]


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
    """Static execution geometry of one layer and direction on one rank.

    Everything here is a pure function of (rank coordinates, global shapes,
    distributions, layer hyper-parameters), computed once per key —
    including the halo plan — rather than per step.  The *block* tensor is
    the one the kernel produces (the output in forward, the input gradient
    in Eq. 3); the *source* is the one it reads through windows.
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

    @property
    def boundary_fraction(self) -> float:
        """Share of the block computed after the halo lands: 1 when the
        block is not decomposed (nothing exchanged, or an empty block)."""
        if not self.pieces:
            return 1.0
        interior = sum(cells((r, c)) for r, c, inside in self.pieces if inside)
        return 1.0 - interior / cells(self.bounds[2:])

    @property
    def boundary_pieces(self) -> int:
        """Boundary kernels the block runs after the halo lands."""
        return sum(not inside for *_, inside in self.pieces)

    def block_index(self, rows: Span, cols: Span) -> tuple:
        """Index of block rows/cols ``rows`` x ``cols`` in the local block."""
        h0, w0 = self.bounds[2][0], self.bounds[3][0]
        return (
            slice(None), slice(None),
            slice(rows[0] - h0, rows[1] - h0), slice(cols[0] - w0, cols[1] - w0),
        )

    def source_box(self, rows: Span, cols: Span) -> tuple[Span, ...]:
        """Global box of the source that the windows of block ``rows`` x
        ``cols`` read: the region's samples and channels, the windows' rows
        and columns (virtual padding included)."""
        return (
            (self.lo[0], self.hi[0]), (self.lo[1], self.hi[1]),
            self.windows[0].span(*rows), self.windows[1].span(*cols),
        )

    @cached_property
    def tiles(self) -> tuple:
        """``(rows, cols, interior, block index, source box)`` of every piece
        the block is computed in, interior first: :attr:`pieces`, or one
        interior piece over the block when nothing is exchanged."""
        pieces = self.pieces if self.exchanged else ((*self.bounds[2:], True),)
        return tuple(
            (r, c, inside, self.block_index(r, c), self.source_box(r, c))
            for r, c, inside in pieces
        )

    @property
    def boundary_boxes(self) -> tuple[tuple[Span, ...], ...]:
        """Source boxes of the boundary pieces, in piece order: all of the
        region a kernel that reads its interior in place has staged."""
        return tuple(box for *_, inside, _, box in self.tiles if not inside)

    def source_index(self, rows: Span, cols: Span) -> tuple:
        """Index, in the gathered region, of the windows of ``rows`` x ``cols``."""
        return tuple(
            slice(b - o, h - o) for (b, h), o in zip(self.source_box(rows, cols), self.lo)
        )

    def transposed_pad(self, rows: Span, cols: Span) -> tuple[int, int]:
        """Effective left padding aligning the gathered error-signal rows of
        block ``rows`` x ``cols`` with the block (Eq. 3)."""
        return tuple(
            a + w.pad - w.stride * w.span(a, b)[0]
            for w, (a, b) in zip(self.windows, (rows, cols))
        )


@lru_cache(maxsize=4096)
def window_geometry(
    coords: tuple[int, ...],
    source: Placement,
    block: Placement,
    kernel: tuple[int, int],
    stride: tuple[int, int],
    pad: tuple[int, int],
    transposed: bool = False,
) -> WindowGeometry:
    """Geometry, on the rank at grid ``coords``, of a windowed kernel
    producing the ``block`` tensor from windows of the ``source`` tensor —
    two placements on one grid (``dist.grid_shape``).

    Every region spans all of the source's channels, so the grid's channel
    axis must be 1, and a window never crosses the sample axis, so the two
    tensors must place samples alike.  Only the rank's own sample group
    (the ranks sharing its sample coordinate) can then read its shard: the
    exchange is planned over that group, whatever the sample-way count, and
    every group splits space alike, so whether any rank reads off-shard is
    one answer for all of them.
    """
    (src_dist, src_shape), (dist, shape) = source, block
    grid = src_dist.grid_shape
    if grid[1] != 1:
        raise ValueError(
            f"channels are never split: grid axis 1 must be 1, got {grid}"
        )
    if (src_shape[0], src_dist.kinds[0]) != (shape[0], dist.kinds[0]):
        raise ValueError("a window never crosses the sample axis")
    exchanged, plans = group_plans(
        coords[0], source, block, kernel, stride, pad, transposed
    )
    plan = plans[tuple(coords)]
    windows = _windows(kernel, stride, pad, transposed)
    bounds = dist.local_bounds(shape, coords)
    pieces: tuple = ()
    if exchanged:
        owned = src_dist.local_bounds(src_shape, coords)
        inner = [
            w.interior(bounds[d], owned[d], src_shape[d])
            for d, w in zip((2, 3), windows)
        ]
        pieces = tuple(_frame_pieces(bounds[2], bounds[3], *inner))
    hi = tuple(h for _, h in plan.box)
    return WindowGeometry(
        dist, shape, bounds, plan.lo, hi, exchanged, pieces, plan, windows
    )


def _windows(kernel, stride, pad, transposed) -> tuple[Window, Window]:
    return tuple(Window(k, s, p, transposed) for k, s, p in zip(kernel, stride, pad))


@lru_cache(maxsize=4096)
def group_plans(
    n: int,
    source: Placement,
    block: Placement,
    kernel: tuple[int, int],
    stride: tuple[int, int],
    pad: tuple[int, int],
    transposed: bool = False,
) -> tuple[bool, dict[tuple[int, ...], TransferPlan]]:
    """``(does any rank read off-shard, plan by grid coordinates)`` of the
    exchange of sample group ``n`` — :func:`window_geometry`'s plans of
    every rank of it, planned together."""
    (src_dist, src_shape), (dist, shape) = source, block
    grid = src_dist.grid_shape
    windows = _windows(kernel, stride, pad, transposed)

    def region_of(c):
        (n_lo, n_hi), _, rows, cols = dist.local_bounds(shape, c)
        (h0, h1), (w0, w1) = windows[0].span(*rows), windows[1].span(*cols)
        return (n_lo, 0, h0, w0), (n_hi, src_shape[1], h1, w1)

    group = [
        (c, region_of(c))
        for c in ((n, 0, h, w) for h in range(grid[2]) for w in range(grid[3]))
    ]
    plans = plan_regions(src_dist, src_shape, group)
    return any(p.recvs for p in plans), dict(zip((c for c, _ in group), plans))


def transposed_window(window: tuple) -> tuple:
    """Eq. 3's window of forward window ``window``: the block's error
    signal read back into the source's placement."""
    source, block, kernel, stride, pad, _ = window
    return block, source, kernel, stride, pad, True
