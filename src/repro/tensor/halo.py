"""Halo exchange: region gathers as a start/finish pair (paper §IV-A).

A transfer is a plan and an exchange.  :func:`start_region_exchange` runs
the :class:`~repro.tensor.exchange.TransferPlan` of a region gather
(:func:`~repro.tensor.dist_tensor.plan_regions`) through the one
:class:`~repro.tensor.exchange.PlannedExchange` and returns it as a
:class:`RegionExchange`: it fetches arbitrary hyper-rectangular dependency
regions, and the caller runs the interior convolution while halo strips
are in flight, places received pieces as they land, and finishes with
the boundary kernels.  A caller with nothing to overlap calls
:meth:`~RegionExchange.finish` right after the start; there is no separate
blocking implementation.  In a training step every one is started by
:class:`~repro.core.dist_network.DistNetwork`, for a halo op of the lowered
schedule.

Because every rank can compute every peer's dependency region from shared
layer geometry, the exchange needs no request round-trip: each rank posts
receives for the pieces it lacks and eagerly sends the pieces of its own
shard that peers will ask for — mirrored through the same ownership
rule on both sides.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.tensor.dist_tensor import DistTensor
from repro.tensor.exchange import HALO_OP, Box, PlannedExchange, TransferPlan


def local_region(
    dt: DistTensor,
    lo: Sequence[int],
    hi: Sequence[int],
    fill: float = 0.0,
) -> np.ndarray:
    """A region that is fully local (plus virtual padding), without any
    communication — what pooling reads when no rank's window reads off-shard
    (a :class:`~repro.core.window.WindowGeometry` that is not
    ``exchanged``).  Convolution reads its windows in place instead, their
    virtual padding an offset of the kernels, never staged
    (:mod:`repro.core.dist_conv`).

    Decided from the box alone: a non-empty box inside the tensor (every
    aligned pooling) needs no fill, so it is returned as a read-only view
    of ``dt.local`` — no copy; the result aliases a live activation, which
    no layer may write to.  A box that leaves the tensor is staged in a
    fresh buffer with ``fill`` in the padding.
    """
    box = tuple((int(b), int(h)) for b, h in zip(lo, hi))
    out_shape = tuple(h - b for b, h in box)
    clipped = tuple(
        (max(b, 0), min(h, n)) for (b, h), n in zip(box, dt.global_shape)
    )
    nonempty = all(s > 0 for s in out_shape)
    if nonempty and clipped == box:
        view = dt._local_slice_of(box)  # raises unless this rank owns it
        view.flags.writeable = False
        return view
    out = np.full(out_shape, fill, dtype=dt.dtype)
    if nonempty and all(c_hi > c_lo for c_lo, c_hi in clipped):
        sl = tuple(
            slice(c_lo - b, c_hi - b) for (c_lo, c_hi), (b, _) in zip(clipped, box)
        )
        out[sl] = dt._local_slice_of(clipped)
    return out


class RegionExchange:
    """An in-flight overlapped gather of a global region (paper §IV-A).

    Created by :func:`start_region_exchange`.  The gather stages boxes of
    the region — the whole region, or only the few a caller that reads the
    rest of it in place needs — each in a fresh buffer of
    :attr:`buffers`.  The locally owned part of every box (plus virtual
    padding) is already placed when the constructor returns, so the caller
    can immediately run any computation that depends only on local data —
    the *interior* kernels — while the halo strips travel.  :meth:`poll`
    places whatever has landed without blocking; :meth:`finish` drains the
    rest and returns the completed buffers.
    """

    def __init__(self, exchange: PlannedExchange, buffers: tuple[np.ndarray, ...]) -> None:
        self._exchange = exchange
        self.buffers = buffers

    @property
    def remaining(self) -> int:
        """Pieces not yet received and placed."""
        return self._exchange.remaining

    def poll(self) -> int:
        """Place every piece whose receive has completed; never blocks.

        Returns the number of pieces still outstanding.
        """
        return self._exchange.poll()

    def finish(self) -> tuple[np.ndarray, ...]:
        """Drain all outstanding receives, place them, return the buffers
        (each received piece lands in disjoint cells of every buffer it
        meets, so placement order cannot change the result).  Idempotent."""
        self._exchange.finish()
        return self.buffers


def start_region_exchange(
    dt: DistTensor,
    plan: TransferPlan,
    fill: float = 0.0,
    boxes: Sequence[Box] | None = None,
) -> RegionExchange:
    """Begin an overlapped gather of ``plan``'s region (``plan.box``) from
    ``dt`` — ``plan`` is one of
    :func:`~repro.tensor.dist_tensor.plan_regions`' (in a training step, the
    cached plan of a :class:`~repro.core.window.WindowGeometry`).

    Each of ``boxes`` (global boxes inside the region; default the whole
    region) is staged in a fresh buffer, ``fill``ed where it leaves the
    tensor (virtual padding is local knowledge): every piece this rank
    holds or receives is written into each buffer it meets, and nothing
    outside the boxes is copied.

    Every rank must call this at the same logical point: the exchange is
    matched by a per-communicator sequence number, and each rank eagerly
    ``send``s the pieces of its own shard that peers need while posting
    ``irecv``s for the pieces it lacks — the whole plan, whatever this
    rank stages of it.

    The returned :class:`RegionExchange` already contains all locally owned
    data; only remote pieces are outstanding.  Off-rank bytes are recorded
    under the ``"region_data"`` stat, as the reverse halo's are.
    """
    boxes = (plan.box,) if boxes is None else tuple(boxes)
    for box in boxes:
        if any(b < r_lo or h > r_hi for (b, h), (r_lo, r_hi) in zip(box, plan.box)):
            raise ValueError(f"box {box} leaves the gathered region {plan.box}")
    buffers = tuple(
        np.full(tuple(h - b for b, h in box), fill, dtype=dt.dtype) for box in boxes
    )
    exchange = PlannedExchange(
        dt.comm, plan,
        dt.local, tuple(b for b, _ in dt.bounds),
        tuple(zip(buffers, (tuple(b for b, _ in box) for box in boxes))),
        opname=HALO_OP, stat="region_data",
    )
    return RegionExchange(exchange, buffers)
