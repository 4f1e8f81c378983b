"""Halo exchange: region gathers as a start/finish pair (paper §IV-A).

A transfer is a plan and an exchange.  :func:`start_region_exchange` runs
the :class:`~repro.tensor.exchange.TransferPlan` of a region gather
(:func:`~repro.tensor.dist_tensor.plan_regions`) through the one
:class:`~repro.tensor.exchange.PlannedExchange` and returns it as a
:class:`RegionExchange`: it stages the boxes of a hyper-rectangular
dependency region that the caller reads off its shard, clipped to the
tensor (virtual padding is never staged: a kernel reads it as its left
offset), and the caller runs the interior kernels on its shard while halo
strips are in flight, places received pieces as they land, and finishes
with the boundary kernels.  A caller with nothing to overlap calls
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
from repro.tensor.exchange import HALO_OP, Box, PlannedExchange, TransferPlan, clip


class RegionExchange:
    """An in-flight overlapped gather of a global region (paper §IV-A).

    Created by :func:`start_region_exchange`.  The gather stages the boxes
    of the region a caller reads off its shard — clipped to the tensor,
    :attr:`boxes` — each in a fresh buffer of :attr:`buffers`.  The locally
    owned part of every box is already placed when the constructor returns,
    so the caller can immediately run any computation that depends only on
    local data — the *interior* kernels — while the halo strips travel.
    :meth:`poll` places whatever has landed without blocking;
    :meth:`finish` drains the rest and returns the completed buffers.
    """

    def __init__(
        self, exchange: PlannedExchange, boxes: tuple[Box, ...], buffers: tuple[np.ndarray, ...]
    ) -> None:
        self._exchange = exchange
        self.boxes = boxes
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
    dt: DistTensor, plan: TransferPlan, boxes: Sequence[Box]
) -> RegionExchange:
    """Begin an overlapped gather of ``boxes`` of ``plan``'s region
    (``plan.box``) from ``dt`` — ``plan`` is one of
    :func:`~repro.tensor.dist_tensor.plan_regions`' (in a training step, the
    cached plan of a :class:`~repro.core.window.WindowGeometry`, and
    ``boxes`` its boundary pieces' source boxes).

    Each box (global, inside the region) is clipped to the tensor — virtual
    padding is never staged: a kernel reads it as its left offset — and
    staged in a fresh buffer.  Every piece this rank holds or receives is
    written into each buffer it meets, which writes every cell of it, and
    nothing outside the boxes is copied.

    Every rank must call this at the same logical point: the exchange is
    matched by a per-communicator sequence number, and each rank eagerly
    ``send``s the pieces of its own shard that peers need while posting
    ``irecv``s for the pieces it lacks — the whole plan, whatever this
    rank stages of it.

    The returned :class:`RegionExchange` already contains all locally owned
    data; only remote pieces are outstanding.  Off-rank bytes are recorded
    under the ``"region_data"`` stat, as the reverse halo's are.
    """
    tensor = tuple([(0, n) for n in dt.global_shape])
    for box in boxes:
        if any(b < r_lo or h > r_hi for (b, h), (r_lo, r_hi) in zip(box, plan.box)):
            raise ValueError(f"box {box} leaves the gathered region {plan.box}")
    clipped = tuple([clip(box, tensor) for box in boxes])
    buffers = tuple(np.empty(tuple(h - b for b, h in box), dtype=dt.dtype) for box in clipped)
    exchange = PlannedExchange(
        dt.comm, plan,
        dt.local, tuple(b for b, _ in dt.bounds),
        tuple(zip(buffers, (tuple(b for b, _ in box) for box in clipped))),
        opname=HALO_OP, stat="region_data",
    )
    return RegionExchange(exchange, clipped, buffers)
