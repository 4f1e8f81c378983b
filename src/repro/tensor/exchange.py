"""The one planned transfer: a plan and an exchange.

Every data movement of the tensor library is "a processor sends indices it
no longer owns, and receives its new indices" (paper §III-C) over a
different index set — the halo gather (§IV-A), the redistribution shuffle
(§III-C) and pooling's reverse halo (§III-B).  Here that is one
:class:`TransferPlan` (which boxes this rank sends to whom, which it
receives from whom, which it already holds) and one
:class:`PlannedExchange` that runs a plan: eager sends of staged boxes to
the plan's partners only, posted ``irecv``s, ``poll()`` to place what has
landed, ``finish()`` to wait for the rest.  The exchange is parameterised
only by where a box is read (an array anchored at a global origin) and how
it is written (copied, or added for the reverse halo).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.obs import tracer as _trace
from repro.tensor.indexing import place_region

#: Per-dimension half-open global intervals of a hyper-rectangle.
Box = tuple[tuple[int, int], ...]

#: Tag namespace of planned exchanges (sequence-offset per exchange).
_EXCHANGE_TAG_BASE = 1 << 20

#: CommStats op name of the halo gather's and reverse halo's wait/overlap
#: split; their volume is recorded under ``"region_data"``.
HALO_OP = "halo_exchange"


def cells(box: Box) -> int:
    return math.prod(hi - lo for lo, hi in box)


@dataclass(frozen=True)
class TransferPlan:
    """Static schedule of one transfer, from this rank's viewpoint.

    A pure function of grids, distributions, global shape and layer
    geometry — independent of tensor values and dtype — so it is built once
    (:func:`~repro.tensor.dist_tensor.plan_region_exchange`,
    :func:`~repro.tensor.shuffle.plan_shuffle`) and reused every step.
    All boxes are in global coordinates.
    """

    #: What this rank assembles: its gather region / destination block.
    box: Box
    #: ``(peer comm-rank, box of my source to send)``, ascending peer.
    sends: tuple[tuple[int, Box], ...] = ()
    #: ``(peer comm-rank, box to receive)``, ascending peer.
    recvs: tuple[tuple[int, Box], ...] = ()
    #: Boxes served from this rank's own source.
    local: tuple[Box, ...] = ()
    #: Cells shipped off-rank by this rank (bytes = cells * itemsize).
    sent_cells: int = 0

    @property
    def lo(self) -> tuple[int, ...]:
        return tuple(lo for lo, _ in self.box)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(hi - lo for lo, hi in self.box)

    def reversed(self) -> "TransferPlan":
        """The adjoint transfer: what the plan receives is sent back to
        where it came from, what it sends is received."""
        return TransferPlan(
            self.box, self.recvs, self.sends, self.local,
            sum(cells(box) for _, box in self.recvs),
        )


def stage_payload(arr: np.ndarray, pool) -> np.ndarray:
    """Stage an off-rank payload through ``pool``.

    Without a pool the raw view is returned (the communicator copies or
    freezes it as needed).  With a pool, the data is copied into a
    recycled contiguous buffer whose read-only view crosses the
    boundary; the buffer returns to the pool (deferred) once every
    receiver drops the view — so pooled buffers recycle without waiting
    on slow peers.
    """
    if pool is None:
        return arr
    buf = pool.take(arr.shape, arr.dtype)
    np.copyto(buf, arr)
    view = buf.view()
    view.flags.writeable = False
    pool.give_deferred(buf, view)
    return view


def _cut(arr: np.ndarray, origin: tuple[int, ...], box: Box) -> np.ndarray:
    """View of ``box`` in ``arr``, whose element 0 sits at global ``origin``."""
    return arr[tuple(slice(lo - o, hi - o) for (lo, hi), o in zip(box, origin))]


class PlannedExchange:
    """One in-flight run of a :class:`TransferPlan`.

    Boxes are read from ``src`` and written into ``dst`` (arrays anchored
    at global ``src_lo`` / ``dst_lo``), copied or — ``accumulate`` — added.
    The constructor sends this rank's boxes (eager, never blocks), writes
    the boxes it holds itself and posts the receives, so the caller can
    compute on local data while the rest travels.  Every rank of ``comm``
    must start its exchanges in the same program order (they are matched
    by a per-communicator sequence number).

    ``finish()`` writes the outstanding boxes in plan order — own boxes
    first, then peers in ascending comm rank — which fixes the
    floating-point order of an accumulating exchange; ``poll()`` writes in
    arrival order and is for copying exchanges, whose boxes are disjoint.
    """

    def __init__(
        self,
        comm,
        plan: TransferPlan,
        src: np.ndarray,
        src_lo: tuple[int, ...],
        dst: np.ndarray,
        dst_lo: tuple[int, ...],
        *,
        opname: str,
        stat: str,
        accumulate: bool = False,
        pool=None,
    ) -> None:
        self._opname = opname
        self._dst = dst
        self._dst_lo = dst_lo
        self._accumulate = accumulate
        tag = _EXCHANGE_TAG_BASE + comm.next_exchange_seq()
        sent_bytes = plan.sent_cells * src.dtype.itemsize
        with _trace.span(f"{opname}.start", cat="exchange", bytes=sent_bytes):
            for peer, box in plan.sends:
                comm.send(stage_payload(_cut(src, src_lo, box), pool), dest=peer, tag=tag)
            comm.stats.record_collective(stat, sent_bytes)
            for box in plan.local:
                self._write(box, _cut(src, src_lo, box))
            self._pending = [
                (comm.irecv(source=peer, tag=tag, opname=opname), box)
                for peer, box in plan.recvs
            ]

    def _write(self, box: Box, data: np.ndarray) -> None:
        offset = tuple(lo - o for (lo, _), o in zip(box, self._dst_lo))
        place_region(self._dst, data, offset, accumulate=self._accumulate)

    @property
    def remaining(self) -> int:
        """Boxes not yet received and written."""
        return len(self._pending)

    def poll(self) -> int:
        """Write every box whose receive has completed; never blocks.

        Returns the number of boxes still outstanding.
        """
        still = []
        for request, box in self._pending:
            if request.test():
                self._write(box, request.wait())
            else:
                still.append((request, box))
        self._pending = still
        return len(still)

    def finish(self) -> None:
        """Wait for and write the outstanding boxes, in plan order.  A
        repeated call is a no-op."""
        if not self._pending:
            return
        with _trace.span(
            f"{self._opname}.finish", cat="exchange", pending=len(self._pending)
        ):
            while self._pending:
                request, box = self._pending[0]
                self._write(box, request.wait())
                del self._pending[0]
