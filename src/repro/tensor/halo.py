"""Halo exchange: region gathers as a start/finish pair (paper §IV-A).

:class:`RegionExchange` (via :func:`start_region_exchange`) fetches the
same arbitrary hyper-rectangular dependency regions as
:meth:`~repro.tensor.dist_tensor.DistTensor.gather_region` — the plan-free
request/reply reference the tests compare it against — but driven by eager
sends and posted ``irecv``s: the caller runs the interior convolution while
halo strips are in flight, assembles received pieces as each request
lands, and finishes with the boundary kernels.  A caller with nothing to
overlap calls :meth:`~RegionExchange.finish` right after the start; there
is no separate blocking implementation.

Because every rank can compute every peer's dependency region from shared
layer geometry, the exchange needs no request round-trip: each rank posts
receives for the pieces it lacks and eagerly sends the pieces of its own
shard that peers will ask for — mirrored through the same ownership
resolution on both sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.comm.communicator import Request
from repro.obs import tracer as _trace
from repro.tensor.dist_tensor import DistTensor
from repro.tensor.indexing import place_region

#: Tag namespace for overlapped region exchanges (sequence-offset per call).
_EXCHANGE_TAG_BASE = 1 << 20

#: CommStats op name under which overlapped halo traffic is recorded.
HALO_OP = "halo_exchange"


def _send_strip(comm, strip: np.ndarray, dest: int, tag: int, pool) -> None:
    """Send ``strip`` as a contiguous payload.

    Without a pool the strip is made contiguous and sent under the usual
    zero-copy no-mutate contract.  With a pool, it is staged into a recycled
    contiguous buffer that returns to the pool (deferred) once the receivers
    drop their zero-copy views — so pooled extended buffers can be recycled
    without waiting on slow peers.
    """
    if pool is None:
        comm.send(np.ascontiguousarray(strip), dest=dest, tag=tag)
        return
    buf = pool.take(strip.shape, strip.dtype)
    np.copyto(buf, strip)
    view = buf.view()
    view.flags.writeable = False
    comm.send(view, dest=dest, tag=tag)
    pool.give_deferred(buf, view)


def any_region_remote(dt: DistTensor, regions: Sequence) -> bool:
    """True if any rank's region reaches beyond its own shard, i.e. the
    gather genuinely exchanges data.  ``regions[r]`` is rank ``r``'s
    ``(lo, hi)`` region; the answer is identical on every rank because the
    regions are derived from shared geometry."""
    dist, shape, grid = dt.dist, dt.global_shape, dt.grid
    for r, (lo, hi) in enumerate(regions):
        bounds = dist.local_bounds(shape, grid.coords_of(r))
        clipped = [
            (max(int(b), 0), min(int(h), shape[d]))
            for d, (b, h) in enumerate(zip(lo, hi))
        ]
        if any(c_hi <= c_lo for c_lo, c_hi in clipped):
            continue  # empty region: nothing to fetch
        for (c_lo, c_hi), (b_lo, b_hi) in zip(clipped, bounds):
            if c_lo < b_lo or c_hi > b_hi:
                return True
    return False


def local_region(
    dt: DistTensor,
    lo: Sequence[int],
    hi: Sequence[int],
    fill: float = 0.0,
    pool=None,
) -> np.ndarray:
    """Materialize a region that is fully local (plus virtual padding)
    without any communication — the fast path layers take when
    :func:`any_region_remote` says no rank needs remote data."""
    lo = tuple(int(v) for v in lo)
    hi = tuple(int(v) for v in hi)
    out_shape = tuple(h - b for b, h in zip(lo, hi))
    if pool is not None:
        out = pool.take(out_shape, dt.dtype)
        out.fill(fill)
    else:
        out = np.full(out_shape, fill, dtype=dt.dtype)
    if all(s > 0 for s in out_shape):
        clipped = tuple(
            (max(b, 0), min(h, dt.global_shape[d]))
            for d, (b, h) in enumerate(zip(lo, hi))
        )
        if all(c_hi > c_lo for c_lo, c_hi in clipped):
            sl = tuple(
                slice(c_lo - b, c_hi - b)
                for (c_lo, c_hi), b in zip(clipped, lo)
            )
            out[sl] = dt._local_slice_of(clipped)
    return out


class RegionExchange:
    """An in-flight overlapped gather of a global region (paper §IV-A).

    Created by :func:`start_region_exchange`.  The locally owned part of the
    region (plus virtual padding) is already placed in :attr:`out` when the
    constructor returns, so the caller can immediately run any computation
    that depends only on local data — the *interior* kernels — while the
    halo strips travel.  :meth:`poll` assembles whatever has landed without
    blocking; :meth:`finish` drains the rest and returns the completed
    extended buffer.
    """

    def __init__(
        self,
        out: np.ndarray,
        lo: tuple[int, ...],
        pending: list[tuple[Request, tuple[tuple[int, int], ...]]],
    ) -> None:
        self.out = out
        self._lo = lo
        self._pending = pending

    @property
    def remaining(self) -> int:
        """Pieces not yet received and placed."""
        return len(self._pending)

    def _place(self, region: tuple[tuple[int, int], ...], data: np.ndarray) -> None:
        offset = tuple(r[0] - b for r, b in zip(region, self._lo))
        place_region(self.out, data, offset)

    def poll(self) -> int:
        """Assemble every piece whose receive has completed; never blocks.

        Returns the number of pieces still outstanding.
        """
        still = []
        for request, region in self._pending:
            if request.test():
                self._place(region, request.wait())
            else:
                still.append((request, region))
        self._pending = still
        return len(still)

    def finish(self) -> np.ndarray:
        """Drain all outstanding receives, assemble, return the buffer.

        Pieces are placed in the order their requests complete (each piece
        targets a disjoint sub-region, so assembly order cannot change the
        result).
        """
        with _trace.span("halo.finish", cat="exchange", pending=len(self._pending)):
            return self._finish()

    def _finish(self) -> np.ndarray:
        while self._pending:
            if self.poll() == 0:
                break
            # Block on the first outstanding request, then sweep again for
            # anything else that landed meanwhile (request-driven assembly).
            request, region = self._pending.pop(0)
            self._place(region, request.wait())
        return self.out


@dataclass(frozen=True)
class ExchangePlan:
    """Static send/receive schedule of one overlapped region gather.

    Halo geometry is a function of the layer and distribution alone, so the
    plan — which strips of the local shard to ship to which peers, which
    pieces to expect from whom, and where the locally owned part lands —
    is computed once (:func:`plan_region_exchange`) and reused every step,
    exactly as the paper's implementation sets up its halo exchanges per
    layer rather than per invocation.
    """

    lo: tuple[int, ...]
    hi: tuple[int, ...]
    out_shape: tuple[int, ...]
    #: ``(peer comm-rank, region of my shard to send)`` in peer order.
    sends: tuple[tuple[int, tuple[tuple[int, int], ...]], ...] = ()
    #: ``(owner comm-rank, region to receive)`` pairs.
    recvs: tuple[tuple[int, tuple[tuple[int, int], ...]], ...] = ()
    #: Locally owned sub-regions to place directly (at most one).
    local: tuple[tuple[tuple[int, int], ...], ...] = ()
    sent_bytes: int = field(default=0)


def plan_region_exchange(
    dt: DistTensor,
    lo: Sequence[int],
    hi: Sequence[int],
    peer_regions: Sequence[tuple[Sequence[int], Sequence[int]]],
) -> ExchangePlan:
    """Build the static schedule for an overlapped gather of ``[lo, hi)``.

    ``peer_regions[j]`` must be the ``(lo, hi)`` region comm-rank ``j``
    gathers in the same exchange — identical on every rank (each rank
    derives all regions from shared layer geometry), which is what lets the
    send side be mirrored from the receive side without a request
    round-trip.
    """
    lo = tuple(int(v) for v in lo)
    hi = tuple(int(v) for v in hi)
    out_shape = tuple(h - b for b, h in zip(lo, hi))
    if any(s < 0 for s in out_shape):
        raise ValueError(f"negative region shape {out_shape}")
    comm = dt.comm
    grid = dt.grid
    itemsize = np.dtype(dt.dtype).itemsize

    sends = []
    sent_bytes = 0
    for peer in range(comm.size):
        if peer == comm.rank:
            continue
        peer_lo, peer_hi = peer_regions[peer]
        if any(h - b <= 0 for b, h in zip(peer_lo, peer_hi)):
            continue
        owners = dt._owners_of_region(peer_lo, peer_hi, coords=grid.coords_of(peer))
        for rank, overlap in owners:
            if rank == comm.rank:
                sends.append((peer, overlap))
                cells = 1
                for r_lo, r_hi in overlap:
                    cells *= r_hi - r_lo
                sent_bytes += cells * itemsize

    recvs = []
    local = []
    if all(s > 0 for s in out_shape):
        for rank, overlap in dt._owners_of_region(lo, hi):
            if rank == comm.rank:
                local.append(overlap)
            else:
                recvs.append((rank, overlap))
    return ExchangePlan(
        lo, hi, out_shape, tuple(sends), tuple(recvs), tuple(local), sent_bytes
    )


def start_region_exchange(
    dt: DistTensor,
    lo: Sequence[int],
    hi: Sequence[int],
    peer_regions: Sequence[tuple[Sequence[int], Sequence[int]]] | None = None,
    fill: float = 0.0,
    pool=None,
    plan: ExchangePlan | None = None,
) -> RegionExchange:
    """Begin an overlapped gather of global region ``[lo, hi)``.

    Every rank must call this at the same logical point: the exchange is
    matched by a per-communicator sequence number, and each rank eagerly
    ``send``s the pieces of its own shard that peers need while posting
    ``irecv``s for the pieces it lacks.  Out-of-range parts of the region
    are ``fill``ed immediately (virtual padding is local knowledge).

    Pass either ``peer_regions`` (the schedule is derived on the fly) or a
    cached ``plan`` from :func:`plan_region_exchange` (the hot-path form —
    the schedule is static per layer).  The returned
    :class:`RegionExchange` already contains all locally owned data; only
    remote pieces are outstanding.
    """
    if plan is None:
        if peer_regions is None:
            raise ValueError("need peer_regions or a precomputed plan")
        plan = plan_region_exchange(dt, lo, hi, peer_regions)
    else:
        got = (tuple(int(v) for v in lo), tuple(int(v) for v in hi))
        if got != (plan.lo, plan.hi):
            raise ValueError(
                f"plan was built for region {plan.lo}..{plan.hi}, "
                f"not {got[0]}..{got[1]}"
            )
    comm = dt.comm
    tag = _EXCHANGE_TAG_BASE + comm.next_exchange_seq()

    if pool is not None:
        out = pool.take(plan.out_shape, dt.dtype)
        out.fill(fill)
    else:
        out = np.full(plan.out_shape, fill, dtype=dt.dtype)

    # Send side first (sends are eager and never block).  Off-rank bytes
    # are recorded under the same "region_data" stat as ``gather_region``
    # so the §V volume formulas hold on either path.
    for peer, overlap in plan.sends:
        _send_strip(comm, dt._local_slice_of(overlap), peer, tag, pool)
    comm.stats.record_collective("region_data", plan.sent_bytes)

    # Receive side: place what we own, post irecvs for the rest.
    reg_lo = plan.lo
    for overlap in plan.local:
        offset = tuple(r[0] - b for r, b in zip(overlap, reg_lo))
        place_region(out, dt._local_slice_of(overlap), offset)
    pending: list[tuple[Request, tuple[tuple[int, int], ...]]] = [
        (comm.irecv(source=rank, tag=tag, opname=HALO_OP), overlap)
        for rank, overlap in plan.recvs
    ]
    return RegionExchange(out, reg_lo, pending)
