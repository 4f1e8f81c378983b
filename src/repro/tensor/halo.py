"""Halo exchange: region gathers as a start/finish pair (paper §IV-A).

A transfer is a plan and an exchange.  :func:`start_region_exchange` runs
the :class:`~repro.tensor.exchange.TransferPlan` of a region gather
(:func:`plan_region_exchange`) through the one
:class:`~repro.tensor.exchange.PlannedExchange` and returns it as a
:class:`RegionExchange`: it fetches the same arbitrary hyper-rectangular
dependency regions as
:meth:`~repro.tensor.dist_tensor.DistTensor.gather_region` — the plan-free
request/reply reference the tests compare it against — but the caller runs
the interior convolution while halo strips are in flight, assembles
received pieces as they land, and finishes with the boundary kernels.  A
caller with nothing to overlap calls :meth:`~RegionExchange.finish` right
after the start; there is no separate blocking implementation.

Because every rank can compute every peer's dependency region from shared
layer geometry, the exchange needs no request round-trip: each rank posts
receives for the pieces it lacks and eagerly sends the pieces of its own
shard that peers will ask for — mirrored through the same ownership
resolution on both sides.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.tensor.dist_tensor import DistTensor, plan_region_exchange
from repro.tensor.exchange import HALO_OP, PlannedExchange, TransferPlan


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


def _filled(shape: tuple[int, ...], dtype, fill: float, pool) -> np.ndarray:
    """An assembly buffer recycled through ``pool``, initialised to ``fill``."""
    out = pool.take(shape, dtype) if pool is not None else np.empty(shape, dtype=dtype)
    out.fill(fill)
    return out


def local_region(
    dt: DistTensor,
    lo: Sequence[int],
    hi: Sequence[int],
    fill: float = 0.0,
    pool=None,
) -> np.ndarray:
    """A region that is fully local (plus virtual padding), without any
    communication — the fast path layers take when
    :func:`any_region_remote` says no rank needs remote data.

    Decided from the box alone: a non-empty box inside the tensor (every
    unpadded convolution, every aligned pooling) needs no fill, so it is
    returned as a read-only view of ``dt.local`` — no copy; the result
    aliases a live activation or error signal, which no layer may write
    to.  It is always a view *object* (``.base`` set), never ``dt.local``
    itself: :meth:`BufferPool.give` recycles only arrays that own their
    memory, so callers that hand the region back to their pool cannot put
    the activation on a free-list.  A box that leaves the tensor is staged
    through ``pool`` with ``fill`` in the padding.
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
    out = _filled(out_shape, dt.dtype, fill, pool)
    if nonempty and all(c_hi > c_lo for c_lo, c_hi in clipped):
        sl = tuple(
            slice(c_lo - b, c_hi - b) for (c_lo, c_hi), (b, _) in zip(clipped, box)
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

    def __init__(self, exchange: PlannedExchange, out: np.ndarray) -> None:
        self._exchange = exchange
        self.out = out

    @property
    def remaining(self) -> int:
        """Pieces not yet received and placed."""
        return self._exchange.remaining

    def poll(self) -> int:
        """Assemble every piece whose receive has completed; never blocks.

        Returns the number of pieces still outstanding.
        """
        return self._exchange.poll()

    def finish(self) -> np.ndarray:
        """Drain all outstanding receives, assemble, return the buffer
        (each piece targets a disjoint sub-region, so assembly order cannot
        change the result).  Idempotent."""
        self._exchange.finish()
        return self.out


def start_region_exchange(
    dt: DistTensor,
    lo: Sequence[int],
    hi: Sequence[int],
    peer_regions: Sequence[tuple[Sequence[int], Sequence[int]]] | None = None,
    fill: float = 0.0,
    pool=None,
    plan: TransferPlan | None = None,
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
    remote pieces are outstanding.  Off-rank bytes are recorded under the
    same ``"region_data"`` stat as ``gather_region`` so the §V volume
    formulas hold on either path.
    """
    if plan is None:
        if peer_regions is None:
            raise ValueError("need peer_regions or a precomputed plan")
        plan = plan_region_exchange(dt, lo, hi, peer_regions)
    else:
        box = tuple((int(b), int(h)) for b, h in zip(lo, hi))
        if box != plan.box:
            raise ValueError(f"plan was built for region {plan.box}, not {box}")
    out = _filled(plan.shape, dt.dtype, fill, pool)
    exchange = PlannedExchange(
        dt.comm, plan,
        dt.local, tuple(b for b, _ in dt.bounds),
        out, plan.lo,
        opname=HALO_OP, stat="region_data", pool=pool,
    )
    return RegionExchange(exchange, out)
