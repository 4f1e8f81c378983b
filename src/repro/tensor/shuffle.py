"""Data redistribution between two distributions (the paper's §III-C).

When adjacent layers use different distributions (e.g. a spatially
partitioned convolution feeding a sample-parallel convolution, or a
convolutional layer feeding a model-parallel FC layer), the activations and
error signals must be shuffled: "a processor sends indices it no longer
owns, and receives its new indices" via an all-to-all collective.

Replication is handled on both sides:

* if the *source* replicates a dimension, only the canonical replica (grid
  coordinate 0 along every replicated axis) sends, so each global element is
  shipped exactly once;
* if the *destination* replicates a dimension, every replica receives its
  copy.

A transfer is a plan and an exchange — the same pair the halo gather of
:mod:`repro.tensor.halo` is made of:

* :func:`plan_shuffle` — builds the
  :class:`~repro.tensor.exchange.TransferPlan` of one redistribution.
  Which boxes of this rank's shard go to which peers, and which arrive
  from which canonical owners, is a pure function of (src
  grid+distribution, dst grid+distribution, global shape), so the plan is
  computed once per communicator (cached on it, keyed by exactly that
  tuple) instead of re-intersecting every rank pair on every training
  step.
* :class:`ShuffleExchange` (via :func:`start_shuffle`) — the plan run
  through the one :class:`~repro.tensor.exchange.PlannedExchange`:
  point-to-point messages to the plan's partners only.  Starting sends
  this rank's boxes and returns immediately, so the caller can run
  independent computation (the next layer's kernels on another branch,
  gradient bucketing, ...) before :meth:`~ShuffleExchange.finish` drains
  and assembles.
* :func:`shuffle` — the blocking form: the same exchange finished right
  after it is started.  Overlap is only a question of *where* ``finish()``
  is called, so the two forms cannot differ in their bits.

Send payloads can be staged through a :class:`~repro.comm.buffers.BufferPool`
(deferred reclamation once the receivers drop the zero-copy views), the same
discipline the halo send strips use.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.dist_tensor import DistTensor
from repro.tensor.distribution import Distribution
from repro.tensor.exchange import Box, PlannedExchange, TransferPlan, cells
from repro.tensor.grid import ProcessGrid
from repro.tensor.indexing import intersect, interval_is_empty

#: CommStats op name under which shuffle traffic and its wait/overlap split
#: are recorded.
SHUFFLE_OP = "shuffle"


class _PlanCache:
    """Per-communicator plan cache with hit/miss counters."""

    __slots__ = ("plans", "hits", "misses")

    def __init__(self) -> None:
        self.plans: dict = {}
        self.hits = 0
        self.misses = 0


def _plan_cache(comm) -> _PlanCache:
    cache = getattr(comm, "_shuffle_plans", None)
    if cache is None:
        cache = _PlanCache()
        comm._shuffle_plans = cache
    return cache


def shuffle_plan_stats(comm) -> tuple[int, int]:
    """``(hits, misses)`` of the communicator's shuffle-plan cache."""
    cache = _plan_cache(comm)
    return cache.hits, cache.misses


def _validate(src: DistTensor, dst_grid: ProcessGrid, dst_dist: Distribution) -> None:
    comm = src.comm
    if dst_grid.comm.size != comm.size or dst_grid.comm.members != comm.members:
        raise ValueError("shuffle requires src and dst grids over the same ranks")
    if dst_dist.ndim != src.dist.ndim:
        raise ValueError(
            f"distribution rank mismatch: {src.dist.ndim} vs {dst_dist.ndim}"
        )


def _is_canonical(dist: Distribution, grid_shape, coords) -> bool:
    """Is ``coords`` the canonical replica (coordinate 0 on replicated axes)?"""
    return all(
        coords[d] == 0
        for d in range(dist.ndim)
        if not dist.is_split(d) and grid_shape[d] > 1
    )


def plan_shuffle(
    src: DistTensor, dst_grid: ProcessGrid, dst_dist: Distribution
) -> TransferPlan:
    """Build (or fetch from the communicator's cache) the redistribution plan.

    The cache key is ``(src grid shape, src dist, dst grid shape, dst dist,
    global shape)`` — every quantity the schedule depends on; coordinates
    derive from the comm rank, so identical keys give identical plans.
    """
    _validate(src, dst_grid, dst_dist)
    comm = src.comm
    cache = _plan_cache(comm)
    key = (src.grid.shape, src.dist, dst_grid.shape, dst_dist, src.global_shape)
    plan = cache.plans.get(key)
    if plan is not None:
        cache.hits += 1
        return plan
    cache.misses += 1

    global_shape = src.global_shape
    my_src_bounds = src.bounds
    sends: list[tuple[int, Box]] = []
    local: list[Box] = []
    if _is_canonical(src.dist, src.grid.shape, src.grid.coords):
        for j in range(comm.size):
            dst_b = dst_dist.local_bounds(global_shape, dst_grid.coords_of(j))
            overlap = tuple(
                intersect(a, b) for a, b in zip(my_src_bounds, dst_b)
            )
            if any(interval_is_empty(iv) for iv in overlap):
                continue
            if j == comm.rank:
                local.append(overlap)
            else:
                sends.append((j, overlap))

    my_dst_bounds = dst_dist.local_bounds(global_shape, dst_grid.coords)
    recvs: list[tuple[int, Box]] = []
    for i in range(comm.size):
        if i == comm.rank:
            continue
        if not _is_canonical(src.dist, src.grid.shape, src.grid.coords_of(i)):
            continue
        src_b = src.dist.local_bounds(global_shape, src.grid.coords_of(i))
        overlap = tuple(intersect(a, b) for a, b in zip(src_b, my_dst_bounds))
        if any(interval_is_empty(iv) for iv in overlap):
            continue
        recvs.append((i, overlap))

    filled = sum(cells(box) for box in local) + sum(cells(box) for _, box in recvs)
    if filled != cells(my_dst_bounds):
        raise RuntimeError(
            f"shuffle would assemble {filled} elements but the local block "
            f"has {cells(my_dst_bounds)}; source distribution did not cover "
            "the tensor"
        )
    plan = TransferPlan(
        my_dst_bounds, tuple(sends), tuple(recvs), tuple(local),
        sum(cells(box) for _, box in sends),
    )
    cache.plans[key] = plan
    return plan


class ShuffleExchange:
    """An in-flight overlapped redistribution (started on construction).

    This rank's boxes are already sent and the locally served pieces
    placed, so the caller is free to run any computation that does not
    need the redistributed tensor.  :meth:`finish` assembles the received
    pieces and returns the new
    :class:`~repro.tensor.dist_tensor.DistTensor`.  Collective: every rank
    must start the same shuffle at the same logical point.
    """

    def __init__(
        self,
        src: DistTensor,
        dst_grid: ProcessGrid,
        dst_dist: Distribution,
        pool=None,
    ) -> None:
        plan = plan_shuffle(src, dst_grid, dst_dist)
        # Zero-init the new block; the plan's boxes tile it exactly.
        out = np.zeros(plan.shape, dtype=src.dtype)
        self._exchange = PlannedExchange(
            src.comm, plan,
            src.local, tuple(b for b, _ in src.bounds),
            out, plan.lo,
            opname=SHUFFLE_OP, stat=SHUFFLE_OP, pool=pool,
        )
        self._result = DistTensor(dst_grid, dst_dist, src.global_shape, out)

    @property
    def remaining(self) -> int:
        """Pieces not yet received and placed."""
        return self._exchange.remaining

    def poll(self) -> int:
        """Assemble whatever has landed; never blocks.

        Returns the number of pieces still outstanding.
        """
        return self._exchange.poll()

    def finish(self) -> DistTensor:
        """Drain the exchange and return the redistributed tensor.

        Pieces target disjoint sub-regions of the destination block, so
        assembly order cannot change the result.  Idempotent: a repeated
        call returns the same tensor.
        """
        self._exchange.finish()
        return self._result


def start_shuffle(
    src: DistTensor,
    dst_grid: ProcessGrid,
    dst_dist: Distribution,
    pool=None,
) -> ShuffleExchange:
    """Begin an overlapped redistribution of ``src`` to ``dst_dist``.

    Returns a started :class:`ShuffleExchange`; call
    :meth:`~ShuffleExchange.finish` where the redistributed tensor is
    consumed.  ``pool`` stages the send payloads through a
    :class:`~repro.comm.buffers.BufferPool` (deferred reclamation).
    """
    return ShuffleExchange(src, dst_grid, dst_dist, pool=pool)


def shuffle(
    src: DistTensor,
    dst_grid: ProcessGrid,
    dst_dist: Distribution,
    pool=None,
) -> DistTensor:
    """Redistribute ``src`` to ``dst_dist`` over ``dst_grid``, blocking.

    Both grids must be built over the same communicator (the same set of
    ranks in the same order); the grid *shapes* may differ arbitrarily.
    Collective: every rank must call.  This is the :class:`ShuffleExchange`
    finished right after its start — same cached plan, same send-buffer
    contract: contiguous pieces of ``src.local`` cross zero-copy unless a
    ``pool`` stages them, so ``src`` must not be mutated in place while a
    slower peer may still be assembling.
    """
    return ShuffleExchange(src, dst_grid, dst_dist, pool=pool).finish()


def shuffle_cost_bytes(
    src: DistTensor, dst_grid: ProcessGrid, dst_dist: Distribution
) -> int:
    """Bytes this rank ships in :func:`shuffle` (for model validation tests)."""
    plan = plan_shuffle(src, dst_grid, dst_dist)
    return plan.sent_cells * src.dtype.itemsize
