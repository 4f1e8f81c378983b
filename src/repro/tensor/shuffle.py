"""Data redistribution between two distributions (the paper's §III-C).

When adjacent layers use different distributions (e.g. a spatially
partitioned convolution feeding a sample-parallel convolution or FC layer),
the activations and error signals must be shuffled: "a processor sends
indices it no longer owns, and receives its new indices" via an all-to-all
collective.

Replication is handled on both sides:

* if the *source* replicates a dimension, only the canonical replica (grid
  coordinate 0 along every replicated axis) sends, so each global element is
  shipped exactly once;
* if the *destination* replicates a dimension, every replica receives its
  copy.

A transfer is a plan and an exchange — the same pair the halo gather of
:mod:`repro.tensor.halo` is made of:

* :func:`shuffle_plan` — the :class:`~repro.tensor.exchange.TransferPlan`
  of one redistribution on one rank: which boxes of its shard go to which
  peers, and which arrive from which canonical owners.  It is a pure,
  ``lru_cache``d function of (rank, source distribution, destination
  distribution, global shape) — every
  :class:`~repro.tensor.distribution.Distribution` carries its grid shape
  — so it needs no tensor and no communicator, and the schedule's
  :class:`~repro.core.schedule.ShuffleOp`, the engine and the cost model
  read one plan.
* :class:`ShuffleExchange` (via :func:`start_shuffle`) — a plan run
  through the one :class:`~repro.tensor.exchange.PlannedExchange`:
  point-to-point messages to the plan's partners only.  Starting sends
  this rank's boxes and returns immediately, so the caller can run
  independent computation (the next layer's kernels on another branch,
  gradient bucketing, ...) before :meth:`~ShuffleExchange.finish` drains
  and assembles.
* :func:`shuffle` — the blocking form: the same exchange, over the same
  plan, finished right after it is started.  Overlap is only a question
  of *where* ``finish()`` is called, so the two forms cannot differ in
  their bits.

The transport copies every sent box before the send returns, so ``src`` is
free to change once the exchange has started.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from repro.tensor.dist_tensor import DistTensor
from repro.tensor.distribution import DimKind, Distribution
from repro.tensor.exchange import Box, PlannedExchange, TransferPlan, cells
from repro.tensor.grid import ProcessGrid

#: CommStats op name under which shuffle traffic and its wait/overlap split
#: are recorded.
SHUFFLE_OP = "shuffle"


def shuffle_plan_stats(comm) -> tuple[int, int]:
    """``(hits, misses)`` of :func:`shuffle_plan`'s cache — one per
    process, whatever ``comm`` — as the end-to-end benchmark's
    ``tensor.plan_hit_ratio`` reads it."""
    info = shuffle_plan.cache_info()
    return info.hits, info.misses


@lru_cache(maxsize=4096)
def _spans(dist: Distribution, global_shape: tuple[int, ...]) -> tuple:
    """Per tensor axis, the span each grid coordinate owns under ``dist``."""
    return tuple(
        tuple(dist.dim_bounds(global_shape, d, c) for c in range(g))
        for d, g in enumerate(dist.grid_shape)
    )


def _meeting(
    dist: Distribution, global_shape: tuple[int, ...], box: Box, canonical: bool
):
    """``(rank, overlap)`` of every rank whose shard under ``dist`` meets
    ``box`` on every axis, in ascending rank (grid coordinates in row-major
    order), with the box they share — only the canonical replica,
    coordinate 0 on every replicated axis, when ``canonical``.  Each axis
    contributes the grid coordinates whose span meets the box's there, so
    the search costs the sum of the grid's extents, not their product."""
    offsets, overlaps = [], []
    for d, (spans, kind, (lo, hi)) in enumerate(
        zip(_spans(dist, global_shape), dist.kinds, box)
    ):
        if canonical and kind is DimKind.REPLICATED:
            spans = spans[:1]
        met = [(c, (max(b0, lo), min(b1, hi))) for c, (b0, b1) in enumerate(spans)]
        met = [(c, span) for c, span in met if span[0] < span[1]]
        stride = math.prod(dist.grid_shape[d + 1 :])
        offsets.append([c * stride for c, _ in met])
        overlaps.append([span for _, span in met])
    return zip(map(sum, itertools.product(*offsets)), itertools.product(*overlaps))


def _coords(rank: int, grid_shape: tuple[int, ...]) -> tuple[int, ...]:
    """Grid coordinates of ``rank`` (row-major), as :func:`_meeting` counts."""
    return tuple(int(c) for c in np.unravel_index(rank, grid_shape))


@lru_cache(maxsize=4096)
def shuffle_plan(
    rank: int, src: Distribution, dst: Distribution, global_shape: tuple[int, ...]
) -> TransferPlan:
    """What ``rank`` sends, receives and keeps when a tensor of
    ``global_shape`` moves from placement ``src`` to ``dst`` — two grids
    over the same ranks, whose shapes may differ arbitrarily.  Only the
    canonical replica of a source shard sends, so each element ships once;
    every replica of a destination shard receives its copy.  Peers are
    searched only where their blocks meet this rank's (:func:`_meeting`),
    and kept in ascending rank."""
    if dst.ndim != src.ndim:
        raise ValueError(f"distribution rank mismatch: {src.ndim} vs {dst.ndim}")
    if math.prod(src.grid_shape) != math.prod(dst.grid_shape):
        raise ValueError(f"grids {src.grid_shape} and {dst.grid_shape} span different ranks")
    at = _coords(rank, src.grid_shape)
    mine = src.local_bounds(global_shape, at)
    block = dst.local_bounds(global_shape, _coords(rank, dst.grid_shape))
    sends: list[tuple[int, Box]] = []
    local: list[Box] = []
    if all(c == 0 or k is not DimKind.REPLICATED for c, k in zip(at, src.kinds)):
        for peer, box in _meeting(dst, global_shape, mine, False):
            if peer == rank:
                local.append(box)
            else:
                sends.append((peer, box))
    recvs = [
        (peer, box) for peer, box in _meeting(src, global_shape, block, True) if peer != rank
    ]

    filled = sum(cells(box) for box in local) + sum(cells(box) for _, box in recvs)
    if filled != cells(block):
        raise RuntimeError(
            f"shuffle would assemble {filled} elements but the local block "
            f"has {cells(block)}; source distribution did not cover the tensor"
        )
    return TransferPlan(
        block, tuple(sends), tuple(recvs), tuple(local),
        sum(cells(box) for _, box in sends),
    )


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
        plan: TransferPlan,
    ) -> None:
        comm = src.comm
        if dst_grid.comm.size != comm.size or dst_grid.comm.members != comm.members:
            raise ValueError("shuffle requires src and dst grids over the same ranks")
        # Zero-init the new block; the plan's boxes tile it exactly.
        out = np.zeros(plan.shape, dtype=src.dtype)
        self._exchange = PlannedExchange(
            comm, plan,
            src.local, tuple(b for b, _ in src.bounds),
            out, plan.lo,
            opname=SHUFFLE_OP, stat=SHUFFLE_OP,
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
    plan: TransferPlan,
) -> ShuffleExchange:
    """Begin an overlapped redistribution of ``src`` to ``dst_dist`` along
    ``plan``, this rank's :func:`shuffle_plan` of it.

    Returns a started :class:`ShuffleExchange`; call
    :meth:`~ShuffleExchange.finish` where the redistributed tensor is
    consumed.
    """
    return ShuffleExchange(src, dst_grid, dst_dist, plan)


def shuffle(
    src: DistTensor,
    dst_grid: ProcessGrid,
    dst_dist: Distribution,
) -> DistTensor:
    """Redistribute ``src`` to ``dst_dist`` over ``dst_grid``, blocking.

    Both grids must be built over the same communicator (the same set of
    ranks in the same order); the grid *shapes* may differ arbitrarily.
    Collective: every rank must call.  This is the :class:`ShuffleExchange`
    finished right after its start, over the rank's :func:`shuffle_plan`.
    """
    plan = shuffle_plan(src.comm.rank, src.dist, dst_dist, src.global_shape)
    return ShuffleExchange(src, dst_grid, dst_dist, plan).finish()

