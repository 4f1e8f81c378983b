"""Distributed tensors: local shards with a partitioned global view.

A :class:`DistTensor` is the Python analogue of the paper's C++ distributed
tensor: each rank stores the block of the global tensor selected by its grid
coordinates under a :class:`~repro.tensor.distribution.Distribution`.  The
region transfers the distributed convolution algorithms are built from are
planned here and run by the one
:class:`~repro.tensor.exchange.PlannedExchange`:

* :func:`plan_regions` — the static schedules of a *region gather*, in
  which every rank fetches an arbitrary hyper-rectangular region of the
  global tensor (the *generalized halo exchange*: the region a
  convolution's local outputs depend on overlaps only grid neighbors in the
  common case, but the same plan handles strided and unaligned partitions
  exactly), built from the pure ownership resolution
  :func:`owners_of_region`; :func:`~repro.tensor.halo.start_region_exchange`
  runs one;
* :meth:`DistTensor.start_scatter_region_add` — the reverse operation, that
  plan read backwards (its receives are what to send, its sends what to
  accumulate): contributions computed for a region are scattered to its
  owners and *accumulated* (pooling backpropagation, where windows straddle
  partitions); :meth:`DistTensor.scatter_region_add` finishes it at once.

Both are collective over the grid's communicator.  Regions may extend past
the global tensor boundary; out-of-range parts are never staged on gather
(a kernel reads them as virtual padding) and are dropped on scatter.

Replication is respected: when a dimension is replicated across a grid axis,
gathers are served by the replica in the caller's own replica group, and
scatter-adds stay within the caller's replica group, so replicas remain
bitwise consistent without extra synchronization.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from repro.comm.communicator import Communicator
from repro.tensor.distribution import Distribution
from repro.tensor.exchange import (
    HALO_OP,
    Box,
    PlannedExchange,
    TransferPlan,
    cells,
)
from repro.tensor.grid import ProcessGrid, rank_at
from repro.tensor.indexing import (
    block_coords_of_interval,
    intersect,
    interval_is_empty,
)


class DistTensor:
    """One rank's view of a globally distributed dense tensor."""

    def __init__(
        self,
        grid: ProcessGrid,
        dist: Distribution,
        global_shape: Sequence[int],
        local: np.ndarray,
    ) -> None:
        global_shape = tuple(int(s) for s in global_shape)
        if dist.ndim != len(global_shape):
            raise ValueError(
                f"distribution has {dist.ndim} dims, tensor has {len(global_shape)}"
            )
        if dist.grid_shape != grid.shape:
            raise ValueError(
                f"distribution grid {dist.grid_shape} != process grid {grid.shape}"
            )
        expected = dist.local_shape(global_shape, grid.coords)
        if tuple(local.shape) != expected:
            raise ValueError(
                f"local shard shape {local.shape} != expected {expected} at "
                f"coords {grid.coords}"
            )
        self.grid = grid
        self.dist = dist
        self.global_shape = global_shape
        self.local = local

    # -- constructors -----------------------------------------------------------
    @classmethod
    def from_global(
        cls,
        grid: ProcessGrid,
        dist: Distribution,
        global_array: np.ndarray,
    ) -> "DistTensor":
        """Shard a replicated global array (no communication: every rank
        holds ``global_array`` and slices its own block)."""
        bounds = dist.local_bounds(global_array.shape, grid.coords)
        sl = tuple(slice(lo, hi) for lo, hi in bounds)
        return cls(grid, dist, global_array.shape, np.ascontiguousarray(global_array[sl]))

    @classmethod
    def zeros(
        cls,
        grid: ProcessGrid,
        dist: Distribution,
        global_shape: Sequence[int],
        dtype=np.float64,
    ) -> "DistTensor":
        shape = dist.local_shape(global_shape, grid.coords)
        return cls(grid, dist, global_shape, np.zeros(shape, dtype=dtype))

    # -- basic properties ---------------------------------------------------------
    @property
    def comm(self) -> Communicator:
        return self.grid.comm

    @property
    def bounds(self) -> tuple[tuple[int, int], ...]:
        """Per-dimension global intervals owned by this rank (``I_p(D)``)."""
        return self.dist.local_bounds(self.global_shape, self.grid.coords)

    @property
    def dtype(self):
        return self.local.dtype

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DistTensor(global={self.global_shape}, dist={self.dist}, "
            f"bounds={self.bounds})"
        )

    def _local_slice_of(self, region: tuple[tuple[int, int], ...]) -> np.ndarray:
        """View of the local shard covering global ``region`` (must be owned)."""
        my = self.bounds
        sl = []
        for (g_lo, g_hi), (m_lo, m_hi) in zip(region, my):
            if g_lo < m_lo or g_hi > m_hi:
                raise ValueError(
                    f"region {region} not owned locally (bounds {my})"
                )
            sl.append(slice(g_lo - m_lo, g_hi - m_lo))
        return self.local[tuple(sl)]

    # -- collective region primitives ------------------------------------------
    def start_scatter_region_add(
        self,
        region: np.ndarray,
        lo: Sequence[int],
        plan: TransferPlan,
    ) -> "ScatterAddExchange":
        """Scatter ``region`` (anchored at global ``lo``) to its owners,
        *adding* into their shards: send the contributions and accumulate
        the *own* contribution immediately.

        The transfer is the gather of ``[lo, lo + region.shape)`` read
        backwards, and ``plan`` is that gather's (:func:`plan_regions`;
        pooling passes its window's).  The returned handle's
        :meth:`~ScatterAddExchange.finish` folds in the remote
        contributions.  The accumulation order is fixed and documented —
        own contribution first (it overlaps the in-flight transfer), then
        remote contributions in ascending comm rank.
        """
        lo = tuple(int(v) for v in lo)
        if plan.lo != lo or plan.shape != region.shape:
            hi = tuple(b + int(s) for b, s in zip(lo, region.shape))
            raise ValueError(
                f"plan was built for region {plan.box}, not {tuple(zip(lo, hi))}"
            )
        return ScatterAddExchange(
            PlannedExchange(
                self.comm, plan.reversed(),
                region, lo,
                ((self.local, tuple(b for b, _ in self.bounds)),),
                opname=HALO_OP, stat="region_data", accumulate=True,
            )
        )

    def scatter_region_add(
        self,
        region: np.ndarray,
        lo: Sequence[int],
        plan: TransferPlan,
    ) -> None:
        """Collectively scatter ``region`` (anchored at global ``lo``) to its
        owners, *adding* into their local shards.

        Parts of the region outside the global tensor are dropped (they
        correspond to virtual padding).  All grid ranks must call together.
        This is :meth:`start_scatter_region_add` finished at once — same
        arguments, same accumulation order (own first, then remote in
        ascending comm rank).
        """
        self.start_scatter_region_add(region, lo, plan).finish()

    # -- whole-tensor collectives (test/debug helpers) -----------------------------
    def to_global(self) -> np.ndarray:
        """Assemble the full global tensor on every rank (allgather)."""
        pieces = self.comm.allgather((self.grid.coords, self.local))
        out = np.zeros(self.global_shape, dtype=self.dtype)
        for coords, local in pieces:
            bounds = self.dist.local_bounds(self.global_shape, coords)
            sl = tuple(slice(lo, hi) for lo, hi in bounds)
            out[sl] = local
        return out


class ScatterAddExchange:
    """In-flight scatter-add (:meth:`DistTensor.start_scatter_region_add`).

    The owner's own contribution is already accumulated by the time the
    handle exists; :meth:`finish` waits for the peers' contributions and
    folds them in, in ascending comm rank.
    """

    __slots__ = ("_exchange",)

    def __init__(self, exchange: PlannedExchange) -> None:
        self._exchange = exchange

    def finish(self) -> None:
        """Fold in the remote contributions; a repeated call is a no-op."""
        self._exchange.finish()


def owners_of_region(
    dist: Distribution,
    shape: Sequence[int],
    lo: Sequence[int],
    hi: Sequence[int],
    coords: Sequence[int],
) -> list[tuple[int, Box]]:
    """Ranks owning parts of global region ``[lo, hi)`` of a tensor of
    global ``shape`` placed by ``dist``, and their overlaps — whom the rank
    at grid ``coords`` fetches the region from.  Replicated dimensions
    resolve to the replica group of ``coords``.  Returns
    ``[(comm_rank, per-dim clipped interval), ...]``.
    """
    per_dim: list[list[tuple[int, tuple[int, int]]]] = []
    for d in range(dist.ndim):
        n = shape[d]
        clipped = intersect((int(lo[d]), int(hi[d])), (0, n))
        if interval_is_empty(clipped):
            return []
        if dist.is_split(d):
            c0, c1 = block_coords_of_interval(
                n, dist.grid_shape[d], clipped[0], clipped[1]
            )
            options = []
            for c in range(c0, c1 + 1):
                overlap = intersect(clipped, dist.dim_bounds(shape, d, c))
                if not interval_is_empty(overlap):
                    options.append((c, overlap))
            per_dim.append(options)
        else:
            # Unsplit: stay within the requester's replica group.
            per_dim.append([(coords[d], clipped)])
    return [
        (rank_at(dist.grid_shape, [c for c, _ in combo]), tuple(iv for _, iv in combo))
        for combo in itertools.product(*per_dim)
    ]


def plan_regions(
    dist: Distribution,
    shape: Sequence[int],
    regions: Sequence[tuple[Sequence[int], tuple[Sequence[int], Sequence[int]]]],
) -> list[TransferPlan]:
    """The static schedules of one region gather from a tensor of global
    ``shape`` placed by ``dist``, in which the rank at grid ``coords``
    gathers ``[lo, hi)`` for each ``(coords, (lo, hi))`` of ``regions`` —
    a pure function of placement and regions, no tensor and no
    communicator.  One plan per entry, in order.

    ``regions`` lists, in ascending rank order, every rank that may read
    another's shard in the exchange.  Each rank receives from the owners
    of its region (:func:`owners_of_region`) and sends to every rank that
    receives from it: the send side is the receive side inverted, so the
    two agree by construction, and each rank's sends are in ascending
    rank order.
    """
    regions = [
        (coords, (tuple(int(v) for v in lo), tuple(int(v) for v in hi)))
        for coords, (lo, hi) in regions
    ]
    owners = []
    sends: dict[int, list] = {}
    for coords, (lo, hi) in regions:
        if any(h < b for b, h in zip(lo, hi)):
            raise ValueError(
                f"negative region shape {tuple(h - b for b, h in zip(lo, hi))}"
            )
        me = rank_at(dist.grid_shape, coords)
        owners.append((me, owners_of_region(dist, shape, lo, hi, coords)))
        for rank, box in owners[-1][1]:
            if rank != me:
                sends.setdefault(rank, []).append((me, box))
    plans = []
    for (_, (lo, hi)), (me, mine) in zip(regions, owners):
        out = tuple(sends.get(me, ()))
        plans.append(TransferPlan(
            tuple(zip(lo, hi)), out,
            tuple((rank, box) for rank, box in mine if rank != me),
            tuple(box for rank, box in mine if rank == me),
            sum(cells(box) for _, box in out),
        ))
    return plans
