"""Distributed tensors: local shards with a partitioned global view.

A :class:`DistTensor` is the Python analogue of the paper's C++ distributed
tensor: each rank stores the block of the global tensor selected by its grid
coordinates under a :class:`~repro.tensor.distribution.Distribution`, and
the class provides the collective primitives the distributed convolution
algorithms are built from:

* :meth:`DistTensor.gather_region` — fetch an arbitrary hyper-rectangular
  region of the global tensor (the *generalized halo exchange*: the region
  a convolution's local outputs depend on overlaps only grid neighbors in
  the common case, but the same primitive handles strided and unaligned
  partitions exactly);
* :meth:`DistTensor.scatter_region_add` — the reverse operation, scattering
  and *accumulating* contributions computed for a region back to its owners
  (needed by pooling backpropagation where windows straddle partitions);
  :meth:`DistTensor.start_scatter_region_add` is the same transfer with the
  finish left to the caller.

A transfer is a plan and an exchange.  ``gather_region`` is the plan-free
request/reply reference the tests compare against; everything on the hot
path runs a :class:`~repro.tensor.exchange.TransferPlan` through a
:class:`~repro.tensor.exchange.PlannedExchange`.
:func:`plan_region_exchange` builds the plan of a region gather from the
ownership resolution below, and the scatter-add is that same plan read
backwards — its receives are what to send, its sends what to accumulate.

Both are collective over the grid's communicator.  Regions may extend past
the global tensor boundary; out-of-range parts are zero-filled on gather
(materializing convolution padding) and dropped on scatter.

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
    PlannedExchange,
    TransferPlan,
    cells,
    stage_payload,
)
from repro.tensor.grid import ProcessGrid
from repro.tensor.indexing import (
    block_coords_of_interval,
    intersect,
    interval_is_empty,
    place_region,
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

    # -- ownership resolution ----------------------------------------------------
    def _owners_of_region(
        self,
        lo: Sequence[int],
        hi: Sequence[int],
        coords: Sequence[int] | None = None,
    ) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
        """Ranks owning parts of global region ``[lo, hi)`` and their overlaps.

        Replicated dimensions resolve to the replica group of ``coords`` (the
        caller's own coordinates by default) — passing another rank's
        coordinates answers "whom would *that* rank fetch this region from",
        which is what the sender side of the overlapped halo exchange needs
        to mirror the receive side without a request round-trip.
        Returns ``[(comm_rank, per-dim clipped interval), ...]``.
        """
        if coords is None:
            coords = self.grid.coords
        per_dim: list[list[tuple[int, tuple[int, int]]]] = []
        for d in range(self.dist.ndim):
            n = self.global_shape[d]
            clipped = intersect((int(lo[d]), int(hi[d])), (0, n))
            if interval_is_empty(clipped):
                return []
            if self.dist.is_split(d):
                c0, c1 = block_coords_of_interval(
                    n, self.dist.grid_shape[d], clipped[0], clipped[1]
                )
                options = []
                for c in range(c0, c1 + 1):
                    overlap = intersect(
                        clipped, self.dist.dim_bounds(self.global_shape, d, c)
                    )
                    if not interval_is_empty(overlap):
                        options.append((c, overlap))
                per_dim.append(options)
            else:
                # Unsplit: stay within the requester's replica group.
                per_dim.append([(coords[d], clipped)])

        owners = []
        for combo in itertools.product(*per_dim):
            coords = tuple(c for c, _ in combo)
            overlap = tuple(iv for _, iv in combo)
            owners.append((self.grid.rank_of(coords), overlap))
        return owners

    _stage_payload = staticmethod(stage_payload)

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
    def gather_region(
        self,
        lo: Sequence[int],
        hi: Sequence[int],
        fill: float = 0.0,
        pool=None,
    ) -> np.ndarray:
        """Collectively fetch global region ``[lo, hi)`` into a local array.

        All grid ranks must call this together (each with its own region —
        pass an empty region to participate without fetching).  Out-of-range
        parts are filled with ``fill``.  ``pool`` (a
        :class:`~repro.comm.buffers.BufferPool`) supplies the assembly
        buffer *and* stages the off-rank reply payloads (recycled across
        calls via deferred reclamation once the requesters drop the
        zero-copy views); the caller owns the result and may ``give`` it
        back once done reading it.
        """
        lo = tuple(int(v) for v in lo)
        hi = tuple(int(v) for v in hi)
        out_shape = tuple(h - b for b, h in zip(lo, hi))
        if any(s < 0 for s in out_shape):
            raise ValueError(f"negative region shape {out_shape}")

        owners = self._owners_of_region(lo, hi) if all(s > 0 for s in out_shape) else []
        comm = self.comm

        requests: list[list[tuple[tuple[int, int], ...]]] = [
            [] for _ in range(comm.size)
        ]
        for rank, overlap in owners:
            requests[rank].append(overlap)

        incoming = comm.alltoall(requests)
        replies = [
            [
                self._stage_payload(self._local_slice_of(region), pool)
                if j != comm.rank
                else self._local_slice_of(region)
                for region in regions
            ]
            for j, regions in enumerate(incoming)
        ]
        comm.stats.record_collective(
            "region_data",
            sum(
                arr.nbytes
                for j, regions in enumerate(replies)
                for arr in regions
                if j != comm.rank
            ),
        )
        data_back = comm.alltoall(replies)

        if pool is not None:
            out = pool.take(out_shape, self.dtype)
            out.fill(fill)
        else:
            out = np.full(out_shape, fill, dtype=self.dtype)
        for rank in range(comm.size):
            for region, data in zip(requests[rank], data_back[rank]):
                offset = tuple(r[0] - b for r, b in zip(region, lo))
                place_region(out, data, offset)
        return out

    def start_scatter_region_add(
        self,
        region: np.ndarray,
        lo: Sequence[int],
        pool=None,
        plan: TransferPlan | None = None,
    ) -> "ScatterAddExchange":
        """Scatter ``region`` (anchored at global ``lo``) to its owners,
        *adding* into their shards: send the contributions and accumulate
        the *own* contribution immediately.

        The transfer is the gather of ``[lo, lo + region.shape)`` read
        backwards.  ``plan`` is that gather's
        :func:`plan_region_exchange` (layers pass their cached forward
        plan); without one, the ranks learn each other's regions with one
        small allgather and build it.  The returned handle's
        :meth:`~ScatterAddExchange.finish` folds in the remote
        contributions.  The accumulation order is fixed and documented —
        own contribution first (it overlaps the in-flight transfer), then
        remote contributions in ascending comm rank.  ``pool`` stages the
        off-rank contribution payloads (same deferred recycling as
        :meth:`gather_region`'s replies).
        """
        lo = tuple(int(v) for v in lo)
        hi = tuple(b + int(s) for b, s in zip(lo, region.shape))
        if plan is None:
            plan = plan_region_exchange(
                self, lo, hi, self.comm.allgather((lo, hi))
            )
        elif plan.lo != lo or plan.shape != region.shape:
            raise ValueError(
                f"plan was built for region {plan.box}, not {tuple(zip(lo, hi))}"
            )
        return ScatterAddExchange(
            PlannedExchange(
                self.comm, plan.reversed(),
                region, lo,
                self.local, tuple(b for b, _ in self.bounds),
                opname=HALO_OP, stat="region_data", accumulate=True, pool=pool,
            )
        )

    def scatter_region_add(
        self,
        region: np.ndarray,
        lo: Sequence[int],
        pool=None,
        plan: TransferPlan | None = None,
    ) -> None:
        """Collectively scatter ``region`` (anchored at global ``lo``) to its
        owners, *adding* into their local shards.

        Parts of the region outside the global tensor are dropped (they
        correspond to virtual padding).  All grid ranks must call together.
        This is :meth:`start_scatter_region_add` finished at once — same
        arguments, same accumulation order (own first, then remote in
        ascending comm rank).
        """
        self.start_scatter_region_add(region, lo, pool=pool, plan=plan).finish()

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


def plan_region_exchange(
    dt: DistTensor,
    lo: Sequence[int],
    hi: Sequence[int],
    peer_regions: Sequence[tuple[Sequence[int], Sequence[int]]],
) -> TransferPlan:
    """Build the static schedule for a gather of ``[lo, hi)`` from ``dt``.

    ``peer_regions[j]`` must be the ``(lo, hi)`` region comm-rank ``j``
    gathers in the same exchange — identical on every rank (each rank
    derives all regions from shared layer geometry), which is what lets the
    send side be mirrored from the receive side without a request
    round-trip.  Halo geometry is a function of the layer and distribution
    alone, so layers build the plan once and reuse it every step, exactly
    as the paper's implementation sets up its halo exchanges per layer
    rather than per invocation.
    """
    lo = tuple(int(v) for v in lo)
    hi = tuple(int(v) for v in hi)
    if any(h < b for b, h in zip(lo, hi)):
        raise ValueError(
            f"negative region shape {tuple(h - b for b, h in zip(lo, hi))}"
        )
    comm = dt.comm
    grid = dt.grid

    sends = []
    for peer in range(comm.size):
        if peer == comm.rank:
            continue
        peer_lo, peer_hi = peer_regions[peer]
        if any(h - b <= 0 for b, h in zip(peer_lo, peer_hi)):
            continue
        owners = dt._owners_of_region(peer_lo, peer_hi, coords=grid.coords_of(peer))
        sends.extend((peer, box) for rank, box in owners if rank == comm.rank)

    recvs = []
    local = []
    if all(h > b for b, h in zip(lo, hi)):
        for rank, box in dt._owners_of_region(lo, hi):
            if rank == comm.rank:
                local.append(box)
            else:
                recvs.append((rank, box))
    return TransferPlan(
        tuple(zip(lo, hi)), tuple(sends), tuple(recvs), tuple(local),
        sum(cells(box) for _, box in sends),
    )
