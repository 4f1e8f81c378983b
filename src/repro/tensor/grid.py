"""Cartesian process grids over a communicator.

A CNN tensor has dimensions (N, C, H, W); the paper parallelizes by
partitioning a subset of them.  A :class:`ProcessGrid` arranges the ranks of
a communicator into a dense multi-dimensional grid with one axis per tensor
dimension (axes of extent 1 for unpartitioned dimensions), e.g.:

* pure sample parallelism on 16 GPUs:      grid ``(16, 1, 1, 1)``
* 4-way spatial (2x2) on 4 GPUs:           grid ``(1, 1, 2, 2)``
* hybrid 4 samples x 2x2 spatial, 16 GPUs: grid ``(4, 1, 2, 2)``

Ranks map to coordinates in row-major (C) order, so the *last* axes vary
fastest.  Spatial axes are last, which places the members of one sample's
spatial group on consecutive ranks — i.e. packed onto the same node first,
exactly the placement the paper uses ("a sample is being partitioned across
two or four nodes" only for 8/16-way spatial on 4-GPU nodes).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.comm.communicator import Communicator


def rank_at(shape: Sequence[int], coords: Sequence[int]) -> int:
    """Comm rank at grid ``coords`` of a grid of ``shape`` (row-major)."""
    rank = 0
    for c, s in zip(coords, shape):
        rank = rank * s + c
    return rank


class ProcessGrid:
    """A dense Cartesian arrangement of the ranks of a communicator."""

    def __init__(self, comm: Communicator, shape: Sequence[int]) -> None:
        shape = tuple(int(s) for s in shape)
        if any(s < 1 for s in shape):
            raise ValueError(f"grid shape must be positive, got {shape}")
        if math.prod(shape) != comm.size:
            raise ValueError(
                f"grid shape {shape} requires {math.prod(shape)} ranks, "
                f"but communicator has {comm.size}"
            )
        self.comm = comm
        self.shape = shape
        self.ndim = len(shape)
        self.coords: tuple[int, ...] = tuple(
            int(c) for c in np.unravel_index(comm.rank, shape)
        )
        self._axis_comms: dict[tuple[int, ...], Communicator] = {}

    # -- coordinate arithmetic -------------------------------------------------
    def rank_of(self, coords: Sequence[int]) -> int:
        """Comm rank at the given grid coordinates."""
        coords = tuple(coords)
        if len(coords) != self.ndim:
            raise ValueError(f"expected {self.ndim} coords, got {len(coords)}")
        for c, s in zip(coords, self.shape):
            if not 0 <= c < s:
                raise ValueError(f"coords {coords} out of range for grid {self.shape}")
        return rank_at(self.shape, coords)

    def coords_of(self, rank: int) -> tuple[int, ...]:
        return tuple(int(c) for c in np.unravel_index(rank, self.shape))

    def neighbor(self, axis: int, displacement: int) -> int | None:
        """Comm rank of the neighbor ``displacement`` steps along ``axis``.

        Returns ``None`` at the grid boundary (no periodic wraparound —
        convolution halos stop at the global tensor edge).
        """
        c = self.coords[axis] + displacement
        if not 0 <= c < self.shape[axis]:
            return None
        coords = list(self.coords)
        coords[axis] = c
        return self.rank_of(coords)

    # -- sub-communicators -------------------------------------------------------
    def axes_comm(self, axes: Sequence[int]) -> Communicator:
        """Communicator over the sub-grid spanned by ``axes``.

        Ranks sharing coordinates on all *other* axes form one group; the
        new comm's ranks are ordered row-major over ``axes``.  E.g. on a
        hybrid grid ``(4, 1, 2, 2)``, ``axes_comm((0,))`` is this rank's
        *sample group* and ``axes_comm((2, 3))`` its *spatial group*.
        Collective over the grid's communicator on first use: all ranks must
        call it, in the same order (cached thereafter).
        """
        axes = tuple(sorted(set(int(a) for a in axes)))
        for a in axes:
            if not 0 <= a < self.ndim:
                raise ValueError(f"axis {a} out of range for grid {self.shape}")
        cached = self._axis_comms.get(axes)
        if cached is not None:
            return cached
        fixed = [c for i, c in enumerate(self.coords) if i not in axes]
        color = 0
        for i, c in enumerate(fixed):
            color = color * 10007 + c + 1  # injective enough for dense grids
        key = 0
        for a in axes:
            key = key * self.shape[a] + self.coords[a]
        sub = self.comm.split(color=color, key=key)
        assert sub is not None
        self._axis_comms[axes] = sub
        return sub

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProcessGrid(shape={self.shape}, coords={self.coords})"
