"""Tensor distributions: ``D = (D(0), ..., D(M-1))`` from the paper's §II-C.

Each tensor dimension is either

* **BLOCK** — block-partitioned over the grid axis with the same index
  (spatial dimensions must be blocked: "applying convolution at a point
  requires spatially adjacent data", §III), or
* **REPLICATED** — every rank holds the full extent of the dimension.
  Combined with a grid axis of extent > 1, a replicated dimension means the
  data is duplicated across that axis (e.g. the weights ``w`` are replicated
  on every processor for sample and spatial parallelism, §III-A).

A dimension whose grid axis has extent 1 is trivially both; we normalize it
to BLOCK so equality comparisons are canonical.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable, Sequence

from repro.tensor.indexing import block_bounds


class DimKind(str, Enum):
    BLOCK = "block"
    REPLICATED = "replicated"


@dataclass(frozen=True)
class Distribution:
    """How a tensor's dimensions map onto a process grid.

    ``grid_shape[d]`` is the number of grid parts along tensor dimension
    ``d``; ``kinds[d]`` says whether the dimension is block-partitioned over
    that axis or replicated across it.
    """

    grid_shape: tuple[int, ...]
    kinds: tuple[DimKind, ...]

    def __post_init__(self) -> None:
        if len(self.grid_shape) != len(self.kinds):
            raise ValueError(
                f"grid_shape has {len(self.grid_shape)} dims but kinds has "
                f"{len(self.kinds)}"
            )
        if any(g < 1 for g in self.grid_shape):
            raise ValueError(f"grid axes must be positive: {self.grid_shape}")
        # Normalize: an axis of extent 1 is canonically BLOCK.
        object.__setattr__(
            self,
            "kinds",
            tuple(
                DimKind.BLOCK if g == 1 else DimKind(k)
                for g, k in zip(self.grid_shape, self.kinds)
            ),
        )

    # -- constructors ------------------------------------------------------------
    @classmethod
    def make(
        cls,
        grid_shape: Sequence[int],
        replicated_axes: Iterable[int] = (),
    ) -> "Distribution":
        """Block-partition every dimension except ``replicated_axes``."""
        grid_shape = tuple(int(g) for g in grid_shape)
        replicated = set(replicated_axes)
        kinds = tuple(
            DimKind.REPLICATED if d in replicated else DimKind.BLOCK
            for d in range(len(grid_shape))
        )
        return cls(grid_shape, kinds)

    # -- index sets (paper §II-C) ---------------------------------------------
    @property
    def ndim(self) -> int:
        return len(self.grid_shape)

    def parts(self, d: int) -> int:
        """Number of distinct index blocks along dimension ``d``."""
        return self.grid_shape[d] if self.kinds[d] is DimKind.BLOCK else 1

    def dim_bounds(self, global_shape: Sequence[int], d: int, coord: int) -> tuple[int, int]:
        """``I_p(D(d))`` as a half-open interval for grid coordinate ``coord``."""
        if self.kinds[d] is DimKind.REPLICATED:
            return 0, int(global_shape[d])
        return block_bounds(int(global_shape[d]), self.grid_shape[d], coord)

    def local_bounds(
        self, global_shape: Sequence[int], coords: Sequence[int]
    ) -> tuple[tuple[int, int], ...]:
        """``I_p(D)``: per-dimension intervals owned at grid ``coords``."""
        return _local_bounds(self, tuple(global_shape), tuple(coords))

    def local_shape(
        self, global_shape: Sequence[int], coords: Sequence[int]
    ) -> tuple[int, ...]:
        return tuple(hi - lo for lo, hi in self.local_bounds(global_shape, coords))

    def is_split(self, d: int) -> bool:
        """True if dimension ``d`` is actually partitioned (>1 block)."""
        return self.kinds[d] is DimKind.BLOCK and self.grid_shape[d] > 1

    def __str__(self) -> str:
        parts = []
        for g, k in zip(self.grid_shape, self.kinds):
            parts.append(f"{g}" if k is DimKind.BLOCK else f"*{g}")
        return "Dist(" + "x".join(parts) + ")"


@lru_cache(maxsize=4096)
def _local_bounds(
    dist: Distribution, global_shape: tuple[int, ...], coords: tuple[int, ...]
) -> tuple[tuple[int, int], ...]:
    """:meth:`Distribution.local_bounds`, memoised: a pure function of a
    frozen dataclass and two tuples that every ``DistTensor`` construction
    and region gather asks again (a mismatch raises every time — errors are
    not cached)."""
    if len(coords) != dist.ndim or len(global_shape) != dist.ndim:
        raise ValueError("coords/global_shape rank mismatch")
    return tuple(
        dist.dim_bounds(global_shape, d, coords[d]) for d in range(dist.ndim)
    )
