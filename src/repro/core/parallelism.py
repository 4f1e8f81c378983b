"""Parallelism descriptors and execution strategies.

A :class:`LayerParallelism` factorizes the available ranks over the
dimensions the paper's results split: samples, and the *spatial* height and
width.  The channel/filter split of §III-D is only sketched in the paper and
is not implemented, so the channel axis of every process grid is 1:

* ``LayerParallelism(sample=16)`` — pure sample (data) parallelism;
* ``LayerParallelism(height=2, width=2)`` — 4-way spatial parallelism;
* ``LayerParallelism(sample=4, height=2, width=2)`` — hybrid
  sample/spatial: samples partitioned onto groups of 4 GPUs, each sample
  spatially partitioned within its group ("our results are primarily
  hybrid sample-spatial parallelism", §VI-B).

A :class:`ParallelStrategy` assigns a descriptor to every layer ("a
parallel execution strategy for a network is an assignment of distributions
to each layer", §V-C).  The common single-descriptor case ("we use the same
data decomposition for every layer in a given configuration") is
:meth:`ParallelStrategy.uniform`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

from repro.tensor.distribution import DimKind, Distribution


@dataclass(frozen=True)
class LayerParallelism:
    """How one layer's work is split: (N, H, W) process-grid factors."""

    sample: int = 1
    height: int = 1
    width: int = 1

    def __post_init__(self) -> None:
        for f in (self.sample, self.height, self.width):
            if f < 1:
                raise ValueError(f"parallelism factors must be >= 1: {self}")

    @property
    def grid_shape(self) -> tuple[int, int, int, int]:
        """The (N, C, H, W) grid that pairs with NCHW tensor dims; C is 1."""
        return (self.sample, 1, self.height, self.width)

    @property
    def nranks(self) -> int:
        return self.sample * self.height * self.width

    @property
    def spatial_ways(self) -> int:
        """GPUs per sample (the paper's "k GPUs/sample" knob)."""
        return self.height * self.width

    def describe(self) -> str:
        if self.spatial_ways == 1:
            return f"sample({self.sample})"
        return f"hybrid(sample={self.sample}, spatial={self.height}x{self.width})"

    @classmethod
    def spatial_square(cls, sample: int, ways: int) -> "LayerParallelism":
        """Hybrid descriptor with a near-square H x W factorization of
        ``ways`` GPUs/sample (2 -> 2x1, 4 -> 2x2, 8 -> 4x2, 16 -> 4x4),
        matching the decompositions the paper evaluates."""
        if ways < 1:
            raise ValueError(f"ways must be >= 1, got {ways}")
        # Factor ways = h*w with h >= w as close to square as possible.
        best = (ways, 1)
        for w in range(1, int(math.isqrt(ways)) + 1):
            if ways % w == 0:
                best = (ways // w, w)
        return cls(sample=sample, height=best[0], width=best[1])


@lru_cache(maxsize=4096)
def activation_dist(
    grid_shape: Sequence[int], shape: Sequence[int]
) -> Distribution:
    """Distribution of an activation tensor on a layer grid.

    Dimensions are block-partitioned; a dimension too small to give every
    grid part at least one index (e.g. the 1x1 spatial extent after global
    pooling) is replicated instead, so no rank holds an empty shard.
    """
    kinds = tuple(
        DimKind.BLOCK if int(n) >= g else DimKind.REPLICATED
        for n, g in zip(shape, grid_shape)
    )
    return Distribution(tuple(int(g) for g in grid_shape), kinds)


class ParallelStrategy:
    """Assignment of a :class:`LayerParallelism` to every layer."""

    def __init__(
        self,
        assignments: Mapping[str, LayerParallelism],
        default: LayerParallelism | None = None,
    ) -> None:
        self._assignments = dict(assignments)
        self._default = default
        sizes = {p.nranks for p in self._assignments.values()}
        if default is not None:
            sizes.add(default.nranks)
        if len(sizes) > 1:
            raise ValueError(
                f"all layers must use the same total rank count, got {sizes}"
            )

    @classmethod
    def uniform(cls, parallelism: LayerParallelism) -> "ParallelStrategy":
        """Same decomposition for every layer (the paper's evaluated mode)."""
        return cls({}, default=parallelism)

    def for_layer(self, name: str) -> LayerParallelism:
        p = self._assignments.get(name, self._default)
        if p is None:
            raise KeyError(f"no parallelism assigned for layer {name!r}")
        return p

    @property
    def nranks(self) -> int:
        if self._assignments:
            return next(iter(self._assignments.values())).nranks
        assert self._default is not None
        return self._default.nranks

    def assignments(self) -> dict[str, LayerParallelism]:
        return dict(self._assignments)

    def describe(self, layer_names: Sequence[str] | None = None) -> str:
        if not self._assignments and self._default is not None:
            return f"uniform {self._default.describe()}"
        names = layer_names or sorted(self._assignments)
        return "; ".join(f"{n}: {self.for_layer(n).describe()}" for n in names)
