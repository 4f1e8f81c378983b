"""Distributed tensor substrate (the paper's C++ tensor library, in Python).

The paper builds a small distributed tensor library presenting "a
partitioned global view of multidimensional tensors" with halo exchange
(Section IV).  This package reproduces it:

* :mod:`repro.tensor.indexing` — block partition arithmetic (the index sets
  ``I_p(D(m))`` of §II-C) and zero-filled region extraction.
* :mod:`repro.tensor.grid` — Cartesian process grids over a communicator
  with per-axis sub-communicators.
* :mod:`repro.tensor.distribution` — per-dimension Block / Replicated
  distributions ``D = (D(0), ..., D(M-1))``.
* :mod:`repro.tensor.exchange` — the one planned transfer:
  :class:`~repro.tensor.exchange.TransferPlan` (what this rank sends,
  receives and already holds) and
  :class:`~repro.tensor.exchange.PlannedExchange` (eager sends to the
  plan's partners, posted receives, ``poll()``/``finish()``).
* :mod:`repro.tensor.dist_tensor` — :class:`DistTensor`: local shards with
  global metadata, ``plan_regions`` (the plans of a region gather, the
  generalized halo) and ``start_scatter_region_add`` (reverse halo
  accumulation: that plan read backwards).
* :mod:`repro.tensor.halo` — :class:`~repro.tensor.halo.RegionExchange`,
  the gather plan run so that halo exchanges hide behind interior
  computation (§IV-A).
* :mod:`repro.tensor.shuffle` — redistribution between two distributions
  (§III-C): ``plan_shuffle`` (cached per communicator) run as a
  :class:`~repro.tensor.shuffle.ShuffleExchange`.

A transfer is a plan and an exchange; a layer is a window geometry and a
kernel.  Halo gather, shuffle and pooling's scatter-add are three plans
over the one exchange: every transfer is a start and a ``finish()``, and
the blocking spellings (``shuffle``, ``scatter_region_add``) finish right
after they start.
"""

from repro.tensor.indexing import (
    block_bounds,
    block_coords_of_interval,
    block_size,
    extract_padded,
    intersect,
)
from repro.tensor.grid import ProcessGrid
from repro.tensor.distribution import DimKind, Distribution
from repro.tensor.dist_tensor import DistTensor
from repro.tensor.exchange import TransferPlan
from repro.tensor.halo import RegionExchange, start_region_exchange
from repro.tensor.shuffle import (
    ShuffleExchange,
    plan_shuffle,
    shuffle,
    shuffle_plan_stats,
    start_shuffle,
)

__all__ = [
    "DimKind",
    "DistTensor",
    "Distribution",
    "ProcessGrid",
    "RegionExchange",
    "ShuffleExchange",
    "TransferPlan",
    "block_bounds",
    "block_coords_of_interval",
    "block_size",
    "extract_padded",
    "intersect",
    "plan_shuffle",
    "shuffle",
    "shuffle_plan_stats",
    "start_region_exchange",
    "start_shuffle",
]
