"""Analytic α-β cost models for point-to-point and collective operations.

Follows the linear (Hockney) model of the paper's §II-B: sending ``n`` bytes
between two nodes costs ``α + βn`` with latency ``α`` (seconds) and inverse
bandwidth ``β`` (seconds/byte).  Collective costs follow Thakur, Rabenseifner
& Gropp, *Optimization of Collective Communication Operations in MPICH*
(IJHPCA 2005), which is the model the paper cites for allreduce:

* recursive doubling: ``lg(p)·α + lg(p)·n·β + lg(p)·n·γ`` — best for small n;
* Rabenseifner (reduce-scatter + allgather):
  ``2·lg(p)·α + 2·((p-1)/p)·n·β + ((p-1)/p)·n·γ`` — best for large n, p=2^k;
* ring: ``2·(p-1)·α + 2·((p-1)/p)·n·β + ((p-1)/p)·n·γ`` — bandwidth-optimal,
  what NCCL uses for large messages.

``γ`` is the per-byte local reduction cost.  All functions take byte counts.

Which of them a group runs is one rule, :func:`select_allreduce_algorithm`:
the communicator's ``algorithm="auto"`` compiles its answer and the cost
model (:meth:`repro.perfmodel.machine.MachineSpec.allreduce_time`) prices
it, the two-level composition of a group spanning nodes included
(:func:`hierarchical_allreduce_time`).  :func:`allreduce_time` prices one
named flat algorithm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.comm.algorithms import REDUCTION_ALGORITHMS

#: The all-to-all exchange (every rank ships its whole payload
#: to every peer): not a scheduled algorithm, but its wire volume is
#: modeled so measured traffic can be compared for the bitwise-reference
#: mode too.
DIRECT_ALGORITHM = "direct"

#: The two-level (intra-node reduce-scatter → inter-node allreduce →
#: intra-node allgather) composition: selected when a
#: :class:`TwoTierTopology` says the inter-node wire is the bottleneck.
HIERARCHICAL_ALGORITHM = "hierarchical"

#: Message size (bytes) above which bandwidth-optimal algorithms win.
#: Thakur et al. use 2 KiB as the small/large cutoff for allreduce.
SMALL_MESSAGE_CUTOFF: int = 2048


@dataclass(frozen=True)
class LinkParameters:
    """α-β(-γ) parameters for one class of link."""

    alpha: float  # latency, seconds
    beta: float  # inverse bandwidth, seconds per byte
    gamma: float = 0.0  # local reduction cost, seconds per byte

    def pt2pt(self, nbytes: float) -> float:
        return self.alpha + self.beta * nbytes


#: Default intra-node link: NVLink2-class (~47 GB/s effective, CUDA-IPC
#: launch latency).  Shared with :class:`repro.perfmodel.machine.MachineSpec`
#: so the communicator's topology-aware selection and the performance model
#: price the same wire.
DEFAULT_INTRA_LINK = LinkParameters(
    alpha=4.0e-6, beta=1.0 / 47.0e9, gamma=1.0 / 500.0e9
)

#: Default inter-node link: dual-rail IB EDR-class (~21 GB/s per node).
DEFAULT_INTER_LINK = LinkParameters(
    alpha=6.0e-6, beta=1.0 / 21.0e9, gamma=1.0 / 500.0e9
)


@dataclass(frozen=True)
class TwoTierTopology:
    """Two-level bandwidth-latency model: ``nnodes`` × ``ranks_per_node``.

    The hierarchical composition only makes sense on a *uniform* layout
    (the same rank count on every node), which is what
    :meth:`Communicator.hierarchy` hands over; on a degenerate layout (one
    node, or one rank per node) the rule selects a flat algorithm.
    """

    nnodes: int
    ranks_per_node: int
    intra: LinkParameters = DEFAULT_INTRA_LINK
    inter: LinkParameters = DEFAULT_INTER_LINK

    @property
    def size(self) -> int:
        return self.nnodes * self.ranks_per_node

    @property
    def hierarchical(self) -> bool:
        """True when both tiers are non-trivial (m >= 2 nodes, k >= 2 ranks)."""
        return self.nnodes >= 2 and self.ranks_per_node >= 2


def pt2pt_time(nbytes: float, link: LinkParameters) -> float:
    """SR(n): time to send and receive ``n`` bytes between two ranks.

    The network is assumed full-duplex (paper §II-B), so a simultaneous
    exchange costs one traversal.
    """
    if nbytes <= 0:
        return 0.0
    return link.pt2pt(nbytes)


def allreduce_time(
    p: int, nbytes: float, link: LinkParameters, algorithm: str
) -> float:
    """AR(p, n): allreduce of ``n`` bytes over ``p`` ranks on one ``link``
    under ``algorithm``, one of :data:`REDUCTION_ALGORITHMS`.

    Which algorithm a group runs is :func:`select_allreduce_algorithm`'s
    decision; :meth:`repro.perfmodel.machine.MachineSpec.allreduce_time`
    asks it and prices the answer.
    """
    if p <= 1 or nbytes <= 0:
        return 0.0
    a, b, g = link.alpha, link.beta, link.gamma
    frac = (p - 1) / p
    lg = math.log2(p)
    if algorithm == "recursive_doubling":
        return lg * a + lg * nbytes * b + lg * nbytes * g
    if algorithm == "rabenseifner":
        return 2 * lg * a + 2 * frac * nbytes * b + frac * nbytes * g
    if algorithm == "ring":
        return 2 * (p - 1) * a + 2 * frac * nbytes * b + frac * nbytes * g
    raise ValueError(f"unknown allreduce algorithm {algorithm!r}")


def select_allreduce_algorithm(
    p: int, nbytes: float, topology: TwoTierTopology | None = None
) -> str:
    """The allreduce rule: the algorithm a group of ``p`` runs on ``nbytes``.

    The one decision behind the communicator's ``algorithm="auto"`` (and
    a forced ``"hierarchical"`` on a layout that cannot run it) and behind
    the cost model's :meth:`~repro.perfmodel.machine.MachineSpec.allreduce_time`,
    so the algorithm the model prices is the one the wire runs.  Returns
    one of :data:`REDUCTION_ALGORITHMS` — Thakur-style: recursive doubling
    below :data:`SMALL_MESSAGE_CUTOFF`, Rabenseifner for power-of-two
    groups, ring otherwise — or :data:`HIERARCHICAL_ALGORITHM`.

    With a hierarchical ``topology`` (>= 2 nodes of >= 2 ranks, ``p``
    ranks in all) the two-tier model is consulted first: the composition
    is picked when its fastest inter-node algorithm beats every flat
    algorithm priced on the bottleneck inter-node link.  Other topologies
    fall through to the flat rule, so a host map never *changes*
    single-node selection.  The inter-node stage of the composition is
    this rule again, over the nodes, on a rank's ``n/k`` segment.
    """
    if topology is not None and topology.hierarchical and p == topology.size:
        flat = min(
            allreduce_time(p, nbytes, topology.inter, alg)
            for alg in REDUCTION_ALGORITHMS
        )
        hier = min(
            hierarchical_allreduce_time(nbytes, topology, alg)
            for alg in REDUCTION_ALGORITHMS
        )
        if hier < flat:
            return HIERARCHICAL_ALGORITHM
    if nbytes < SMALL_MESSAGE_CUTOFF:
        return "recursive_doubling"
    if p & (p - 1) == 0:  # power of two: halving/doubling applies directly
        return "rabenseifner"
    return "ring"


def hierarchical_allreduce_time(
    nbytes: float, topology: TwoTierTopology, inter_algorithm: str
) -> float:
    """AR time of the two-level composition on a two-tier topology.

    Intra-node ring reduce-scatter over ``k`` ranks, ``inter_algorithm``
    allreduce of the ``n/k`` segment over ``m`` node counterparts on the
    slow link, intra-node ring allgather — the composition
    :func:`repro.comm.algorithms.compile_hierarchical_allreduce` executes.
    """
    if nbytes <= 0:
        return 0.0
    k, m = topology.ranks_per_node, topology.nnodes
    intra = topology.intra
    frac = (k - 1) / k
    rs = (k - 1) * intra.alpha + frac * nbytes * (intra.beta + intra.gamma)
    ag = (k - 1) * intra.alpha + frac * nbytes * intra.beta
    mid = allreduce_time(m, nbytes / k, topology.inter, inter_algorithm)
    return rs + mid + ag


def allreduce_wire_bytes(p: int, nbytes: float, algorithm: str) -> float:
    """Per-rank bytes *sent* on the wire by one allreduce of ``n`` bytes
    under ``algorithm`` (``"direct"`` or one of :data:`REDUCTION_ALGORITHMS`).

    The model-side counterpart of the engine's wire counters
    (:class:`~repro.comm.stats.CommStats` ``wire`` split / the process
    backend's transport counters): ring and Rabenseifner move the
    bandwidth-optimal ``2n(p-1)/p``, recursive doubling ``n·lg p̂`` (p̂ the
    largest power of two <= p; the non-power-of-two fold adds one payload
    on the folded ranks — the worst case is reported), and the
    ``"direct"`` exchange ``n(p-1)``.
    """
    if algorithm != DIRECT_ALGORITHM and algorithm not in REDUCTION_ALGORITHMS:
        raise ValueError(f"unknown allreduce algorithm {algorithm!r}")
    if p <= 1 or nbytes <= 0:
        return 0.0
    if algorithm == DIRECT_ALGORITHM:
        return nbytes * (p - 1)
    if algorithm == "recursive_doubling":
        pof2 = 1 << (p.bit_length() - 1)
        extra = nbytes if pof2 != p else 0.0
        return nbytes * math.log2(pof2) + extra
    # ring and Rabenseifner (and its non-power-of-two ring fallback) are
    # both bandwidth-optimal.
    return 2.0 * nbytes * (p - 1) / p
