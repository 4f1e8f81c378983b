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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


class AllreduceAlgorithm(str, Enum):
    RECURSIVE_DOUBLING = "recursive_doubling"
    RABENSEIFNER = "rabenseifner"
    RING = "ring"


#: The all-to-all exchange (every rank ships its whole payload
#: to every peer): not a scheduled algorithm, but priceable so modeled and
#: measured traffic can be compared for the bitwise-reference mode too.
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
    :meth:`Communicator.hierarchy` hands over; degenerate layouts (one
    node, or one rank per node) are priced as flat collectives on the
    corresponding link.
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
    p: int,
    nbytes: float,
    link: LinkParameters,
    algorithm: AllreduceAlgorithm | str | None = None,
) -> float:
    """AR(p, n): allreduce of ``n`` bytes over ``p`` ranks.

    With ``algorithm=None`` the fastest algorithm for this (p, n, link) is
    used (mirroring MPICH/NCCL tuned selection and the paper's observation
    that "allreduces use different algorithms for different n and p").
    ``algorithm`` also accepts the engine's knob values: ``"auto"``
    (Thakur-style :func:`select_allreduce_algorithm` — the *same* selection
    the communicator applies on the wire, so modeled and measured traffic
    agree) and ``"direct"`` (the all-to-all exchange: ``p-1``
    full payloads in and out of every rank plus a full local fold).
    """
    if p <= 1 or nbytes <= 0:
        return 0.0
    if algorithm is None:
        return min(
            allreduce_time(p, nbytes, link, alg) for alg in AllreduceAlgorithm
        )
    if not isinstance(algorithm, AllreduceAlgorithm):
        if algorithm == "auto":
            algorithm = select_allreduce_algorithm(p, nbytes)
        elif algorithm == DIRECT_ALGORITHM:
            a, b, g = link.alpha, link.beta, link.gamma
            return (p - 1) * (a + nbytes * b) + (p - 1) * nbytes * g
        else:
            algorithm = AllreduceAlgorithm(algorithm)
    a, b, g = link.alpha, link.beta, link.gamma
    frac = (p - 1) / p
    lg = math.log2(p)
    if algorithm is AllreduceAlgorithm.RECURSIVE_DOUBLING:
        return lg * a + lg * nbytes * b + lg * nbytes * g
    if algorithm is AllreduceAlgorithm.RABENSEIFNER:
        return 2 * lg * a + 2 * frac * nbytes * b + frac * nbytes * g
    if algorithm is AllreduceAlgorithm.RING:
        return 2 * (p - 1) * a + 2 * frac * nbytes * b + frac * nbytes * g
    raise ValueError(f"unknown allreduce algorithm {algorithm!r}")


def select_allreduce_algorithm(
    p: int, nbytes: float, topology: "TwoTierTopology | None" = None
) -> AllreduceAlgorithm | str:
    """Thakur-style selection: latency-optimal for small n, bandwidth for large.

    This is the single selection rule shared by the cost model, the
    simulator, and the engine's ``algorithm="auto"`` collectives, so the
    algorithm the model prices is the one the wire actually runs.

    With a hierarchical ``topology`` (>= 2 nodes of >= 2 ranks) the
    two-tier model is consulted first: when the composed two-level
    schedule (:func:`hierarchical_allreduce_time`) beats every flat
    algorithm priced on the bottleneck inter-node link, the string
    :data:`HIERARCHICAL_ALGORITHM` is returned instead of a flat
    :class:`AllreduceAlgorithm` member.  One-node (or one-rank-per-node)
    topologies degenerate to the flat rule, so a host map never *changes*
    single-node selection.
    """
    if topology is not None and topology.hierarchical and p == topology.size:
        flat = min(
            allreduce_time(p, nbytes, topology.inter, alg)
            for alg in AllreduceAlgorithm
        )
        if hierarchical_allreduce_time(nbytes, topology) < flat:
            return HIERARCHICAL_ALGORITHM
    if nbytes < SMALL_MESSAGE_CUTOFF:
        return AllreduceAlgorithm.RECURSIVE_DOUBLING
    if p & (p - 1) == 0:  # power of two: halving/doubling applies directly
        return AllreduceAlgorithm.RABENSEIFNER
    return AllreduceAlgorithm.RING


def select_inter_algorithm(
    nnodes: int, nbytes: float
) -> AllreduceAlgorithm:
    """Flat algorithm for the inter-node stage of a hierarchical allreduce.

    The inter-node exchange is itself an allreduce over ``nnodes`` node
    leaders on a segment of ``nbytes``, so the plain Thakur rule applies.
    """
    alg = select_allreduce_algorithm(nnodes, nbytes)
    assert isinstance(alg, AllreduceAlgorithm)
    return alg


def hierarchical_allreduce_time(
    nbytes: float,
    topology: TwoTierTopology,
    inter_algorithm: AllreduceAlgorithm | str | None = None,
) -> float:
    """AR time of the two-level composition on a two-tier topology.

    Intra-node ring reduce-scatter over ``k`` ranks, inter-node allreduce
    of the ``n/k`` segment over ``m`` node counterparts on the slow link,
    intra-node ring allgather — the composition
    :func:`repro.comm.algorithms.compile_hierarchical_allreduce` executes.
    Degenerate topologies collapse to the flat model on the active link.
    """
    k, m = topology.ranks_per_node, topology.nnodes
    if nbytes <= 0 or topology.size <= 1:
        return 0.0
    if m <= 1:
        return allreduce_time(k, nbytes, topology.intra, inter_algorithm)
    if k <= 1:
        return allreduce_time(m, nbytes, topology.inter, inter_algorithm)
    intra = topology.intra
    frac = (k - 1) / k
    rs = (k - 1) * intra.alpha + frac * nbytes * (intra.beta + intra.gamma)
    ag = (k - 1) * intra.alpha + frac * nbytes * intra.beta
    mid = allreduce_time(m, nbytes / k, topology.inter, inter_algorithm)
    return rs + mid + ag


def resolve_allreduce_algorithm(
    algorithm: AllreduceAlgorithm | str | None,
    p: int,
    nbytes: float,
    topology: "TwoTierTopology | None" = None,
) -> str:
    """Normalize an ``algorithm=`` knob value to a concrete algorithm name.

    ``None``/``"auto"`` apply :func:`select_allreduce_algorithm` (which may
    pick ``"hierarchical"`` when a hierarchical ``topology`` is supplied);
    ``"direct"``/``"hierarchical"`` pass through; anything else must name
    an :class:`AllreduceAlgorithm` member (``ValueError`` otherwise).
    """
    if isinstance(algorithm, AllreduceAlgorithm):
        return algorithm.value
    if algorithm in (None, "auto"):
        selected = select_allreduce_algorithm(p, nbytes, topology)
        if isinstance(selected, AllreduceAlgorithm):
            return selected.value
        return selected
    if algorithm in (DIRECT_ALGORITHM, HIERARCHICAL_ALGORITHM):
        return algorithm
    return AllreduceAlgorithm(algorithm).value


def allreduce_wire_bytes(
    p: int, nbytes: float, algorithm: AllreduceAlgorithm | str | None = None
) -> float:
    """Per-rank bytes *sent* on the wire by one allreduce of ``n`` bytes.

    The model-side counterpart of the engine's wire counters
    (:class:`~repro.comm.stats.CommStats` ``wire`` split / the process
    backend's transport counters): ring and Rabenseifner move the
    bandwidth-optimal ``2n(p-1)/p``, recursive doubling ``n·lg p̂`` (p̂ the
    largest power of two <= p; the non-power-of-two fold adds one payload
    on the folded ranks — the worst case is reported), and the legacy
    ``"direct"`` exchange ``n(p-1)``.
    """
    if p <= 1 or nbytes <= 0:
        return 0.0
    name = resolve_allreduce_algorithm(algorithm, p, nbytes)
    if name == DIRECT_ALGORITHM:
        return nbytes * (p - 1)
    if name == AllreduceAlgorithm.RECURSIVE_DOUBLING.value:
        pof2 = 1 << (p.bit_length() - 1)
        extra = nbytes if pof2 != p else 0.0
        return nbytes * math.log2(pof2) + extra
    # ring and Rabenseifner (and its non-power-of-two ring fallback) are
    # both bandwidth-optimal.
    return 2.0 * nbytes * (p - 1) / p


def alltoall_time(p: int, nbytes_per_pair: float, link: LinkParameters) -> float:
    """All-to-all where each rank exchanges ``nbytes_per_pair`` with every other.

    Uses the pairwise-exchange model (p-1 rounds), which is what the data
    redistribution ("shuffle", paper §III-C) maps onto for large messages.
    """
    if p <= 1 or nbytes_per_pair <= 0:
        return 0.0
    return (p - 1) * (link.alpha + nbytes_per_pair * link.beta)
