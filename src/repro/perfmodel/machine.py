"""Machine description of the modeled platform (Lassen, paper §VI).

Lassen is a CORAL-class system: each node has two POWER9 CPUs and four
V100 (16 GB) GPUs on NVLink2, with nodes connected by dual-rail InfiniBand
EDR.  All constants below are documented calibration inputs:

* **GPU throughput.**  cuDNN fp32 convolution on V100 achieves an
  *effective* throughput that exceeds the 15.7 TFLOP/s fp32 peak on large
  3x3 layers (Winograd-class algorithmic gains) but is far lower on small
  layers, where kernel launch and tile overheads dominate.  We model
  achieved throughput with a work-saturation curve
  ``T(work) = T_max * work / (work + work_half)`` plus a fixed per-kernel
  latency, with separate ``T_max`` for forward, backward-data, and
  backward-filter kernels (backward kernels are consistently slower; the
  paper's Fig. 3 shows BP ~ 3-4x FP on the same layer).  The constants are
  fitted to the anchor cells of the paper's Tables I-III; everything else
  the model emits is a prediction.
* **Interconnect.**  NVLink2 offers ~50 GB/s per direction between GPU
  pairs on a node; dual-rail EDR gives ~21 GB/s effective per node with
  GPUDirect latencies of a few microseconds.  Collectives spanning nodes
  are bottlenecked by the inter-node links (all four GPUs share the NICs).
  :meth:`MachineSpec.allreduce_time` is the one place a group's allreduce
  is priced: it prices the algorithm the engine's selection rule runs on
  that group, from the nodes its members occupy, the two-level composition
  of a group spanning nodes included.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from repro.comm.collective_models import (
    DEFAULT_INTER_LINK,
    DEFAULT_INTRA_LINK,
    HIERARCHICAL_ALGORITHM,
    LinkParameters,
    TwoTierTopology,
    allreduce_time,
    hierarchical_allreduce_time,
    select_allreduce_algorithm,
)


@dataclass(frozen=True)
class GPUSpec:
    """Throughput/latency/capacity model of one GPU."""

    name: str = "V100-16GB"
    #: Effective forward-convolution throughput ceiling (FLOP/s); exceeds
    #: fp32 peak because cuDNN's Winograd/FFT algorithms reduce real work.
    fwd_tflops_max: float = 14.0e12
    #: Backward-data and backward-filter ceilings (slower kernels).
    bwd_data_tflops_max: float = 11.0e12
    bwd_filter_tflops_max: float = 11.0e12
    #: Work (FLOPs) at which half the ceiling is achieved.
    work_half: float = 5.0e8
    #: Output-tile size (pixels) at which half the ceiling is achieved:
    #: cuDNN kernels tile the output spatially, so tiny local domains (the
    #: deep layers under 8/16-way spatial decomposition) run far below
    #: peak — "local convolution kernels not scaling linearly" (§VI-B1).
    tile_half: float = 384.0
    #: Fixed per-kernel-launch latency (seconds).
    kernel_latency: float = 10.0e-6
    #: HBM2 bandwidth (bytes/s): the floor for memory-bound layers.
    mem_bandwidth: float = 800.0e9
    #: Device memory (bytes).
    memory_bytes: float = 16.0e9

    def throughput(
        self, work_flops: float, ceiling: float, tile_pixels: float | None = None
    ) -> float:
        """Achieved FLOP/s for a kernel doing ``work_flops`` of work over an
        output tile of ``tile_pixels`` (None = large)."""
        if work_flops <= 0:
            return ceiling
        t = ceiling * work_flops / (work_flops + self.work_half)
        if tile_pixels is not None:
            t *= tile_pixels / (tile_pixels + self.tile_half)
        return t

    def conv_time(
        self,
        work_flops: float,
        bytes_moved: float,
        ceiling: float,
        tile_pixels: float | None = None,
    ) -> float:
        """Kernel time: latency + max(compute-bound, memory-bound)."""
        if work_flops <= 0:
            return 0.0
        compute = work_flops / self.throughput(work_flops, ceiling, tile_pixels)
        memory = bytes_moved / self.mem_bandwidth
        return self.kernel_latency + max(compute, memory)

    def elementwise_time(self, bytes_moved: float) -> float:
        """Memory-bound elementwise pass (ReLU, BN apply, SGD update)."""
        if bytes_moved <= 0:
            return 0.0
        return self.kernel_latency + bytes_moved / self.mem_bandwidth


@dataclass(frozen=True)
class MachineSpec:
    """A GPU cluster: node topology plus link and GPU models."""

    gpu: GPUSpec = field(default_factory=GPUSpec)
    gpus_per_node: int = 4
    #: NVLink2: ~50 GB/s/direction, low launch latency via CUDA IPC.
    #: (Shared with the communicator's topology-aware selection — see
    #: :data:`repro.comm.collective_models.DEFAULT_INTRA_LINK` — so the
    #: engine's ``algorithm="auto"`` weighs the same wire this model prices.)
    intra_link: LinkParameters = DEFAULT_INTRA_LINK
    #: Dual-rail IB EDR with GPUDirect RDMA: ~21 GB/s per node effective.
    inter_link: LinkParameters = DEFAULT_INTER_LINK
    #: Bytes per element on device (the paper trains in single precision).
    dtype_bytes: int = 4
    #: Fixed per-GPU runtime overhead (CUDA context, NCCL, framework).
    runtime_overhead_bytes: float = 0.75e9
    #: Communication buffer growth with scale ("communication-related data
    #: structures taking increased GPU memory", §VI-B1): NCCL/Aluminum hold
    #: per-peer ring buffers, so the footprint grows with the communicator
    #: size until capped.
    comm_buffer_bytes_per_rank: float = 2.0e6
    comm_buffer_cap_bytes: float = 4.0e9
    #: Fixed per-halo-message overhead (pack/unpack kernels, stream sync,
    #: rendezvous) on top of the α-β transfer: the "increased overheads of
    #: halo communication" the paper observes at 8/16 GPUs/sample.  The
    #: inter-node value reflects 2019-era GPUDirect pipelines.
    halo_msg_overhead_intra: float = 5.0e-6
    halo_msg_overhead_inter: float = 10.0e-6
    #: Fraction of allreduce time hideable behind backprop compute.  "Our
    #: implementation cannot fully overlap global allreduces with
    #: backpropagation computation" (§VI-B1): NCCL rings contend with
    #: compute kernels for SMs and memory bandwidth.
    allreduce_overlap_efficiency: float = 0.15

    def allreduce_time(self, members: Sequence[int], nbytes: float) -> float:
        """Seconds of an allreduce of ``nbytes`` over the world ranks
        ``members`` (``gpus_per_node`` consecutive ranks to a node): the
        algorithm the engine's ``algorithm="auto"`` runs on that group
        (:func:`select_allreduce_algorithm`), priced.

        The group is priced from the nodes its members occupy, as the
        engine's communicator reads its layout
        (:meth:`~repro.comm.communicator.Communicator.hierarchy`): at least
        two nodes holding the same number, two or more, of members each is
        a two-tier layout, so the rule may pick the hierarchical
        composition, priced with the inter-node algorithm the engine
        compiles for it; a group inside one node runs flat on NVLink, any
        other flat on the network.
        """
        per_node = Counter(r // self.gpus_per_node for r in members)
        sizes = set(per_node.values())
        topology = None
        if len(per_node) >= 2 and len(sizes) == 1 and min(sizes) >= 2:
            topology = TwoTierTopology(len(per_node), min(sizes), self.intra_link, self.inter_link)
        p = len(members)
        alg = select_allreduce_algorithm(p, nbytes, topology)
        if alg == HIERARCHICAL_ALGORITHM:
            inter = select_allreduce_algorithm(topology.nnodes, nbytes / topology.ranks_per_node)
            return hierarchical_allreduce_time(nbytes, topology, inter)
        link = self.intra_link if len(per_node) == 1 else self.inter_link
        return allreduce_time(p, nbytes, link, alg)

    def comm_buffer_bytes(self, total_ranks: int) -> float:
        """Scale-dependent GPU memory held by the communication runtime."""
        return min(
            total_ranks * self.comm_buffer_bytes_per_rank,
            self.comm_buffer_cap_bytes,
        )


#: The default modeled platform.
LASSEN = MachineSpec()
