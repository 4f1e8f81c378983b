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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.comm.collective_models import (
    DEFAULT_INTER_LINK,
    DEFAULT_INTRA_LINK,
    LinkParameters,
    TwoTierTopology,
    hierarchical_allreduce_time,
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
    #: engine's ``algorithm="auto"`` prices the same wire this model does.)
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

    def link_for_group(self, nranks: int, ranks_per_node: int | None = None) -> LinkParameters:
        """Effective link for a collective over ``nranks`` consecutive ranks."""
        if nranks <= (ranks_per_node or self.gpus_per_node):
            return self.intra_link
        return self.inter_link

    def two_tier(
        self, nnodes: int, ranks_per_node: int | None = None
    ) -> TwoTierTopology:
        """Two-tier (intra/inter) bandwidth-latency topology of this machine.

        The object the communicator's topology-aware ``algorithm="auto"``
        selection consumes (:func:`select_allreduce_algorithm`), built from
        the same link constants this model prices halos and shuffles with.
        """
        return TwoTierTopology(
            nnodes=nnodes,
            ranks_per_node=ranks_per_node or self.gpus_per_node,
            intra=self.intra_link,
            inter=self.inter_link,
        )

    def hierarchical_allreduce_time(
        self,
        nnodes: int,
        nbytes: float,
        ranks_per_node: int | None = None,
        inter_algorithm=None,
    ) -> float:
        """AR time of the two-level schedule on ``nnodes`` nodes of this
        machine (intra ring reduce-scatter → inter allreduce → intra
        allgather); see :func:`hierarchical_allreduce_time`."""
        return hierarchical_allreduce_time(
            nbytes, self.two_tier(nnodes, ranks_per_node), inter_algorithm
        )

    def comm_buffer_bytes(self, total_ranks: int) -> float:
        """Scale-dependent GPU memory held by the communication runtime."""
        return min(
            total_ranks * self.comm_buffer_bytes_per_rank,
            self.comm_buffer_cap_bytes,
        )


#: The default modeled platform.
LASSEN = MachineSpec()
