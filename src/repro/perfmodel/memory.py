"""Per-GPU memory model (the feasibility side of strategy selection).

LBANN statically allocates, for every layer, both its output activations
and its output error signal (here: for every layer the lowered schedule
runs backward, :func:`repro.core.schedule.lower`); training additionally
holds the replicated parameters, their gradients, the optimizer state of
the slices it updates (1/g of a layer's parameters for a gradient group of
g ranks), the halo cells each forward halo exchange receives (the
schedule's :class:`~repro.core.schedule.HaloOp`, on the rank of its sample
group that receives the most),
convolution workspace, and communication buffers.  No windowed layer
assembles an extended region — its input with halo and virtual padding —
as in the engine: every convolution and pooling window reads its shard in
place, and one that exchanges stages only its boundary pieces' source
boxes, clipped to the tensor (:mod:`repro.core.dist_conv`).  So the halo term is the halo cells, which
land in that boundary staging; the few owned rows the staging copies
beside them are left out.

That is LBANN's static allocation — every activation and every error
signal, all step long — and so an upper bound of what the engine holds:
:class:`~repro.core.dist_network.DistNetwork` releases an activation after
its last forward reader (:attr:`repro.core.schedule.LayerOp.releases`) and
what a layer saved once its backward has run.  The model keeps the static
figure because the paper's feasibility claims are made against it.  It
reproduces the paper's feasibility boundaries on 16 GB V100s:

* the 2K mesh model cannot train with even one sample per GPU under pure
  sample parallelism — spatial parallelism is *required* (§I, §VI-B1);
* the 1K mesh model fits exactly one sample per GPU;
* ResNet-50 comfortably fits 32 samples per GPU.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.nn.graph import NetworkSpec
from repro.perfmodel.machine import MachineSpec
from repro.perfmodel.layer_cost import local_extents
from repro.core.parallelism import LayerParallelism, ParallelStrategy
from repro.core.schedule import lower


@dataclass
class MemoryBreakdown:
    """Per-GPU memory requirement (bytes) by category."""

    activations: float = 0.0
    error_signals: float = 0.0
    bn_saved: float = 0.0
    halo_buffers: float = 0.0
    parameters: float = 0.0
    workspace: float = 0.0
    comm_buffers: float = 0.0
    runtime: float = 0.0
    per_layer_activations: dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        return (
            self.activations
            + self.error_signals
            + self.bn_saved
            + self.halo_buffers
            + self.parameters
            + self.workspace
            + self.comm_buffers
            + self.runtime
        )

    def summary(self) -> str:
        gib = 1024.0**3
        rows = [
            ("activations", self.activations),
            ("error signals", self.error_signals),
            ("BN saved", self.bn_saved),
            ("halo buffers", self.halo_buffers),
            ("parameters+grads+momentum", self.parameters),
            ("conv workspace", self.workspace),
            ("comm buffers", self.comm_buffers),
            ("runtime overhead", self.runtime),
            ("TOTAL", self.total),
        ]
        return "\n".join(f"  {k:<28s} {v / gib:8.2f} GiB" for k, v in rows)


class MemoryModel:
    """Estimates per-GPU memory for (network, strategy, mini-batch size)."""

    def __init__(self, spec: NetworkSpec, machine: MachineSpec) -> None:
        self.spec = spec
        self.machine = machine
        self.shapes = spec.infer_shapes()

    def breakdown(
        self, n_global: int, strategy: ParallelStrategy | LayerParallelism
    ) -> MemoryBreakdown:
        if isinstance(strategy, LayerParallelism):
            strategy = ParallelStrategy.uniform(strategy)
        m = MemoryBreakdown()
        db = self.machine.dtype_bytes
        max_conv_out = 0.0
        momentum = 0.0  # elements: 1/g of each layer's parameters

        sched = lower(self.spec, strategy, n_global)
        for op in sched.layers:
            par = strategy.for_layer(op.name)
            c, h, w = self.shapes[op.name]
            if op.param_count:
                momentum += op.param_count / (op.grad_group[0] if op.grad_group else 1)
            i_n, i_h, i_w = local_extents(n_global, h, w, par)
            out_bytes = float(i_n) * c * i_h * i_w * db
            m.per_layer_activations[op.name] = out_bytes
            m.activations += out_bytes
            if op.runs_backward:
                m.error_signals += out_bytes
            if op.kind == "bn":
                m.bn_saved += out_bytes  # xhat
            if op.kind == "conv":
                max_conv_out = max(max_conv_out, out_bytes)
            halo = sched.halo("fwd", op.name)
            if halo is not None:
                # The halo cells the forward exchange receives, held in
                # the boundary staging until backward.
                m.halo_buffers += max(
                    plan.received_cells for plan in halo.plans.values()
                ) * db

        # Parameters and gradients, replicated on every rank, + momentum.
        m.parameters = (2.0 * self.spec.total_params() + momentum) * db
        # cuDNN workspace scales with the largest convolution, capped at 1 GiB.
        m.workspace = min(max_conv_out, 1024.0**3)
        m.comm_buffers = self.machine.comm_buffer_bytes(strategy.nranks)
        m.runtime = self.machine.runtime_overhead_bytes
        return m

    def required_bytes(self, n_global: int, strategy) -> float:
        return self.breakdown(n_global, strategy).total

    def fits(self, n_global: int, strategy) -> bool:
        """Does this configuration fit in GPU memory?"""
        return self.required_bytes(n_global, strategy) <= self.machine.gpu.memory_bytes
