"""Per-GPU memory model (the feasibility side of strategy selection).

LBANN statically allocates, for every layer, both its output activations
and its output error signal (here: for every layer the lowered schedule
runs backward, see :func:`repro.core.schedule.backward_set`); training
additionally holds the replicated parameters, their gradients, the
optimizer state of the slices it updates (1/g of a layer's parameters for a
gradient group of g ranks), convolution workspace, and communication
buffers.  This model reproduces the paper's feasibility boundaries on 16 GB
V100s:

* the 2K mesh model cannot train with even one sample per GPU under pure
  sample parallelism — spatial parallelism is *required* (§I, §VI-B1);
* the 1K mesh model fits exactly one sample per GPU;
* ResNet-50 comfortably fits 32 samples per GPU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.nn.graph import NetworkSpec
from repro.perfmodel.machine import MachineSpec
from repro.perfmodel.layer_cost import local_extents
from repro.core.parallelism import LayerParallelism, ParallelStrategy
from repro.core.schedule import backward_set, grad_axes


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
        self._runs_backward = backward_set(spec)[0]

    def breakdown(
        self, n_global: int, strategy: ParallelStrategy | LayerParallelism
    ) -> MemoryBreakdown:
        if isinstance(strategy, LayerParallelism):
            strategy = ParallelStrategy.uniform(strategy)
        m = MemoryBreakdown()
        db = self.machine.dtype_bytes
        max_conv_out = 0.0
        momentum = 0.0  # elements: 1/g of each layer's parameters

        for layer in self.spec.topo_order():
            par = strategy.for_layer(layer.name)
            c, h, w = self.shapes[layer.name]
            params = self.spec.param_count(layer.name, self.shapes)
            if params:
                grid = par.grid_shape
                axes = grad_axes(grid, (n_global, c, h, w))
                momentum += params / math.prod(grid[d] for d in axes)
            i_n, i_h, i_w = local_extents(n_global, h, w, par)
            out_bytes = float(i_n) * c * i_h * i_w * db
            m.per_layer_activations[layer.name] = out_bytes
            m.activations += out_bytes
            if layer.name in self._runs_backward:
                m.error_signals += out_bytes
            if layer.kind == "bn":
                m.bn_saved += out_bytes  # xhat
            if layer.kind == "conv":
                max_conv_out = max(max_conv_out, out_bytes)
                k = layer.params["kernel"]
                kh = k if isinstance(k, int) else k[0]
                if par.height > 1 or par.width > 1:
                    # Halo-extended input copy held during fwd+bwd.
                    pc, ph_, pw_ = self.shapes[layer.parents[0]]
                    o = kh // 2
                    rows = float(i_n) * pc * db
                    m.halo_buffers += 2 * o * rows * (i_w + i_h)

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

    def max_samples_per_gpu(
        self, parallelism: LayerParallelism, limit: int = 4096
    ) -> int:
        """Largest per-GPU-group sample count that fits (0 = infeasible).

        For hybrid parallelism, "samples per GPU" means samples per spatial
        group; the mini-batch is ``samples * sample_ways``.
        """
        fit = 0
        n = 1
        while n <= limit:
            if self.fits(n * parallelism.sample, ParallelStrategy.uniform(parallelism)):
                fit = n
                n *= 2
            else:
                break
        if fit == 0:
            return 0
        # Binary refine between fit and 2*fit.
        lo, hi = fit, min(limit, fit * 2)
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.fits(mid * parallelism.sample, ParallelStrategy.uniform(parallelism)):
                lo = mid
            else:
                hi = mid - 1
        return lo
