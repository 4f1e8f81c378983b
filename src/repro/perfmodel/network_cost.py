"""Whole-CNN cost model (paper §V-B) and mini-batch time prediction.

Extends the per-layer model to a full network:

* layers other than convolution are either "free" (the paper's choice) or
  costed as memory-bound passes (``cheap_layers='memory'``, our default for
  better absolute accuracy — the ranking of strategies is unaffected);
* data redistributions between layers with different distributions are
  charged a Shuffle(D_i, D_j) all-to-all cost (§III-C);
* the dL/dw allreduces are overlapped greedily with backpropagation
  computation: "we estimate allreduce overlap between layers by greedily
  overlapping as much computation as possible with an allreduce.  Only one
  allreduce at a time is considered to run" (§V-B);
* ``allreduce_bucket_bytes`` additionally models the engine's bucketed
  reducer: consecutive gradients of the same group are coalesced until the
  bucket fills, amortizing per-collective latency — the analytic
  counterpart of :class:`repro.core.grad_reducer.BucketedGradReducer`;
* a layer whose parent needs no error signal
  (:meth:`~repro.nn.graph.NetworkSpec.needs_error_signal`) is charged no
  backward-data kernel, error-signal halo or shuffle, as in the engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.comm.collective_models import allreduce_time, alltoall_time
from repro.nn.graph import NetworkSpec
from repro.perfmodel.conv_model import CalibratedConvModel
from repro.perfmodel.layer_cost import (
    ConvLayerCost,
    conv_layer_cost,
    elementwise_layer_cost,
    local_extents,
    pool_layer_cost,
)
from repro.perfmodel.machine import MachineSpec
from repro.core.parallelism import ParallelStrategy


@dataclass
class NetworkCostBreakdown:
    """Predicted mini-batch time and its components (seconds)."""

    fp_total: float = 0.0
    bp_compute_total: float = 0.0
    allreduce_total: float = 0.0
    allreduce_exposed: float = 0.0
    #: Payload time of all shuffles (forward: one per parent and target
    #: grid; backward: one per edge).
    shuffle_total: float = 0.0
    #: What the critical path pays for shuffles: the payload time.
    #: DAG-level hiding behind sibling-branch compute (what
    #: ``overlap_shuffle`` buys) is refined by the task-graph simulator,
    #: not here.
    shuffle_exposed: float = 0.0
    optimizer_total: float = 0.0
    per_layer: dict[str, ConvLayerCost] = field(default_factory=dict)

    @property
    def minibatch_time(self) -> float:
        return (
            self.fp_total
            + self.bp_compute_total
            + self.allreduce_exposed
            + self.shuffle_exposed
            + self.optimizer_total
        )


class NetworkCostModel:
    """Predicts mini-batch training time for (network, strategy, batch)."""

    def __init__(
        self,
        spec: NetworkSpec,
        machine: MachineSpec,
        conv_model=None,
        overlap: bool = True,
        overlap_allreduce: bool = True,
        cheap_layers: str = "memory",
        allreduce_bucket_bytes: int | None = None,
        allreduce_algorithm: str | None = None,
    ) -> None:
        if cheap_layers not in ("memory", "free"):
            raise ValueError("cheap_layers must be 'memory' or 'free'")
        self.spec = spec
        self.machine = machine
        self.conv_model = conv_model or CalibratedConvModel(
            machine.gpu, machine.dtype_bytes
        )
        self.overlap = overlap
        self.overlap_allreduce = overlap_allreduce
        self.cheap_layers = cheap_layers
        self.allreduce_bucket_bytes = allreduce_bucket_bytes
        #: Allreduce wire algorithm, matching the engine's ``algorithm=``
        #: knob: None keeps the historical fastest-per-(p, n) pricing,
        #: "auto" applies the *same* Thakur-style selection the
        #: communicator runs on the wire, and a concrete name (incl.
        #: "direct") pins one algorithm — so modeled and measured traffic
        #: use one selection rule.
        self.allreduce_algorithm = allreduce_algorithm
        self.shapes = spec.infer_shapes()
        self.needs_dy = spec.needs_error_signal()

    # -- per-layer costing -------------------------------------------------------
    def layer_cost(
        self, name: str, n_global: int, strategy: ParallelStrategy
    ) -> ConvLayerCost | None:
        """Cost of one layer as the network runs it: the isolated layer's
        cost, minus BPx (kernel, halo, boundary launches) when no parent
        needs the error signal."""
        cost = self._isolated_layer_cost(name, n_global, strategy)
        if cost is not None and not any(
            p in self.needs_dy for p in self.spec[name].parents
        ):
            # Fraction 1 = "backward not decomposed", which is what makes
            # ``bpx_boundary_launch`` 0: no data kernel, no launches to split.
            cost = replace(
                cost, bpx_compute=0.0, bpx_halo=0.0, bp_boundary_fraction=1.0
            )
        return cost

    def _isolated_layer_cost(
        self, name: str, n_global: int, strategy: ParallelStrategy
    ) -> ConvLayerCost | None:
        layer = self.spec[name]
        par = strategy.for_layer(name)
        total = strategy.nranks
        if layer.kind == "conv":
            c, h, w = self.shapes[layer.parents[0]]
            return conv_layer_cost(
                self.machine,
                self.conv_model,
                n_global=n_global,
                c=c,
                h=h,
                w=w,
                f=layer.params["filters"],
                kernel=layer.params["kernel"],
                stride=layer.params.get("stride", 1),
                pad=layer.params.get("pad", 0),
                parallelism=par,
                total_ranks=total,
                allreduce_algorithm=self.allreduce_algorithm,
            )
        if layer.kind == "pool":
            c, h, w = self.shapes[layer.parents[0]]
            if self.cheap_layers == "free":
                return None
            return pool_layer_cost(
                self.machine,
                n_global=n_global,
                c=c,
                h=h,
                w=w,
                kernel=layer.params["kernel"],
                stride=layer.params.get("stride", layer.params["kernel"]),
                pad=layer.params.get("pad", 0),
                parallelism=par,
            )
        if layer.kind in ("bn", "relu", "add", "gap"):
            if self.cheap_layers == "free" and layer.kind != "bn":
                return None
            c, h, w = self.shapes[layer.parents[0]]
            i_n, i_h, i_w = local_extents(n_global, h, w, par)
            local = float(i_n) * c * i_h * i_w
            if layer.kind == "bn":
                db = self.machine.dtype_bytes
                stats_group = par.height * par.width  # 'spatial' aggregation
                return elementwise_layer_cost(
                    self.machine,
                    local_elems=local,
                    passes_fwd=3,
                    passes_bwd=4,
                    params_bytes=2 * c * db,
                    total_ranks=strategy.nranks,
                    stats_allreduce_bytes=2 * c * db,
                    stats_group=stats_group,
                    allreduce_algorithm=self.allreduce_algorithm,
                )
            if self.cheap_layers == "free":
                return None
            passes = {"relu": (2, 2), "add": (3, 1), "gap": (1, 1)}[layer.kind]
            return elementwise_layer_cost(
                self.machine,
                local_elems=local,
                passes_fwd=passes[0],
                passes_bwd=passes[1],
            )
        if layer.kind == "fc":
            c, h, w = self.shapes[layer.parents[0]]
            units = layer.params["units"]
            i_n = local_extents(n_global, 1, 1, par)[0]
            flops = 2.0 * i_n * c * h * w * units
            db = self.machine.dtype_bytes
            gpu = self.machine.gpu
            fp = gpu.conv_time(flops, (i_n * c * h * w + i_n * units) * db,
                               gpu.fwd_tflops_max)
            bp = 2 * gpu.conv_time(flops, (i_n * c * h * w + i_n * units) * db,
                                   gpu.bwd_data_tflops_max)
            ar_bytes = units * c * h * w * db
            ar = allreduce_time(
                strategy.nranks, ar_bytes,
                self.machine.link_for_group(strategy.nranks),
                self.allreduce_algorithm,
            )
            return ConvLayerCost(
                fp, 0.0, bp, 0.0, 0.0, ar,
                allreduce_bytes=ar_bytes,
                allreduce_group=strategy.nranks,
            )
        return None  # input / loss layers

    def _shuffle_cost(
        self, nbytes_global: float, nranks: int
    ) -> float:
        """Shuffle(D_i, D_j): all-to-all moving ~1/P of the tensor per pair."""
        if nranks <= 1:
            return 0.0
        link = self.machine.link_for_group(nranks)
        per_pair = nbytes_global / (nranks * nranks)
        return alltoall_time(nranks, per_pair, link)

    def shuffle_edge_cost(self, parent: str, n_global: int, strategy) -> float:
        """Payload time of one redistribution of ``parent``'s activation
        (one direction — forward and backward each pay it once).  This is
        the duration the training-step simulator assigns its shuffle tasks,
        guarded by ``tests/test_sim.py`` the same way ``boundary_fraction``
        guards the halo decomposition."""
        c, h, w = self.shapes[parent]
        nbytes = float(n_global) * c * h * w * self.machine.dtype_bytes
        return self._shuffle_cost(nbytes, strategy.nranks)

    # -- whole network -------------------------------------------------------------
    def cost(self, n_global: int, strategy: ParallelStrategy) -> NetworkCostBreakdown:
        bd = NetworkCostBreakdown()
        order = self.spec.topo_order()
        db = self.machine.dtype_bytes

        # Forward pass + shuffles where adjacent distributions differ.
        fwd_shuffled: set[tuple[str, tuple]] = set()
        for layer in order:
            cost = self.layer_cost(layer.name, n_global, strategy)
            if cost is not None:
                bd.per_layer[layer.name] = cost
                bd.fp_total += cost.fp_time(self.overlap)
            target = strategy.for_layer(layer.name).grid_shape
            for p in layer.parents:
                if strategy.for_layer(p).grid_shape != target:
                    # Forward redistributes a parent once per target grid
                    # (every child there reads the same tensor); backward
                    # shuffles once per edge when the parent takes an
                    # error signal.
                    fwd = (p, target) not in fwd_shuffled
                    fwd_shuffled.add((p, target))
                    edge = (fwd + (p in self.needs_dy)) * self.shuffle_edge_cost(
                        p, n_global, strategy
                    )
                    bd.shuffle_total += edge
                    bd.shuffle_exposed += edge

        # Backward pass with greedy allreduce overlap: walk layers in
        # reverse; each allreduce starts when its layer's backprop ends and
        # the (single) communication channel is free.  With bucketing,
        # consecutive gradients of the same group are coalesced first.
        t = 0.0
        ar_free_at = 0.0
        ar_end = 0.0
        # Buckets are keyed by gradient-group *identity* — (group size,
        # grid shape) — matching the engine's per-communicator buckets:
        # same-sized groups over different axes must not be coalesced.
        pending: dict[tuple, float] = {}

        def start_allreduce(duration: float) -> None:
            nonlocal ar_free_at, ar_end
            start = max(t, ar_free_at)
            ar_free_at = start + duration
            ar_end = ar_free_at
            bd.allreduce_total += duration

        def flush_bucket(key: tuple) -> None:
            nbytes = pending.pop(key, 0.0)
            group = key[0]
            if nbytes > 0:
                start_allreduce(
                    allreduce_time(
                        group, nbytes, self.machine.link_for_group(group),
                        self.allreduce_algorithm,
                    )
                )

        bucketing = bool(self.overlap_allreduce and self.allreduce_bucket_bytes)
        for layer in reversed(order):
            cost = bd.per_layer.get(layer.name)
            if cost is None:
                continue
            t += cost.bp_time(self.overlap)
            if cost.allreduce > 0:
                if bucketing and cost.allreduce_bytes > 0:
                    key = (
                        cost.allreduce_group,
                        strategy.for_layer(layer.name).grid_shape,
                    )
                    pending[key] = pending.get(key, 0.0) + cost.allreduce_bytes
                    if pending[key] >= self.allreduce_bucket_bytes:
                        flush_bucket(key)
                elif self.overlap_allreduce:
                    start_allreduce(cost.allreduce)
                else:
                    t += cost.allreduce
                    ar_end = t
                    bd.allreduce_total += cost.allreduce
        for key in list(pending):
            flush_bucket(key)
        bd.bp_compute_total = t
        if self.overlap_allreduce:
            # Greedy channel model, floored by the machine's overlap
            # efficiency (rings contend with compute for SMs/bandwidth).
            eta = self.machine.allreduce_overlap_efficiency
            bd.allreduce_exposed = max(
                max(0.0, ar_end - t), (1.0 - eta) * bd.allreduce_total
            )
        else:
            bd.allreduce_exposed = bd.allreduce_total

        # Optimizer: one memory-bound pass over parameters (+momentum).
        params = self.spec.total_params()
        bd.optimizer_total = self.machine.gpu.elementwise_time(3 * params * db)
        return bd

    def minibatch_time(self, n_global: int, strategy: ParallelStrategy) -> float:
        return self.cost(n_global, strategy).minibatch_time
