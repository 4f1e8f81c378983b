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
  counterpart of :class:`repro.core.grad_reducer.BucketedGradReducer`.

What a step *does* — which edges shuffle, which layers run backward and
with a ``dx``, where a bucket is cut — is read off the lowered schedule
(:func:`repro.core.schedule.lower`) the engine interprets; this module only
prices it.
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
from repro.core.schedule import (
    GradBucket,
    StepSchedule,
    backward_set,
    cut_buckets,
    lower,
)


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
    #: The lowered step that was priced, the gradient buckets cut on it
    #: (``allreduce_bucket_bytes``), and the seconds charged per shuffle
    #: and bucket op id — what the task-graph simulator schedules.
    schedule: StepSchedule | None = None
    buckets: list[GradBucket] = field(default_factory=list)
    comm_ops: dict[str, float] = field(default_factory=dict)

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
        self._need_dx = backward_set(spec)[1]

    # -- per-layer costing -------------------------------------------------------
    def layer_cost(
        self, name: str, n_global: int, strategy: ParallelStrategy
    ) -> ConvLayerCost | None:
        """Cost of one layer as the network runs it: the isolated layer's
        cost, minus BPx (kernel, halo, boundary launches) when no parent
        needs the error signal."""
        cost = self._isolated_layer_cost(name, n_global, strategy)
        if cost is not None and name not in self._need_dx:
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

    def shuffle_edge_cost(self, parent: str, n_global: int, strategy) -> float:
        """Payload time of one redistribution of ``parent``'s activation
        (one direction), Shuffle(D_i, D_j): an all-to-all moving ~1/P of
        the tensor per pair.  The price of every
        :class:`~repro.core.schedule.ShuffleOp`, here and in the simulator."""
        nranks = strategy.nranks
        if nranks <= 1:
            return 0.0
        c, h, w = self.shapes[parent]
        nbytes = float(n_global) * c * h * w * self.machine.dtype_bytes
        link = self.machine.link_for_group(nranks)
        return alltoall_time(nranks, nbytes / (nranks * nranks), link)

    # -- whole network -------------------------------------------------------------
    def cost(self, n_global: int, strategy: ParallelStrategy) -> NetworkCostBreakdown:
        sched = lower(self.spec, strategy, n_global)
        bd = NetworkCostBreakdown(schedule=sched)
        db = self.machine.dtype_bytes

        # Forward pass, and every shuffle at the layer that issues it: the
        # forward one at its first consumer, the backward one at its child.
        for op in sched.layers:
            cost = self.layer_cost(op.name, n_global, strategy)
            if cost is not None:
                bd.per_layer[op.name] = cost
                bd.fp_total += cost.fp_time(self.overlap)
            for e in op.edges:
                issued = [
                    s for s in (e.fwd, e.bwd)
                    if s is not None and s.consumers[0] == op.name
                ]
                if issued:
                    one = self.shuffle_edge_cost(e.parent, n_global, strategy)
                    bd.comm_ops.update((s.op_id, one) for s in issued)
                    bd.shuffle_total += len(issued) * one
                    bd.shuffle_exposed += len(issued) * one

        # Backward pass with greedy allreduce overlap: walk the backward
        # list; each allreduce starts when its layer's backprop ends and
        # the (single) communication channel is free.  With bucketing, a
        # bucket goes out after the layer that fills it, the rest at the end.
        t = 0.0
        ar_free_at = 0.0
        ar_end = 0.0

        def start_allreduce(duration: float) -> None:
            nonlocal ar_free_at, ar_end
            start = max(t, ar_free_at)
            ar_free_at = start + duration
            ar_end = ar_free_at
            bd.allreduce_total += duration

        if self.overlap_allreduce and self.allreduce_bucket_bytes:
            # The schedule's cut rule over the bytes and group this model
            # prices each layer's dL/dw allreduce at.
            bd.buckets = cut_buckets(
                (
                    (op.name, (c.allreduce_group, op.grid_shape), c.allreduce_bytes)
                    for op in sched.backward
                    if (c := bd.per_layer.get(op.name)) is not None
                    and c.allreduce > 0 and c.allreduce_bytes > 0
                ),
                self.allreduce_bucket_bytes,
            )
            for b in bd.buckets:
                bd.comm_ops[b.op_id] = allreduce_time(
                    b.group[0], b.nbytes, self.machine.link_for_group(b.group[0]),
                    self.allreduce_algorithm,
                )
        bucket_of = {name: b for b in bd.buckets for name in b.layers}
        for op in sched.backward:
            cost = bd.per_layer.get(op.name)
            if cost is None:
                continue
            t += cost.bp_time(self.overlap)
            b = bucket_of.get(op.name)
            if b is not None:
                if b.full and b.layers[-1] == op.name:
                    start_allreduce(bd.comm_ops[b.op_id])
            elif cost.allreduce > 0:
                if self.overlap_allreduce:
                    start_allreduce(cost.allreduce)
                else:
                    t += cost.allreduce
                    ar_end = t
                    bd.allreduce_total += cost.allreduce
        for b in bd.buckets:
            if not b.full:
                start_allreduce(bd.comm_ops[b.op_id])
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

        # Optimizer: one memory-bound pass over parameters (+momentum), over
        # the 1/g of each layer's parameters this rank updates — the update
        # is fused into the bucket reductions of a gradient group of g.
        params = sum(
            op.param_count / (op.grad_group[0] if op.grad_group else 1)
            for op in sched.layers
        )
        bd.optimizer_total = self.machine.gpu.elementwise_time(3 * params * db)
        return bd

    def minibatch_time(self, n_global: int, strategy: ParallelStrategy) -> float:
        return self.cost(n_global, strategy).minibatch_time
