"""Whole-CNN evaluator (paper §V-B): the mini-batch time of one lowered step.

What a step *does* — which edges shuffle, which layers run backward and
with a ``dx``, where a gradient bucket is cut and over which group it is
reduced — is read off the lowered schedule (:func:`repro.core.schedule.lower`)
the engine interprets.  This module prices it and then schedules it, and
``minibatch_time`` is the makespan of that one timeline.

Pricing (:meth:`NetworkCostModel.cost`):

* every layer gets a :class:`~repro.perfmodel.layer_cost.ConvLayerCost`;
  layers other than convolution are costed as memory-bound passes (the
  paper leaves them free — the ranking of strategies is the same);
* each redistribution between layers with different distributions is
  charged a Shuffle(D_i, D_j) all-to-all (§III-C);
* every dL/dw allreduce is priced over the layer's gradient group (paper
  Eq. 2: the grid axes its output is split along), and the gradient
  buckets are the engine's (:meth:`~repro.core.schedule.StepSchedule.grad_buckets`
  at ``allreduce_bucket_bytes``, the reducer's default), coalesced
  payloads amortizing per-collective latency;
* the optimizer is one memory-bound pass over the parameters this rank
  updates.

Timeline (:meth:`NetworkCostModel.simulate`): a task graph over the
critical-path rank's compute and communication streams
(:class:`~repro.perfmodel.sim_engine.SimEngine`), the §IV schedule —

* forward, per layer: the halo exchange runs on the communication stream
  *concurrently* with the interior convolution; the boundary convolutions
  run after both ("our implementation automatically decomposes an input
  tensor into its interior domain and boundary domains ... so that halo
  exchanges can be run concurrently with the convolution of the interior
  domain").  The interior/boundary split is the per-layer
  ``boundary_fraction`` derived from the local block geometry — the same
  decomposition the engine's :class:`~repro.core.dist_conv.DistConv2d`
  executes;
* backward, per layer: the error-signal halo exchange is hidden inside the
  filter convolution ("we exploit the task-level parallelism of backward
  data and filter convolutions") *and* the interior data convolution, with
  only the boundary strips of the data convolution waiting on the halo;
  a layer that computes no ``dx`` has a filter task but no data or halo
  task, and a layer backward does not reach has no backward tasks;
* a forward *shuffle* is a communication task that becomes ready the
  moment its *producer* finishes (not when the consumer is reached), so it
  hides behind sibling-branch compute in DAGs and contends with allreduces
  for the channel; the backward error-signal shuffle likewise becomes
  ready with the producing layer's data convolution;
* a gradient bucket is one communication task, ready when its *last*
  contributor's filter convolution finishes (one allreduce at a time) —
  the trade the engine's :class:`~repro.core.grad_reducer.BucketedGradReducer`
  makes.  An allreduce is not free to hide: "our implementation cannot
  fully overlap global allreduces with backpropagation computation"
  (§VI-B1), so each one also occupies the compute stream for
  ``1 - machine.allreduce_overlap_efficiency`` of its duration (a
  ``{op id}:contend`` task, ready with it);
* the optimizer step waits for all compute and all allreduces.

With ``overlap_halo=False`` / ``overlap_allreduce=False`` /
``overlap_shuffle=False`` the dependencies serialize instead — a shuffle
finished where it starts waits for *all* preceding compute and gates
everything after it, at the same payload time (the engine runs one
exchange implementation in both modes); without allreduce overlap each
layer's allreduce blocks backward, unbucketed.
``tests/test_sim.py::TestTrainingSimulator`` toggles exactly these.
"""

from __future__ import annotations

import math
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
from repro.perfmodel.sim_engine import SimEngine
from repro.core.grad_reducer import DEFAULT_BUCKET_BYTES
from repro.core.parallelism import LayerParallelism, ParallelStrategy
from repro.core.schedule import (
    GradBucket,
    StepSchedule,
    backward_set,
    grad_axes,
    lower,
)


@dataclass
class NetworkCostBreakdown:
    """The priced step: what :meth:`NetworkCostModel.simulate` schedules."""

    #: Payload time of all shuffles (forward: one per parent and target
    #: grid; backward: one per edge).
    shuffle_total: float = 0.0
    optimizer_total: float = 0.0
    per_layer: dict[str, ConvLayerCost] = field(default_factory=dict)
    #: The lowered step that was priced, its gradient buckets
    #: (``allreduce_bucket_bytes``), and the seconds charged per shuffle
    #: and bucket op id.
    schedule: StepSchedule | None = None
    buckets: list[GradBucket] = field(default_factory=list)
    comm_ops: dict[str, float] = field(default_factory=dict)


@dataclass
class SimResult:
    minibatch_time: float
    compute_busy: float
    comm_busy: float
    engine: SimEngine

    @property
    def comm_exposed(self) -> float:
        return max(0.0, self.minibatch_time - self.compute_busy)


class NetworkCostModel:
    """Prices and schedules one training step for (network, strategy,
    mini-batch size); :mod:`repro.sim` exports it as ``TrainingStepSimulator``."""

    def __init__(
        self,
        spec: NetworkSpec,
        machine: MachineSpec,
        conv_model=None,
        overlap_halo: bool = True,
        overlap_shuffle: bool = True,
        overlap_allreduce: bool = True,
        allreduce_bucket_bytes: int | None = DEFAULT_BUCKET_BYTES,
        allreduce_algorithm: str | None = None,
    ) -> None:
        self.spec = spec
        self.machine = machine
        self.conv_model = conv_model or CalibratedConvModel(
            machine.gpu, machine.dtype_bytes
        )
        self.overlap_halo = overlap_halo
        self.overlap_shuffle = overlap_shuffle
        self.overlap_allreduce = overlap_allreduce
        #: ``None``: one allreduce per layer instead of the engine's buckets.
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
        # dL/dw is summed over the gradient group (paper Eq. 2), not all ranks.
        group = math.prod(
            par.grid_shape[d]
            for d in grad_axes(par.grid_shape, (n_global, *self.shapes[name]))
        )
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
                total_ranks=group,
                allreduce_algorithm=self.allreduce_algorithm,
            )
        if layer.kind == "pool":
            c, h, w = self.shapes[layer.parents[0]]
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
                    total_ranks=group,
                    stats_allreduce_bytes=2 * c * db,
                    stats_group=stats_group,
                    allreduce_algorithm=self.allreduce_algorithm,
                )
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
                group, ar_bytes, self.machine.link_for_group(group),
                self.allreduce_algorithm,
            )
            return ConvLayerCost(fp, 0.0, bp, 0.0, 0.0, ar, allreduce_bytes=ar_bytes)
        return None  # input / loss layers

    def shuffle_edge_cost(self, parent: str, n_global: int, strategy) -> float:
        """Payload time of one redistribution of ``parent``'s activation
        (one direction), Shuffle(D_i, D_j): an all-to-all moving ~1/P of
        the tensor per pair.  The price of every
        :class:`~repro.core.schedule.ShuffleOp`."""
        nranks = strategy.nranks
        if nranks <= 1:
            return 0.0
        c, h, w = self.shapes[parent]
        nbytes = float(n_global) * c * h * w * self.machine.dtype_bytes
        link = self.machine.link_for_group(nranks)
        return alltoall_time(nranks, nbytes / (nranks * nranks), link)

    # -- whole network -------------------------------------------------------------
    def cost(self, n_global: int, strategy: ParallelStrategy) -> NetworkCostBreakdown:
        """Price every layer and communication op of the lowered step."""
        sched = lower(self.spec, strategy, n_global)
        bd = NetworkCostBreakdown(schedule=sched)
        db = self.machine.dtype_bytes
        for op in sched.layers:
            cost = self.layer_cost(op.name, n_global, strategy)
            if cost is not None:
                bd.per_layer[op.name] = cost
            # Each shuffle at the layer that issues it: the forward one at
            # its first consumer, the backward one at its child.
            for e in op.edges:
                for s in (e.fwd, e.bwd):
                    if s is not None and s.consumers[0] == op.name:
                        one = self.shuffle_edge_cost(e.parent, n_global, strategy)
                        bd.comm_ops[s.op_id] = one
                        bd.shuffle_total += one
        if self.overlap_allreduce and self.allreduce_bucket_bytes:
            bd.buckets = sched.grad_buckets(self.allreduce_bucket_bytes, db)
            for b in bd.buckets:
                p = b.group[0]
                bd.comm_ops[b.op_id] = allreduce_time(
                    p, b.nbytes, self.machine.link_for_group(p), self.allreduce_algorithm
                )
        # Optimizer: one memory-bound pass over parameters (+momentum), over
        # the 1/g of each layer's parameters this rank updates — the update
        # is fused into the bucket reductions of a gradient group of g.
        params = sum(
            op.param_count / (op.grad_group[0] if op.grad_group else 1)
            for op in sched.layers
        )
        bd.optimizer_total = self.machine.gpu.elementwise_time(3 * params * db)
        return bd

    def simulate(
        self, n_global: int, strategy: ParallelStrategy | LayerParallelism
    ) -> SimResult:
        """Schedule the priced step as a task graph (see module doc)."""
        if isinstance(strategy, LayerParallelism):
            strategy = ParallelStrategy.uniform(strategy)
        eng = SimEngine()
        bd = self.cost(n_global, strategy)
        sched, costs, price = bd.schedule, bd.per_layer, bd.comm_ops

        # -- forward ------------------------------------------------------------
        prev_fwd: str | None = None
        fwd_done: dict[str, str] = {}  # layer -> task marking its output ready
        for op in sched.layers:
            c = costs.get(op.name)
            name = op.name
            base_deps = (prev_fwd,) if prev_fwd else ()
            for s in op.issues:
                # Ready the moment the producer finishes (the engine
                # launches the exchange as the activation is produced), or
                # started and finished at consumption time: waits for all
                # preceding compute.
                producer = fwd_done.get(s.parent)
                ready = (producer,) if producer else ()
                eng.add(
                    s.op_id, price[s.op_id], "comm",
                    ready if self.overlap_shuffle else base_deps,
                )
            shuf_deps = [e.fwd.op_id for e in op.edges if e.fwd is not None]
            if c is None:
                # No task of its own: its output is ready with its input.
                if shuf_deps:
                    fwd_done[name] = shuf_deps[-1]
                elif op.edges and op.edges[0].parent in fwd_done:
                    fwd_done[name] = fwd_done[op.edges[0].parent]
                continue
            base_deps = base_deps + tuple(shuf_deps)
            fwd = f"fwd:{name}"
            if c.fp_halo > 0 and self.overlap_halo:
                interior = c.fp_compute * (1 - c.boundary_fraction)
                boundary = c.fp_compute * c.boundary_fraction + c.boundary_launch
                eng.add(f"{fwd}:halo", c.fp_halo, "comm", base_deps, op=fwd)
                eng.add(f"{fwd}:interior", interior, "compute", base_deps, op=fwd)
                eng.add(fwd, boundary, "compute", (f"{fwd}:halo", f"{fwd}:interior"))
            else:
                if c.fp_halo > 0:
                    eng.add(f"{fwd}:halo", c.fp_halo, "comm", base_deps, op=fwd)
                    base_deps = (f"{fwd}:halo",)
                eng.add(fwd, c.fp_compute, "compute", base_deps)
            prev_fwd = fwd_done[name] = fwd

        # -- backward -------------------------------------------------------------
        prev_bwd = prev_fwd
        allreduces: list[str] = []
        bucket_of = {name: b for b in bd.buckets for name in b.layers}
        hidden = self.machine.allreduce_overlap_efficiency

        def allreduce_task(name: str, dur: float, deps: list[str]) -> None:
            if allreduces:
                deps.append(allreduces[-1])  # one allreduce at a time
            eng.add(name, dur, "comm", tuple(deps))
            if self.overlap_allreduce:
                # The part that cannot hide contends with compute.
                eng.add(f"{name}:contend", (1 - hidden) * dur, "compute",
                        tuple(deps), op=name)
            allreduces.append(name)

        def bucket_task(b: GradBucket) -> None:
            # Ready when its last contributor's filter convolution is.
            allreduce_task(
                b.op_id, price[b.op_id], [f"bwd:{layer}:filter" for layer in b.layers]
            )

        # layer -> error-signal shuffle tasks it must wait for.
        incoming: dict[str, list[str]] = {}
        for op in sched.backward:
            c = costs.get(op.name)
            name = op.name
            bwd = f"bwd:{name}"
            if c is not None:
                base_deps = (prev_bwd,) if prev_bwd else ()
                base_deps = base_deps + tuple(incoming.pop(name, ()))
                if c.bpx_halo > 0 and self.overlap_halo:
                    # An undecomposed backward (fraction pinned at 1, no
                    # boundary launches) makes this timeline degenerate
                    # exactly to the synchronous cost; pooling carries a
                    # real backward fraction (its scatter-add overlaps the own
                    # contribution with the in-flight boundary strips).
                    interior = c.bpx_compute * (1 - c.bpx_boundary_fraction)
                    boundary = (
                        c.bpx_compute * c.bpx_boundary_fraction + c.bpx_boundary_launch
                    )
                    eng.add(f"{bwd}:halo", c.bpx_halo, "comm", base_deps, op=bwd)
                    eng.add(f"{bwd}:filter", c.bpw_compute, "compute", base_deps, op=bwd)
                    eng.add(
                        f"{bwd}:data_interior", interior, "compute",
                        (f"{bwd}:filter",), op=bwd,
                    )
                    eng.add(
                        f"{bwd}:data", boundary, "compute",
                        (f"{bwd}:halo", f"{bwd}:data_interior"), op=bwd,
                    )
                    prev_bwd = f"{bwd}:data"
                else:
                    deps = base_deps
                    if c.bpx_halo > 0:
                        eng.add(f"{bwd}:halo", c.bpx_halo, "comm", deps, op=bwd)
                        deps = (f"{bwd}:halo",)
                    eng.add(f"{bwd}:filter", c.bpw_compute, "compute", deps, op=bwd)
                    prev_bwd = f"{bwd}:filter"
                    if c.bpx_compute > 0:  # a dead BPx is priced at zero
                        prev_bwd = f"{bwd}:data"
                        eng.add(
                            prev_bwd, c.bpx_compute, "compute", (f"{bwd}:filter",),
                            op=bwd,
                        )
            # The error-signal shuffles become ready with this layer's dx.
            dx_ready = (prev_bwd,) if prev_bwd else ()
            for e in op.edges:
                if e.bwd is not None:
                    eng.add(e.bwd.op_id, price[e.bwd.op_id], "comm", dx_ready)
                    incoming.setdefault(e.parent, []).append(e.bwd.op_id)
                    if not self.overlap_shuffle:
                        prev_bwd = e.bwd.op_id  # blocking: gates everything after it
            b = bucket_of.get(name)
            if b is not None:
                if b.full and b.layers[-1] == name:
                    bucket_task(b)
            elif c is not None and c.allreduce > 0:
                ar_deps = [f"{bwd}:filter"]
                if not self.overlap_allreduce and prev_bwd:
                    ar_deps.append(prev_bwd)
                allreduce_task(f"ar:{name}", c.allreduce, ar_deps)
                if not self.overlap_allreduce:
                    prev_bwd = f"ar:{name}"
        for b in bd.buckets:
            if not b.full:
                bucket_task(b)

        # -- optimizer ------------------------------------------------------------
        deps = tuple(x for x in ([prev_bwd] + allreduces) if x)
        eng.add("optimizer", bd.optimizer_total, "compute", deps)

        makespan = eng.run()
        return SimResult(
            minibatch_time=makespan,
            compute_busy=eng.busy_time("compute"),
            comm_busy=eng.busy_time("comm"),
            engine=eng,
        )

    def minibatch_time(self, n_global: int, strategy: ParallelStrategy) -> float:
        """The makespan of :meth:`simulate`."""
        return self.simulate(n_global, strategy).minibatch_time
