"""Whole-CNN evaluator (paper §V-B): the mini-batch time of one lowered step.

What a step *does* — which edges shuffle, which layers run backward and
with a ``dx``, where a gradient bucket is cut and over which group it is
reduced — is read off the lowered schedule (:func:`repro.core.schedule.lower`)
the engine interprets.  This module prices it and then schedules it, and
``minibatch_time`` is the makespan of that one timeline.

Pricing (:meth:`NetworkCostModel.cost`):

* every layer gets a :class:`~repro.perfmodel.layer_cost.ConvLayerCost`
  for its kernels on its largest block; layers other than convolution and
  pooling are costed as memory-bound passes (the paper leaves them free —
  the ranking of strategies is the same);
* each halo exchange is its schedule op, priced on the rank of its sample
  group (:attr:`~repro.core.schedule.HaloOp.plans`) that waits longest for
  it: one α-β message plus the fixed per-message overhead for every box
  that rank receives in the op's plan — over NVLink from a peer on its
  node, the network otherwise — and the interior/boundary split of the
  layer's kernel is the op's window geometry there (a one-sided strided
  gather lands on one side of a split and its scatter-add on the other; a
  scatter-add sends what its whole kernel produced, so nothing of that
  kernel overlaps it);
* each redistribution between layers with different distributions is
  charged a Shuffle(D_i, D_j) all-to-all (§III-C);
* the dL/dw allreduces are the engine's gradient buckets
  (:meth:`~repro.core.schedule.StepSchedule.grad_buckets` at
  ``allreduce_bucket_bytes``, the reducer's default), each priced over its
  gradient group (paper Eq. 2: the grid axes the layers' outputs are split
  along), coalesced payloads amortizing per-collective latency;
* a layer's blocking collectives (batch-norm statistics, global average
  pooling, the loss) are allreduces of their declared payload over the
  group ``lower()`` chose;
* the optimizer is one memory-bound pass over the parameters this rank
  updates.

Timeline (:meth:`NetworkCostModel.simulate`): a task graph over the
critical-path rank's compute and communication streams
(:class:`~repro.perfmodel.sim_engine.SimEngine`), the §IV schedule —

* forward, per layer: the halo op runs on the communication stream
  *concurrently* with the interior kernel; the boundary kernels run after
  both ("our implementation automatically decomposes an input tensor into
  its interior domain and boundary domains ... so that halo exchanges can
  be run concurrently with the convolution of the interior domain");
* backward, per layer: the error-signal halo op is hidden inside the
  filter convolution ("we exploit the task-level parallelism of backward
  data and filter convolutions") *and* the interior data convolution, with
  only the boundary pieces of the data convolution waiting on the halo;
  a layer that computes no ``dx`` has a filter task but no data or halo
  task, and a layer backward does not reach has no backward tasks;
* a layer's blocking collective is a communication task in its
  ``fwd:{layer}`` / ``bwd:{layer}`` window that the layer's kernels wait
  for;
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
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.comm.collective_models import allreduce_time, alltoall_time, pt2pt_time
from repro.nn.graph import NetworkSpec
from repro.perfmodel.conv_model import CalibratedConvModel
from repro.perfmodel.layer_cost import (
    ConvLayerCost,
    conv_layer_cost,
    local_extents,
    pool_layer_cost,
)
from repro.perfmodel.machine import MachineSpec
from repro.perfmodel.sim_engine import SimEngine
from repro.tensor.exchange import cells
from repro.tensor.grid import rank_at
from repro.core.grad_reducer import DEFAULT_BUCKET_BYTES
from repro.core.parallelism import LayerParallelism, ParallelStrategy
from repro.core.schedule import GradBucket, HaloOp, LayerOp, StepSchedule, lower
from repro.core.window import window_geometry


#: The :class:`ConvLayerCost` fields a layer's halo op of each phase sets.
_HALO_FIELDS = (
    ("fwd", ("fp_halo", "boundary_fraction", "boundary_launch")),
    ("bwd", ("bpx_halo", "bpx_boundary_fraction", "bpx_boundary_launch")),
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
    #: (``allreduce_bucket_bytes``), and the seconds charged per shuffle,
    #: collective, halo and bucket op id.
    schedule: StepSchedule | None = None
    buckets: list[GradBucket] = field(default_factory=list)
    comm_ops: dict[str, float] = field(default_factory=dict)


@dataclass
class SimResult:
    minibatch_time: float
    compute_busy: float
    comm_busy: float
    engine: SimEngine


class NetworkCostModel:
    """Prices and schedules one training step for (network, strategy,
    mini-batch size); :mod:`repro.sim` exports it as ``TrainingStepSimulator``."""

    def __init__(
        self,
        spec: NetworkSpec,
        machine: MachineSpec,
        conv_model=None,
        allreduce_bucket_bytes: int = DEFAULT_BUCKET_BYTES,
        allreduce_algorithm: str | None = None,
    ) -> None:
        if allreduce_bucket_bytes is None or allreduce_bucket_bytes <= 0:
            raise ValueError(
                "allreduce_bucket_bytes must be a positive byte count (the "
                f"engine's bucket cut), got {allreduce_bucket_bytes!r}"
            )
        self.spec = spec
        self.machine = machine
        self.conv_model = conv_model or CalibratedConvModel(
            machine.gpu, machine.dtype_bytes
        )
        self.allreduce_bucket_bytes = allreduce_bucket_bytes
        #: Allreduce wire algorithm, matching the engine's ``algorithm=``
        #: knob: None keeps the historical fastest-per-(p, n) pricing,
        #: "auto" applies the *same* Thakur-style selection the
        #: communicator runs on the wire, and a concrete name (incl.
        #: "direct") pins one algorithm — so modeled and measured traffic
        #: use one selection rule.
        self.allreduce_algorithm = allreduce_algorithm
        self.shapes = spec.infer_shapes()

    # -- per-layer costing -------------------------------------------------------
    def _kernels(
        self, op: LayerOp, n_global: int, strategy: ParallelStrategy
    ) -> ConvLayerCost | None:
        """The kernels of one layer on its largest block (the first part of
        every grid axis), without BPx when no parent needs the error
        signal."""
        layer = self.spec[op.name]
        if op.window is not None:
            g = window_geometry((0,) * len(op.grid_shape), *op.window)
            if layer.kind == "conv":
                cost = conv_layer_cost(self.conv_model, g, layer.params["filters"])
            else:
                cost = pool_layer_cost(self.machine, g)
        elif layer.kind in ("bn", "relu", "add", "gap", "fc"):
            c, h, w = self.shapes[layer.parents[0]]
            db, gpu = self.machine.dtype_bytes, self.machine.gpu
            par = strategy.for_layer(op.name)
            if layer.kind == "fc":
                units = layer.params["units"]
                i_n = local_extents(n_global, 1, 1, par)[0]
                flops = 2.0 * i_n * c * h * w * units
                nbytes = (i_n * c * h * w + i_n * units) * db
                fp = gpu.conv_time(flops, nbytes, gpu.fwd_tflops_max)
                bp = 2 * gpu.conv_time(flops, nbytes, gpu.bwd_data_tflops_max)
            else:
                i_n, i_h, i_w = local_extents(n_global, h, w, par)
                local = float(i_n) * c * i_h * i_w
                passes = {"bn": (3, 4), "relu": (2, 2), "add": (3, 1), "gap": (1, 1)}
                fp, bp = (gpu.elementwise_time(k * local * db) for k in passes[layer.kind])
            cost = ConvLayerCost(fp_compute=fp, bpx_compute=bp)
        else:
            return None  # input / loss layers
        return cost if op.need_dx else replace(cost, bpx_compute=0.0)

    def _halo(self, h: HaloOp, grid_shape: tuple[int, ...]) -> tuple[float, float, float]:
        """``(seconds, boundary fraction, boundary launch seconds)`` of halo
        op ``h`` of a layer on ``grid_shape``, on the rank of its sample
        group that waits longest for it (see module doc)."""
        node = self.machine.gpus_per_node
        plans = h.plans

        def seconds(coords) -> float:
            me = rank_at(grid_shape, coords) // node
            total = 0.0
            for peer, box in plans[coords].recvs:
                if peer // node == me:
                    link, overhead = self.machine.intra_link, self.machine.halo_msg_overhead_intra
                else:
                    link, overhead = self.machine.inter_link, self.machine.halo_msg_overhead_inter
                total += pt2pt_time(cells(box) * self.machine.dtype_bytes, link) + overhead
            return total

        coords = max(plans, key=seconds)
        if h.reverse:  # a scatter-add sends what its whole kernel produced
            return seconds(coords), 1.0, 0.0
        g = h.geometry(coords)
        launch = g.boundary_pieces * self.machine.gpu.kernel_latency
        return seconds(coords), g.boundary_fraction, launch

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
            cost = self._kernels(op, n_global, strategy)
            if cost is not None:
                for phase, fields in _HALO_FIELDS:
                    h = sched.halo(phase, op.name)
                    if h is not None:
                        priced = self._halo(h, op.grid_shape)
                        bd.comm_ops[h.op_id] = priced[0]
                        cost = replace(cost, **dict(zip(fields, priced)))
                bd.per_layer[op.name] = cost
            # Each shuffle at the layer that issues it: the forward one at
            # its first consumer, the backward one at its child.
            for e in op.edges:
                for s in (e.fwd, e.bwd):
                    if s is not None and s.consumers[0] == op.name:
                        one = self.shuffle_edge_cost(e.parent, n_global, strategy)
                        bd.comm_ops[s.op_id] = one
                        bd.shuffle_total += one

        def allreduce(group: int, nbytes: float) -> float:
            link = self.machine.link_for_group(group)
            return allreduce_time(group, nbytes, link, self.allreduce_algorithm)

        for c in sched.collectives:
            bd.comm_ops[c.op_id] = allreduce(c.group, c.elems * db)
        bd.buckets = sched.grad_buckets(self.allreduce_bucket_bytes, db)
        for b in bd.buckets:
            bd.comm_ops[b.op_id] = allreduce(b.group[0], b.nbytes)
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

        def blocking(phase: str, op: LayerOp, deps: tuple) -> tuple[str, ...]:
            coll = sched.collective(phase, op.name)
            if coll is None:
                return ()
            eng.add(coll.op_id, price[coll.op_id], "comm", deps, op=f"{phase}:{op.name}")
            return (coll.op_id,)

        # -- forward ------------------------------------------------------------
        prev_fwd: str | None = None
        fwd_done: dict[str, str] = {}  # layer -> task marking its output ready
        for op in sched.layers:
            c = costs.get(op.name)
            name = op.name
            for e in op.edges:
                if e.fwd is not None and e.fwd.consumers[0] == name:
                    # Ready the moment the producer finishes: the engine
                    # launches the exchange as the activation is produced.
                    producer = fwd_done.get(e.parent)
                    eng.add(
                        e.fwd.op_id, price[e.fwd.op_id], "comm",
                        (producer,) if producer else (),
                    )
            shuf_deps = [e.fwd.op_id for e in op.edges if e.fwd is not None]
            base_deps = ((prev_fwd,) if prev_fwd else ()) + tuple(shuf_deps)
            fwd = f"fwd:{name}"
            coll = blocking("fwd", op, base_deps)
            if c is None:
                # No kernel: its output is ready with its input (a loss's, with its allreduce).
                if coll:
                    prev_fwd = fwd_done[name] = coll[0]
                elif shuf_deps:
                    fwd_done[name] = shuf_deps[-1]
                elif op.edges and op.edges[0].parent in fwd_done:
                    fwd_done[name] = fwd_done[op.edges[0].parent]
                continue
            base_deps += coll
            halo = sched.halo("fwd", name)
            if halo is not None:
                interior = c.fp_compute * (1 - c.boundary_fraction)
                boundary = c.fp_compute * c.boundary_fraction + c.boundary_launch
                eng.add(halo.op_id, price[halo.op_id], "comm", base_deps, op=fwd)
                eng.add(f"{fwd}:interior", interior, "compute", base_deps, op=fwd)
                eng.add(fwd, boundary, "compute", (halo.op_id, f"{fwd}:interior"))
            else:
                eng.add(fwd, c.fp_compute, "compute", base_deps)
            prev_fwd = fwd_done[name] = fwd

        # -- backward -------------------------------------------------------------
        prev_bwd = prev_fwd
        allreduces: list[str] = []
        bucket_of = {name: b for b in bd.buckets for name in b.layers}
        hidden = self.machine.allreduce_overlap_efficiency

        def bucket_task(b: GradBucket) -> None:
            # Ready when its last contributor's filter convolution is, one
            # allreduce at a time.
            deps = tuple(f"bwd:{layer}:filter" for layer in b.layers)
            deps += tuple(allreduces[-1:])
            dur = price[b.op_id]
            eng.add(b.op_id, dur, "comm", deps)
            # The part that cannot hide contends with compute.
            eng.add(f"{b.op_id}:contend", (1 - hidden) * dur, "compute", deps, op=b.op_id)
            allreduces.append(b.op_id)

        # layer -> error-signal shuffle tasks it must wait for.
        incoming: dict[str, list[str]] = {}
        for op in sched.backward:
            c = costs.get(op.name)
            name = op.name
            bwd = f"bwd:{name}"
            if c is not None:
                base_deps = (prev_bwd,) if prev_bwd else ()
                base_deps = base_deps + tuple(incoming.pop(name, ()))
                coll = blocking("bwd", op, base_deps)
                halo = sched.halo("bwd", name)
                if halo is not None:
                    # An undecomposed backward (fraction 1, no boundary
                    # launches) makes this timeline the serialized cost.
                    interior = c.bpx_compute * (1 - c.bpx_boundary_fraction)
                    boundary = (
                        c.bpx_compute * c.bpx_boundary_fraction + c.bpx_boundary_launch
                    )
                    eng.add(halo.op_id, price[halo.op_id], "comm", base_deps, op=bwd)
                    eng.add(f"{bwd}:filter", c.bpw_compute, "compute", base_deps, op=bwd)
                    eng.add(
                        f"{bwd}:data_interior", interior, "compute",
                        (f"{bwd}:filter",), op=bwd,
                    )
                    eng.add(
                        f"{bwd}:data", boundary, "compute",
                        (halo.op_id, f"{bwd}:data_interior") + coll, op=bwd,
                    )
                    prev_bwd = f"{bwd}:data"
                else:
                    eng.add(f"{bwd}:filter", c.bpw_compute, "compute", base_deps, op=bwd)
                    prev_bwd = f"{bwd}:filter"
                    if c.bpx_compute > 0:  # a dead BPx is priced at zero
                        prev_bwd = f"{bwd}:data"
                        eng.add(
                            prev_bwd, c.bpx_compute, "compute",
                            (f"{bwd}:filter",) + coll, op=bwd,
                        )
            # The error-signal shuffles become ready with this layer's dx.
            dx_ready = (prev_bwd,) if prev_bwd else ()
            for e in op.edges:
                if e.bwd is not None:
                    eng.add(e.bwd.op_id, price[e.bwd.op_id], "comm", dx_ready)
                    incoming.setdefault(e.parent, []).append(e.bwd.op_id)
            b = bucket_of.get(name)
            if b is not None and b.full and b.layers[-1] == name:
                bucket_task(b)
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
