"""Task-graph simulation of one distributed training step.

Builds, for the critical-path rank, the §IV schedule:

* forward, per layer: the halo exchange runs on the communication stream
  *concurrently* with the interior convolution; the boundary convolutions
  run after both ("our implementation automatically decomposes an input
  tensor into its interior domain and boundary domains ... so that halo
  exchanges can be run concurrently with the convolution of the interior
  domain").  The interior/boundary split is the per-layer
  ``boundary_fraction`` the cost model derives from the local block
  geometry — the same decomposition the engine's
  :class:`~repro.core.dist_conv.DistConv2d` executes;
* backward, per layer: the error-signal halo exchange is hidden inside the
  filter convolution ("we exploit the task-level parallelism of backward
  data and filter convolutions") *and* the interior data convolution, with
  only the boundary strips of the data convolution waiting on the halo —
  matching the engine's overlapped backward;
* each layer's dL/dw allreduce is queued on the communication stream as
  soon as its filter convolution finishes (one allreduce at a time);
* the step's communication ops are the lowered schedule's
  (:func:`repro.core.schedule.lower`, priced by the cost model) — the
  engine interprets the same list, so there is no task here for a transfer
  the engine does not make:

  - a forward *shuffle* (§III-C) is a communication-stream task that
    becomes ready the moment its *producer* finishes (not when the consumer
    is reached), so it hides behind sibling-branch compute in DAGs and
    contends with allreduces for the channel; the backward error-signal
    shuffle likewise becomes ready with the producing layer's data
    convolution;
  - a layer that computes no ``dx`` has a filter task but no data or halo
    task, and a layer backward does not reach has no backward tasks;
  - with ``allreduce_bucket_bytes``, the dL/dw payloads of one gradient
    bucket are one comm-stream task that becomes ready when its *last*
    contributor's filter convolution finishes, amortizing per-collective
    latency at the price of a slightly later start — the trade the engine's
    :class:`~repro.core.grad_reducer.BucketedGradReducer` makes;

* the optimizer step waits for all compute and all allreduces.

With ``overlap_halo=False`` / ``overlap_allreduce=False`` /
``overlap_shuffle=False`` the dependencies serialize instead — a shuffle
finished where it starts waits for *all* preceding compute and gates
everything after it; its duration is the same payload time (the engine
runs one exchange implementation in both modes).
``tests/test_sim.py::TestTrainingSimulator`` toggles exactly these
(``test_overlap_off_is_slower``, ``test_overlapped_shuffle_decomposition``,
``test_bucketing_requires_overlap``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.nn.graph import NetworkSpec
from repro.perfmodel.machine import MachineSpec
from repro.perfmodel.network_cost import NetworkCostModel
from repro.core.parallelism import LayerParallelism, ParallelStrategy
from repro.sim.engine import SimEngine


@dataclass
class SimResult:
    minibatch_time: float
    compute_busy: float
    comm_busy: float
    engine: SimEngine

    @property
    def comm_exposed(self) -> float:
        return max(0.0, self.minibatch_time - self.compute_busy)


class TrainingStepSimulator:
    """Simulates one mini-batch step for (spec, strategy, machine)."""

    def __init__(
        self,
        spec: NetworkSpec,
        machine: MachineSpec,
        conv_model=None,
        overlap_halo: bool = True,
        overlap_allreduce: bool = True,
        allreduce_bucket_bytes: int | None = None,
        overlap_shuffle: bool = True,
        allreduce_algorithm: str | None = None,
    ) -> None:
        self.spec = spec
        self.machine = machine
        self.overlap_halo = overlap_halo
        self.overlap_allreduce = overlap_allreduce
        self.allreduce_bucket_bytes = allreduce_bucket_bytes
        self.overlap_shuffle = overlap_shuffle
        #: Allreduce wire algorithm (engine's ``algorithm=`` knob): None
        #: keeps the historical fastest-per-(p, n) pricing, "auto" applies
        #: the engine's Thakur-style selection, a concrete name (incl.
        #: "direct") pins one algorithm — modeled and measured traffic
        #: then share one selection rule.
        self.allreduce_algorithm = allreduce_algorithm
        # Reuse the analytic per-layer component costs; the simulator only
        # re-derives the *schedule*, never the kernel times.
        self.cost_model = NetworkCostModel(
            spec, machine, conv_model=conv_model, overlap=True,
            overlap_allreduce=overlap_allreduce,
            allreduce_bucket_bytes=allreduce_bucket_bytes,
            allreduce_algorithm=allreduce_algorithm,
        )

    def simulate(
        self, n_global: int, strategy: ParallelStrategy | LayerParallelism
    ) -> SimResult:
        if isinstance(strategy, LayerParallelism):
            strategy = ParallelStrategy.uniform(strategy)
        eng = SimEngine()
        # The priced schedule: per-layer costs, the lowered ops, the bucket
        # cuts, and one duration per shuffle / bucket op.
        bd = self.cost_model.cost(n_global, strategy)
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

        def allreduce_task(name: str, dur: float, deps: list[str]) -> None:
            if allreduces:
                deps.append(allreduces[-1])  # one allreduce at a time
            eng.add(name, dur, "comm", tuple(deps))
            allreduces.append(name)

        def bucket_task(b) -> None:
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
                    # exactly to the synchronous cost; pooling now carries a
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
                    if c.bpx_compute > 0:  # the cost model zeroes a dead BPx
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
                # The non-hideable fraction contends with compute (modeled
                # as an extension of the allreduce on the comm stream).
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
