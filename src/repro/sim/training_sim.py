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
* inter-layer *shuffles* (§III-C redistributions where adjacent layers'
  grids differ) are communication-stream tasks whose dependencies mirror
  the engine's overlapped :class:`~repro.tensor.shuffle.ShuffleExchange`:
  a forward shuffle becomes ready the moment its *producer* finishes (not
  when the consumer is reached), so it hides behind sibling-branch compute
  in DAGs and contends with allreduces for the communication channel; the
  backward error-signal shuffle likewise becomes ready with the producing
  layer's data convolution;
* error signals exist only where the engine computes them
  (:meth:`~repro.nn.graph.NetworkSpec.needs_error_signal`): a layer whose
  parent needs none has a filter task but no data or halo task and sends no
  error-signal shuffle, and a layer that needs none has no backward tasks;
* the optimizer step waits for all compute and all allreduces.

With ``overlap_halo=False`` / ``overlap_allreduce=False`` /
``overlap_shuffle=False`` the dependencies serialize instead — a shuffle
finished where it starts waits for *all* preceding compute and gates
everything after it; its duration is the same payload time (the engine
runs one exchange implementation in both modes).  The ablation benchmarks
toggle exactly these.

``allreduce_bucket_bytes`` mirrors the engine's bucketed gradient reducer
(:class:`repro.core.grad_reducer.BucketedGradReducer`): consecutive layers'
dL/dw payloads destined for the same gradient group are coalesced into one
comm-stream task that becomes ready when its *last* contributor's filter
convolution finishes, amortizing per-collective latency at the price of a
slightly later start — exactly the trade the real reducer makes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.comm.collective_models import allreduce_time
from repro.nn.graph import NetworkSpec
from repro.perfmodel.layer_cost import ConvLayerCost
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
            allreduce_algorithm=allreduce_algorithm,
        )

    def simulate(
        self, n_global: int, strategy: ParallelStrategy | LayerParallelism
    ) -> SimResult:
        if isinstance(strategy, LayerParallelism):
            strategy = ParallelStrategy.uniform(strategy)
        eng = SimEngine()
        order = [layer for layer in self.spec.topo_order() if layer.kind != "input"]
        costs: dict[str, ConvLayerCost] = {}
        for layer in order:
            c = self.cost_model.layer_cost(layer.name, n_global, strategy)
            if c is not None:
                costs[layer.name] = c

        # -- shuffle edges (§III-C layer boundaries) ------------------------------
        # child layer -> parents whose activations must be redistributed.
        shuffle_edges: dict[str, list[str]] = {}
        for layer in order:
            for p in self.spec[layer.name].parents:
                if (
                    strategy.for_layer(p).grid_shape
                    != strategy.for_layer(layer.name).grid_shape
                ):
                    shuffle_edges.setdefault(layer.name, []).append(p)

        # -- forward ------------------------------------------------------------
        prev_fwd: str | None = None
        fwd_done: dict[str, str] = {}  # layer -> task marking its output ready
        carry: list[str] = []  # shuffle tasks consumed by cost-less layers
        # (parent, target grid) -> its one forward shuffle task: every child
        # on that grid reads the same redistributed tensor.
        fwd_shuffles: dict[tuple, str] = {}
        for layer in order:
            c = costs.get(layer.name)
            name = layer.name
            base_deps = (prev_fwd,) if prev_fwd else ()
            shuf_deps: list[str] = []
            for p in shuffle_edges.get(name, ()):
                key = (p, strategy.for_layer(name).grid_shape)
                if key in fwd_shuffles:
                    shuf_deps.append(fwd_shuffles[key])
                    continue
                sname = fwd_shuffles[key] = f"fwd:shuf:{p}->{name}"
                dur = self.cost_model.shuffle_edge_cost(p, n_global, strategy)
                if self.overlap_shuffle:
                    # Ready the moment the producer finishes — the engine
                    # launches the exchange as the activation is produced.
                    dep = fwd_done.get(p)
                    deps = (dep,) if dep else ()
                else:
                    # Started and finished at consumption time: waits for
                    # all preceding compute.
                    deps = base_deps
                eng.add(sname, dur, "comm", deps)
                shuf_deps.append(sname)
            if c is None:
                carry.extend(shuf_deps)
                if shuf_deps:
                    fwd_done[name] = shuf_deps[-1]
                elif layer.parents and layer.parents[0] in fwd_done:
                    fwd_done[name] = fwd_done[layer.parents[0]]
                continue
            base_deps = base_deps + tuple(carry) + tuple(shuf_deps)
            carry = []
            if c.fp_halo > 0 and self.overlap_halo:
                interior = c.fp_compute * (1 - c.boundary_fraction)
                boundary = c.fp_compute * c.boundary_fraction + c.boundary_launch
                eng.add(f"fwd:{name}:halo", c.fp_halo, "comm", base_deps)
                eng.add(f"fwd:{name}:interior", interior, "compute", base_deps)
                eng.add(
                    f"fwd:{name}",
                    boundary,
                    "compute",
                    (f"fwd:{name}:halo", f"fwd:{name}:interior"),
                )
            else:
                if c.fp_halo > 0:
                    eng.add(f"fwd:{name}:halo", c.fp_halo, "comm", base_deps)
                    base_deps = (f"fwd:{name}:halo",)
                eng.add(f"fwd:{name}", c.fp_compute, "compute", base_deps)
            prev_fwd = f"fwd:{name}"
            fwd_done[name] = prev_fwd

        # -- backward -------------------------------------------------------------
        prev_bwd = prev_fwd
        allreduces: list[str] = []
        last_ar: str | None = None
        bucketing = bool(self.overlap_allreduce and self.allreduce_bucket_bytes)
        # Keyed by gradient-group identity — (size, grid shape) — mirroring
        # the engine's per-communicator buckets; the value is
        # (pending bytes, contributing filter-conv task names).
        buckets: dict[tuple, tuple[float, list[str]]] = {}

        def flush_bucket(key: tuple) -> None:
            nonlocal last_ar
            nbytes, contributors = buckets.pop(key)
            group = key[0]
            if nbytes <= 0:
                return
            dur = allreduce_time(
                group, nbytes, self.machine.link_for_group(group),
                self.allreduce_algorithm,
            )
            deps = list(contributors)
            if last_ar is not None:
                deps.append(last_ar)  # one allreduce at a time
            name = f"ar:bucket{len(allreduces)}:g{group}"
            eng.add(name, dur, "comm", tuple(deps))
            allreduces.append(name)
            last_ar = name

        # parent layer -> error-signal shuffle tasks it must wait for.
        incoming: dict[str, list[str]] = {}
        carry_b: list[str] = []
        needs_dy = self.cost_model.needs_dy

        def route_back_shuffles(name: str, producer: str | None) -> None:
            nonlocal prev_bwd
            for p in shuffle_edges.get(name, ()):
                if p not in needs_dy:
                    continue
                sname = f"bwd:shuf:{name}->{p}"
                dur = self.cost_model.shuffle_edge_cost(p, n_global, strategy)
                deps = (producer,) if producer else ()
                eng.add(sname, dur, "comm", deps)
                incoming.setdefault(p, []).append(sname)
                if not self.overlap_shuffle:
                    prev_bwd = sname  # blocking: gates everything after it

        for layer in reversed(order):
            c = costs.get(layer.name)
            name = layer.name
            if name not in needs_dy:
                continue
            if c is None:
                carry_b.extend(incoming.pop(name, ()))
                route_back_shuffles(name, prev_bwd)
                continue
            base_deps = (prev_bwd,) if prev_bwd else ()
            base_deps = base_deps + tuple(carry_b) + tuple(incoming.pop(name, ()))
            carry_b = []
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
                eng.add(f"bwd:{name}:halo", c.bpx_halo, "comm", base_deps)
                eng.add(f"bwd:{name}:filter", c.bpw_compute, "compute", base_deps)
                eng.add(
                    f"bwd:{name}:data_interior",
                    interior,
                    "compute",
                    (f"bwd:{name}:filter",),
                )
                eng.add(
                    f"bwd:{name}:data",
                    boundary,
                    "compute",
                    (f"bwd:{name}:halo", f"bwd:{name}:data_interior"),
                )
                prev_bwd = f"bwd:{name}:data"
            else:
                deps = base_deps
                if c.bpx_halo > 0:
                    eng.add(f"bwd:{name}:halo", c.bpx_halo, "comm", deps)
                    deps = (f"bwd:{name}:halo",)
                eng.add(f"bwd:{name}:filter", c.bpw_compute, "compute", deps)
                prev_bwd = f"bwd:{name}:filter"
                if c.bpx_compute > 0:  # the cost model zeroes a dead BPx
                    prev_bwd = f"bwd:{name}:data"
                    eng.add(
                        prev_bwd, c.bpx_compute, "compute", (f"bwd:{name}:filter",)
                    )
            route_back_shuffles(name, prev_bwd)
            if c.allreduce > 0:
                if bucketing and c.allreduce_bytes > 0:
                    key = (
                        c.allreduce_group,
                        strategy.for_layer(name).grid_shape,
                    )
                    nbytes, contributors = buckets.get(key, (0.0, []))
                    contributors.append(f"bwd:{name}:filter")
                    buckets[key] = (nbytes + c.allreduce_bytes, contributors)
                    if buckets[key][0] >= self.allreduce_bucket_bytes:
                        flush_bucket(key)
                    continue
                ar_deps = [f"bwd:{name}:filter"]
                if not self.overlap_allreduce and prev_bwd:
                    ar_deps.append(prev_bwd)
                if last_ar is not None:
                    ar_deps.append(last_ar)  # one allreduce at a time
                ar_name = f"ar:{name}"
                # The non-hideable fraction contends with compute (modeled
                # as an extension of the allreduce on the comm stream).
                eng.add(ar_name, c.allreduce, "comm", tuple(ar_deps))
                allreduces.append(ar_name)
                last_ar = ar_name
                if not self.overlap_allreduce:
                    prev_bwd = ar_name

        for key in list(buckets):
            flush_bucket(key)

        # -- optimizer ------------------------------------------------------------
        params = self.spec.total_params()
        opt_time = self.machine.gpu.elementwise_time(
            3 * params * self.machine.dtype_bytes
        )
        deps = tuple(x for x in ([prev_bwd] + allreduces) if x)
        eng.add("optimizer", opt_time, "compute", deps)

        makespan = eng.run()
        return SimResult(
            minibatch_time=makespan,
            compute_busy=eng.busy_time("compute"),
            comm_busy=eng.busy_time("comm"),
            engine=eng,
        )
