"""Distributed execution of a :class:`NetworkSpec` under a parallel strategy.

This is the LBANN-analogue training pipeline (paper §IV): every layer runs
under its assigned :class:`~repro.core.parallelism.LayerParallelism`; when
adjacent layers use different distributions, activations and error signals
are redistributed with an all-to-all shuffle (§III-C); weight-gradient
partials are completed with an allreduce over each layer's gradient group
(the sub-communicator spanning the grid axes along which the layer's data is
actually partitioned — the whole grid in the standard replicated-weights
case, exactly the paper's Eq. 2 allreduce).

One implementation per transfer; each ``overlap_*`` flag moves the
``finish()``.  Every transfer below is a ``start`` and a ``finish()``, a
flag set to ``False`` finishes right where it starts, and no mode has code
of its own — so all eight flag combinations run the same floating-point
operations in the same order (bitwise equal under
``collective_algorithm="direct"``; ``tests/test_dist_network.py`` sweeps
the matrix against :class:`~repro.nn.network.LocalNetwork`).

* **Gradient reduction** (``overlap_grad_reduce``): as each layer's
  backward-filter pass produces its ``dw`` partials, they are handed to a
  :class:`~repro.core.grad_reducer.BucketedGradReducer`, which coalesces
  them into per-gradient-group buckets and launches nonblocking
  ``iallreduce``s that proceed concurrently with the remaining
  backpropagation; everything is drained before :meth:`backward` returns —
  the paper's §IV communication-hiding discipline.  ``False`` drains the
  reducer right after each layer's ``add`` (one bucket per layer, waited at
  once).  The measured wait-vs-overlap split is recorded in ``comm.stats``.
* **Halo exchanges** (``overlap_halo``): each
  :class:`~repro.core.dist_conv.DistConv2d` posts its halo strips, convolves
  the interior of its block while they travel, and completes the boundary
  strips after ``finish()`` (paper §IV-A).  ``False`` finishes the exchange
  before the first kernel.
* **Inter-layer shuffles** (``overlap_shuffle``; §III-C redistributions at
  layer boundaries whose distributions differ): a layer's activation is
  launched toward each distinct placement its children expect — one
  :class:`~repro.tensor.shuffle.ShuffleExchange` per (target grid,
  distribution), shared by every child that wants it — the moment it is
  produced and finished only where a child consumes it, so the pieces travel
  behind whatever runs in between (sibling branches of a DAG, the reducer's
  gradient bucketing in backward); in backward the error-signal shuffle
  toward a parent is started before the layer's weight-gradient allreduce
  is queued.  ``False`` starts each exchange where it is consumed (forward)
  or produced (backward) and finishes it on the spot.  Plans (the per-rank
  send/receive schedules) are cached on the communicator across steps, and
  send payloads are staged through a network-level
  :class:`~repro.comm.buffers.BufferPool`.

Backward reaches only the layers that need an error signal
(:meth:`~repro.nn.graph.NetworkSpec.needs_error_signal`: those with
parameters, or with a parent that needs one).  The first parameterised
layer after an input computes its parameter gradients and nothing else — no
Eq. 3, no error-signal halo exchange, no shuffle back — and parameter-free
layers below it do not run in backward at all.

Parameters are replicated on every rank and initialized identically to
:class:`repro.nn.network.LocalNetwork` (seeded by layer name), so
distributed runs replicate single-device runs to floating-point
accumulation order — the exactness property claimed in §III and verified by
``tests/test_dist_network.py`` and ``tests/test_integration.py``.
"""

from __future__ import annotations

import numpy as np

from repro.comm.buffers import BufferPool
from repro.comm.communicator import Communicator
from repro.nn import init as I
from repro.nn.graph import NetworkSpec
from repro.obs import tracer as _trace
from repro.tensor.dist_tensor import DistTensor
from repro.tensor.grid import ProcessGrid
from repro.tensor.shuffle import ShuffleExchange, shuffle, start_shuffle
from repro.core.parallelism import LayerParallelism, ParallelStrategy, activation_dist
from repro.core.dist_conv import DistConv2d
from repro.core.grad_reducer import DEFAULT_BUCKET_BYTES, BucketedGradReducer
from repro.core.dist_layers import (
    DistAdd,
    DistBatchNorm,
    DistBCEWithLogits,
    DistFC,
    DistGlobalAvgPool,
    DistPool2d,
    DistReLU,
    DistSoftmaxCrossEntropy,
)


class DistNetwork:
    """One rank's instance of a distributed CNN."""

    def __init__(
        self,
        spec: NetworkSpec,
        comm: Communicator,
        strategy: ParallelStrategy | LayerParallelism,
        seed: int = 0,
        dtype=np.float64,
        bn_aggregate: str = "global",
        overlap_grad_reduce: bool = True,
        grad_bucket_bytes: int = DEFAULT_BUCKET_BYTES,
        overlap_halo: bool = True,
        overlap_shuffle: bool = True,
        collective_algorithm: str | None = None,
        grad_segment_bytes: int | str | None = None,
    ) -> None:
        if isinstance(strategy, LayerParallelism):
            strategy = ParallelStrategy.uniform(strategy)
        if strategy.nranks != comm.size:
            raise ValueError(
                f"strategy uses {strategy.nranks} ranks but communicator has "
                f"{comm.size}"
            )
        self.spec = spec
        self.comm = comm
        self.strategy = strategy
        self.seed = seed
        self.dtype = dtype
        self.bn_aggregate = bn_aggregate
        self.overlap_grad_reduce = overlap_grad_reduce
        self.grad_bucket_bytes = grad_bucket_bytes
        self.overlap_halo = overlap_halo
        self.overlap_shuffle = overlap_shuffle
        #: Wire algorithm for the gradient allreduces (the
        #: :meth:`~repro.comm.communicator.Communicator.allreduce` knob):
        #: None == "auto" (model-driven schedule selection); "direct" pins
        #: the bitwise-reference deposit-combine path, making the
        #: overlapped and blocking reducers bitwise-identical.
        self.collective_algorithm = collective_algorithm
        #: Segment size for the bucketed gradient allreduces (the
        #: ``segment_bytes`` knob of
        #: :meth:`~repro.comm.communicator.Communicator.iallreduce`):
        #: segmented buckets complete one pipeline segment per reducer
        #: poll, so a ``backward(grad_hook=...)`` caller sees early
        #: buckets while later segments are still on the wire.
        self.grad_segment_bytes = grad_segment_bytes
        self.shapes = spec.infer_shapes()
        #: Layers backward has to reach (parameters, or a parent with some).
        self._needs_dy = spec.needs_error_signal()
        # Recycles the staged shuffle send payloads across steps (deferred
        # reclamation once the receivers drop their zero-copy views).
        self._shuffle_pool = BufferPool()
        # This forward pass's shuffles, keyed by (parent layer, target grid
        # shape, target distribution): one exchange per key, whose result
        # every child that wants it shares (no layer mutates its input).
        self._pending_fwd: dict[tuple, ShuffleExchange] = {}
        self._routes: dict[tuple, tuple | None] = {}

        self._grids: dict[tuple[int, ...], ProcessGrid] = {}
        self.params: dict[str, dict[str, np.ndarray]] = {}
        self.grads: dict[str, dict[str, np.ndarray]] = {}
        self._layers: dict[str, object] = {}
        self._build()

        self._acts: dict[str, DistTensor] = {}
        self._fwd_dist: dict[str, tuple[ProcessGrid, object]] = {}
        self.loss: float | None = None
        self.shuffle_count = 0

    # -- construction ---------------------------------------------------------------
    def _grid(self, shape: tuple[int, ...]) -> ProcessGrid:
        grid = self._grids.get(shape)
        if grid is None:
            grid = ProcessGrid(self.comm, shape)
            self._grids[shape] = grid
        return grid

    def _build(self) -> None:
        self.params = I.init_params(self.spec, self.shapes, self.seed, self.dtype)
        for layer in self.spec.topo_order():
            name = layer.name
            grid = self._grid(self.strategy.for_layer(name).grid_shape)
            p = self.params.get(name, {})
            if layer.kind == "input":
                self._layers[name] = None
            elif layer.kind == "conv":
                self._layers[name] = DistConv2d(
                    grid,
                    p["w"],
                    stride=layer.params.get("stride", 1),
                    pad=layer.params.get("pad", 0),
                    bias=p.get("b"),
                    overlap_halo=self.overlap_halo,
                )
            elif layer.kind == "pool":
                self._layers[name] = DistPool2d(
                    grid,
                    layer.params.get("mode", "max"),
                    layer.params["kernel"],
                    layer.params.get("stride", layer.params["kernel"]),
                    layer.params.get("pad", 0),
                    overlap_halo=self.overlap_halo,
                )
            elif layer.kind == "bn":
                self._layers[name] = DistBatchNorm(
                    grid, p["gamma"], p["beta"], aggregate=self.bn_aggregate,
                    momentum=layer.params.get("momentum", 0.9),
                )
            elif layer.kind == "relu":
                self._layers[name] = DistReLU(grid)
            elif layer.kind == "add":
                self._layers[name] = DistAdd(grid)
            elif layer.kind == "gap":
                self._layers[name] = DistGlobalAvgPool(grid)
            elif layer.kind == "fc":
                self._layers[name] = DistFC(grid, p["w"], p.get("b"))
            elif layer.kind == "softmax_ce":
                self._layers[name] = DistSoftmaxCrossEntropy(grid)
            elif layer.kind == "bce":
                self._layers[name] = DistBCEWithLogits(grid)
            else:  # pragma: no cover
                raise AssertionError(layer.kind)

    # -- execution ---------------------------------------------------------------------
    def _route(self, act: DistTensor, child: str):
        """``(grid, distribution)`` layer ``child`` expects ``act`` in, or
        ``None`` when no redistribution is needed.  A pure function of the
        key below, asked twice per edge per step, so it is memoised."""
        key = (child, act.grid.shape, act.dist, act.global_shape)
        if key not in self._routes:
            grid = self._grid(self.strategy.for_layer(child).grid_shape)
            want = activation_dist(grid.shape, act.global_shape)
            same = act.dist == want and act.grid.shape == grid.shape
            self._routes[key] = None if same else (grid, want)
        return self._routes[key]

    def _start_shuffle(self, parent: str, child: str) -> ShuffleExchange | None:
        """The exchange carrying ``parent``'s activation to the distribution
        layer ``child`` expects it in, launched unless an earlier child
        with the same placement already did; ``None`` when the activation
        already matches."""
        act = self._acts[parent]
        route = self._route(act, child)
        if route is None:
            return None
        grid, want = route
        key = (parent, grid.shape, want)
        ex = self._pending_fwd.get(key)
        if ex is None:
            self.shuffle_count += 1
            ex = self._pending_fwd[key] = start_shuffle(
                act, grid, want, pool=self._shuffle_pool
            )
        return ex

    def _start_child_shuffles(self, name: str) -> None:
        """Launch the redistributions the children of ``name`` will need.

        Called right after a layer's activation is produced (overlap mode):
        the exchanges travel behind whatever computes next — sibling
        branches of the DAG, the remaining forward layers — and are
        finished where each child consumes its input.
        """
        for child in self.spec.children_of(name):
            self._start_shuffle(name, child)

    def forward(
        self,
        inputs: dict[str, np.ndarray] | np.ndarray,
        targets: np.ndarray | None = None,
        training: bool = True,
    ) -> float | None:
        """Run forward propagation; returns the loss when the network has a
        loss layer and ``targets`` is given.

        ``inputs``/``targets`` are *global* arrays (every rank passes the
        same ones); each rank slices its own shard.  Loss layers slice the
        targets by their logits' bounds.
        """
        if isinstance(inputs, np.ndarray):
            (inp,) = self.spec.inputs()
            inputs = {inp.name: inputs}
        self._acts = {}
        self._fwd_dist = {}
        self._pending_fwd = {}
        self.loss = None

        for layer in self.spec.topo_order():
            name = layer.name
            if layer.kind == "input":
                grid = self._grid(self.strategy.for_layer(name).grid_shape)
                x_global = np.asarray(inputs[name], dtype=self.dtype)
                dist = activation_dist(grid.shape, x_global.shape)
                self._acts[name] = DistTensor.from_global(grid, dist, x_global)
                if self.overlap_shuffle:
                    self._start_child_shuffles(name)
                continue

            with _trace.span(f"fwd:{name}", cat="layer", kind=layer.kind):
                parents = [self._acts[p] for p in layer.parents]
                # Record the parent's original placement so backward can route
                # the error signal back through the same shuffle.
                self._fwd_dist[name] = [(p.grid, p.dist) for p in parents]
                for idx, pname in enumerate(layer.parents):
                    # In flight since the parent produced it
                    # (overlap_shuffle), else started right here.
                    ex = self._start_shuffle(pname, name)
                    if ex is not None:
                        parents[idx] = ex.finish()
                impl = self._layers[name]

                if layer.kind == "conv":
                    y = impl.forward(parents[0])
                elif layer.kind == "pool":
                    y = impl.forward(parents[0])
                elif layer.kind == "bn":
                    y = impl.forward(parents[0], training=training)
                elif layer.kind in ("relu", "gap", "fc"):
                    y = impl.forward(parents[0])
                elif layer.kind == "add":
                    y = impl.forward(*parents)
                elif layer.kind == "softmax_ce":
                    if targets is not None:
                        self.loss = impl.forward_loss(parents[0], targets)
                    y = parents[0]
                elif layer.kind == "bce":
                    if targets is not None:
                        self.loss = impl.forward_loss(
                            parents[0], np.asarray(targets, dtype=self.dtype)
                        )
                    y = parents[0]
                else:  # pragma: no cover
                    raise AssertionError(layer.kind)
                self._acts[name] = y
                if self.overlap_shuffle:
                    self._start_child_shuffles(name)
        self._pending_fwd = {}  # backward needs none of the redistributed tensors
        return self.loss

    def backward(self, grad_hook=None) -> dict[str, dict[str, np.ndarray]]:
        """Backpropagate and complete weight gradients with allreduces.

        Each layer's partials are queued on a bucketed nonblocking reducer
        as soon as its filter gradients are computed; with
        ``overlap_grad_reduce`` (the default) the allreduces run
        concurrently with the rest of backpropagation and are drained just
        before returning, otherwise the reducer is drained after every
        layer.

        ``grad_hook(layer, grads)``, if given, is invoked once per layer
        as soon as that layer's *reduced* gradients are complete — for the
        overlapped reducer this happens mid-backpropagation as buckets
        finish (each layer's enqueue polls the in-flight requests, landing
        one more pipeline segment of each segmented allreduce), so an
        optimizer can apply early layers' updates while later gradients
        are still on the wire.  Every layer is hooked exactly once; layers
        still pending at the end are hooked after the final drain.  The
        returned dict is unchanged — hooking is observation, not
        consumption.

        With ``overlap_shuffle`` (the default), the error-signal shuffle
        toward a parent with a different distribution is *started* as soon
        as the layer's ``dx`` exists — before the layer's own gradient
        bucketing — and finished only when the parent consumes its error
        signal, so the pieces travel behind the reducer work and any
        sibling branches; with ``overlap_shuffle=False`` it is finished
        where it is started.  Contributions are accumulated in arrival
        order either way, so both modes perform identical floating-point
        additions.

        Error signals go only to layers that need one
        (:meth:`~repro.nn.graph.NetworkSpec.needs_error_signal`): a conv, BN
        or FC layer whose parent needs none runs with ``need_dx=False`` — no
        Eq. 3, no error-signal halo exchange or shuffle — and the
        parameter-free layers below it are skipped.
        """
        needs_dy = self._needs_dy
        grads: dict[str, dict[str, np.ndarray]] = {}
        #: Per-parent error contributions (DistTensor or in-flight
        #: ShuffleExchange), in route_back arrival order.
        pending: dict[str, list] = {}
        reducer = BucketedGradReducer(
            self.grad_bucket_bytes,
            algorithm=self.collective_algorithm,
            segment_bytes=self.grad_segment_bytes,
        )
        hooked: set[str] = set()

        def hook(name: str, g: dict[str, np.ndarray]) -> None:
            if grad_hook is not None and name not in hooked:
                hooked.add(name)
                grad_hook(name, g)

        def complete_grads(name: str, g: dict[str, np.ndarray]) -> None:
            done = reducer.add(name, g, self._grad_comm(self._acts[name]))
            if not self.overlap_grad_reduce:
                grads.update(reducer.drain())
                done = grads[name]
            if done is not None:
                # Already complete: a singleton gradient group (add()
                # passed the partials straight through) or the drain above.
                hook(name, done)
            elif grad_hook is not None:
                for lname, lg in reducer.poll().items():
                    hook(lname, lg)

        def route_back(name: str, idx: int, dx: DistTensor | None) -> None:
            """Undo the forward shuffle for parent #idx of layer `name`
            (nothing to route when that parent needs no error signal)."""
            pname = self.spec[name].parents[idx]
            if pname not in needs_dy:
                return
            pgrid, pdist = self._fwd_dist[name][idx]
            entry: DistTensor | ShuffleExchange = dx
            if dx.dist != pdist or dx.grid.shape != pgrid.shape:
                self.shuffle_count += 1
                entry = start_shuffle(dx, pgrid, pdist, pool=self._shuffle_pool)
                if not self.overlap_shuffle:
                    entry.finish()
            pending.setdefault(pname, []).append(entry)

        def consume_dy(name: str) -> DistTensor | None:
            """Materialize a layer's accumulated error signal.

            Entries are folded in arrival order; later contributions with a
            mismatched distribution are shuffled to the first's.
            """
            entries = pending.pop(name, None)
            if not entries:
                return None
            out: DistTensor | None = None
            for e in entries:
                dx = e.finish() if isinstance(e, ShuffleExchange) else e
                if out is None:
                    out = DistTensor(
                        dx.grid, dx.dist, dx.global_shape, dx.local.copy()
                    )
                else:
                    if dx.dist != out.dist:
                        dx = shuffle(
                            dx, out.grid, out.dist, pool=self._shuffle_pool
                        )
                    out.local += dx.local
            return out

        for layer in reversed(self.spec.topo_order()):
            name = layer.name
            impl = self._layers[name]
            if name not in needs_dy:
                continue
            with _trace.span(f"bwd:{name}", cat="layer", kind=layer.kind):
                if layer.kind in ("softmax_ce", "bce"):
                    route_back(name, 0, impl.backward())
                    continue
                dy = consume_dy(name)
                if dy is None:
                    continue  # no path to the loss
                need_dx = layer.parents[0] in needs_dy

                if layer.kind == "conv":
                    dx, dw, db = impl.backward(dy, need_dx)
                    g = {"w": dw}
                    if db is not None:
                        g["b"] = db
                    # The dx shuffle first: it is in flight while the reducer
                    # coalesces and launches this layer's gradient allreduce.
                    route_back(name, 0, dx)
                    complete_grads(name, g)
                elif layer.kind == "pool":
                    route_back(name, 0, impl.backward(dy))
                elif layer.kind == "bn":
                    dx, dgamma, dbeta = impl.backward(dy, need_dx)
                    route_back(name, 0, dx)
                    complete_grads(name, {"gamma": dgamma, "beta": dbeta})
                elif layer.kind == "relu":
                    route_back(name, 0, impl.backward(dy))
                elif layer.kind == "gap":
                    route_back(name, 0, impl.backward(dy))
                elif layer.kind == "fc":
                    dx, dw, db = impl.backward(dy, need_dx)
                    g = {"w": dw}
                    if db is not None:
                        g["b"] = db
                    route_back(name, 0, dx)
                    complete_grads(name, g)
                elif layer.kind == "add":
                    for idx in range(len(layer.parents)):
                        route_back(name, idx, dy)
                else:  # pragma: no cover
                    raise AssertionError(layer.kind)

        grads.update(reducer.drain())
        if grad_hook is not None:
            for name, g in grads.items():
                hook(name, g)
        self.grads = grads
        return grads

    def _grad_comm(self, y: DistTensor) -> Communicator | None:
        """The gradient group of a layer with output ``y`` (paper Eq. 2).

        Spans the grid axes along which the layer's output data is
        partitioned; ``None`` when the layer's partials are already complete
        (replicas along other axes hold identical partials).
        """
        axes = [d for d in range(y.dist.ndim) if y.dist.is_split(d)]
        if not axes:
            return None
        return y.grid.axes_comm(axes)

    # -- checkpointing ---------------------------------------------------------------
    def state_dict(self) -> dict:
        """All persistent state of this replica, as fresh arrays.

        Parameters plus batch-norm running statistics — everything a layer
        reads across steps.  Activations, caches, and in-flight exchanges
        are per-step and excluded.
        """
        params = {
            lname: {pname: arr.copy() for pname, arr in lparams.items()}
            for lname, lparams in self.params.items()
        }
        bn = {}
        for name, impl in self._layers.items():
            if isinstance(impl, DistBatchNorm):
                bn[name] = {
                    "running_mean": impl.running_mean.copy(),
                    "running_var": impl.running_var.copy(),
                }
        return {"params": params, "bn": bn}

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output bitwise.

        Parameter data is copied *into* the existing arrays
        (``np.copyto``), because the layer objects hold references to the
        same buffers the optimizer updates in place — rebinding would
        silently detach them.  BN running stats are rebound instead, since
        ``DistBatchNorm.forward`` rebinds them every training step anyway.
        """
        for lname, lparams in state["params"].items():
            mine = self.params[lname]
            for pname, arr in lparams.items():
                np.copyto(mine[pname], arr)
        for name, stats in state["bn"].items():
            impl = self._layers[name]
            impl.running_mean = stats["running_mean"].copy()
            impl.running_var = stats["running_var"].copy()

    # -- convenience -----------------------------------------------------------------
    def loss_and_grad(
        self, inputs, targets, grad_hook=None
    ) -> tuple[float, dict[str, dict[str, np.ndarray]]]:
        loss = self.forward(inputs, targets=targets, training=True)
        if loss is None:
            raise RuntimeError("network has no loss layer or targets missing")
        return loss, self.backward(grad_hook=grad_hook)

    def gather_activation(self, name: str) -> np.ndarray:
        """Assemble a layer's global output on every rank (test helper)."""
        return self._acts[name].to_global()
