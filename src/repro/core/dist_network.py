"""Distributed execution of a :class:`NetworkSpec` under a parallel strategy.

This is the LBANN-analogue training pipeline (paper §IV).  A step is
:func:`repro.core.schedule.lower` plus one interpreter: the schedule says
which layers run (and which run backward, with or without a ``dx``), which
edges redistribute (§III-C shuffles, one per parent and target placement),
which gradient group each layer's dL/dw partials are summed over (paper
Eq. 2) and which ranks a layer's blocking collective spans;
:meth:`DistNetwork.forward` / :meth:`DistNetwork.backward` walk that list,
looking each layer kind up in one table (``_KINDS``).

Every step runs the §IV schedule, and every transfer is a ``start`` and a
``finish()`` of one implementation.  A forward shuffle starts with the
layer that produces the activation and is finished by its first consumer;
a backward shuffle starts with the child's ``dx`` and is finished by the
parent that folds it in; the bucketed gradient reducer
(:class:`~repro.core.grad_reducer.BucketedGradReducer`) keeps one bucket
in flight — a launch completes the bucket before it — and is drained
once, after the last layer.  Every halo exchange the schedule declares (its
``halos``) is started here, in the §IV-A order: a layer's forward gather
before its interior kernels, convolution's Eq. 3 error-signal gather
before its Eq. 2 filter kernel, pooling's reverse halo once the layer has
computed its extended-region gradient.  A windowed layer is handed the
window's geometry and that in-flight exchange (or ``None``, when the
schedule has none) and finishes it between its interior and boundary
kernels (:func:`~repro.core.dist_conv.run_block`); so the schedule's
:meth:`~repro.core.schedule.StepSchedule.halo` is the one place that
decides whether a window exchanges.  When a message
arrives changes no arithmetic: every receive lands in a slot fixed by the
plan and every fold runs in a fixed order, so losses are bitwise equal
under any delay of any message (``tests/test_dist_network.py``,
``TestTimingIndependence``).

When engine and performance model disagree about *what* a step does, they
cannot: the cost model, simulator, memory model and analyzer read the same
op list — diff ``lower(spec, strategy, n)``.

Activations and error signals travel **by reference**.  A layer's output is
handed to every consumer as is; a layer's ``dx`` *is* its parent's ``dy``
(an ``add`` hands the same array to all its parents), and only a parent with
several consumers sums into a tensor of its own.  What a layer saves for
backward aliases the same way: a batch-norm input, and the views of a
convolution's input — every convolution window reads its shard in place,
and one that exchanges stages only its boundary pieces' small source boxes
(:mod:`repro.core.dist_conv`).
A step holds only what backward still reads, and the interpreter alone
decides it: a layer's forward returns ``(output, saved)``, its backward
takes ``saved``, and no layer keeps anything of a step.  Forward drops an
activation once its last reader has run — the layers that read it in
place, or, when every reader is on another grid, its own shuffles' start
(the schedule's :attr:`~repro.core.schedule.LayerOp.releases`) — and keeps
the network's outputs and one table of what the layers backward reaches
saved (a batch-norm input, a convolution's views and boundary staging, a
ReLU mask, a loss's seed), filled by a training forward with targets only.  Backward pops each
entry into its layer's call, so it dies with that call, and drops the
table when it returns: then the rank holds nothing of the step but the
outputs.  All of it rests on one invariant: **no layer writes to its input or to the
error signal it is given** — what a layer computes goes into a fresh
array, what it does not compute it passes through untouched.  The only
in-place update of an error signal is :meth:`DistNetwork.backward`'s own
accumulation, and that touches nothing but a sum it allocated itself.

Parameters are replicated on every rank and initialized identically to
:class:`repro.nn.network.LocalNetwork` (seeded by layer name), so
distributed runs replicate single-device runs to floating-point
accumulation order — the exactness property claimed in §III and verified by
``tests/test_dist_network.py`` and ``tests/test_integration.py``.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Callable, NamedTuple

import numpy as np

from repro.comm.communicator import Communicator
from repro.nn import init as I
from repro.nn.graph import NetworkSpec
from repro.obs import tracer as _trace
from repro.tensor.dist_tensor import DistTensor
from repro.tensor.grid import ProcessGrid
from repro.tensor.halo import RegionExchange, start_region_exchange
from repro.tensor.indexing import place_region
from repro.tensor.shuffle import ShuffleExchange, start_shuffle
from repro.core.parallelism import LayerParallelism, ParallelStrategy
from repro.core.dist_conv import DistConv2d
from repro.core.grad_reducer import DEFAULT_BUCKET_BYTES, BucketedGradReducer
from repro.core.schedule import LayerOp, ShuffleOp, StepSchedule, lower, window_params
from repro.core.window import WindowGeometry, transposed_window, window_geometry
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


_NO_SPAN = nullcontext()


class _Kind(NamedTuple):
    """How the interpreter runs one layer kind.

    ``build(net, layer, grid, params)`` constructs the layer;
    ``forward(net, impl, xs, training, targets, op)`` returns ``(output,
    saved)`` — ``saved`` what its backward reads, ``None`` when it reads
    nothing — and ``backward(net, impl, dy, saved, op)`` returns ``(dx,
    grads)`` — one ``dx`` for every parent, ``grads`` the dL/dw partials or
    ``None`` — each handing the layer what its lowered ``op`` decided: a
    windowed layer's geometry and started halo exchange
    (:meth:`DistNetwork._window`), another's collective group
    (:meth:`DistNetwork._group`), whether a ``dx`` is wanted.  A loss
    ``seeds`` backward: what it saved is its logits' error signal, taken
    instead of a ``dy``.
    """

    build: Callable
    forward: Callable | None = None
    backward: Callable | None = None
    seeds: bool = False


def _unary(net, impl, xs, training, targets, op):
    return impl.forward(xs[0])


def _windowed(net, impl, xs, training, targets, op):
    return impl.forward(xs[0], *net._window("fwd", op, op.window, xs[0], impl))


def _dx_only(net, impl, dy, saved, op):
    return impl.backward(dy, saved), None


def _grads(dw, db) -> dict:
    return {"w": dw} if db is None else {"w": dw, "b": db}


def _fc_backward(net, impl, dy, saved, op):
    dx, dw, db = impl.backward(dy, saved, op.need_dx)
    return dx, _grads(dw, db)


def _conv_backward(net, impl, dy, saved, op):
    g = ex = None
    if op.need_dx:
        # Post the dy halo exchange before Eq. 2: the filter convolution
        # needs no remote data, so the strips travel behind it.
        g, ex = net._window("bwd", op, transposed_window(op.window), dy, impl)
    dx, dw, db = impl.backward(dy, saved, g, ex)
    return dx, _grads(dw, db)


def _pool_backward(net, impl, dy, saved, op):
    """The layer's extended-region gradient folded into its input's
    placement: scatter-added to the owners — the forward gather read
    backwards — when the schedule has the reverse halo, else all of it is
    this rank's own (its virtual-padding part clipped away)."""
    g = window_geometry(impl.grid.coords, *op.window)
    dx_ext = impl.backward(dy, saved)
    dist, shape = op.window[0]
    dx = DistTensor.zeros(impl.grid, dist, shape, dtype=dy.dtype)
    if net._sched.halo("bwd", op.name) is not None:
        dx.start_scatter_region_add(dx_ext, g.lo, plan=g.plan).finish()
    else:
        offset = tuple(lo - b for lo, (b, _) in zip(g.lo, dx.bounds))
        place_region(dx.local, dx_ext, offset, accumulate=True)
    # Replicated output dims mean every replica scattered identical
    # contributions into disjoint replica groups — already consistent.
    return dx, None


def _bn_backward(net, impl, dy, saved, op):
    dx, dgamma, dbeta = impl.backward(dy, saved, op.need_dx, net._group("bwd", op)[0])
    return dx, {"gamma": dgamma, "beta": dbeta}


def _loss_forward(net, impl, xs, training, targets, op):
    if targets is None:
        return xs[0], None
    # Only a forward that keeps saved state builds the seed backward reads.
    net.loss, seed = impl.forward_loss(
        xs[0], targets, net._group("fwd", op)[0], need_seed=training
    )
    return xs[0], seed


def _loss(cls) -> _Kind:
    return _Kind(
        lambda net, layer, grid, p: cls(grid),
        _loss_forward,
        lambda net, impl, dy, seed, op: (seed, None),
        seeds=True,
    )


_KINDS: dict[str, _Kind] = {
    "input": _Kind(lambda net, layer, grid, p: None),
    "conv": _Kind(
        lambda net, layer, grid, p: DistConv2d(
            grid, p["w"], *window_params(layer)[1:], bias=p.get("b")
        ),
        _windowed,
        _conv_backward,
    ),
    "pool": _Kind(
        lambda net, layer, grid, p: DistPool2d(
            grid, layer.get("mode", "max"), *window_params(layer)
        ),
        _windowed,
        _pool_backward,
    ),
    "bn": _Kind(
        lambda net, layer, grid, p: DistBatchNorm(
            grid, p["gamma"], p["beta"], momentum=layer.get("momentum", 0.9)
        ),
        lambda net, impl, xs, training, targets, op: impl.forward(
            xs[0], training, *net._group("fwd", op)
        ),
        _bn_backward,
    ),
    "relu": _Kind(lambda net, layer, grid, p: DistReLU(grid), _unary, _dx_only),
    "gap": _Kind(
        lambda net, layer, grid, p: DistGlobalAvgPool(grid),
        lambda net, impl, xs, training, targets, op: impl.forward(
            xs[0], net._group("fwd", op)[0]
        ),
        _dx_only,
    ),
    "add": _Kind(
        lambda net, layer, grid, p: DistAdd(grid),
        lambda net, impl, xs, training, targets, op: (impl.forward(*xs), None),
        lambda net, impl, dy, saved, op: (dy, None),  # every parent gets dy itself
    ),
    "fc": _Kind(
        lambda net, layer, grid, p: DistFC(grid, p["w"], p.get("b")), _unary, _fc_backward
    ),
    "softmax_ce": _loss(DistSoftmaxCrossEntropy),
    "bce": _loss(DistBCEWithLogits),
}


class DistNetwork:
    """One rank's instance of a distributed CNN."""

    def __init__(
        self,
        spec: NetworkSpec,
        comm: Communicator,
        strategy: ParallelStrategy | LayerParallelism,
        seed: int = 0,
        dtype=np.float64,
        grad_bucket_bytes: int = DEFAULT_BUCKET_BYTES,
        collective_algorithm: str | None = None,
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
        self.grad_bucket_bytes = grad_bucket_bytes
        #: Wire algorithm for the gradient allreduces (the
        #: :meth:`~repro.comm.communicator.Communicator.allreduce` knob):
        #: None == "auto" (model-driven schedule selection); "direct" pins
        #: the bitwise-reference deposit-combine path, under which the
        #: bucket cuts never change the bits.
        self.collective_algorithm = collective_algorithm
        self.shapes = spec.infer_shapes()

        self._grids: dict[tuple[int, ...], ProcessGrid] = {}
        self.params: dict[str, dict[str, np.ndarray]] = {}
        self.grads: dict[str, dict[str, np.ndarray]] = {}
        self._layers: dict[str, object] = {}
        self._build()

        #: Lowered schedules by mini-batch size (placements depend on it);
        #: ``_sched`` is the last forward's.
        self._lowered: dict[int, StepSchedule] = {}
        self._sched: StepSchedule | None = None
        #: One gradient reducer per lowered schedule, cut by it.
        self._reducers: dict[StepSchedule, BucketedGradReducer] = {}
        #: The last forward's activations still alive: once it returns,
        #: only the network's outputs.
        self._acts: dict[str, DistTensor] = {}
        #: What the layers backward reaches saved, by name, from a training
        #: forward with targets to its backward; ``None`` at any other time.
        self._saved: dict[str, object] | None = None
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
            grid = self._grid(self.strategy.for_layer(layer.name).grid_shape)
            self._layers[layer.name] = _KINDS[layer.kind].build(
                self, layer, grid, self.params.get(layer.name, {})
            )

    # -- execution ---------------------------------------------------------------------
    def _start(self, op: ShuffleOp, tensor: DistTensor) -> ShuffleExchange:
        self.shuffle_count += 1
        return start_shuffle(
            tensor, self._grid(op.dst.grid_shape), op.dst, op.plan(self.comm.rank)
        )

    def _window(
        self, phase: str, op: LayerOp, window: tuple, source: DistTensor, impl
    ) -> tuple[WindowGeometry, RegionExchange | None]:
        """``(geometry, in-flight gather)`` of windowed layer ``impl``'s
        ``window`` on this rank.  The gather from ``source`` — staging, with
        the layer's padding value, the boundary pieces' source boxes of a
        layer that reads its interior in place, else the whole region — is
        started exactly when the schedule has ``op`` exchange a halo in
        ``phase``; otherwise it is ``None``."""
        g = window_geometry(impl.grid.coords, *window)
        if self._sched.halo(phase, op.name) is None:
            return g, None
        boxes = g.boundary_boxes if impl.in_place else None
        return g, start_region_exchange(source, g.plan, fill=impl.fill, boxes=boxes)

    def _group(self, phase: str, op: LayerOp) -> tuple[Communicator | None, tuple]:
        """``(sub-communicator, grid axes)`` of the collective the schedule
        has ``op`` block on in ``phase``; ``(None, ())`` when it has none."""
        c = self._sched.collective(phase, op.name)
        return (None, ()) if c is None else (self._grid(op.grid_shape).axes_comm(c.axes), c.axes)

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

        Each forward shuffle is started with the layer producing the
        activation — it travels behind whatever runs before its first
        consumer, which finishes it — and every consumer reads the one
        finished result (no layer mutates its input).  An activation is
        dropped once the op that :attr:`~repro.core.schedule.LayerOp.releases`
        it has run, a shuffled copy once its last consumer has.  Only a
        training forward with ``targets`` keeps what the layers saved.
        """
        if isinstance(inputs, np.ndarray):
            (inp,) = self.spec.inputs()
            inputs = {inp.name: inputs}
        n_global = np.shape(next(iter(inputs.values())))[0]
        sched = self._lowered.get(n_global)
        if sched is None:
            sched = self._lowered[n_global] = lower(self.spec, self.strategy, n_global)
        self._sched = sched
        acts: dict[str, DistTensor] = {}
        self._acts = acts
        self._saved = None
        self.loss = None
        inflight: dict[str, ShuffleExchange] = {}
        saved: dict[str, object] | None = {} if training and targets is not None else None

        for op in sched.layers:
            name = op.name
            span = _NO_SPAN  # inputs run no kernel and carry no layer span
            if op.edges:
                span = _trace.span(f"fwd:{name}", cat="layer", kind=op.kind)
            with span:
                if op.edges:
                    xs = [
                        acts[e.parent] if e.fwd is None
                        else inflight[e.fwd.op_id].finish()
                        for e in op.edges
                    ]
                    acts[name], kept = _KINDS[op.kind].forward(
                        self, self._layers[name], xs, training, targets, op
                    )
                    if saved is not None and op.runs_backward:
                        saved[name] = kept
                    del kept  # what no backward will read dies here
                else:  # an input: shard the global array
                    acts[name] = DistTensor.from_global(
                        self._grid(op.grid_shape), op.out,
                        np.asarray(inputs[name], dtype=self.dtype),
                    )
                for s in op.starts:
                    inflight[s.op_id] = self._start(s, acts[name])
                for e in op.edges:
                    if e.fwd is not None and e.fwd.consumers[-1] == name:
                        inflight.pop(e.fwd.op_id, None)
                for p in op.releases:
                    del acts[p]
        self._saved = saved
        return self.loss

    def _reducer(self) -> BucketedGradReducer:
        """The gradient reducer of the current schedule: its buckets are
        the schedule's cuts at ``grad_bucket_bytes``."""
        reducer = self._reducers.get(self._sched)
        if reducer is None:
            cuts = self._sched.grad_buckets(
                self.grad_bucket_bytes, np.dtype(self.dtype).itemsize
            )
            reducer = self._reducers[self._sched] = BucketedGradReducer(
                cuts, self.params, algorithm=self.collective_algorithm
            )
        return reducer

    def backward(self, optimizer=None) -> dict[str, dict[str, np.ndarray]]:
        """Backpropagate and complete weight gradients with allreduces —
        or, given an ``optimizer``, update the parameters with them.

        Walks the schedule's backward list — only layers that need an error
        signal (:meth:`~repro.nn.graph.NetworkSpec.needs_error_signal`);
        one whose parents need none runs with ``need_dx=False``: no Eq. 3,
        no error-signal halo exchange or shuffle.  A layer's ``dx`` goes to
        each parent that wants one, through the edge's backward shuffle
        when the placements differ; the shuffle is *started* before the
        layer's own gradient bucketing and finished when the parent folds
        it in.  Contributions are folded in the schedule's order, however
        their messages arrive.  A single contribution is taken by reference
        (no copy); a second one allocates the sum, later ones add into it —
        the rule of ``LocalNetwork.backward``.

        Each layer's partials are queued on a bucketed nonblocking reducer
        as soon as its filter gradients are computed; each bucket's
        allreduce runs concurrently with the backpropagation that fills
        the next one, and launching a bucket completes the one before it
        (``completes`` of :class:`~repro.core.schedule.GradBucket`), so a
        rank holds at most two buckets' gradients — the one in flight and
        the one being filled.  The last ones are drained just before
        returning.

        With an ``optimizer`` (what :class:`~repro.core.trainer.DistTrainer`
        passes), its step is fused into the reduction: each rank updates
        the slices of a bucket whose fold it finished, as soon as it
        finishes them, and the allgather half carries the updated weights
        (:mod:`repro.core.grad_reducer`).  No complete gradient is ever
        assembled then, so the returned dict is empty — the parameters are
        bitwise those of ``backward()`` followed by ``optimizer.step``.
        """
        saved, self._saved = self._saved, None
        if saved is None:
            raise RuntimeError(
                "backward() before forward() or after an evaluation forward: it "
                "reads what one training forward with targets saved"
            )
        #: Per-layer error contributions (DistTensor or in-flight
        #: ShuffleExchange), in the order backward produced them.
        pending: dict[str, list] = {}
        reducer = self._reducer()
        reducer.optimizer = optimizer

        for op in self._sched.backward:
            name = op.name
            kind = _KINDS[op.kind]
            with _trace.span(f"bwd:{name}", cat="layer", kind=op.kind):
                dy = None
                for i, entry in enumerate(pending.pop(name, ())):
                    part = entry.finish() if isinstance(entry, ShuffleExchange) else entry
                    if i == 0:
                        dy = part  # by reference: the producer's dx itself
                    elif i == 1:
                        # A fork: the sum is a new tensor this loop owns (the
                        # additions copy-then-+= performed), parts untouched.
                        dy = DistTensor(
                            part.grid, part.dist, part.global_shape,
                            dy.local + part.local,
                        )
                    else:
                        dy.local += part.local
                if dy is None and not kind.seeds:
                    continue  # no path to the loss
                dx, g = kind.backward(self, self._layers[name], dy, saved.pop(name), op)
                # The dx shuffle first: it is in flight while the reducer
                # coalesces and launches this layer's gradient allreduce.
                for e in op.edges:
                    if not e.wants_dx:
                        continue
                    entry = dx if e.bwd is None else self._start(e.bwd, dx)
                    pending.setdefault(e.parent, []).append(entry)
                if g is None:
                    continue
                comm = None
                if op.grad_group is not None:
                    comm = self._grid(op.grid_shape).axes_comm(op.grad_group[2])
                reducer.add(name, g, comm)

        self.grads = reducer.drain()
        return self.grads

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
        self, inputs, targets, optimizer=None
    ) -> tuple[float, dict[str, dict[str, np.ndarray]]]:
        loss = self.forward(inputs, targets=targets, training=True)
        if loss is None:
            raise RuntimeError("network has no loss layer or targets missing")
        return loss, self.backward(optimizer=optimizer)

    def gather_activation(self, name: str) -> np.ndarray:
        """Assemble a network output's global value, as the last forward
        left it, on every rank (collective; a test and example helper).

        A step keeps only the outputs (:meth:`NetworkSpec.outputs
        <repro.nn.graph.NetworkSpec.outputs>`, typically the loss, which
        forwards its logits): every other activation is released after its
        last forward reader, so asking for one raises ``ValueError``."""
        act = self._acts.get(name)
        if act is None:
            raise ValueError(
                f"{name!r} is not held after forward: a step keeps only the "
                f"network's outputs ({', '.join(map(repr, self._acts)) or 'none yet'})"
            )
        return act.to_global()
