"""Distributed execution of a :class:`NetworkSpec` under a parallel strategy.

This is the LBANN-analogue training pipeline (paper §IV).  A step is
:func:`repro.core.schedule.lower` plus one interpreter: the schedule says
which layers run (and which run backward, with or without a ``dx``), which
edges redistribute (§III-C shuffles, one per parent and target placement)
and which gradient group each layer's dL/dw partials are summed over
(paper Eq. 2); :meth:`DistNetwork.forward` / :meth:`DistNetwork.backward`
walk that list, looking each layer kind up in one table (``_KINDS``).

A flag is a placement rule.  Every transfer is a ``start`` and a
``finish()`` of one implementation, so the flags move a call and change no
arithmetic — all eight combinations are bitwise equal under
``collective_algorithm="direct"`` (``tests/test_dist_network.py``):

* ``overlap_shuffle`` — a forward shuffle starts with the layer that
  produces the activation (and is finished by its first consumer), or
  starts and finishes with that first consumer; a backward shuffle is
  finished by the parent that folds it in, or right where it starts.
* ``overlap_grad_reduce`` — the bucketed reducer
  (:class:`~repro.core.grad_reducer.BucketedGradReducer`) is drained once
  after the last layer, or after every layer's ``add``.
* ``overlap_halo`` — passed to the windowed layers, which place their halo
  exchange's ``finish()`` after or before the interior kernel (§IV-A).

When engine and performance model disagree about *what* a step does, they
cannot: the cost model, simulator, memory model and analyzer read the same
op list — diff ``lower(spec, strategy, n)``.

Activations and error signals travel **by reference**.  A layer's output is
handed to every consumer as is; a layer's ``dx`` *is* its parent's ``dy``
(an ``add`` hands the same array to all its parents), and only a parent with
several consumers sums into a tensor of its own.  Layers keep what they need
for backward the same way: a batch-norm cache and a convolution's gathered
input (:func:`~repro.tensor.halo.local_region`) alias the live activation
whenever no padding or remote data is involved.  All of it rests on one
invariant: **no layer writes to its input or to the error signal it is
given** — what a layer computes goes into a fresh array, what it does not
compute it passes through untouched.  The only in-place update of an error
signal is :meth:`DistNetwork.backward`'s own accumulation, and that touches
nothing but a sum it allocated itself.

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

from repro.comm.buffers import BufferPool
from repro.comm.communicator import Communicator
from repro.nn import init as I
from repro.nn.graph import NetworkSpec
from repro.obs import tracer as _trace
from repro.tensor.dist_tensor import DistTensor
from repro.tensor.grid import ProcessGrid
from repro.tensor.shuffle import ShuffleExchange, start_shuffle
from repro.core.parallelism import LayerParallelism, ParallelStrategy
from repro.core.dist_conv import DistConv2d
from repro.core.grad_reducer import DEFAULT_BUCKET_BYTES, BucketedGradReducer
from repro.core.schedule import ShuffleOp, StepSchedule, lower
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
    ``forward(net, impl, xs, training, targets)`` returns its output;
    ``backward(impl, dy, need_dx)`` returns ``(dx, grads)`` — one ``dx``
    for every parent, ``grads`` the dL/dw partials or ``None``.  A loss
    ``seeds`` backward from its own cache instead of taking a ``dy``.
    """

    build: Callable
    forward: Callable | None = None
    backward: Callable | None = None
    seeds: bool = False


def _unary(net, impl, xs, training, targets):
    return impl.forward(xs[0])


def _dx_only(impl, dy, need_dx):
    return impl.backward(dy), None


def _weights(impl, dy, need_dx):
    dx, dw, db = impl.backward(dy, need_dx)
    return dx, ({"w": dw} if db is None else {"w": dw, "b": db})


def _bn_backward(impl, dy, need_dx):
    dx, dgamma, dbeta = impl.backward(dy, need_dx)
    return dx, {"gamma": dgamma, "beta": dbeta}


def _loss_forward(net, impl, xs, training, targets):
    if targets is not None:
        net.loss = impl.forward_loss(xs[0], targets)
    return xs[0]


def _loss(cls) -> _Kind:
    return _Kind(
        lambda net, layer, grid, p: cls(grid),
        _loss_forward,
        lambda impl, dy, need_dx: (impl.backward(), None),
        seeds=True,
    )


_KINDS: dict[str, _Kind] = {
    "input": _Kind(lambda net, layer, grid, p: None),
    "conv": _Kind(
        lambda net, layer, grid, p: DistConv2d(
            grid,
            p["w"],
            stride=layer.get("stride", 1),
            pad=layer.get("pad", 0),
            bias=p.get("b"),
            overlap_halo=net.overlap_halo,
        ),
        _unary,
        _weights,
    ),
    "pool": _Kind(
        lambda net, layer, grid, p: DistPool2d(
            grid,
            layer.get("mode", "max"),
            layer.params["kernel"],
            layer.get("stride", layer.params["kernel"]),
            layer.get("pad", 0),
            overlap_halo=net.overlap_halo,
        ),
        _unary,
        _dx_only,
    ),
    "bn": _Kind(
        lambda net, layer, grid, p: DistBatchNorm(
            grid, p["gamma"], p["beta"], aggregate=net.bn_aggregate,
            momentum=layer.get("momentum", 0.9),
        ),
        lambda net, impl, xs, training, targets: impl.forward(xs[0], training=training),
        _bn_backward,
    ),
    "relu": _Kind(lambda net, layer, grid, p: DistReLU(grid), _unary, _dx_only),
    "gap": _Kind(lambda net, layer, grid, p: DistGlobalAvgPool(grid), _unary, _dx_only),
    "add": _Kind(
        lambda net, layer, grid, p: DistAdd(grid),
        lambda net, impl, xs, training, targets: impl.forward(*xs),
        lambda impl, dy, need_dx: (dy, None),  # every parent gets dy itself
    ),
    "fc": _Kind(
        lambda net, layer, grid, p: DistFC(grid, p["w"], p.get("b")), _unary, _weights
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
        #: a segmented bucket pipelines its fold, one segment on the wire
        #: while the previous one is reduced.
        self.grad_segment_bytes = grad_segment_bytes
        self.shapes = spec.infer_shapes()
        # Recycles the staged shuffle send payloads across steps (deferred
        # reclamation once the receivers drop their zero-copy views).
        self._shuffle_pool = BufferPool()

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
        self._acts: dict[str, DistTensor] = {}
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
            tensor, self._grid(op.dst.grid_shape), op.dst, pool=self._shuffle_pool
        )

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

        Each forward shuffle is started at its launch site — with the layer
        producing the activation (``overlap_shuffle``, the default: it
        travels behind whatever runs before its first consumer), else with
        that first consumer, finished on the spot — and every consumer
        reads the one finished result (no layer mutates its input).
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
        self.loss = None
        inflight: dict[str, ShuffleExchange] = {}

        def launch(s: ShuffleOp) -> ShuffleExchange:
            ex = inflight[s.op_id] = self._start(s, acts[s.parent])
            return ex

        for op in sched.layers:
            name = op.name
            span = _NO_SPAN  # inputs run no kernel and carry no layer span
            if op.edges:
                span = _trace.span(f"fwd:{name}", cat="layer", kind=op.kind)
            with span:
                if not self.overlap_shuffle:
                    for s in op.issues:
                        launch(s).finish()
                if op.edges:
                    xs = [
                        acts[e.parent] if e.fwd is None
                        else inflight[e.fwd.op_id].finish()
                        for e in op.edges
                    ]
                    acts[name] = _KINDS[op.kind].forward(
                        self, self._layers[name], xs, training, targets
                    )
                else:  # an input: shard the global array
                    acts[name] = DistTensor.from_global(
                        self._grid(op.grid_shape), op.out,
                        np.asarray(inputs[name], dtype=self.dtype),
                    )
                if self.overlap_shuffle:
                    for s in op.starts:
                        launch(s)
        return self.loss

    def _reducer(self) -> BucketedGradReducer:
        """The gradient reducer of the current schedule: its buckets are
        the schedule's cuts — one per layer when ``overlap_grad_reduce`` is
        off, so draining after every layer reduces each on its own."""
        reducer = self._reducers.get(self._sched)
        if reducer is None:
            cuts = self._sched.grad_buckets(
                self.grad_bucket_bytes if self.overlap_grad_reduce else 1,
                np.dtype(self.dtype).itemsize,
            )
            reducer = self._reducers[self._sched] = BucketedGradReducer(
                cuts, self.params,
                algorithm=self.collective_algorithm,
                segment_bytes=self.grad_segment_bytes,
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
        it in (``overlap_shuffle``), else where it starts.  Contributions
        are folded in arrival order either way, so both placements perform
        identical floating-point additions.  A single contribution is taken
        by reference (no copy); a second one allocates the sum, later ones
        add into it — the rule of ``LocalNetwork.backward``.

        Each layer's partials are queued on a bucketed nonblocking reducer
        as soon as its filter gradients are computed; with
        ``overlap_grad_reduce`` (the default) the allreduces run
        concurrently with the rest of backpropagation and are drained just
        before returning, otherwise the reducer is drained after every
        layer.

        With an ``optimizer`` (what :class:`~repro.core.trainer.DistTrainer`
        passes), its step is fused into the reduction: each rank updates
        the slices of a bucket whose fold it finished, as soon as it
        finishes them, and the allgather half carries the updated weights
        (:mod:`repro.core.grad_reducer`).  No complete gradient is ever
        assembled then, so the returned dict is empty — the parameters are
        bitwise those of ``backward()`` followed by ``optimizer.step``.
        """
        grads: dict[str, dict[str, np.ndarray]] = {}
        #: Per-layer error contributions (DistTensor or in-flight
        #: ShuffleExchange), in arrival order.
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
                dx, g = kind.backward(self._layers[name], dy, op.need_dx)
                # The dx shuffle first: it is in flight while the reducer
                # coalesces and launches this layer's gradient allreduce.
                for e in op.edges:
                    if not e.wants_dx:
                        continue
                    entry = dx
                    if e.bwd is not None:
                        entry = self._start(e.bwd, dx)
                        if not self.overlap_shuffle:
                            entry.finish()
                    pending.setdefault(e.parent, []).append(entry)
                if g is None:
                    continue
                comm = None
                if op.grad_group is not None:
                    comm = self._grid(op.grid_shape).axes_comm(op.grad_group[2])
                reducer.add(name, g, comm)
                if not self.overlap_grad_reduce:
                    grads.update(reducer.drain())

        grads.update(reducer.drain())
        self.grads = grads
        return grads

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
        """Assemble a layer's global output on every rank (test helper)."""
        return self._acts[name].to_global()
