"""One lowered step schedule per (spec, strategy, mini-batch size).

:func:`lower` turns a :class:`~repro.nn.graph.NetworkSpec` under a
:class:`~repro.core.parallelism.ParallelStrategy` into a
:class:`StepSchedule`: the layers in topological order, each with its grid,
output placement and backward role, plus every message of the step as a
first-class op —

* one **forward shuffle** per (parent, target placement), shared by every
  child that reads the parent's activation in that placement (§III-C);
* one **backward shuffle** per redistributed edge whose parent needs an
  error signal.  A shuffle carries its tensor's global shape, so a rank's
  peers and bytes in it are its :func:`~repro.tensor.shuffle.shuffle_plan`;
* the **gradient buckets** (:meth:`StepSchedule.grad_buckets`): where each
  gradient group's dL/dw allreduces are cut;
* the **blocking collectives** (:attr:`StepSchedule.collectives`) a layer
  issues inside its window — batch-norm statistics, global average
  pooling's sums, the loss — each over the grid axes chosen here;
* the **halo exchanges** (:attr:`StepSchedule.halos`) of the windowed
  layers — convolution's input gather, its Eq. 3 error-signal gather when
  it computes a ``dx``, pooling's input gather and the scatter-add that
  reads it backwards — wherever some rank's window reads off-shard.  Each
  carries its window (:func:`~repro.core.window.window_geometry`'s key), so
  a rank's peers and bytes are the plan the layer executes.

Each layer op also says which activations die with it in forward
(:attr:`LayerOp.releases`): an activation lives until the last layer that
reads it in place has run — or, read only through shuffles, until they
have started — and the network's outputs live on.

The engine (:class:`~repro.core.dist_network.DistNetwork`) interprets this
list; the cost model, the task-graph simulator, the memory model, the
strategy optimizer's edge price and the analyzer's model table read the
same one.  The decisions a step is made of — which edges redistribute,
which layers run backward and compute a ``dx``, where a gradient bucket is
cut, which ranks a collective spans and which windows exchange a halo —
are each taken here and nowhere else, so a model cannot charge a message
the engine does not send.  The single-process
:class:`~repro.nn.network.LocalNetwork` deliberately does not use this
module: it is the reference the engine is checked against.

Pure data: no communicator, no tensors, no cost numbers.  Op ids are
stable strings (``fwd:shuf:{parent}->{first consumer}``,
``bwd:shuf:{child}->{parent}``, ``ar:bucket{i}:g{group size}``,
``{fwd|bwd}:{bnstats|gap|loss}:{layer}:g{group size}``,
``{fwd|bwd}:halo:{layer}``) and double as the simulator's task names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from repro.nn.functional import _pair
from repro.nn.graph import LayerSpec, NetworkSpec
from repro.tensor.distribution import Distribution
from repro.tensor.exchange import TransferPlan
from repro.tensor.shuffle import shuffle_plan
from repro.core.parallelism import ParallelStrategy, activation_dist
from repro.core.window import (
    WindowGeometry, group_plans, transposed_window, window_geometry,
)


@dataclass(frozen=True)
class ShuffleOp:
    """One redistribution of a layer's activation (forward) or of the error
    signal headed back to it (backward)."""

    op_id: str
    #: The layer whose activation / error signal moves.
    parent: str
    #: Forward: the children reading the redistributed tensor, in
    #: topological order.  Backward: the one child whose ``dx`` it carries.
    consumers: tuple[str, ...]
    src: Distribution
    dst: Distribution
    #: The global shape of the tensor that moves.
    shape: tuple[int, ...]

    def plan(self, rank: int) -> TransferPlan:
        """What ``rank`` sends and receives in this op."""
        return shuffle_plan(rank, self.src, self.dst, self.shape)

    @property
    def plans(self) -> dict[int, TransferPlan]:
        """What every rank sends and receives in this op, by rank."""
        return {r: self.plan(r) for r in range(math.prod(self.src.grid_shape))}


@dataclass(frozen=True)
class Edge:
    """One (parent -> layer) edge as the step runs it."""

    parent: str
    #: The forward shuffle delivering the parent's activation (shared with
    #: every sibling on the same placement); ``None``: read in place.
    fwd: ShuffleOp | None
    #: Does the parent need an error signal at all?
    wants_dx: bool
    #: The shuffle returning ``dx`` to the parent's placement; ``None``
    #: when none is sent or it already matches.
    bwd: ShuffleOp | None


@dataclass(frozen=True)
class LayerOp:
    name: str
    kind: str
    grid_shape: tuple[int, ...]
    #: Placement of the output.
    out: Distribution
    edges: tuple[Edge, ...]
    #: The shuffles of this layer's output, one per target placement —
    #: launched with the producer, they travel behind whatever runs before
    #: their first consumer.
    starts: tuple[ShuffleOp, ...]
    #: Backward reaches this layer / it computes an input gradient.
    runs_backward: bool
    need_dx: bool
    param_count: int
    #: Gradient-group identity ``(size, grid shape, split axes)`` — the
    #: sub-communicator its dL/dw partials are summed over (paper Eq. 2);
    #: ``None`` when there is nothing to reduce.
    grad_group: tuple | None
    #: A convolution's or pooling's forward window, which the engine hands
    #: the layer: the arguments of :func:`~repro.core.window.window_geometry`
    #: after the rank's coordinates.  ``None`` for other kinds.
    window: tuple | None = None
    #: The activations forward drops once this op has run: the parents it
    #: is the last to read in place, and its own output when every reader
    #: takes it through a shuffle.  A network output is never released.
    releases: tuple[str, ...] = ()


@dataclass(frozen=True)
class CollectiveOp:
    """One blocking allreduce a layer issues inside its window."""

    op_id: str
    layer: str
    #: The grid axes it spans (a sub-grid of the layer's), of ``group`` > 1 ranks.
    axes: tuple[int, ...]
    group: int
    #: Payload in elements on the largest block (the critical-path rank).
    elems: int


@dataclass(frozen=True)
class HaloOp:
    """One halo exchange of a windowed layer: the gather its window plans,
    or — ``reverse`` — that plan read backwards (pooling's scatter-add)."""

    op_id: str
    layer: str
    #: :func:`~repro.core.window.window_geometry`'s arguments after the
    #: rank's coordinates.
    window: tuple
    reverse: bool = False

    def geometry(self, coords: tuple[int, ...]) -> WindowGeometry:
        """The window as the rank at grid ``coords`` runs it."""
        return window_geometry(coords, *self.window)

    def plan(self, coords: tuple[int, ...]) -> TransferPlan:
        """What the rank at ``coords`` sends and receives in this op."""
        plan = self.geometry(coords).plan
        return plan.reversed() if self.reverse else plan

    @property
    def plans(self) -> dict[tuple[int, ...], TransferPlan]:
        """What each rank of the first sample group sends and receives in
        this op, by grid coordinates.  A window never crosses the sample
        axis and every group splits space alike, so these are every plan of
        the op, up to the sample coordinate."""
        plans = group_plans(0, *self.window)[1]
        if not self.reverse:
            return plans
        return {coords: plan.reversed() for coords, plan in plans.items()}


@dataclass(frozen=True)
class GradBucket:
    """One dL/dw allreduce: the layers coalesced into it, in backward
    order.  ``full`` buckets launch right after their last layer; the
    remainders launch at the final drain, in the order they were opened.

    Launching a bucket completes the one launched before it (``completes``,
    its launch-order index; ``None`` for the first), and with it every
    earlier one: at most one bucket is in flight, so a rank holds at most two
    buckets' gradients — the one in flight and the one being filled.  The
    engine's reducer waits there and the cost model draws the edge there."""

    op_id: str
    group: tuple
    layers: tuple[str, ...]
    nbytes: float
    full: bool
    completes: int | None


def backward_set(spec: NetworkSpec) -> tuple[frozenset[str], frozenset[str]]:
    """``(runs_backward, need_dx)``: the layers backward reaches (those
    needing an error signal), and those among them with a parent that
    needs one — the rest compute parameter gradients only (no backward-data
    kernel, no error-signal halo or shuffle).  A function of the spec
    alone, for callers that cost a layer without a strategy at hand."""
    needs = spec.needs_error_signal()
    need_dx = frozenset(
        layer.name for layer in spec if any(p in needs for p in layer.parents)
    )
    return needs, need_dx


@lru_cache(maxsize=None)
def grad_axes(grid_shape: tuple[int, ...], shape: tuple[int, ...]) -> tuple[int, ...]:
    """The grid axes a layer's dL/dw partials are summed over (paper Eq. 2):
    those along which its output, of global ``shape``, is partitioned."""
    out = activation_dist(grid_shape, shape)
    return tuple(d for d in range(out.ndim) if out.is_split(d))


def cut_buckets(
    contributions: Iterable[tuple[str, tuple, float]], bucket_bytes: float
) -> list[GradBucket]:
    """The bucket-cut rule over ``(layer, group key, nbytes)`` in backward
    order: a group's consecutive gradients coalesce until the bucket
    reaches ``bucket_bytes`` (a bigger tensor still goes out whole), and
    what is left is flushed at the end.  ``key[0]`` is the group size.
    Returned in launch order."""
    cuts: list[GradBucket] = []
    open_: dict[tuple, tuple[float, list[str]]] = {}

    def close(key: tuple, full: bool) -> None:
        nbytes, layers = open_.pop(key)
        i = len(cuts)
        cuts.append(
            GradBucket(
                f"ar:bucket{i}:g{key[0]}", key, tuple(layers), nbytes, full,
                i - 1 if i else None,
            )
        )

    for layer, key, nbytes in contributions:
        total, layers = open_.get(key, (0, []))
        open_[key] = (total + nbytes, layers + [layer])
        if total + nbytes >= bucket_bytes:
            close(key, True)
    for key in list(open_):
        close(key, False)
    return cuts


class StepSchedule:
    """The lowered step: layer ops in topological order (see module doc)."""

    def __init__(
        self,
        layers: tuple[LayerOp, ...],
        collectives: dict[tuple, CollectiveOp],
        halos: dict[tuple, HaloOp],
    ) -> None:
        self.layers = layers
        self._by_name = {op.name: op for op in layers}
        #: The layers backward visits, in the order it visits them.
        self.backward = tuple(op for op in reversed(layers) if op.runs_backward)
        #: Every shuffle of one step, forward then backward, in issue order.
        self.shuffles: tuple[ShuffleOp, ...] = tuple(
            s for op in layers for s in op.starts
        ) + tuple(
            e.bwd for op in self.backward for e in op.edges if e.bwd is not None
        )
        self._collectives = collectives
        self._halos = halos
        #: Every blocking collective and every halo exchange of one step,
        #: forward then backward, in issue order.
        self.collectives: tuple[CollectiveOp, ...] = self._in_order(collectives)
        self.halos: tuple[HaloOp, ...] = self._in_order(halos)

    def _in_order(self, ops: dict[tuple, object]) -> tuple:
        return tuple(
            o
            for phase, layers in (("fwd", self.layers), ("bwd", self.backward))
            for op in layers
            if (o := ops.get((phase, op.name))) is not None
        )

    def __getitem__(self, name: str) -> LayerOp:
        return self._by_name[name]

    def collective(self, phase: str, layer: str) -> CollectiveOp | None:
        """What ``layer`` blocks on in ``phase`` (``"fwd"``/``"bwd"``), if anything."""
        return self._collectives.get((phase, layer))

    def halo(self, phase: str, layer: str) -> HaloOp | None:
        """The halo exchange of ``layer`` in ``phase``, if it has one."""
        return self._halos.get((phase, layer))

    def grad_buckets(self, bucket_bytes: float, itemsize: int) -> list[GradBucket]:
        """The dL/dw allreduces of one step for parameters of ``itemsize``
        bytes per element — what the engine's bucketed reducer launches."""
        return cut_buckets(
            (
                (op.name, op.grad_group, op.param_count * itemsize)
                for op in self.backward
                if op.grad_group is not None
            ),
            bucket_bytes,
        )


def _collectives(
    layer: LayerSpec, grid: tuple, x_shape: tuple, need_dx: bool
) -> list[tuple[str, CollectiveOp]]:
    """``[(phase, op)]``: the blocking collectives of ``layer``, reading an
    input of global shape ``x_shape`` in its placement on ``grid``.  Batch
    norm's statistics span its gradient axes — the mini-batch's statistics,
    exactly single-device batch norm — forward, and backward when it
    computes a ``dx``; global pooling's sums the split spatial axes; softmax
    cross-entropy the sample axis, per-pixel BCE every split axis."""
    x = activation_dist(grid, x_shape)
    split = tuple(d for d in range(x.ndim) if x.is_split(d))
    n_local, c = x.local_shape(x_shape, (0,) * x.ndim)[:2]
    if layer.kind == "bn":
        tag, axes, elems = "bnstats", grad_axes(grid, x_shape), 2 * c
    elif layer.kind == "gap":
        tag, axes, elems = "gap", tuple(d for d in split if d in (2, 3)), n_local * c
    elif layer.kind == "softmax_ce":
        tag, axes, elems = "loss", tuple(d for d in split if d == 0), 1
    elif layer.kind == "bce":
        tag, axes, elems = "loss", split, 1
    else:
        return []
    group = math.prod(grid[d] for d in axes)
    if group == 1:
        return []
    phases = ("fwd", "bwd") if layer.kind == "bn" and need_dx else ("fwd",)
    return [
        (ph, CollectiveOp(f"{ph}:{tag}:{layer.name}:g{group}", layer.name, axes, group, elems))
        for ph in phases
    ]


def window_params(layer: LayerSpec) -> tuple[tuple[int, int], ...]:
    """``(kernel, stride, pad)`` of a convolution or pooling layer: a
    convolution's stride defaults to 1, a pooling's to its kernel."""
    kernel = layer.params["kernel"]
    stride = layer.get("stride", 1 if layer.kind == "conv" else kernel)
    return _pair(kernel), _pair(stride), _pair(layer.get("pad", 0))


def _halos(op: LayerOp) -> list[tuple[str, HaloOp]]:
    """``[(phase, op)]``: the halo exchanges of windowed layer ``op`` in
    which some rank's window reads off-shard.  Convolution gathers its
    input forward and, when it computes a ``dx``, its error signal for
    Eq. 3 (the forward window transposed); pooling gathers forward and, when
    backward reaches it, scatter-adds along the same plan reversed."""
    phases = [("fwd", op.window, False)]
    if op.kind == "conv" and op.need_dx:
        phases.append(("bwd", transposed_window(op.window), False))
    elif op.kind == "pool" and op.runs_backward:
        phases.append(("bwd", op.window, True))
    # Every rank agrees on whether a window exchanges: ask the first.
    origin = (0,) * len(op.grid_shape)
    return [
        (phase, HaloOp(f"{phase}:halo:{op.name}", op.name, window, reverse))
        for phase, window, reverse in phases
        if window_geometry(origin, *window).exchanged
    ]


def lower(spec: NetworkSpec, strategy: ParallelStrategy, n_global: int) -> StepSchedule:
    """Lower ``spec`` under ``strategy`` for a mini-batch of ``n_global``."""
    shapes = spec.infer_shapes()
    runs_backward, need_dx = backward_set(spec)
    grids = {layer.name: strategy.for_layer(layer.name).grid_shape for layer in spec}
    gshape = {name: (n_global, *chw) for name, chw in shapes.items()}
    out = {name: activation_dist(grids[name], gshape[name]) for name in grids}

    # Which edges redistribute: those whose ends run on different grids —
    # the child reads the parent's activation in its own grid's placement
    # of that tensor.  One forward shuffle per (parent, target grid),
    # shared by every child there.
    readers: dict[tuple[str, tuple], list[str]] = {}
    for layer in spec:
        for p in layer.parents:
            if grids[layer.name] != grids[p]:
                readers.setdefault((p, grids[layer.name]), []).append(layer.name)
    fwd: dict[tuple[str, tuple], ShuffleOp] = {}
    starts: dict[str, list[ShuffleOp]] = {}
    for (p, grid), children in readers.items():
        fwd[p, grid] = shuf = ShuffleOp(
            f"fwd:shuf:{p}->{children[0]}", p, tuple(children),
            out[p], activation_dist(grid, gshape[p]), gshape[p],
        )
        starts.setdefault(p, []).append(shuf)

    # Where each activation dies in forward: after the last layer reading
    # it in place, else — every reader on another grid — after its own
    # shuffles have started.  The network's outputs stay.
    dies: dict[str, str] = {}
    for layer in spec:
        for p in layer.parents:
            if (p, grids[layer.name]) not in fwd:
                dies[p] = layer.name
            dies.setdefault(p, p)
    releases: dict[str, list[str]] = {}
    for p, at in dies.items():
        releases.setdefault(at, []).append(p)

    ops = []
    collectives: dict[tuple[str, str], CollectiveOp] = {}
    halos: dict[tuple[str, str], HaloOp] = {}
    for layer in spec:
        name = layer.name
        window = None
        if layer.parents:
            x_shape = gshape[layer.parents[0]]
            for phase, c in _collectives(layer, grids[name], x_shape, name in need_dx):
                collectives[phase, name] = c
        edges = []
        for p in layer.parents:
            shuf = fwd.get((p, grids[name]))
            back = None
            if shuf is not None and p in runs_backward:
                # The forward shuffle reversed: dx leaves in the placement
                # the forward delivered and lands in the parent's own.
                back = ShuffleOp(
                    f"bwd:shuf:{name}->{p}", p, (name,), shuf.dst, shuf.src, shuf.shape
                )
            edges.append(Edge(p, shuf, p in runs_backward, back))
        if layer.kind in ("conv", "pool"):
            # The forward window: the input where its edge delivers it, read
            # into the layer's output placement.
            p, shuf = edges[0].parent, edges[0].fwd
            source = (out[p] if shuf is None else shuf.dst), gshape[p]
            window = source, (out[name], gshape[name]), *window_params(layer), False
        axes = grad_axes(grids[name], gshape[name])
        size = math.prod(grids[name][d] for d in axes)
        params = spec.param_count(name, shapes)
        ops.append(
            LayerOp(
                name=name,
                kind=layer.kind,
                grid_shape=grids[name],
                out=out[name],
                edges=tuple(edges),
                starts=tuple(starts.get(name, ())),
                runs_backward=name in runs_backward,
                need_dx=name in need_dx,
                param_count=params,
                grad_group=(size, grids[name], axes) if params and size > 1 else None,
                window=window,
                releases=tuple(releases.get(name, ())),
            )
        )
        if window is not None:
            halos.update(((phase, name), h) for phase, h in _halos(ops[-1]))
    # Every contribution to a layer's error signal arrives in that layer's
    # own placement, so backward sums them without a further shuffle.
    assert all(
        e.bwd.dst == out[e.parent] if e.bwd else e.fwd is None
        for op in ops for e in op.edges if e.wants_dx
    )
    return StepSchedule(tuple(ops), collectives, halos)
