"""One lowered step schedule per (spec, strategy, mini-batch size).

:func:`lower` turns a :class:`~repro.nn.graph.NetworkSpec` under a
:class:`~repro.core.parallelism.ParallelStrategy` into a
:class:`StepSchedule`: the layers in topological order, each with its grid,
output placement and backward role, plus the step's communication as
first-class ops —

* one **forward shuffle** per (parent, target placement), shared by every
  child that reads the parent's activation in that placement (§III-C);
* one **backward shuffle** per redistributed edge whose parent needs an
  error signal;
* the **gradient buckets** (:meth:`StepSchedule.grad_buckets`): where each
  gradient group's dL/dw allreduces are cut.

The engine (:class:`~repro.core.dist_network.DistNetwork`) interprets this
list; the cost model, the task-graph simulator, the memory model, the
strategy optimizer's edge price and the analyzer's model table read the
same one.  The three decisions a step is made of — which edges
redistribute, which layers run backward and compute a ``dx``, and where a
gradient bucket is cut — are each taken here and nowhere else, so a model
cannot charge a transfer the engine does not make.  (The single-process
:class:`~repro.nn.network.LocalNetwork` deliberately does not use this
module: it is the reference the engine is checked against.)

Pure data: no communicator, no tensors, no cost numbers.  Op ids are
stable strings (``fwd:shuf:{parent}->{first consumer}``,
``bwd:shuf:{child}->{parent}``, ``ar:bucket{i}:g{group size}``) and double
as the simulator's task names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from repro.nn.graph import NetworkSpec
from repro.tensor.distribution import Distribution
from repro.core.parallelism import ParallelStrategy, activation_dist


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
    #: The two placements of a forward shuffle's start.  ``starts``: the
    #: shuffles of this layer's output, one per target placement — launched
    #: with the producer, they travel behind whatever runs before their
    #: first consumer.  ``issues``: those this layer is the first consumer
    #: of — launched where they are needed.
    starts: tuple[ShuffleOp, ...]
    issues: tuple[ShuffleOp, ...]
    #: Backward reaches this layer / it computes an input gradient.
    runs_backward: bool
    need_dx: bool
    param_count: int
    #: Gradient-group identity ``(size, grid shape, split axes)`` — the
    #: sub-communicator its dL/dw partials are summed over (paper Eq. 2);
    #: ``None`` when there is nothing to reduce.
    grad_group: tuple | None


@dataclass(frozen=True)
class GradBucket:
    """One dL/dw allreduce: the layers coalesced into it, in backward
    order.  ``full`` buckets launch right after their last layer; the
    remainders launch at the final drain, in the order they were opened."""

    op_id: str
    group: tuple
    layers: tuple[str, ...]
    nbytes: float
    full: bool


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
        cuts.append(
            GradBucket(
                f"ar:bucket{len(cuts)}:g{key[0]}", key, tuple(layers), nbytes, full
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

    def __init__(self, layers: tuple[LayerOp, ...]) -> None:
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

    def __getitem__(self, name: str) -> LayerOp:
        return self._by_name[name]

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
            out[p], activation_dist(grid, gshape[p]),
        )
        starts.setdefault(p, []).append(shuf)

    ops = []
    for layer in spec:
        name = layer.name
        edges = []
        for p in layer.parents:
            shuf = fwd.get((p, grids[name]))
            back = None
            if shuf is not None and p in runs_backward:
                # The forward shuffle reversed: dx leaves in the placement
                # the forward delivered and lands in the parent's own.
                back = ShuffleOp(f"bwd:shuf:{name}->{p}", p, (name,), shuf.dst, shuf.src)
            edges.append(Edge(p, shuf, p in runs_backward, back))
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
                issues=tuple(
                    e.fwd for e in edges if e.fwd and e.fwd.consumers[0] == name
                ),
                runs_backward=name in runs_backward,
                need_dx=name in need_dx,
                param_count=params,
                grad_group=(size, grids[name], axes) if params and size > 1 else None,
            )
        )
    # Every contribution to a layer's error signal arrives in that layer's
    # own placement, so backward sums them without a further shuffle.
    assert all(
        e.bwd.dst == out[e.parent] if e.bwd else e.fwd is None
        for op in ops for e in op.edges if e.wants_dx
    )
    return StepSchedule(tuple(ops))
