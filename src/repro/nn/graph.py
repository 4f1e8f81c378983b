"""Declarative network specifications shared across executors.

A :class:`NetworkSpec` is the single description of a CNN consumed by three
independent subsystems:

* :class:`repro.nn.network.LocalNetwork` — single-device reference execution;
* :class:`repro.core.dist_network.DistNetwork` — distributed execution under
  a parallel execution strategy (per-layer distributions);
* :mod:`repro.perfmodel` — per-layer cost and memory modeling, and the
  strategy optimizer of the paper's §V.

Networks are DAGs ("we think of a CNN as a directed acyclic graph, where a
layer may have multiple parents or children", §II-C): residual connections
are ``add`` layers with two parents.  Layers must be added parents-first,
which makes insertion order a topological order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

#: Layer kinds understood by all executors.
LAYER_KINDS = frozenset(
    {"input", "conv", "pool", "bn", "relu", "fc", "gap", "add", "softmax_ce", "bce"}
)


@dataclass(frozen=True)
class LayerSpec:
    """One layer: a kind, hyperparameters, and parent layer names."""

    name: str
    kind: str
    params: dict = field(default_factory=dict)
    parents: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in LAYER_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r} for {self.name!r}")
        object.__setattr__(self, "parents", tuple(self.parents))

    def get(self, key: str, default=None):
        return self.params.get(key, default)


class NetworkSpec:
    """An ordered DAG of :class:`LayerSpec` with shape inference."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._layers: dict[str, LayerSpec] = {}

    # -- construction -----------------------------------------------------------
    def add(self, name: str, kind: str, parents: Iterable[str] = (), **params) -> str:
        """Append a layer (parents must already exist). Returns ``name``."""
        if name in self._layers:
            raise ValueError(f"duplicate layer name {name!r}")
        if kind not in LAYER_KINDS:
            raise ValueError(f"unknown layer kind {kind!r} for {name!r}")
        parents = tuple(parents)
        for p in parents:
            if p not in self._layers:
                raise ValueError(f"layer {name!r} references unknown parent {p!r}")
        if kind == "input" and parents:
            raise ValueError("input layers cannot have parents")
        if kind != "input" and not parents:
            raise ValueError(f"layer {name!r} of kind {kind!r} needs a parent")
        self._layers[name] = LayerSpec(name, kind, dict(params), parents)
        return name

    # -- access -----------------------------------------------------------------
    def __getitem__(self, name: str) -> LayerSpec:
        return self._layers[name]

    def __contains__(self, name: str) -> bool:
        return name in self._layers

    def __len__(self) -> int:
        return len(self._layers)

    def __iter__(self) -> Iterator[LayerSpec]:
        return iter(self._layers.values())

    @property
    def layer_names(self) -> list[str]:
        return list(self._layers)

    def topo_order(self) -> list[LayerSpec]:
        """Topological order (== insertion order by construction)."""
        return list(self._layers.values())

    def children_of(self, name: str) -> list[str]:
        return [layer.name for layer in self._layers.values() if name in layer.parents]

    def inputs(self) -> list[LayerSpec]:
        return [layer for layer in self._layers.values() if layer.kind == "input"]

    def outputs(self) -> list[LayerSpec]:
        """Layers with no children (typically the loss)."""
        with_children = {p for layer in self._layers.values() for p in layer.parents}
        return [layer for layer in self._layers.values() if layer.name not in with_children]

    def needs_error_signal(self) -> frozenset[str]:
        """Names of the layers backpropagation has to reach: a layer needs an
        error signal iff it has parameters or a parent that needs one.

        Everything that builds a backward pass asks this one predicate — the
        executors compute no ``dx`` for (and route none to) a parent outside
        the set, and the performance, simulation and memory models charge
        none — so inputs, and parameter-free layers between an input and
        the first parameterised layer, cost nothing in backward.
        """
        shapes = self.infer_shapes()
        need: set[str] = set()
        for layer in self.topo_order():
            if self.param_count(layer.name, shapes) or any(
                p in need for p in layer.parents
            ):
                need.add(layer.name)
        return frozenset(need)

    # -- shape inference --------------------------------------------------------
    def infer_shapes(self) -> dict[str, tuple[int, int, int]]:
        """Per-layer output shapes (C, H, W); the batch dim is implicit.

        Loss layers report the shape of their logits input.
        """
        from repro.nn.functional import conv2d_output_shape

        shapes: dict[str, tuple[int, int, int]] = {}
        for layer in self.topo_order():
            if layer.kind == "input":
                shapes[layer.name] = (
                    int(layer.params["channels"]),
                    int(layer.params["height"]),
                    int(layer.params["width"]),
                )
                continue
            pshape = shapes[layer.parents[0]]
            c, h, w = pshape
            if layer.kind == "conv":
                oh, ow = conv2d_output_shape(
                    (h, w),
                    layer.params["kernel"],
                    layer.params.get("stride", 1),
                    layer.params.get("pad", 0),
                )
                shapes[layer.name] = (int(layer.params["filters"]), oh, ow)
            elif layer.kind == "pool":
                oh, ow = conv2d_output_shape(
                    (h, w),
                    layer.params["kernel"],
                    layer.params.get("stride", layer.params["kernel"]),
                    layer.params.get("pad", 0),
                )
                shapes[layer.name] = (c, oh, ow)
            elif layer.kind in ("bn", "relu"):
                shapes[layer.name] = pshape
            elif layer.kind == "gap":
                shapes[layer.name] = (c, 1, 1)
            elif layer.kind == "fc":
                shapes[layer.name] = (int(layer.params["units"]), 1, 1)
            elif layer.kind == "add":
                for p in layer.parents[1:]:
                    if shapes[p] != pshape:
                        raise ValueError(
                            f"add layer {layer.name!r}: parent shapes differ "
                            f"({shapes[p]} vs {pshape})"
                        )
                shapes[layer.name] = pshape
            elif layer.kind in ("softmax_ce", "bce"):
                shapes[layer.name] = pshape
            else:  # pragma: no cover - guarded by LayerSpec
                raise AssertionError(layer.kind)
        return shapes

    # -- bookkeeping used by the performance/memory models -------------------------
    def param_count(self, name: str, shapes: dict | None = None) -> int:
        """Learnable parameter count of one layer."""
        layer = self._layers[name]
        shapes = shapes or self.infer_shapes()
        if layer.kind == "conv":
            c_in = shapes[layer.parents[0]][0]
            k = layer.params["kernel"]
            kh, kw = (k, k) if isinstance(k, int) else k
            n = int(layer.params["filters"]) * c_in * kh * kw
            if layer.params.get("bias", False):
                n += int(layer.params["filters"])
            return n
        if layer.kind == "bn":
            return 2 * shapes[layer.parents[0]][0]
        if layer.kind == "fc":
            c, h, w = shapes[layer.parents[0]]
            n = int(layer.params["units"]) * c * h * w
            if layer.params.get("bias", True):
                n += int(layer.params["units"])
            return n
        return 0

    def total_params(self) -> int:
        shapes = self.infer_shapes()
        return sum(self.param_count(layer.name, shapes) for layer in self)

    def conv_layers(self) -> list[LayerSpec]:
        return [layer for layer in self if layer.kind == "conv"]

    def summary(self) -> str:
        """Human-readable layer table."""
        shapes = self.infer_shapes()
        lines = [f"Network {self.name!r}: {len(self)} layers, "
                 f"{self.total_params():,} params"]
        for layer in self:
            c, h, w = shapes[layer.name]
            extra = ""
            if layer.kind == "conv":
                extra = (
                    f" K={layer.params['kernel']} S={layer.params.get('stride', 1)} "
                    f"P={layer.params.get('pad', 0)} F={layer.params['filters']}"
                )
            lines.append(
                f"  {layer.name:<28s} {layer.kind:<10s} "
                f"-> ({c:>4d},{h:>5d},{w:>5d}){extra}"
            )
        return "\n".join(lines)
