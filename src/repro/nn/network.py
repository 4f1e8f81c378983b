"""Single-device reference execution of a :class:`NetworkSpec`.

This is the ground truth the distributed executor is verified against: same
parameter initialization (seeded by layer name), same kernels, run on the
whole mini-batch on one "device".
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn import init as I
from repro.nn.graph import NetworkSpec


class LocalNetwork:
    """Executable single-device network with parameters and gradients."""

    def __init__(self, spec: NetworkSpec, seed: int = 0, dtype=np.float64) -> None:
        self.spec = spec
        self.seed = seed
        self.dtype = dtype
        self.shapes = spec.infer_shapes()
        self._needs_dy = spec.needs_error_signal()
        self.params: dict[str, dict[str, np.ndarray]] = {}
        self.grads: dict[str, dict[str, np.ndarray]] = {}
        self._build_params()
        self._caches: dict[str, dict] = {}
        self.activations: dict[str, np.ndarray] = {}

    def _build_params(self) -> None:
        self.params = I.init_params(self.spec, self.shapes, self.seed, self.dtype)
        # Running statistics are state, not learnable parameters.
        self._running = {
            name: {
                "mean": np.zeros_like(p["gamma"]),
                "var": np.ones_like(p["gamma"]),
            }
            for name, p in self.params.items()
            if "gamma" in p
        }

    # -- execution ---------------------------------------------------------------
    def forward(
        self,
        inputs: dict[str, np.ndarray] | np.ndarray,
        targets: np.ndarray | None = None,
        training: bool = True,
    ) -> float | dict[str, np.ndarray]:
        """Run forward; returns the loss if the network ends in a loss layer
        (and targets are given), otherwise the dict of output activations."""
        if isinstance(inputs, np.ndarray):
            (inp,) = self.spec.inputs()
            inputs = {inp.name: inputs}
        acts: dict[str, np.ndarray] = {}
        self._caches = {}
        loss_value: float | None = None

        for layer in self.spec.topo_order():
            if layer.kind == "input":
                acts[layer.name] = np.asarray(inputs[layer.name], dtype=self.dtype)
                continue
            x = acts[layer.parents[0]]
            cache: dict = {}
            if layer.kind == "conv":
                p = self.params[layer.name]
                y = F.conv2d_forward(
                    x,
                    p["w"],
                    stride=layer.params.get("stride", 1),
                    pad=layer.params.get("pad", 0),
                    bias=p.get("b"),
                )
                cache["x"] = x
            elif layer.kind == "pool":
                mode = layer.params.get("mode", "max")
                kernel = layer.params["kernel"]
                stride = layer.params.get("stride", kernel)
                pad = layer.params.get("pad", 0)
                if mode == "max":
                    y, argmax = F.maxpool2d_forward(x, kernel, stride, pad)
                    cache["argmax"] = argmax
                else:
                    y = F.avgpool2d_forward(x, kernel, stride, pad)
                cache["x_shape"] = x.shape
            elif layer.kind == "bn":
                p = self.params[layer.name]
                run = self._running[layer.name]
                if training:
                    y, bn_cache = F.batchnorm_forward(x, p["gamma"], p["beta"])
                    # The batch statistics the kernel just normalized with.
                    mom = layer.params.get("momentum", 0.9)
                    run["mean"] = mom * run["mean"] + (1 - mom) * bn_cache["mean"]
                    run["var"] = mom * run["var"] + (1 - mom) * bn_cache["var"]
                    cache["bn"] = bn_cache
                else:
                    # No cache: the training-mode backward formula does not
                    # apply to running statistics.
                    y, _ = F.batchnorm_forward(
                        x, p["gamma"], p["beta"], mean=run["mean"], var=run["var"]
                    )
            elif layer.kind == "relu":
                y, mask = F.relu_forward(x)
                cache["mask"] = mask
            elif layer.kind == "gap":
                y = F.global_avgpool_forward(x)[:, :, None, None]
                cache["x_shape"] = x.shape
            elif layer.kind == "fc":
                p = self.params[layer.name]
                flat = x.reshape(x.shape[0], -1)
                y = F.linear_forward(flat, p["w"], p.get("b"))[:, :, None, None]
                cache["flat"] = flat
                cache["x_shape"] = x.shape
            elif layer.kind == "add":
                y = x.copy()
                for q in layer.parents[1:]:
                    y += acts[q]
            elif layer.kind == "softmax_ce":
                logits = x.reshape(x.shape[0], -1)
                if targets is not None:
                    loss_value, dlogits = F.softmax_cross_entropy(logits, targets)
                    cache["dlogits"] = dlogits.reshape(x.shape)
                y = logits.reshape(x.shape)
            elif layer.kind == "bce":
                if targets is not None:
                    loss_value, dlogits = F.sigmoid_bce_with_logits(x, targets)
                    cache["dlogits"] = dlogits
                y = x
            else:  # pragma: no cover
                raise AssertionError(layer.kind)
            acts[layer.name] = y
            self._caches[layer.name] = cache

        self.activations = acts
        if loss_value is not None:
            return loss_value
        return {out.name: acts[out.name] for out in self.spec.outputs()}

    def backward(self) -> dict[str, dict[str, np.ndarray]]:
        """Backpropagate from the loss layer; returns gradients by layer.

        Error signals go only to layers that need one
        (:meth:`NetworkSpec.needs_error_signal`): a parameterised layer
        whose parent needs none computes its parameter gradients and no
        ``dx``, and the layers below it never run.
        """
        grads: dict[str, dict[str, np.ndarray]] = {}
        # dy accumulated per layer from all its children.
        dys: dict[str, np.ndarray] = {}
        needs_dy = self._needs_dy

        def accumulate(name: str, dy: np.ndarray) -> None:
            if name not in needs_dy:
                return
            if name in dys:
                dys[name] = dys[name] + dy
            else:
                dys[name] = dy

        for layer in reversed(self.spec.topo_order()):
            cache = self._caches.get(layer.name, {})
            if layer.kind in ("softmax_ce", "bce"):
                if "dlogits" not in cache:
                    raise RuntimeError(
                        f"backward() before forward() with targets for {layer.name!r}"
                    )
                accumulate(layer.parents[0], cache["dlogits"].astype(self.dtype))
                continue
            dy = dys.get(layer.name)
            if dy is None:
                continue  # needs no error signal, or no path to the loss
            x_parent = layer.parents[0]
            need_dx = x_parent in needs_dy
            if layer.kind == "conv":
                p = self.params[layer.name]
                stride = layer.params.get("stride", 1)
                pad = layer.params.get("pad", 0)
                k = layer.params["kernel"]
                x = cache["x"]
                grads[layer.name] = {
                    "w": F.conv2d_backward_filter(x, dy, kernel=k, stride=stride, pad=pad)
                }
                if "b" in p:
                    grads[layer.name]["b"] = dy.sum(axis=(0, 2, 3))
                if need_dx:
                    accumulate(
                        x_parent,
                        F.conv2d_backward_data(
                            dy, p["w"], stride=stride, pad=pad, x_spatial=x.shape[2:]
                        ),
                    )
            elif layer.kind == "pool":
                mode = layer.params.get("mode", "max")
                kernel = layer.params["kernel"]
                stride = layer.params.get("stride", kernel)
                pad = layer.params.get("pad", 0)
                if mode == "max":
                    dx = F.maxpool2d_backward(
                        dy, cache["argmax"], cache["x_shape"], kernel, stride, pad
                    )
                else:
                    dx = F.avgpool2d_backward(dy, cache["x_shape"], kernel, stride, pad)
                accumulate(x_parent, dx)
            elif layer.kind == "bn":
                if "bn" not in cache:
                    raise RuntimeError("backward() after an evaluation forward")
                dgamma, dbeta = F.batchnorm_backward_sums(dy, cache["bn"])
                grads[layer.name] = {"gamma": dgamma, "beta": dbeta}
                if need_dx:
                    m = dy.shape[0] * dy.shape[2] * dy.shape[3]
                    accumulate(
                        x_parent,
                        F.batchnorm_backward_data(dy, cache["bn"], dgamma, dbeta, m),
                    )
            elif layer.kind == "relu":
                accumulate(x_parent, F.relu_backward(dy, cache["mask"]))
            elif layer.kind == "gap":
                accumulate(
                    x_parent,
                    F.global_avgpool_backward(dy[:, :, 0, 0], cache["x_shape"]),
                )
            elif layer.kind == "fc":
                p = self.params[layer.name]
                dflat, dw, db = F.linear_backward(
                    cache["flat"], p["w"], dy[:, :, 0, 0], need_dx=need_dx
                )
                grads[layer.name] = {"w": dw}
                if "b" in p:
                    grads[layer.name]["b"] = db
                if need_dx:
                    accumulate(x_parent, dflat.reshape(cache["x_shape"]))
            elif layer.kind == "add":
                for q in layer.parents:
                    accumulate(q, dy)
            else:  # pragma: no cover
                raise AssertionError(layer.kind)

        self.grads = grads
        return grads

    def loss_and_grad(
        self, inputs, targets
    ) -> tuple[float, dict[str, dict[str, np.ndarray]]]:
        loss = self.forward(inputs, targets=targets, training=True)
        assert isinstance(loss, float)
        return loss, self.backward()
