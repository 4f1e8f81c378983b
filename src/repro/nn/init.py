"""Deterministic parameter initialization.

Parameters are seeded per layer *name*, not per creation order, so the
single-device reference network and the distributed network initialize
bitwise-identically — the precondition for the exactness tests ("our
algorithms exactly replicate convolution as if it were performed on a
single GPU", paper §III).
"""

from __future__ import annotations

import zlib

import numpy as np


def _layer_rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng((seed, zlib.crc32(name.encode())))


def he_normal(
    shape: tuple[int, ...], fan_in: int, seed: int, name: str
) -> np.ndarray:
    """He et al. initialization (the ResNet paper's scheme)."""
    std = np.sqrt(2.0 / max(fan_in, 1))
    return _layer_rng(seed, name).standard_normal(shape) * std


def init_params(
    spec, shapes: dict, seed: int, dtype
) -> dict[str, dict[str, np.ndarray]]:
    """Initial parameters of every conv / BN / FC layer of ``spec``.

    ``shapes`` is ``spec.infer_shapes()``.  The single-device reference
    (:class:`~repro.nn.network.LocalNetwork`) and the engine
    (:class:`~repro.core.dist_network.DistNetwork`) both build their
    parameters here, so the rules — kernel pair, ``bias`` defaulting to
    off for conv and on for FC, the dtype cast — cannot drift apart.
    """
    params: dict[str, dict[str, np.ndarray]] = {}
    for layer in spec:
        # Cast each array as it is drawn: the float64 draw of one layer must
        # not outlive the next layer's (MB-scale temporaries otherwise stack).
        if layer.kind == "conv":
            c_in = shapes[layer.parents[0]][0]
            k = layer.params["kernel"]
            kh, kw = (k, k) if isinstance(k, int) else k
            filters = layer.params["filters"]
            p = {
                "w": he_normal(
                    (filters, c_in, kh, kw), c_in * kh * kw, seed, layer.name
                ).astype(dtype)
            }
            if layer.params.get("bias", False):
                p["b"] = np.zeros(filters, dtype=dtype)
        elif layer.kind == "bn":
            c = shapes[layer.parents[0]][0]
            p = {"gamma": np.ones(c, dtype=dtype), "beta": np.zeros(c, dtype=dtype)}
        elif layer.kind == "fc":
            c, h, w = shapes[layer.parents[0]]
            units = layer.params["units"]
            p = {
                "w": he_normal(
                    (units, c * h * w), c * h * w, seed, layer.name
                ).astype(dtype)
            }
            if layer.params.get("bias", True):
                p["b"] = np.zeros(units, dtype=dtype)
        else:
            continue
        params[layer.name] = p
    return params
