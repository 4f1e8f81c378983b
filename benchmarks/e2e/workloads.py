"""The six training jobs the end-to-end benchmark runs.

Each workload is one closed-loop training job: a network, a fixed global
batch, a parallel strategy, and the SPMD backend it runs on.  Shapes were
sized on a 2-core host so the median step lands between 50 and 150 ms (see
README.md); ``--seed`` feeds the data generator and the parameter init, and
the engine only ever sees the generated arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core import LayerParallelism, ParallelStrategy
from repro.data import MeshTanglingDataset, SyntheticImageNet
from repro.nn import NetworkSpec
from repro.nn.meshnet import build_mesh_model
from repro.nn.resnet import build_resnet_tiny

#: Distinct mini-batches generated per run; the job cycles through them.
N_BATCHES = 4

MESH_RES = 128
MESH_CHANNELS = (16, 24, 32)
RESNET_IMAGE = 32
RESNET_CLASSES = 10
WIDE_CHANNELS = 384
WIDE_HW = 2
WIDE_DEPTH = 4

Batches = list[tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[], NetworkSpec]
    data: Callable[[int, int], Batches]
    strategy: Callable[[NetworkSpec], ParallelStrategy]
    backend: str
    nranks: int
    batch: int
    hostmap: str | None = None


def _mesh_net() -> NetworkSpec:
    return build_mesh_model(
        resolution=MESH_RES,
        convs_per_block=2,
        block_channels=MESH_CHANNELS,
        name="mesh-e2e",
    )


def _mesh_data(seed: int, batch: int) -> Batches:
    ds = MeshTanglingDataset(
        resolution=MESH_RES,
        label_stride=2 ** len(MESH_CHANNELS),
        seed=seed,
    )
    return [ds.batch(batch, start=i * batch) for i in range(N_BATCHES)]


def _resnet_net() -> NetworkSpec:
    return build_resnet_tiny(RESNET_IMAGE, num_classes=RESNET_CLASSES)


def _resnet_data(seed: int, batch: int) -> Batches:
    ds = SyntheticImageNet(
        image_size=RESNET_IMAGE, num_classes=RESNET_CLASSES, seed=seed
    )
    return [ds.batch(batch, start=i * batch) for i in range(N_BATCHES)]


def _wide_net() -> NetworkSpec:
    """Few layers, MB-scale weights: the gradient allreduce is bandwidth-bound."""
    net = NetworkSpec("wide-e2e")
    net.add("input", "input", channels=WIDE_CHANNELS, height=WIDE_HW, width=WIDE_HW)
    tip = "input"
    for i in range(WIDE_DEPTH):
        net.add(f"conv{i}", "conv", [tip], filters=WIDE_CHANNELS, kernel=3, pad=1)
        net.add(f"relu{i}", "relu", [f"conv{i}"])
        tip = f"relu{i}"
    net.add("gap", "gap", [tip])
    net.add("fc", "conv", ["gap"], filters=RESNET_CLASSES, kernel=1, bias=True)
    net.add("loss", "softmax_ce", ["fc"])
    return net


def _wide_data(seed: int, batch: int) -> Batches:
    rng = np.random.default_rng(seed)
    return [
        (
            rng.standard_normal((batch, WIDE_CHANNELS, WIDE_HW, WIDE_HW)),
            rng.integers(0, RESNET_CLASSES, size=batch),
        )
        for _ in range(N_BATCHES)
    ]


def _uniform(par: LayerParallelism) -> Callable[[NetworkSpec], ParallelStrategy]:
    return lambda spec: ParallelStrategy.uniform(par)


def _spatial_then_sample(spec: NetworkSpec) -> ParallelStrategy:
    """Spatial (height=2) up to the end of ``res2*``, sample=2 after: the
    paper's §V-C strategy shape, with one §III-C shuffle at the boundary."""
    names = spec.layer_names
    cut = max(i for i, n in enumerate(names) if n.startswith("res2"))
    return ParallelStrategy(
        {
            n: LayerParallelism(height=2) if i <= cut else LayerParallelism(sample=2)
            for i, n in enumerate(names)
        }
    )


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        "mesh_serial_p1",
        "single-worker baseline of the mesh task: kernels do all the work, "
        "comm and halo code do none, so their optimisations must not move it",
        _mesh_net, _mesh_data, _uniform(LayerParallelism()),
        backend="thread", nranks=1, batch=2,
    ),
    Workload(
        "mesh_spatial_p2",
        "the paper's spatial split of large samples: halo exchange, "
        "interior/boundary kernels and BN-statistics allreduces carry the overhead",
        _mesh_net, _mesh_data, _uniform(LayerParallelism(height=2)),
        backend="process", nranks=2, batch=2,
    ),
    Workload(
        "resnet_sample_p2",
        "sample-parallel baseline: ~40 small layers, dozens of tiny blocking "
        "allreduces per step, so latency and Python dispatch dominate; no halos",
        _resnet_net, _resnet_data, _uniform(LayerParallelism(sample=2)),
        backend="process", nranks=2, batch=16,
    ),
    Workload(
        "resnet_mixed_p2_socket",
        "per-layer strategy (spatial then sample): the only workload with "
        "shuffles, and every byte crosses framed TCP instead of shared memory",
        _resnet_net, _resnet_data, _spatial_then_sample,
        backend="socket", nranks=2, batch=16, hostmap="0:A 1:B",
    ),
    Workload(
        "resnet_hybrid_p4_thread",
        "hybrid sample x spatial on 4 thread ranks: smallest world where "
        "allreduce schedules differ and gradient groups are sub-communicators",
        _resnet_net, _resnet_data, _uniform(LayerParallelism(sample=2, height=2)),
        backend="thread", nranks=4, batch=8,
    ),
    Workload(
        "wide_sample_p2",
        "same collectives as resnet_sample_p2 used the other way: ~40 MB of "
        "gradients per step in four buckets, so bandwidth matters, not message count",
        _wide_net, _wide_data, _uniform(LayerParallelism(sample=2)),
        backend="process", nranks=2, batch=8,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}
