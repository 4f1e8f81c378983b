"""Quickstart: spatial-parallel convolution that exactly replicates a
single-device result, then a few distributed training steps.

Demonstrates the paper's core claim (§III): "our algorithms exactly
replicate convolution as if it were performed on a single GPU" — here with
4 in-process ranks arranged as a 2x2 spatial grid, then as hybrid
sample x spatial parallelism for end-to-end training.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.comm import run_spmd
from repro.core import DistNetwork, DistTrainer, LayerParallelism
from repro.nn import LocalNetwork, NetworkSpec, SGD
from repro.nn import functional as F


def part1_exact_distributed_convolution() -> None:
    print("=" * 72)
    print("Part 1 — spatially partitioned convolution == single-device result")
    print("=" * 72)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1, 3, 32, 32))  # one sample, 3 channels
    w = rng.standard_normal((8, 3, 3, 3))  # 8 filters, 3x3

    y_single = F.conv2d_forward(x, w, stride=1, pad=1)

    spec = NetworkSpec("one-conv")
    spec.add("input", "input", channels=3, height=32, width=32)
    spec.add("c1", "conv", ["input"], filters=8, kernel=3, stride=1, pad=1)

    def prog(comm):
        # 4 ranks as a 1x1x2x2 grid: H and W each split in half; each rank
        # owns a 16x16 tile and exchanges 1-pixel halos with its neighbors.
        net = DistNetwork(spec, comm, LayerParallelism(height=2, width=2))
        np.copyto(net.params["c1"]["w"], w)  # the single-device weights
        net.forward(x, training=False)
        print(
            f"  rank {comm.rank}: halo bytes served: "
            f"{comm.stats.collective_bytes.get('region_data', 0)}"
        )
        return net.gather_activation("c1")

    results = run_spmd(4, prog)
    err = max(float(np.abs(r - y_single).max()) for r in results)
    print(f"  max |distributed - single device| = {err:.2e}")
    assert err < 1e-10


def tiny_segmentation_net() -> NetworkSpec:
    net = NetworkSpec("quickstart")
    net.add("input", "input", channels=3, height=32, width=32)
    net.add("c1", "conv", ["input"], filters=8, kernel=3, stride=1, pad=1)
    net.add("b1", "bn", ["c1"])
    net.add("r1", "relu", ["b1"])
    net.add("c2", "conv", ["r1"], filters=8, kernel=3, stride=2, pad=1)
    net.add("b2", "bn", ["c2"])
    net.add("r2", "relu", ["b2"])
    net.add("predict", "conv", ["r2"], filters=1, kernel=1, bias=True)
    net.add("loss", "bce", ["predict"])
    return net


def part2_hybrid_training() -> None:
    print()
    print("=" * 72)
    print("Part 2 — hybrid sample x spatial training matches local training")
    print("=" * 72)
    spec = tiny_segmentation_net()
    rng = np.random.default_rng(1)
    x = rng.standard_normal((4, 3, 32, 32))
    t = (rng.random((4, 1, 16, 16)) > 0.5).astype(float)

    # Single-device reference.
    local = LocalNetwork(spec, seed=7)
    opt = SGD(lr=0.5)
    ref_losses = []
    for _ in range(5):
        loss, grads = local.loss_and_grad(x, t)
        opt.step(local.params, grads)
        ref_losses.append(loss)

    # Hybrid: 2 sample groups x 2-way spatial = 4 ranks.
    def prog(comm):
        net = DistNetwork(
            spec, comm, LayerParallelism(sample=2, height=2, width=1), seed=7
        )
        trainer = DistTrainer(net, SGD(lr=0.5))
        return [trainer.step(x, t) for _ in range(5)]

    dist_losses = run_spmd(4, prog)[0]
    print(f"  single-device losses: {[f'{v:.6f}' for v in ref_losses]}")
    print(f"  distributed  losses: {[f'{v:.6f}' for v in dist_losses]}")
    assert np.allclose(ref_losses, dist_losses, rtol=1e-9)
    print("  bitwise-matching training trajectories (to fp accumulation).")


if __name__ == "__main__":
    part1_exact_distributed_convolution()
    part2_hybrid_training()
    print("\nQuickstart complete.")
