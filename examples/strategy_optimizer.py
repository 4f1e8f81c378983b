"""Automatically choose parallel execution strategies (paper §V-C).

Given a platform (modeled Lassen), a network, a rank budget, and a
mini-batch size, the optimizer generates candidate distributions per layer
and picks the assignment minimizing the modeled per-layer and shuffle time
exactly, by min-sum elimination over the decision layers (the paper uses a
shortest path); the pick is then checked under the full model against every
uniform strategy — "a parallel execution strategy with the fastest
end-to-end runtime".

Shows the three regimes the paper describes:
 1. plenty of samples + memory -> pure sample parallelism wins everywhere;
 2. large samples, tight memory (2K mesh) -> spatial parallelism is forced;
 3. strong scaling past the mini-batch size -> hybrid decompositions.

Run:  python examples/strategy_optimizer.py
"""

from repro.core.parallelism import LayerParallelism, ParallelStrategy
from repro.core.strategy import StrategyOptimizer
from repro.nn.meshnet import mesh_model_2k
from repro.nn.resnet import build_resnet50
from repro.perfmodel import LASSEN, MemoryModel, NetworkCostModel


def show(label: str, spec, ranks: int, n: int) -> None:
    print("=" * 72)
    print(f"{label}: {ranks} GPUs, mini-batch {n}")
    print("=" * 72)
    opt = StrategyOptimizer(spec, LASSEN, total_ranks=ranks, n_global=n)
    report = opt.optimize()
    print(f"  {report.describe()}")
    by_dist: dict[str, list[str]] = {}
    for layer in spec.conv_layers():
        d = report.strategy.for_layer(layer.name).describe()
        by_dist.setdefault(d, []).append(layer.name)
    for d, layers in by_dist.items():
        preview = ", ".join(layers[:4]) + ("..." if len(layers) > 4 else "")
        print(f"  {d:<38s} <- {len(layers):3d} conv layers ({preview})")

    # Compare against uniform baselines.
    model = NetworkCostModel(spec, LASSEN)
    memory = MemoryModel(spec, LASSEN)
    for baseline in (
        LayerParallelism(sample=min(ranks, n)),
        LayerParallelism.spatial_square(sample=max(1, min(n, ranks) // 4), ways=4)
        if ranks % 4 == 0 else None,
    ):
        if baseline is None or baseline.nranks != ranks:
            continue
        strategy = ParallelStrategy.uniform(baseline)
        feasible = memory.fits(n, strategy)
        t = model.minibatch_time(n, strategy) if feasible else float("nan")
        print(
            f"  uniform {baseline.describe():<32s} "
            + (f"{t * 1e3:9.2f} ms" if feasible else "  infeasible (memory)")
        )
    print()


def main() -> None:
    show("ResNet-50, plenty of samples", build_resnet50(), ranks=16, n=512)
    show("ResNet-50, strong-scaled past the batch", build_resnet50(), ranks=16, n=8)
    show("2K mesh model (memory-bound)", mesh_model_2k(), ranks=16, n=2)


if __name__ == "__main__":
    main()
