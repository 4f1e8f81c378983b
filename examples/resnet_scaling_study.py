"""Scaling study: where does spatial parallelism pay off? (paper §VI)

Regenerates the paper's strong-scaling Tables I-III with the calibrated
performance model — each cell printed as published | modelled, and the
speedup over the table's first column at its smallest mini-batch — and the
memory picture behind them: the quantitative version of the paper's
headline message, "exploiting parallelism within the spatial domain allows
scaling to continue beyond the mini-batch size."

Run:  python examples/resnet_scaling_study.py
"""

from repro.core.parallelism import LayerParallelism, ParallelStrategy
from repro.nn.meshnet import mesh_model_1k, mesh_model_2k
from repro.nn.resnet import build_resnet50
from repro.perfmodel import LASSEN, MemoryModel, NetworkCostModel, published


def table(title: str, spec, rows: dict, ways_list, per_group: int = 1) -> None:
    """One published table beside the model: ``rows`` maps a mini-batch size
    to its published seconds per entry of ``ways_list`` (GPUs per group of
    ``per_group`` samples)."""
    model = NetworkCostModel(spec, LASSEN)

    def modelled(n: int) -> list[float]:
        return [
            model.minibatch_time(n, ParallelStrategy.uniform(
                LayerParallelism.spatial_square(sample=n // per_group, ways=w)
            ))
            for w in ways_list
        ]

    def line(label: str, cells) -> str:
        return f"{label:>6s}" + "".join(f"{c:>19s}" for c in cells)

    header = line("N", (f"{per_group} on {w} GPU(s)" for w in ways_list))
    print("=" * len(header))
    print(f"{title}: mini-batch seconds, published | modelled")
    print("=" * len(header))
    print(header)
    for n, paper in rows.items():
        print(line(str(n), (
            f"{p:.4f} | {o:.4f}" if p is not None else "n/a"
            for p, o in zip(paper, modelled(n))
        )))
    first = min(rows)
    paper, ours = rows[first], modelled(first)
    print(line("", (
        f"{paper[0] / p:.1f}x | {ours[0] / o:.1f}x" for p, o in zip(paper, ours)
    )) + f"   <- speedup at N={first}")
    print()


def memory_story() -> None:
    print("=" * 72)
    print("Why spatial parallelism exists: the memory picture (16 GB V100)")
    print("=" * 72)
    for label, spec in (("1K mesh", mesh_model_1k()), ("2K mesh", mesh_model_2k())):
        memory = MemoryModel(spec, LASSEN)
        for ways in (1, 2, 4):
            par = LayerParallelism.spatial_square(sample=1, ways=ways)
            bd = memory.breakdown(1, ParallelStrategy.uniform(par))
            fits = "fits" if bd.total <= LASSEN.gpu.memory_bytes else "EXCEEDS 16 GB"
            print(f"  {label}, 1 sample, {ways}-way spatial: "
                  f"{bd.total / 1024**3:6.1f} GiB/GPU  ({fits})")
    bd = MemoryModel(mesh_model_2k(), LASSEN).breakdown(
        1, ParallelStrategy.uniform(LayerParallelism())
    )
    print("\n  2K mesh, one sample, no spatial parallelism — breakdown:")
    print(bd.summary())
    print()


def main() -> None:
    table("Table I — 1K mesh model", mesh_model_1k(),
          published.TABLE1, published.TABLE1_WAYS)
    table("Table II — 2K mesh model", mesh_model_2k(),
          published.TABLE2, published.TABLE2_WAYS)
    table("Table III — ResNet-50", build_resnet50(), published.TABLE3,
          published.TABLE3_WAYS, published.TABLE3_SAMPLES_PER_GROUP)
    memory_story()


if __name__ == "__main__":
    main()
