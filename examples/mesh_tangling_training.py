"""Train a mesh-tangling segmentation model with hybrid parallelism.

The paper's motivating workload (§I, §VI): predict, per pixel, whether a
hydrodynamics mesh cell needs relaxation to prevent tangling.  The full
2048x2048 model cannot fit even one sample in 16 GB of GPU memory, which is
why spatial parallelism exists; here we train a scaled-down model of the
same structure on the synthetic mesh-tangling generator under hybrid
sample x spatial parallelism, and report loss and pixel accuracy.

Run:  python examples/mesh_tangling_training.py
"""


from repro.comm import run_spmd
from repro.core import DistNetwork, DistTrainer, LayerParallelism
from repro.data import MeshTanglingDataset
from repro.nn import SGD
from repro.nn.meshnet import build_mesh_model

RESOLUTION = 64
STEPS = 12


def build_model():
    # Same family as the paper's models (stride-2 first conv per block,
    # conv-BN-ReLU blocks, 1x1 prediction head), scaled to laptop size.
    return build_mesh_model(
        resolution=RESOLUTION,
        convs_per_block=2,
        block_channels=(16, 24),
        input_channels=18,
        name="mesh-example",
    )


def main() -> None:
    spec = build_model()
    print(spec.summary())
    shapes = spec.infer_shapes()
    _, th, tw = shapes["predict"]
    stride = RESOLUTION // th
    data = MeshTanglingDataset(
        resolution=RESOLUTION, label_stride=stride, seed=3
    )
    x, t = data.batch(4)
    print(f"\nbatch: x {x.shape}, labels {t.shape} "
          f"({t.mean() * 100:.1f}% tangling pixels)")

    parallelism = LayerParallelism(sample=2, height=2, width=1)
    print(f"parallelism: {parallelism.describe()} "
          f"({parallelism.nranks} in-process ranks)\n")

    def prog(comm):
        net = DistNetwork(spec, comm, parallelism, seed=11)
        trainer = DistTrainer(net, SGD(lr=2.0, momentum=0.9))
        history = []
        for step in range(STEPS):
            loss = trainer.step(x, t)
            # The loss forwards its logits; a step keeps only the outputs.
            logits = net.gather_activation("loss")  # collective: all ranks
            acc = float(((logits > 0) == (t > 0.5)).mean())
            history.append((loss, acc))
            if comm.rank == 0:
                print(f"  step {step:2d}  loss {loss:.4f}  pixel-acc {acc:.3f}")
        return history

    history = [h for h in run_spmd(parallelism.nranks, prog) if h][0]
    first_loss, first_acc = history[0]
    last_loss, last_acc = history[-1]
    print(f"\nloss {first_loss:.4f} -> {last_loss:.4f}; "
          f"pixel accuracy {first_acc:.3f} -> {last_acc:.3f}")
    assert last_loss < first_loss, "training did not reduce the loss"


if __name__ == "__main__":
    main()
