"""Ablation: communication/computation overlap (§IV-A).

The paper's implementation overlaps (a) halo exchanges with interior
convolution and (b) the dL/dw allreduce with backpropagation.  This
ablation quantifies both via the discrete-event simulator — including the
bucketed-allreduce variant matching the engine's
:class:`~repro.core.grad_reducer.BucketedGradReducer` — and then runs the
*real* in-process engine (gradient reducer drained after every layer vs
drained once at the end of backpropagation — the same reducer either way)
next to the simulated timeline.
"""

from time import perf_counter

import numpy as np

from repro.comm import run_spmd
from repro.core import DistNetwork, DistTrainer, LayerParallelism, ParallelStrategy
from repro.nn import NetworkSpec, SGD
from repro.nn.meshnet import mesh_model_1k, mesh_model_2k
from repro.sim import TrainingStepSimulator
from repro.perfmodel import LASSEN

try:
    from benchmarks.common import bench_main, emit, render_table
except ImportError:
    from common import bench_main, emit, render_table

CONFIGS = [
    ("1K, 4x(2x2)", mesh_model_1k, LayerParallelism(sample=4, height=2, width=2), 4),
    ("1K, 4x(4x4)", mesh_model_1k, LayerParallelism(sample=4, height=4, width=4), 4),
    ("2K, 2x(2x2)", mesh_model_2k, LayerParallelism(sample=2, height=2, width=2), 2),
    ("2K, 2x(4x4)", mesh_model_2k, LayerParallelism(sample=2, height=4, width=4), 2),
]

#: Bucket size for the simulated bucketed reducer (the mesh models carry
#: multi-MB conv gradients, so coalescing targets the BN/bias small fry).
SIM_BUCKET_BYTES = 1 << 22


def generate_overlap_ablation() -> tuple[str, list[tuple[float, float, float, float]]]:
    rows, data = [], []
    for label, spec_fn, par, n in CONFIGS:
        spec = spec_fn()
        strategy = ParallelStrategy.uniform(par)
        both = TrainingStepSimulator(spec, LASSEN).simulate(n, strategy).minibatch_time
        bucketed = TrainingStepSimulator(
            spec, LASSEN, allreduce_bucket_bytes=SIM_BUCKET_BYTES
        ).simulate(n, strategy).minibatch_time
        no_halo = TrainingStepSimulator(
            spec, LASSEN, overlap_halo=False
        ).simulate(n, strategy).minibatch_time
        no_ar = TrainingStepSimulator(
            spec, LASSEN, overlap_allreduce=False
        ).simulate(n, strategy).minibatch_time
        none = TrainingStepSimulator(
            spec, LASSEN, overlap_halo=False, overlap_allreduce=False
        ).simulate(n, strategy).minibatch_time
        data.append((both, no_halo, no_ar, none, bucketed))
        rows.append(
            [label, f"{both * 1e3:8.2f}", f"{bucketed * 1e3:8.2f}",
             f"{no_halo * 1e3:8.2f}", f"{no_ar * 1e3:8.2f}",
             f"{none * 1e3:8.2f}", f"{none / both:5.2f}x"]
        )
    text = render_table(
        "Ablation — overlap of halo exchange and allreduce (simulated ms)",
        ["config", "both", "bucketed", "no halo ovl", "no AR ovl", "neither", "benefit"],
        rows,
    )
    return text, data


def _engine_spec() -> NetworkSpec:
    net = NetworkSpec("ablation-engine")
    net.add("input", "input", channels=3, height=8, width=8)
    prev = "input"
    for i in range(6):
        net.add(f"c{i}", "conv", [prev], filters=8, kernel=3, pad=1, bias=True)
        net.add(f"r{i}", "relu", [f"c{i}"])
        prev = f"r{i}"
    net.add("gap", "gap", [prev])
    net.add("fc", "fc", ["gap"], units=10, bias=True)
    net.add("loss", "softmax_ce", ["fc"])
    return net


def generate_engine_vs_sim(nranks: int = 4, steps: int = 4) -> tuple[str, dict]:
    """Measured engine step time (reducer drained per layer vs overlapped)
    next to the simulator's prediction of the same toggle.

    The simulator models the paper's GPU cluster, the engine runs numpy
    threads on the host, so the *absolute* times differ wildly by design —
    the comparison is between the two overlap-on/overlap-off ratios.
    """
    spec = _engine_spec()
    strategy = ParallelStrategy.uniform(LayerParallelism(sample=nranks))
    rng = np.random.default_rng(3)
    x = rng.standard_normal((8, 3, 8, 8))
    t = rng.integers(0, 10, size=8)

    def measure(overlap: bool) -> float:
        def prog(comm):
            net = DistNetwork(
                spec, comm, strategy, seed=0, overlap_grad_reduce=overlap
            )
            trainer = DistTrainer(net, SGD(lr=0.05))
            trainer.step(x, t)
            comm.barrier()
            t0 = perf_counter()
            for _ in range(steps):
                trainer.step(x, t)
            return perf_counter() - t0
        return max(run_spmd(nranks, prog)) / steps

    measured_block = min(measure(False) for _ in range(2))
    measured_ovl = min(measure(True) for _ in range(2))
    sim_ovl = TrainingStepSimulator(spec, LASSEN).simulate(
        nranks, strategy
    ).minibatch_time
    sim_block = TrainingStepSimulator(
        spec, LASSEN, overlap_allreduce=False, overlap_halo=False
    ).simulate(nranks, strategy).minibatch_time
    rows = [
        ["measured (engine)", f"{measured_block * 1e3:9.3f}",
         f"{measured_ovl * 1e3:9.3f}", f"{measured_block / measured_ovl:5.2f}x"],
        ["simulated (model)", f"{sim_block * 1e3:9.3f}",
         f"{sim_ovl * 1e3:9.3f}", f"{sim_block / sim_ovl:5.2f}x"],
    ]
    text = render_table(
        f"Engine vs simulated timeline — gradient-allreduce overlap "
        f"({nranks} ranks, ms/step)",
        ["source", "blocking", "overlapped", "benefit"],
        rows,
    )
    return text, {
        "measured_blocking_s": measured_block,
        "measured_overlapped_s": measured_ovl,
        "sim_blocking_s": sim_block,
        "sim_overlapped_s": sim_ovl,
    }


def test_overlap_ablation(benchmark):
    text, data = benchmark(generate_overlap_ablation)
    emit("ablation_overlap", text)
    for both, no_halo, no_ar, none, bucketed in data:
        assert both <= no_halo + 1e-9
        assert both <= no_ar + 1e-9
        assert none >= max(no_halo, no_ar) - 1e-9
        # Bucketing trades a slightly later start for fewer latencies; it
        # must never be worse than running every allreduce serially.
        assert bucketed <= no_ar + 1e-9
    # Overlap must matter somewhere (the fine decompositions).
    assert any(none / both > 1.05 for both, _, _, none, _ in data)


def test_engine_vs_sim_overlap():
    text, data = generate_engine_vs_sim(nranks=4, steps=2)
    emit("ablation_overlap_engine", text)
    assert data["sim_overlapped_s"] <= data["sim_blocking_s"] + 1e-12
    assert data["measured_overlapped_s"] > 0


def _emit_all() -> None:
    emit("ablation_overlap", generate_overlap_ablation()[0])
    emit("ablation_overlap_engine", generate_engine_vs_sim()[0])


if __name__ == "__main__":
    bench_main(__doc__, _emit_all)
