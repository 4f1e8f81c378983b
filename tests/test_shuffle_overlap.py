"""Inter-layer shuffle placement: oracle, bitwise equivalence, accounting.

The engine launches each redistribution
(:class:`~repro.tensor.shuffle.ShuffleExchange`) when an activation is
produced and finishes it where it is consumed; ``overlap_shuffle=False``
starts and finishes it at the consumption point instead (the two launch
placements of :class:`repro.core.schedule.LayerOp`: ``starts`` / ``issues``).  Both placements
must train like the sequential algorithm (``LocalNetwork``) and — same
pieces placed into the same zero-initialized blocks — be *bitwise*
identical to each other.  These tests assert that over entire training runs
with per-layer strategies, that the wait/overlap split and traffic volumes
are recorded under the ``"shuffle"`` op, and that plans are cached across
steps.
"""

import numpy as np
import pytest

from repro.comm import run_spmd
from repro.core import DistNetwork, DistTrainer, LayerParallelism
from repro.core.parallelism import ParallelStrategy
from repro.core.schedule import lower
from repro.nn import LocalNetwork, NetworkSpec, SGD
from repro.obs.analyze import load_trace
from repro.tensor.shuffle import SHUFFLE_OP, shuffle_plan_stats


def mixed_model() -> NetworkSpec:
    spec = NetworkSpec("shuffle-eq")
    spec.add("input", "input", channels=2, height=9, width=11)
    spec.add("c1", "conv", ["input"], filters=4, kernel=3, pad=1, bias=True)
    spec.add("r1", "relu", ["c1"])
    spec.add("c2", "conv", ["r1"], filters=4, kernel=3, pad=1)
    spec.add("r2", "relu", ["c2"])
    spec.add("c3", "conv", ["r2"], filters=4, kernel=3, pad=1)
    spec.add("j", "add", ["c3", "c1"])  # skip edge crosses a strategy change
    spec.add("gap", "gap", ["j"])
    spec.add("fc", "fc", ["gap"], units=3)
    spec.add("loss", "softmax_ce", ["fc"])
    return spec


STRATEGIES = {
    "sample->spatial": ParallelStrategy(
        {
            "input": LayerParallelism(sample=4),
            "c1": LayerParallelism(sample=4),
            "r1": LayerParallelism(sample=4),
        },
        default=LayerParallelism(height=2, width=2),
    ),
    "spatial->hybrid": ParallelStrategy(
        {
            "c2": LayerParallelism(sample=2, height=2),
            "r2": LayerParallelism(sample=2, height=2),
            "c3": LayerParallelism(sample=2, height=2),
        },
        default=LayerParallelism(height=2, width=2),
    ),
}


def batch():
    rng = np.random.default_rng(0)
    return rng.standard_normal((4, 2, 9, 11)), rng.integers(0, 3, size=4)


def train_local(steps: int = 4) -> list[float]:
    """Loss trajectory of the sequential algorithm on the same batch."""
    x, t = batch()
    net = LocalNetwork(mixed_model(), seed=0)
    opt = SGD(lr=0.05)
    losses = []
    for _ in range(steps):
        loss, grads = net.loss_and_grad(x, t)
        opt.step(net.params, grads)
        losses.append(loss)
    return losses


def train(strategy: ParallelStrategy, overlap_shuffle: bool, steps: int = 4):
    spec = mixed_model()
    x, t = batch()

    def prog(comm):
        net = DistNetwork(
            spec, comm, strategy, seed=0, overlap_shuffle=overlap_shuffle
        )
        trainer = DistTrainer(net, SGD(lr=0.05))
        for _ in range(steps):
            trainer.step(x, t)
        params = {
            layer: {p: a.copy() for p, a in v.items()}
            for layer, v in net.params.items()
        }
        stats = comm.stats
        return (
            trainer.stats.losses,
            params,
            net.shuffle_count,
            stats.collectives.get(SHUFFLE_OP, 0),
            stats.collective_bytes.get(SHUFFLE_OP, 0),
            shuffle_plan_stats(comm),
        )

    return run_spmd(4, prog)


class TestShuffleOverlapBitwiseEquivalence:
    @pytest.mark.parametrize("label", list(STRATEGIES))
    def test_training_run_bitwise_equal(self, label):
        """Whole training runs follow the sequential algorithm's loss
        trajectory, and are bitwise identical — losses, final parameters —
        wherever the shuffles are finished."""
        strategy = STRATEGIES[label]
        overlapped = train(strategy, overlap_shuffle=True)
        blocking = train(strategy, overlap_shuffle=False)
        ref_losses = train_local()
        for ovl, blk in zip(overlapped, blocking):
            np.testing.assert_allclose(ovl[0], ref_losses, rtol=1e-9)
            assert ovl[0] == blk[0]  # losses
            for layer in blk[1]:
                for pname in blk[1][layer]:
                    np.testing.assert_array_equal(
                        ovl[1][layer][pname], blk[1][layer][pname]
                    )
            assert ovl[2] == blk[2]  # shuffle_count parity
            # Identical traffic volume recorded under the "shuffle" op.
            assert ovl[3] == blk[3] and ovl[4] == blk[4]

    @pytest.mark.parametrize("overlap_shuffle", [True, False])
    def test_forward_shuffles_start_at_their_launch_site(
        self, overlap_shuffle, tmp_path
    ):
        """Each forward shuffle is started right after its producer ran —
        inside the producer's layer span, so it is in flight across
        everything up to its first consumer — on the (default) overlapped
        path, and inside its first consumer's span otherwise: the
        schedule's two launch placements, observed on a traced forward."""
        spec = mixed_model()
        strategy = STRATEGIES["sample->spatial"]
        x, _ = batch()

        def prog(comm):
            kwargs = {} if overlap_shuffle else {"overlap_shuffle": False}
            net = DistNetwork(spec, comm, strategy, seed=0, **kwargs)
            assert net.overlap_shuffle == overlap_shuffle  # overlapped by default
            net.forward(x)

        path = str(tmp_path / "forward.trace")
        run_spmd(4, prog, trace=path)
        expected = [
            f"fwd:{op.name}"
            for op in lower(spec, strategy, len(x)).layers
            for _ in (op.starts if overlap_shuffle else op.issues)
        ]
        assert expected == (
            ["fwd:c1", "fwd:r1"] if overlap_shuffle else ["fwd:c2", "fwd:j"]
        )
        spans = [e for e in load_trace(path)["traceEvents"] if e.get("ph") == "X"]
        for rank in range(4):
            mine = sorted((e for e in spans if e["pid"] == rank), key=lambda e: e["ts"])
            layers = [e for e in mine if e.get("cat") == "layer"]
            launched_in = [
                next(
                    layer["name"] for layer in layers
                    if layer["ts"] <= e["ts"] <= layer["ts"] + layer["dur"]
                )
                for e in mine if e["name"] == f"{SHUFFLE_OP}.start"
            ]
            assert launched_in == expected


class TestShuffleAccounting:
    def test_plan_cache_hits_across_training_steps(self):
        """Regression: repeated steps reuse cached plans — the number of
        plan constructions (misses) must not grow with the step count."""
        strategy = STRATEGIES["sample->spatial"]
        after_2 = train(strategy, overlap_shuffle=True, steps=2)
        after_6 = train(strategy, overlap_shuffle=True, steps=6)
        for r2, r6 in zip(after_2, after_6):
            hits2, misses2 = r2[5]
            hits6, misses6 = r6[5]
            assert misses6 == misses2  # no re-planning, ever
            assert hits6 > hits2  # later steps served from the cache

    def test_wait_and_overlap_measured(self):
        """CommStats separates exposed (waited) from hidden (in flight
        behind other work) shuffle time on the overlapped path."""
        spec = mixed_model()
        strategy = STRATEGIES["sample->spatial"]
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 2, 9, 11))
        t = rng.integers(0, 3, size=4)

        def prog(comm):
            net = DistNetwork(spec, comm, strategy, seed=0)
            trainer = DistTrainer(net, SGD(lr=0.05))
            comm.stats.reset()
            trainer.step(x, t)
            s = comm.stats
            split = s.wait_seconds.get(SHUFFLE_OP, 0.0) + s.overlap_seconds.get(
                SHUFFLE_OP, 0.0
            )
            return split, trainer.comm_report()

        for split, report in run_spmd(4, prog):
            assert split > 0.0  # the timing split is actually recorded
            assert "shuffle" in report
            assert "hidden behind adjacent compute" in report
