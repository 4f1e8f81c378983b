"""Integration: coalesced gradient buckets == one bucket per layer.

The reducer concatenates gradients into buckets and reduces them with
nonblocking allreduces overlapping backpropagation; with the
bitwise-reference ``collective_algorithm="direct"`` it performs the
*identical* element-wise additions in the identical comm-rank order
wherever the buckets are cut — so whole training runs with the default
buckets must be bitwise equal to one bucket per layer
(``grad_bucket_bytes=1``), for every strategy and bucket size.  (The
scheduled wire algorithms chunk buckets, so their cross-cut match is
allclose instead; that parity lives in
``tests/test_collective_algorithms.py``.)
"""

import numpy as np
import pytest

from conftest import CopyingReducer
from repro.comm import run_spmd
from repro.core import DistNetwork, DistTrainer, LayerParallelism, ParallelStrategy
from repro.core import dist_network
from repro.core.grad_reducer import BucketedGradReducer
from repro.core.schedule import lower
from repro.nn import NetworkSpec, SGD


def conv_net():
    net = NetworkSpec("overlap-test")
    net.add("input", "input", channels=3, height=16, width=16)
    net.add("c1", "conv", ["input"], filters=4, kernel=3, stride=1, pad=1, bias=True)
    net.add("b1", "bn", ["c1"])
    net.add("r1", "relu", ["b1"])
    net.add("p1", "pool", ["r1"], mode="max", kernel=2, stride=2)
    net.add("c2", "conv", ["p1"], filters=8, kernel=3, stride=1, pad=1)
    net.add("r2", "relu", ["c2"])
    net.add("gap", "gap", ["r2"])
    net.add("fc", "fc", ["gap"], units=5, bias=True)
    net.add("loss", "softmax_ce", ["fc"])
    return net


def make_batch(n=8, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 3, 16, 16))
    t = rng.integers(0, 5, size=n)
    return x, t


def train(nranks, strategy, steps=3, bucket_bytes=None, lr=0.1, algorithm="direct"):
    x, t = make_batch()

    def prog(comm):
        # "direct" pins the comm-rank-order fold, the mode whose bucketed
        # and per-tensor reductions are bitwise interchangeable.
        kwargs = {"collective_algorithm": algorithm}
        if bucket_bytes is not None:
            kwargs["grad_bucket_bytes"] = bucket_bytes
        net = DistNetwork(conv_net(), comm, strategy, seed=0, **kwargs)
        trainer = DistTrainer(net, SGD(lr=lr, momentum=0.9))
        losses = [trainer.step(x, t) for _ in range(steps)]
        params = {
            k: {p: a.copy() for p, a in v.items()} for k, v in net.params.items()
        }
        return losses, params

    return run_spmd(nranks, prog)


def assert_identical_runs(results_a, results_b):
    for (losses_a, params_a), (losses_b, params_b) in zip(results_a, results_b):
        assert losses_a == losses_b  # bitwise: float equality, no tolerance
        for layer, lparams in params_a.items():
            for pname, arr in lparams.items():
                np.testing.assert_array_equal(arr, params_b[layer][pname])


STRATEGIES = [
    ("sample4", 4, LayerParallelism(sample=4)),
    ("spatial2x2", 4, LayerParallelism(height=2, width=2)),
    ("hybrid2x2x2", 8, LayerParallelism(sample=2, height=2, width=2)),
]


class TestBitwiseStability:
    @pytest.mark.parametrize("name,nranks,par", STRATEGIES, ids=[s[0] for s in STRATEGIES])
    def test_overlapped_matches_blocking(self, name, nranks, par):
        """The default coalesced buckets train to the bits of one bucket
        per layer."""
        strategy = ParallelStrategy.uniform(par)
        per_layer = train(nranks, strategy, bucket_bytes=1)
        coalesced = train(nranks, strategy)
        assert_identical_runs(per_layer, coalesced)

    @pytest.mark.parametrize("bucket_bytes", [1, 4096, 1 << 22])
    def test_bucket_size_invariance(self, bucket_bytes):
        """One-tensor-per-bucket, mid, and everything-in-one-bucket agree
        with the default cut."""
        strategy = ParallelStrategy.uniform(LayerParallelism(sample=4))
        default = train(4, strategy)
        cut = train(4, strategy, bucket_bytes=bucket_bytes)
        assert_identical_runs(default, cut)

    @pytest.mark.parametrize("algorithm", ["direct", "auto"])
    def test_donation_regression(self, algorithm, monkeypatch):
        """The same run with a reducer that copies every partial before
        ``add()`` — so nothing is reduced in place in a layer's own array —
        is bitwise identical: the no-aliasing proof for donated buckets."""
        strategy = ParallelStrategy.uniform(LayerParallelism(sample=2, height=2))
        donated = train(4, strategy, algorithm=algorithm)
        monkeypatch.setattr(dist_network, "BucketedGradReducer", CopyingReducer)
        copied = train(4, strategy, algorithm=algorithm)
        assert_identical_runs(donated, copied)


class TestReducerPlumbing:
    def test_overlap_uses_nonblocking_collectives(self):
        x, t = make_batch()

        def prog(comm):
            net = DistNetwork(
                conv_net(), comm, LayerParallelism(sample=4), seed=0
            )
            trainer = DistTrainer(net, SGD(lr=0.1))
            comm.stats.reset()
            trainer.step(x, t)
            return (
                comm.stats.collectives.get("iallreduce", 0),
                comm.stats.collective_bytes.get("iallreduce", 0),
            )

        for calls, nbytes in run_spmd(4, prog):
            assert calls >= 1
            assert nbytes > 0

    def test_trainer_comm_report(self):
        x, t = make_batch()

        def prog(comm):
            net = DistNetwork(
                conv_net(), comm, LayerParallelism(sample=4), seed=0
            )
            trainer = DistTrainer(net, SGD(lr=0.1))
            trainer.fit([(x, t)] * 2)
            return trainer.comm_report()

        report = run_spmd(4, prog)[0]
        assert "iallreduce" in report
        assert "wait ms" in report and "overlap ms" in report
        assert "steps: 2" in report

    def test_one_bucket_in_flight_after_every_add(self, monkeypatch):
        """Launching a bucket completes the one before it: with one bucket
        per layer (four, each launched by its layer's ``add``) and the
        update fused, no ``add`` returns with more than one launched bucket
        not yet completed, so a rank holds at most two buckets' gradients."""
        seen: list[int] = []

        class Recording(BucketedGradReducer):
            def add(self, layer, partials, comm):
                out = super().add(layer, partials, comm)
                seen.append(self.inflight)
                return out

        monkeypatch.setattr(dist_network, "BucketedGradReducer", Recording)
        strategy = ParallelStrategy.uniform(LayerParallelism(sample=2))
        assert len(lower(conv_net(), strategy, 8).grad_buckets(1, 8)) == 4
        train(2, strategy, steps=2, bucket_bytes=1, algorithm=None)
        # 2 ranks x 2 steps x 4 layers with gradients.
        assert len(seen) == 16 and max(seen) == 1

    def test_single_rank_passthrough(self):
        """Size-1 worlds have no gradient groups; the bucket cut must be a
        no-op."""
        strategy = ParallelStrategy.uniform(LayerParallelism())
        per_layer = train(1, strategy, bucket_bytes=1)
        coalesced = train(1, strategy)
        assert_identical_runs(per_layer, coalesced)
