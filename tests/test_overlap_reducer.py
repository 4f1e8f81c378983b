"""Integration: overlapped bucketed gradient reduction == blocking path.

The overlapped reducer concatenates gradients into buckets and reduces them
with nonblocking allreduces; with the bitwise-reference
``collective_algorithm="direct"`` it performs the *identical* element-wise
additions in the identical comm-rank order — so whole training runs must be
bitwise equal to the blocking path, for every strategy and bucket size, and
regardless of the zero-copy boundary mode.  (The scheduled wire algorithms
chunk buckets, so their cross-mode match is allclose instead; that parity
lives in ``tests/test_collective_algorithms.py``.)
"""

import numpy as np
import pytest

from conftest import CopyingReducer
from repro.comm import run_spmd, set_zero_copy
from repro.core import DistNetwork, DistTrainer, LayerParallelism, ParallelStrategy
from repro.core import dist_network
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


def train(
    nranks, strategy, overlap, steps=3, bucket_bytes=None, lr=0.1, algorithm="direct"
):
    x, t = make_batch()

    def prog(comm):
        # "direct" pins the comm-rank-order fold, the mode whose bucketed
        # and per-tensor reductions are bitwise interchangeable.
        kwargs = {"overlap_grad_reduce": overlap, "collective_algorithm": algorithm}
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
        strategy = ParallelStrategy.uniform(par)
        blocking = train(nranks, strategy, overlap=False)
        overlapped = train(nranks, strategy, overlap=True)
        assert_identical_runs(blocking, overlapped)

    @pytest.mark.parametrize("bucket_bytes", [1, 4096, 1 << 22])
    def test_bucket_size_invariance(self, bucket_bytes):
        """One-tensor-per-bucket, mid, and everything-in-one-bucket agree."""
        strategy = ParallelStrategy.uniform(LayerParallelism(sample=4))
        blocking = train(4, strategy, overlap=False)
        overlapped = train(4, strategy, overlap=True, bucket_bytes=bucket_bytes)
        assert_identical_runs(blocking, overlapped)

    def test_zero_copy_regression(self):
        """Full training runs are bitwise identical with zero-copy on/off —
        the no-aliasing proof for the zero-copy send fast path."""
        strategy = ParallelStrategy.uniform(LayerParallelism(sample=2, height=2))
        with_zero_copy = train(4, strategy, overlap=True)
        prev = set_zero_copy(False)
        try:
            with_copies = train(4, strategy, overlap=True)
        finally:
            set_zero_copy(prev)
        assert_identical_runs(with_zero_copy, with_copies)

    @pytest.mark.parametrize("algorithm", ["direct", "auto"])
    def test_donation_regression(self, algorithm, monkeypatch):
        """The same run with a reducer that copies every partial before
        ``add()`` — so nothing is reduced in place in a layer's own array —
        is bitwise identical, zero-copy transport included: the no-aliasing
        proof for donated buckets."""
        strategy = ParallelStrategy.uniform(LayerParallelism(sample=2, height=2))
        donated = train(4, strategy, overlap=True, algorithm=algorithm)
        monkeypatch.setattr(dist_network, "BucketedGradReducer", CopyingReducer)
        copied = train(4, strategy, overlap=True, algorithm=algorithm)
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

    def test_sync_mode_drains_one_bucket_per_layer(self):
        """``overlap_grad_reduce=False`` is the same reducer drained after
        every layer: one allreduce per parameterised layer (c1, b1, c2, fc)
        instead of one coalesced bucket, moving the same gradient bytes."""
        x, t = make_batch()

        def prog(comm, overlap):
            net = DistNetwork(
                conv_net(), comm, LayerParallelism(sample=4), seed=0,
                overlap_grad_reduce=overlap,
            )
            trainer = DistTrainer(net, SGD(lr=0.1))
            comm.stats.reset()
            trainer.step(x, t)
            return (
                comm.stats.collectives.get("iallreduce", 0),
                comm.stats.collective_bytes.get("iallreduce", 0),
            )

        sync = run_spmd(4, prog, False)
        overlapped = run_spmd(4, prog, True)
        for (calls_s, bytes_s), (calls_o, bytes_o) in zip(sync, overlapped):
            assert calls_s == 4
            assert calls_o == 1  # everything fits the default bucket
            assert bytes_s == bytes_o

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

    def test_single_rank_passthrough(self):
        """Size-1 worlds have no gradient groups; overlap must be a no-op."""
        strategy = ParallelStrategy.uniform(LayerParallelism())
        blocking = train(1, strategy, overlap=False)
        overlapped = train(1, strategy, overlap=True)
        assert_identical_runs(blocking, overlapped)
