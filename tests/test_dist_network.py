"""End-to-end exactness: distributed network == single-device network.

Covers the full §III pipeline: conv + pool + BN + ReLU + residual adds +
GAP + losses, under sample / spatial / hybrid strategies, including
per-layer strategies that force data redistributions (§III-C).
"""

import functools
import itertools

import numpy as np
import pytest

from conftest import reduce_for_process
from repro.comm import run_spmd
from repro.core import DistNetwork, DistTrainer, LayerParallelism, ParallelStrategy
from repro.nn import LocalNetwork, NetworkSpec, SGD
from repro.nn.meshnet import mesh_model_tiny
from repro.nn.resnet import build_resnet_tiny

RTOL = 1e-9
ATOL = 1e-11


def small_conv_net():
    """conv-bn-relu x2 with a maxpool and BCE segmentation loss."""
    net = NetworkSpec("small")
    net.add("input", "input", channels=3, height=16, width=16)
    net.add("c1", "conv", ["input"], filters=4, kernel=3, stride=1, pad=1)
    net.add("b1", "bn", ["c1"])
    net.add("r1", "relu", ["b1"])
    net.add("p1", "pool", ["r1"], mode="max", kernel=3, stride=2, pad=1)
    net.add("c2", "conv", ["p1"], filters=4, kernel=3, stride=1, pad=1)
    net.add("b2", "bn", ["c2"])
    net.add("r2", "relu", ["b2"])
    net.add("predict", "conv", ["r2"], filters=1, kernel=1, bias=True)
    net.add("loss", "bce", ["predict"])
    return net


def make_batch(spec, n, seed=0):
    rng = np.random.default_rng(seed)
    shapes = spec.infer_shapes()
    cin, h, w = shapes["input"]
    x = rng.standard_normal((n, cin, h, w))
    out = spec.outputs()[0]
    if out.kind == "bce":
        _, th, tw = shapes[out.parents[0]]
        t = (rng.random((n, 1, th, tw)) > 0.5).astype(float)
    else:
        classes = shapes[out.parents[0]][0]
        t = rng.integers(0, classes, size=n)
    return x, t


def run_dist(spec, nranks, strategy, x, t, steps=1, lr=0.1, seed=0):
    """Distributed training for `steps`; returns (losses, params) per rank."""

    def prog(comm):
        net = DistNetwork(spec, comm, strategy, seed=seed)
        trainer = DistTrainer(net, SGD(lr=lr))
        losses = [trainer.step(x, t) for _ in range(steps)]
        return losses, {k: {p: a.copy() for p, a in v.items()} for k, v in net.params.items()}

    return run_spmd(nranks, prog)


def run_local(spec, x, t, steps=1, lr=0.1, seed=0):
    net = LocalNetwork(spec, seed=seed)
    opt = SGD(lr=lr)
    losses = []
    for _ in range(steps):
        loss, grads = net.loss_and_grad(x, t)
        opt.step(net.params, grads)
        losses.append(loss)
    return losses, net.params


STRATEGIES = [
    ("sample4", 4, LayerParallelism(sample=4)),
    ("spatial2x2", 4, LayerParallelism(height=2, width=2)),
    ("spatial4x1", 4, LayerParallelism(height=4, width=1)),
    ("hybrid2x2x1", 4, LayerParallelism(sample=2, height=2, width=1)),
    ("hybrid2x2x2", 8, LayerParallelism(sample=2, height=2, width=2)),
]


class TestSmallNetExactness:
    @pytest.mark.parametrize("label,nranks,par", STRATEGIES)
    def test_three_steps_match_local(self, label, nranks, par):
        spec = small_conv_net()
        x, t = make_batch(spec, n=4, seed=3)
        ref_losses, ref_params = run_local(spec, x, t, steps=3)
        for losses, params in run_dist(spec, nranks, par, x, t, steps=3):
            np.testing.assert_allclose(losses, ref_losses, rtol=RTOL)
            for lname, lp in ref_params.items():
                for pname, arr in lp.items():
                    np.testing.assert_allclose(
                        params[lname][pname], arr, rtol=RTOL, atol=ATOL,
                        err_msg=f"{label}: {lname}.{pname}",
                    )

    def test_mixed_per_layer_strategy_with_shuffles(self):
        """First block spatial, second block sample-parallel: forces an
        activation shuffle between p1 and c2 and the reverse shuffle in
        backprop (§III-C)."""
        spec = small_conv_net()
        x, t = make_batch(spec, n=4, seed=4)
        spatial = LayerParallelism(height=2, width=2)
        sample = LayerParallelism(sample=4)
        strategy = ParallelStrategy(
            {
                "input": spatial, "c1": spatial, "b1": spatial, "r1": spatial,
                "p1": spatial,
                "c2": sample, "b2": sample, "r2": sample,
                "predict": sample, "loss": sample,
            }
        )
        ref_losses, ref_params = run_local(spec, x, t, steps=2)

        def prog(comm):
            net = DistNetwork(spec, comm, strategy)
            trainer = DistTrainer(net, SGD(lr=0.1))
            losses = [trainer.step(x, t) for _ in range(2)]
            return losses, net.shuffle_count, net.params["c2"]["w"].copy()

        results = run_spmd(4, prog)
        for losses, shuffles, c2w in results:
            np.testing.assert_allclose(losses, ref_losses, rtol=RTOL)
            assert shuffles > 0  # the redistribution actually happened
            np.testing.assert_allclose(c2w, ref_params["c2"]["w"], rtol=RTOL)

    def test_gradients_identical_across_ranks(self):
        """After the allreduce, every rank must hold identical gradients —
        the precondition for replicated SGD."""
        spec = small_conv_net()
        x, t = make_batch(spec, n=2, seed=5)

        def prog(comm):
            net = DistNetwork(spec, comm, LayerParallelism(height=2, width=2))
            _, grads = net.loss_and_grad(x, t)
            return {k: {p: a.copy() for p, a in v.items()} for k, v in grads.items()}

        results = run_spmd(4, prog)
        for other in results[1:]:
            for lname, lg in results[0].items():
                for pname, arr in lg.items():
                    np.testing.assert_array_equal(other[lname][pname], arr)


class TestResNetTinyExactness:
    @pytest.mark.parametrize(
        "nranks,par",
        [
            (4, LayerParallelism(sample=4)),
            (4, LayerParallelism(height=2, width=2)),
            (4, LayerParallelism(sample=2, height=2, width=1)),
        ],
    )
    def test_residual_network_matches_local(self, nranks, par):
        """Bottleneck blocks with projection shortcuts, GAP head, softmax:
        the full ResNet structure class of the paper's evaluation."""
        spec = build_resnet_tiny(image_size=16)
        x, t = make_batch(spec, n=4, seed=6)
        ref_losses, ref_params = run_local(spec, x, t, steps=2)
        for losses, params in run_dist(spec, nranks, par, x, t, steps=2):
            np.testing.assert_allclose(losses, ref_losses, rtol=RTOL)
            np.testing.assert_allclose(
                params["conv1"]["w"], ref_params["conv1"]["w"], rtol=RTOL, atol=ATOL
            )
            np.testing.assert_allclose(
                params["res3a_branch1"]["w"],
                ref_params["res3a_branch1"]["w"],
                rtol=RTOL,
                atol=ATOL,
            )


class TestMeshTinyExactness:
    @pytest.mark.parametrize(
        "nranks,par",
        [
            (2, LayerParallelism(sample=2)),
            (4, LayerParallelism(height=2, width=2)),
            (4, LayerParallelism(sample=2, height=1, width=2)),
        ],
    )
    def test_mesh_model_matches_local(self, nranks, par):
        spec = mesh_model_tiny(resolution=32)
        x, t = make_batch(spec, n=2, seed=7)
        ref_losses, _ = run_local(spec, x, t, steps=2)
        for losses, _ in run_dist(spec, nranks, par, x, t, steps=2):
            np.testing.assert_allclose(losses, ref_losses, rtol=RTOL)


def flag_matrix_net():
    """Sample-parallel stem feeding a spatial body: the r1 activation is
    shuffled toward c2 *and* along the skip edge into ``j`` (in flight
    behind c2/p2), p2 is a K > S pool whose windows straddle the partition,
    and conv/bn/fc layers all carry gradients."""
    net = NetworkSpec("flag-matrix")
    net.add("input", "input", channels=2, height=12, width=12)
    net.add("c1", "conv", ["input"], filters=4, kernel=3, pad=1, bias=True)
    net.add("r1", "relu", ["c1"])
    net.add("c2", "conv", ["r1"], filters=4, kernel=3, pad=1)
    net.add("p2", "pool", ["c2"], mode="max", kernel=3, stride=1, pad=1)
    net.add("j", "add", ["p2", "r1"])
    net.add("b3", "bn", ["j"])
    net.add("gap", "gap", ["b3"])
    net.add("fc", "fc", ["gap"], units=3)
    net.add("loss", "softmax_ce", ["fc"])
    return net


FLAG_STEPS = 3


def _flag_batch(spec):
    return make_batch(spec, n=4, seed=11)


@functools.lru_cache(maxsize=None)
def _flag_run(backend, overlap_halo, overlap_shuffle, overlap_grad_reduce):
    """Per rank: (loss trajectory as float.hex, region_data bytes, shuffle
    bytes) of 3 steps under one flag combination."""
    spec = flag_matrix_net()
    x, t = _flag_batch(spec)
    sample = LayerParallelism(sample=4)
    strategy = ParallelStrategy(
        {"input": sample, "c1": sample, "r1": sample},
        default=LayerParallelism(height=2, width=2),
    )

    def prog(comm):
        net = DistNetwork(
            spec, comm, strategy, seed=0,
            overlap_halo=overlap_halo,
            overlap_shuffle=overlap_shuffle,
            overlap_grad_reduce=overlap_grad_reduce,
            collective_algorithm="direct",
        )
        trainer = DistTrainer(net, SGD(lr=0.1))
        losses = [trainer.step(x, t) for _ in range(FLAG_STEPS)]
        assert net.shuffle_count > 0
        rows = comm.stats.collective_bytes
        return (
            [float(v).hex() for v in losses],
            rows.get("region_data", 0),
            rows.get("shuffle", 0),
        )

    return run_spmd(4, prog, backend=backend)


class TestOverlapFlagMatrix:
    """Each ``overlap_*`` flag only moves a ``finish()``: all eight
    combinations train to the same bits and move the same bytes, and the
    trajectory is the sequential algorithm's."""

    @pytest.mark.parametrize(
        "flags", list(itertools.product((True, False), repeat=3)),
        ids=lambda f: "halo{}-shuffle{}-reduce{}".format(*map(int, f)),
    )
    def test_all_combinations_bitwise_equal(self, flags, backend):
        reduce_for_process(backend, any(flags), "all-flags-off corner only")
        default = _flag_run(backend, True, True, True)
        got = _flag_run(backend, *flags)
        assert got == default
        assert all(rd > 0 and sh > 0 for _, rd, sh in got)

        spec = flag_matrix_net()
        ref_losses, _ = run_local(spec, *_flag_batch(spec), steps=FLAG_STEPS)
        for hexes, _, _ in got:
            np.testing.assert_allclose(
                [float.fromhex(h) for h in hexes], ref_losses, rtol=RTOL
            )


class TestValidation:
    def test_strategy_rank_mismatch(self):
        spec = small_conv_net()

        def prog(comm):
            DistNetwork(spec, comm, LayerParallelism(sample=4))

        with pytest.raises(ValueError, match="strategy uses 4 ranks"):
            run_spmd(2, prog, timeout=10)

    def test_eval_mode_runs(self):
        spec = small_conv_net()
        x, t = make_batch(spec, n=2, seed=8)

        def prog(comm):
            net = DistNetwork(spec, comm, LayerParallelism(sample=2))
            trainer = DistTrainer(net)
            trainer.step(x, t)
            return trainer.evaluate(x, t)

        losses = run_spmd(2, prog)
        assert np.isfinite(losses).all()
        assert losses[0] == pytest.approx(losses[1])

    def test_trainer_fit(self):
        spec = small_conv_net()

        def prog(comm):
            net = DistNetwork(spec, comm, LayerParallelism(sample=2))
            trainer = DistTrainer(net, SGD(lr=0.5))
            batches = [make_batch(spec, n=2, seed=s) for s in range(3)]
            stats = trainer.fit(batches, epochs=2)
            return stats.steps, stats.losses

        for steps, losses in run_spmd(2, prog):
            assert steps == 6
            assert losses[-1] < losses[0]
