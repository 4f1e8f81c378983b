"""Cross-subsystem integration: optimizer -> functional execution,
trainer bookkeeping, and end-to-end learning on the synthetic datasets."""

import numpy as np
import pytest

from repro.comm import run_spmd
from repro.core import DistNetwork, DistTrainer, LayerParallelism, ParallelStrategy
from repro.core.strategy import StrategyOptimizer
from repro.core.trainer import TrainStats
from repro.data import MeshTanglingDataset, SyntheticImageNet
from repro.nn import LocalNetwork, NetworkSpec, SGD
from repro.nn.meshnet import build_mesh_model
from repro.nn.resnet import build_resnet_tiny
from repro.perfmodel import LASSEN, MemoryModel


class TestOptimizerToExecution:
    def test_optimized_strategy_executes_exactly(self):
        """The §V-C optimizer's chosen strategy, run through the §III
        functional executor, must still match single-device training —
        planning and execution agree on what a distribution means."""
        spec = NetworkSpec("opt-exec")
        spec.add("input", "input", channels=3, height=16, width=16)
        spec.add("c1", "conv", ["input"], filters=6, kernel=3, pad=1)
        spec.add("b1", "bn", ["c1"])
        spec.add("r1", "relu", ["b1"])
        spec.add("c2", "conv", ["r1"], filters=6, kernel=3, stride=2, pad=1)
        spec.add("r2", "relu", ["c2"])
        spec.add("predict", "conv", ["r2"], filters=1, kernel=1, bias=True)
        spec.add("loss", "bce", ["predict"])

        report = StrategyOptimizer(
            spec, LASSEN, total_ranks=4, n_global=2, check_memory=False
        ).optimize()
        strategy = report.strategy

        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 16, 16))
        t = (rng.random((2, 1, 8, 8)) > 0.5).astype(float)

        ref = LocalNetwork(spec, seed=3)
        ref_loss, _ = ref.loss_and_grad(x, t)

        def prog(comm):
            net = DistNetwork(spec, comm, strategy, seed=3)
            loss, _ = net.loss_and_grad(x, t)
            return loss

        for loss in run_spmd(4, prog):
            assert loss == pytest.approx(ref_loss, rel=1e-9)

    def test_memory_model_consistent_with_strategy(self):
        """Whatever the optimizer picks must fit in modeled memory."""
        spec = build_mesh_model(
            resolution=512, convs_per_block=2,
            block_channels=(256, 384, 512, 512, 512, 512), input_channels=18,
        )
        report = StrategyOptimizer(spec, LASSEN, total_ranks=8, n_global=4).optimize()
        assert MemoryModel(spec, LASSEN).fits(4, report.strategy)


class TestTrainStats:
    def test_records(self):
        s = TrainStats()
        s.record(1.0)
        s.record(0.5)
        assert s.steps == 2 and s.last_loss == 0.5 and s.losses == [1.0, 0.5]


class TestEndToEndLearning:
    def test_mesh_tangling_learnable_distributed(self):
        """The synthetic mesh data's labels are a function of its channels;
        a small model must overfit a batch under spatial parallelism."""
        spec = build_mesh_model(
            resolution=32, convs_per_block=1, block_channels=(8, 12),
            input_channels=18, name="m",
        )
        shapes = spec.infer_shapes()
        stride = 32 // shapes["predict"][1]
        ds = MeshTanglingDataset(resolution=32, label_stride=stride, seed=5)
        x, t = ds.batch(2)

        def prog(comm):
            net = DistNetwork(spec, comm, LayerParallelism(height=2, width=1))
            trainer = DistTrainer(net, SGD(lr=2.0, momentum=0.9))
            losses = [trainer.step(x, t) for _ in range(10)]
            return losses

        for losses in run_spmd(2, prog):
            assert losses[-1] < losses[0] * 0.7

    def test_imagenet_synth_learnable(self):
        """Class-conditioned synthetic images are separable by a tiny
        ResNet trained sample-parallel."""
        ds = SyntheticImageNet(image_size=16, num_classes=4, seed=1)
        x, labels = ds.batch(8)
        spec = build_resnet_tiny(image_size=16, num_classes=4)

        def prog(comm):
            net = DistNetwork(spec, comm, LayerParallelism(sample=2))
            trainer = DistTrainer(net, SGD(lr=0.2, momentum=0.9))
            return [trainer.step(x, labels) for _ in range(8)]

        for losses in run_spmd(2, prog):
            assert losses[-1] < losses[0]

    def test_fc_layer_distributed(self):
        """'fc' layers execute sample-parallel with exact gradients."""
        spec = NetworkSpec("fc-net")
        spec.add("input", "input", channels=2, height=4, width=4)
        spec.add("c1", "conv", ["input"], filters=3, kernel=3, pad=1)
        spec.add("gap", "gap", ["c1"])
        spec.add("fc", "fc", ["gap"], units=5)
        spec.add("loss", "softmax_ce", ["fc"])
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 2, 4, 4))
        labels = rng.integers(0, 5, size=4)
        ref = LocalNetwork(spec, seed=1)
        ref_loss, ref_grads = ref.loss_and_grad(x, labels)

        def prog(comm):
            net = DistNetwork(spec, comm, LayerParallelism(sample=2), seed=1)
            loss, grads = net.loss_and_grad(x, labels)
            return loss, grads["fc"]["w"]

        for loss, fc_w in run_spmd(2, prog):
            assert loss == pytest.approx(ref_loss, rel=1e-10)
            np.testing.assert_allclose(fc_w, ref_grads["fc"]["w"], rtol=1e-10)

    def test_dist_fc_rejects_spatial_input(self):
        spec = NetworkSpec("fc-bad")
        spec.add("input", "input", channels=2, height=8, width=8)
        spec.add("fc", "fc", ["input"], units=3)
        spec.add("loss", "softmax_ce", ["fc"])

        def prog(comm):
            # Spatially split input feeding FC without a gap/shuffle: the
            # executor shuffles automatically, so this must *work*.
            net = DistNetwork(spec, comm, ParallelStrategy({
                "input": LayerParallelism(height=2, width=1),
                "fc": LayerParallelism(sample=2),
                "loss": LayerParallelism(sample=2),
            }))
            rng = np.random.default_rng(0)
            x = rng.standard_normal((2, 2, 8, 8))
            return net.loss_and_grad(x, np.array([0, 1]))[0]

        losses = run_spmd(2, prog)
        assert np.isfinite(losses).all()
        assert losses[0] == pytest.approx(losses[1])
