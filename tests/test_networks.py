"""Network specs, shape inference, and single-device execution."""

import numpy as np
import pytest

from repro.nn import LocalNetwork, NetworkSpec, SGD
from repro.nn.optim import _BLOCK
from repro.nn.meshnet import build_mesh_model, mesh_model_1k, mesh_model_2k
from repro.nn.resnet import build_resnet50, build_resnet_tiny


def mesh_model_tiny(resolution=64):
    """The mesh model's structure, scaled down: two blocks of two convs."""
    return build_mesh_model(
        resolution=resolution, convs_per_block=2, block_channels=(8, 12),
        input_channels=4, name="mesh-tiny",
    )


class TestNetworkSpec:
    def test_duplicate_name(self):
        net = NetworkSpec("t")
        net.add("input", "input", channels=1, height=4, width=4)
        with pytest.raises(ValueError, match="duplicate"):
            net.add("input", "relu", ["input"])

    def test_unknown_parent(self):
        net = NetworkSpec("t")
        with pytest.raises(ValueError, match="unknown parent"):
            net.add("a", "relu", ["missing"])

    def test_unknown_kind(self):
        net = NetworkSpec("t")
        with pytest.raises(ValueError, match="unknown layer kind"):
            net.add("a", "frobnicate")

    def test_non_input_needs_parent(self):
        net = NetworkSpec("t")
        with pytest.raises(ValueError, match="needs a parent"):
            net.add("a", "relu")

    def test_children_and_outputs(self):
        net = NetworkSpec("t")
        net.add("input", "input", channels=1, height=4, width=4)
        net.add("c1", "conv", ["input"], filters=2, kernel=3, pad=1)
        net.add("r1", "relu", ["c1"])
        net.add("add", "add", ["r1", "c1"])
        assert net.children_of("c1") == ["r1", "add"]
        assert [out.name for out in net.outputs()] == ["add"]

    def test_needs_error_signal(self):
        """Parameters, or a parent that needs one — nothing else."""
        net = NetworkSpec("t")
        net.add("input", "input", channels=2, height=8, width=8)
        net.add("p0", "pool", ["input"], kernel=2)
        net.add("r0", "relu", ["p0"])
        net.add("c1", "conv", ["r0"], filters=2, kernel=3, pad=1)
        net.add("j", "add", ["c1", "r0"])
        net.add("side", "relu", ["input"])
        net.add("loss", "bce", ["j"])
        assert net.needs_error_signal() == {"c1", "j", "loss"}
        for build in (mesh_model_tiny, build_resnet_tiny):
            spec = build()
            assert spec.needs_error_signal() == {
                layer.name for layer in spec if layer.kind != "input"
            }

    def test_add_shape_mismatch(self):
        net = NetworkSpec("t")
        net.add("input", "input", channels=1, height=8, width=8)
        net.add("c1", "conv", ["input"], filters=2, kernel=3, pad=1)
        net.add("c2", "conv", ["input"], filters=2, kernel=3, pad=1, stride=2)
        net.add("bad", "add", ["c1", "c2"])
        with pytest.raises(ValueError, match="parent shapes differ"):
            net.infer_shapes()


class TestResNet50Spec:
    def test_paper_benchmark_layer_shapes(self):
        """The two layers the paper microbenchmarks (Fig. 2) must have
        exactly the published specifications."""
        net = build_resnet50()
        shapes = net.infer_shapes()

        conv1 = net["conv1"]
        assert shapes["input"] == (3, 224, 224)
        assert conv1.params == {"filters": 64, "kernel": 7, "stride": 2, "pad": 3}
        assert shapes["conv1"] == (64, 112, 112)

        layer = net["res3b_branch2a"]
        parent_shape = shapes[layer.parents[0]]
        assert parent_shape == (512, 28, 28)  # C=512, H=W=28
        assert layer.params == {"filters": 128, "kernel": 1, "stride": 1, "pad": 0}

    def test_parameter_count(self):
        """Standard ResNet-50 has ~25.56M parameters."""
        net = build_resnet50()
        total = net.total_params()
        assert 25.4e6 < total < 25.7e6

    def test_stage_resolutions(self):
        net = build_resnet50()
        shapes = net.infer_shapes()
        assert shapes["res2c_relu"] == (256, 56, 56)
        assert shapes["res3d_relu"] == (512, 28, 28)
        assert shapes["res4f_relu"] == (1024, 14, 14)
        assert shapes["res5c_relu"] == (2048, 7, 7)
        assert shapes["pool5"] == (2048, 1, 1)
        assert shapes["fc1000"] == (1000, 1, 1)


class TestMeshModelSpec:
    def test_paper_published_2k_layer_shapes(self):
        """conv1_1 and conv6_1 of the 2K model (Fig. 3)."""
        net = mesh_model_2k()
        shapes = net.infer_shapes()

        c11 = net["conv1_1"]
        assert shapes["input"] == (18, 2048, 2048)
        assert c11.params == {"filters": 128, "kernel": 5, "stride": 2, "pad": 2}
        assert shapes["conv1_1"] == (128, 1024, 1024)

        c61 = net["conv6_1"]
        parent_shape = shapes[c61.parents[0]]
        assert parent_shape == (384, 64, 64)  # C=384, H=W=64
        assert c61.params == {"filters": 128, "kernel": 3, "stride": 2, "pad": 1}

    def test_block_structure(self):
        net1k = mesh_model_1k()
        net2k = mesh_model_2k()
        convs_1k = [layer for layer in net1k if layer.kind == "conv"]
        convs_2k = [layer for layer in net2k if layer.kind == "conv"]
        assert len(convs_1k) == 6 * 3 + 1  # + prediction layer
        assert len(convs_2k) == 6 * 5 + 1

    def test_final_resolution(self):
        shapes = mesh_model_1k().infer_shapes()
        assert shapes["predict"] == (1, 16, 16)  # 1024 / 2^6

    def test_bad_resolution(self):
        with pytest.raises(ValueError, match="divisible"):
            build_mesh_model(resolution=100)


class TestLocalNetworkExecution:
    def test_mesh_tiny_loss_decreases(self):
        net = LocalNetwork(mesh_model_tiny(), seed=3)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 4, 64, 64))
        shapes = net.spec.infer_shapes()
        _, th, tw = shapes["predict"]
        t = (rng.random((2, 1, th, tw)) > 0.5).astype(float)
        opt = SGD(lr=0.5)
        losses = []
        for _ in range(8):
            loss, grads = net.loss_and_grad(x, t)
            opt.step(net.params, grads)
            losses.append(loss)
        assert losses[-1] < losses[0] * 0.9

    def test_resnet_tiny_loss_decreases(self):
        net = LocalNetwork(build_resnet_tiny(image_size=16), seed=5)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 3, 16, 16))
        labels = rng.integers(0, 10, size=4)
        opt = SGD(lr=0.1, momentum=0.9)
        losses = []
        for _ in range(10):
            loss, grads = net.loss_and_grad(x, labels)
            opt.step(net.params, grads)
            losses.append(loss)
        assert losses[-1] < losses[0]

    def test_gradcheck_through_residual_block(self):
        """End-to-end finite differences through a residual add."""
        spec = NetworkSpec("res")
        spec.add("input", "input", channels=2, height=6, width=6)
        spec.add("c1", "conv", ["input"], filters=2, kernel=3, pad=1)
        spec.add("r1", "relu", ["c1"])
        spec.add("c2", "conv", ["r1"], filters=2, kernel=3, pad=1)
        spec.add("add", "add", ["c2", "input"])
        spec.add("gap", "gap", ["add"])
        spec.add("fc", "fc", ["gap"], units=3)
        spec.add("loss", "softmax_ce", ["fc"])
        net = LocalNetwork(spec, seed=7)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 2, 6, 6))
        labels = np.array([0, 2])
        loss, grads = net.loss_and_grad(x, labels)

        eps = 1e-6
        w = net.params["c1"]["w"]
        for idx in [(0, 0, 0, 0), (1, 1, 2, 2)]:
            orig = w[idx]
            w[idx] = orig + eps
            lp = net.forward(x, targets=labels)
            w[idx] = orig - eps
            lm = net.forward(x, targets=labels)
            w[idx] = orig
            num = (lp - lm) / (2 * eps)
            np.testing.assert_allclose(grads["c1"]["w"][idx], num, rtol=1e-4, atol=1e-8)

    def test_gradcheck_bn_params(self):
        spec = NetworkSpec("bn")
        spec.add("input", "input", channels=2, height=4, width=4)
        spec.add("c1", "conv", ["input"], filters=3, kernel=3, pad=1)
        spec.add("b1", "bn", ["c1"])
        spec.add("r1", "relu", ["b1"])
        spec.add("gap", "gap", ["r1"])
        spec.add("fc", "fc", ["gap"], units=2)
        spec.add("loss", "softmax_ce", ["fc"])
        net = LocalNetwork(spec, seed=9)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, 2, 4, 4))
        labels = np.array([0, 1, 0])
        loss, grads = net.loss_and_grad(x, labels)
        eps = 1e-6
        gamma = net.params["b1"]["gamma"]
        for c in range(3):
            orig = gamma[c]
            gamma[c] = orig + eps
            lp = net.forward(x, targets=labels)
            gamma[c] = orig - eps
            lm = net.forward(x, targets=labels)
            gamma[c] = orig
            num = (lp - lm) / (2 * eps)
            np.testing.assert_allclose(grads["b1"]["gamma"][c], num, rtol=1e-4, atol=1e-8)

    @pytest.mark.parametrize("first", ["bn", "pool"])
    def test_gradcheck_when_first_layer_sends_no_dx(self, first):
        """A BN (parameter gradients without ``dx``) or a pool (no backward
        at all) between the input and the first conv."""
        spec = NetworkSpec("dead-input")
        spec.add("input", "input", channels=2, height=6, width=6)
        if first == "bn":
            spec.add("f0", "bn", ["input"])
        else:
            spec.add("f0", "pool", ["input"], mode="avg", kernel=3, stride=1, pad=1)
        spec.add("c1", "conv", ["f0"], filters=3, kernel=3, stride=2, pad=1)
        spec.add("gap", "gap", ["c1"])
        spec.add("fc", "fc", ["gap"], units=2)
        spec.add("loss", "softmax_ce", ["fc"])
        net = LocalNetwork(spec, seed=4)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 2, 6, 6))
        labels = np.array([0, 1, 1])
        _, grads = net.loss_and_grad(x, labels)
        assert set(grads) == {"c1", "fc"} | ({"f0"} if first == "bn" else set())
        eps = 1e-6
        checks = [("c1", "w", (0, 0, 0, 0)), ("c1", "w", (2, 1, 1, 2))]
        if first == "bn":
            checks += [("f0", "gamma", (0,)), ("f0", "beta", (1,))]
        for layer, pname, idx in checks:
            param = net.params[layer][pname]
            orig = param[idx]
            param[idx] = orig + eps
            lp = net.forward(x, targets=labels)
            param[idx] = orig - eps
            lm = net.forward(x, targets=labels)
            param[idx] = orig
            np.testing.assert_allclose(
                grads[layer][pname][idx], (lp - lm) / (2 * eps), rtol=1e-4, atol=1e-8
            )

    def test_inference_mode_uses_running_stats(self):
        spec = NetworkSpec("bn2")
        spec.add("input", "input", channels=1, height=2, width=2)
        spec.add("b1", "bn", ["input"])
        net = LocalNetwork(spec, seed=0)
        x = np.random.default_rng(4).standard_normal((4, 1, 2, 2)) + 10.0
        net.forward(x, training=True)
        out_eval = net.forward(x, training=False)["b1"]
        # Running stats were only partially updated (momentum), so eval
        # output differs from exact normalization.
        assert abs(out_eval.mean()) > 1e-3

    def test_running_statistics_are_the_batch_statistics(self):
        """The running statistics are updated from the mean/var the BN
        kernel normalized with — bit for bit ``x.mean``/``x.var`` of the
        layer's input, folded in with the layer's momentum."""
        spec = build_resnet_tiny(image_size=16)
        net = LocalNetwork(spec, seed=5)
        rng = np.random.default_rng(6)
        x, labels = rng.standard_normal((4, 3, 16, 16)), rng.integers(0, 10, size=4)
        opt = SGD(lr=0.1, momentum=0.9)
        bn_layers = [layer for layer in spec.topo_order() if layer.kind == "bn"]
        want = {
            layer.name: (np.zeros(c), np.ones(c))
            for layer in bn_layers
            for c in [net.shapes[layer.name][0]]
        }
        for _ in range(3):
            _, grads = net.loss_and_grad(x, labels)
            for layer in bn_layers:
                a = net.activations[layer.parents[0]]
                mom = layer.params.get("momentum", 0.9)
                mean, var = want[layer.name]
                want[layer.name] = (
                    mom * mean + (1 - mom) * a.mean(axis=(0, 2, 3)),
                    mom * var + (1 - mom) * a.var(axis=(0, 2, 3)),
                )
            opt.step(net.params, grads)
        assert len(bn_layers) == 12
        for name, (mean, var) in want.items():
            np.testing.assert_array_equal(net._running[name]["mean"], mean)
            np.testing.assert_array_equal(net._running[name]["var"], var)

    def test_backward_after_evaluation_forward_raises(self):
        """An evaluation forward normalizes with running statistics; the
        training-mode backward formula does not apply to it."""
        spec = NetworkSpec("bn-eval")
        spec.add("input", "input", channels=2, height=4, width=4)
        spec.add("c1", "conv", ["input"], filters=3, kernel=3, pad=1)
        spec.add("b1", "bn", ["c1"])
        spec.add("gap", "gap", ["b1"])
        spec.add("fc", "fc", ["gap"], units=2)
        spec.add("loss", "softmax_ce", ["fc"])
        net = LocalNetwork(spec, seed=1)
        x, labels = np.random.default_rng(7).standard_normal((3, 2, 4, 4)), np.array([0, 1, 0])
        net.forward(x, targets=labels, training=False)
        with pytest.raises(RuntimeError, match="after an evaluation forward"):
            net.backward()
        net.forward(x, targets=labels, training=True)
        assert set(net.backward()) == {"c1", "b1", "fc"}

    def test_deterministic_init_by_name(self):
        n1 = LocalNetwork(build_resnet_tiny(), seed=11)
        n2 = LocalNetwork(build_resnet_tiny(), seed=11)
        np.testing.assert_array_equal(
            n1.params["conv1"]["w"], n2.params["conv1"]["w"]
        )
        n3 = LocalNetwork(build_resnet_tiny(), seed=12)
        assert not np.array_equal(n1.params["conv1"]["w"], n3.params["conv1"]["w"])

    def test_summary_renders(self):
        s = mesh_model_tiny().summary()
        assert "conv1_1" in s and "mesh-tiny" in s


class TestSGD:
    def test_plain_update(self):
        params = {"l": {"w": np.array([1.0, 2.0])}}
        grads = {"l": {"w": np.array([0.5, 0.5])}}
        SGD(lr=0.1).step(params, grads)
        np.testing.assert_allclose(params["l"]["w"], [0.95, 1.95])

    def test_momentum_accumulates(self):
        params = {"l": {"w": np.zeros(1)}}
        grads = {"l": {"w": np.ones(1)}}
        opt = SGD(lr=1.0, momentum=0.5)
        opt.step(params, grads)
        assert params["l"]["w"][0] == pytest.approx(-1.0)
        opt.step(params, grads)
        assert params["l"]["w"][0] == pytest.approx(-2.5)  # v = 1.5

    def test_weight_decay_only_on_weights(self):
        params = {"l": {"w": np.ones(1), "gamma": np.ones(1)}}
        grads = {"l": {"w": np.zeros(1), "gamma": np.zeros(1)}}
        SGD(lr=1.0, weight_decay=0.1).step(params, grads)
        assert params["l"]["w"][0] == pytest.approx(0.9)
        assert params["l"]["gamma"][0] == pytest.approx(1.0)

    def test_bad_lr(self):
        with pytest.raises(ValueError):
            SGD(lr=0.0)

    @staticmethod
    def _reference_step(params, grads, vel, lr, momentum, decay):
        """The unblocked update: ``v = m*v + g`` in place, ``p -= lr*v``."""
        for key, g in grads.items():
            p = params[key]
            if decay and key == "w":
                g = g + decay * p
            if momentum:
                if key in vel:
                    vel[key] *= momentum
                    vel[key] += g
                else:
                    vel[key] = g.copy()
                g = vel[key]
            p -= lr * g

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    @pytest.mark.parametrize("decay", [0.0, 1e-2])
    def test_blocked_update_is_bitwise_the_reference(self, dtype, momentum, decay):
        B = _BLOCK
        rng = np.random.default_rng(7)
        shapes = {f"n{n}": (n,) for n in (0, 1, B - 1, B, B + 1, 3 * B + 7)}
        shapes["w"] = (5, 7, 31, 33)  # C-contiguous 4-D, > 2 blocks, decayed
        params = {k: rng.standard_normal(s).astype(dtype) for k, s in shapes.items()}
        ref = {k: p.copy() for k, p in params.items()}
        opt = SGD(lr=0.05, momentum=momentum, weight_decay=decay)
        vel: dict[str, np.ndarray] = {}
        for _ in range(3):  # the first step creates the velocities
            grads = {k: rng.standard_normal(s).astype(dtype) for k, s in shapes.items()}
            opt.step({"l": params}, {"l": {k: g.copy() for k, g in grads.items()}})
            self._reference_step(ref, grads, vel, 0.05, momentum, decay)
            for k in shapes:
                assert params[k].dtype == dtype
                assert params[k].tobytes() == ref[k].tobytes(), k
        for k, v in vel.items():
            assert opt._velocity[("l", k)].tobytes() == v.tobytes(), k

    def test_step_allocates_no_tensor_sized_temporary(self):
        import tracemalloc

        n = 1 << 20  # one 8 MB tensor
        params = {"l": {"w": np.ones(n)}}
        grads = {"l": {"w": np.full(n, 0.5)}}
        opt = SGD(lr=0.1, momentum=0.9, weight_decay=1e-4)
        tracemalloc.start()
        try:
            opt.step(params, grads)  # creates the 8 MB velocity
            first = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            opt.step(params, grads)
            second = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert first < 8 * n + (1 << 20)
        assert second < 1 << 20

    def test_non_contiguous_parameter_rejected(self):
        p = np.ones((4, 6)).T  # reshape(-1) would update a copy
        with pytest.raises(ValueError, match="C-contiguous"):
            SGD(lr=0.1).step({"l": {"w": p}}, {"l": {"w": np.ones((6, 4))}})
