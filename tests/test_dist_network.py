"""End-to-end exactness: distributed network == single-device network.

Covers the full §III pipeline: conv + pool + BN + ReLU + residual adds +
GAP + losses, under sample / spatial / hybrid strategies, including
per-layer strategies that force data redistributions (§III-C).
"""

import functools
from time import monotonic

import numpy as np
import pytest

from conftest import DELAY_PLANS, DELAY_S, CopyingReducer
from repro.comm import run_spmd
from repro.comm.faults import FAULTS_ENV
from repro.core import DistNetwork, DistTrainer, LayerParallelism, ParallelStrategy
from repro.core import dist_network
from repro.core.grad_reducer import DEFAULT_BUCKET_BYTES, BucketedGradReducer
from repro.nn import LocalNetwork, NetworkSpec, SGD
from repro.nn.meshnet import build_mesh_model
from repro.nn.resnet import build_resnet_tiny
from repro.tensor import DistTensor

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
        spec = build_mesh_model(
            resolution=32, convs_per_block=2, block_channels=(8, 12), input_channels=4
        )
        x, t = make_batch(spec, n=2, seed=7)
        ref_losses, _ = run_local(spec, x, t, steps=2)
        for losses, _ in run_dist(spec, nranks, par, x, t, steps=2):
            np.testing.assert_allclose(losses, ref_losses, rtol=RTOL)


def transfer_net():
    """Every kind of transfer a step makes.  A sample-parallel stem feeds a
    spatial body: the r1 activation has two consumers on the far side of
    the strategy cut — c2 and, along the skip edge, ``j`` — which share one
    forward shuffle (in flight behind c2/p2 for ``j``) and each send an
    error signal back; c2 gathers halos, p2 is a K > S pool whose windows
    straddle the partition (a scatter-add in backward: averaging, so that
    every contribution to a corner cell is nonzero and their order shows in
    the bits), b3 allreduces its statistics, and conv/bn/fc layers all
    carry gradients."""
    net = NetworkSpec("transfers")
    net.add("input", "input", channels=2, height=12, width=12)
    net.add("c1", "conv", ["input"], filters=4, kernel=3, pad=1, bias=True)
    net.add("r1", "relu", ["c1"])
    net.add("c2", "conv", ["r1"], filters=4, kernel=3, pad=1)
    net.add("p2", "pool", ["c2"], mode="avg", kernel=3, stride=1, pad=1)
    net.add("j", "add", ["p2", "r1"])
    net.add("b3", "bn", ["j"])
    net.add("gap", "gap", ["b3"])
    net.add("fc", "fc", ["gap"], units=3)
    net.add("loss", "softmax_ce", ["fc"])
    return net


TRANSFER_STEPS = 3

#: Each plan of DELAY_PLANS delays at least this many transport operations
#: per step of :func:`transfer_net`.
DELAYED_OPS_PER_STEP = 30


def _transfer_batch(spec):
    return make_batch(spec, n=4, seed=11)


def _transfer_strategy():
    sample = LayerParallelism(sample=4)
    return ParallelStrategy(
        {"input": sample, "c1": sample, "r1": sample},
        default=LayerParallelism(height=2, width=2),
    )


def _transfer_train(
    comm, spec, strategy, algorithm="direct", bucket_bytes=DEFAULT_BUCKET_BYTES
):
    """``(net, losses)`` of TRANSFER_STEPS training steps."""
    net = DistNetwork(
        spec, comm, strategy, seed=0, collective_algorithm=algorithm,
        grad_bucket_bytes=bucket_bytes,
    )
    trainer = DistTrainer(net, SGD(lr=0.1))
    x, t = _transfer_batch(spec)
    return net, [trainer.step(x, t) for _ in range(TRANSFER_STEPS)]


def _transfer_job(
    backend, algorithm="direct", reducer=BucketedGradReducer, faults=None,
    bucket_bytes=DEFAULT_BUCKET_BYTES,
):
    """Per rank: (loss trajectory as float.hex, region_data bytes, shuffle
    bytes, shuffles, the trained parameters as bytes) of 3 steps of
    :func:`transfer_net`, under the ``REPRO_FAULTS`` plan ``faults``."""
    spec = transfer_net()

    def prog(comm):
        net, losses = _transfer_train(
            comm, spec, _transfer_strategy(), algorithm, bucket_bytes
        )
        rows = comm.stats.collective_bytes
        assert net.shuffle_count == comm.stats.collectives["shuffle"]
        return (
            [float(v).hex() for v in losses],
            rows.get("region_data", 0),
            rows.get("shuffle", 0),
            net.shuffle_count,
            {lay: {p: a.tobytes() for p, a in ps.items()} for lay, ps in net.params.items()},
        )

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dist_network, "BucketedGradReducer", reducer)
        if faults is not None:
            mp.setenv(FAULTS_ENV, faults)
        return run_spmd(4, prog, backend=backend)


_transfer_run = functools.lru_cache(maxsize=None)(_transfer_job)


class TestTimingIndependence:
    """When a message arrives never changes a bit: synchronous SGD stays
    the sequential algorithm however its messages arrive (Das et al.,
    1602.06709).  Every receive lands in a slot its plan fixes and every
    fold runs in a fixed order, so halo gathers, the scatter-add, shared
    and backward shuffles, BN statistics and bucketed gradient allreduces
    train to the undelayed bits and bytes under adversarial arrival order.
    The buckets ask for ``"hierarchical"``: the two-level composition under
    a host map of two nodes, the flat ``"auto"`` schedule otherwise."""

    ALGORITHM = "hierarchical"

    @pytest.mark.parametrize("plan", list(DELAY_PLANS))
    def test_delayed_messages_move_no_bit(self, backend, plan):
        calm = _transfer_run(backend, self.ALGORITHM)
        assert all(rd > 0 and sh > 0 for _, rd, sh, *_ in calm)
        # Per step: r1 is redistributed once for both of its consumers
        # (c2 and the skip edge into j); each sends its error signal back.
        assert all(count == TRANSFER_STEPS * (1 + 2) for *_, count, _ in calm)
        spec = transfer_net()
        ref_losses, _ = run_local(spec, *_transfer_batch(spec), steps=TRANSFER_STEPS)
        for hexes, *_ in calm:
            np.testing.assert_allclose(
                [float.fromhex(h) for h in hexes], ref_losses, rtol=RTOL
            )
        t0 = monotonic()
        assert _transfer_job(backend, self.ALGORITHM, faults=DELAY_PLANS[plan]) == calm
        # The delays did fire.
        assert monotonic() - t0 >= TRANSFER_STEPS * DELAYED_OPS_PER_STEP * DELAY_S


class TestDonatedPartials:
    @pytest.mark.parametrize(
        "bucket_bytes", [DEFAULT_BUCKET_BYTES, 1], ids=["buckets", "per-layer"]
    )
    @pytest.mark.parametrize("algorithm", ["direct", "auto"])
    def test_donated_partials_are_invisible(self, backend, algorithm, bucket_bytes):
        """The reducer reduces a donated bucket in place — a fresh
        concatenation under the default cut, the layer's own partial in a
        single-tensor bucket under one bucket per layer; a reducer that
        copies every partial first trains to the same bits and bytes, under
        the scheduled algorithms that do reduce in place as under
        ``"direct"`` — nothing reads a partial after ``add()``."""
        copying = _transfer_run(
            backend, algorithm, CopyingReducer, bucket_bytes=bucket_bytes
        )
        assert copying == _transfer_run(backend, algorithm, bucket_bytes=bucket_bytes)


def fork_net():
    """conv -> {conv-bn, identity} -> add -> relu -> gap -> fc -> loss: ``c0``
    is the one layer with two consumers, every other has one."""
    net = NetworkSpec("fork")
    net.add("input", "input", channels=2, height=8, width=8)
    net.add("c0", "conv", ["input"], filters=4, kernel=3, pad=1)
    net.add("c1", "conv", ["c0"], filters=4, kernel=1)
    net.add("b1", "bn", ["c1"])
    net.add("j", "add", ["b1", "c0"])
    net.add("r", "relu", ["j"])
    net.add("gap", "gap", ["r"])
    net.add("fc", "fc", ["gap"], units=3)
    net.add("loss", "softmax_ce", ["fc"])
    return net


#: Hybrid p = 4 with one bucket per layer: ``fc``'s gradient group is the
#: 2-rank sample axis, every other layer's is all 4 ranks.
HYBRID = LayerParallelism(sample=2, height=2)

#: Each plan of DELAY_PLANS delays at least this many transport operations
#: per step of :func:`fork_net` under HYBRID.
HYBRID_DELAYED_OPS_PER_STEP = 10


def _hybrid_job(faults=None):
    """Per rank: (loss trajectory as float.hex, the trained parameters as
    bytes, the most launched buckets not yet completed after any ``add``)
    of TRANSFER_STEPS fused steps of :func:`fork_net` under HYBRID, under
    the ``REPRO_FAULTS`` plan ``faults``, on the thread backend."""
    spec = fork_net()
    x, t = make_batch(spec, n=4, seed=3)

    class Recording(BucketedGradReducer):
        most = 0

        def add(self, layer, partials, comm):
            out = super().add(layer, partials, comm)
            self.most = max(self.most, self.inflight)
            return out

    def prog(comm):
        net = DistNetwork(spec, comm, HYBRID, seed=0, grad_bucket_bytes=1)
        trainer = DistTrainer(net, SGD(lr=0.1, momentum=0.9))
        losses = [trainer.step(x, t) for _ in range(TRANSFER_STEPS)]
        return (
            [float(v).hex() for v in losses],
            {lay: {p: a.tobytes() for p, a in ps.items()} for lay, ps in net.params.items()},
            net._reducer().most,
        )

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dist_network, "BucketedGradReducer", Recording)
        if faults is not None:
            mp.setenv(FAULTS_ENV, faults)
        return run_spmd(4, prog, backend="thread", timeout=60)


class TestBucketCompletionTiming:
    """Launching a bucket blocks until the one before it completes — a wait
    inside backward, at a point the schedule fixes.  With one bucket per
    layer under HYBRID, ``fc``'s bucket (2-rank group) is completed by the
    launch of ``b1``'s (4-rank group), so the wait crosses
    sub-communicators; however messages arrive, every rank gets there, no
    more than one bucket is ever in flight, and training keeps the
    undelayed bits."""

    def test_buckets_alternate_gradient_groups(self):
        from repro.core.schedule import lower

        cuts = lower(fork_net(), ParallelStrategy.uniform(HYBRID), 4).grad_buckets(1, 8)
        assert [(cut.layers, cut.group[0]) for cut in cuts] == [
            (("fc",), 2), (("b1",), 4), (("c1",), 4), (("c0",), 4)
        ]
        assert [cut.completes for cut in cuts] == [None, 0, 1, 2]

    @pytest.mark.parametrize("plan", list(DELAY_PLANS))
    def test_delayed_messages_move_no_bit(self, plan):
        calm = _hybrid_job()
        assert all(most == 1 for *_, most in calm)
        t0 = monotonic()
        assert _hybrid_job(DELAY_PLANS[plan]) == calm
        # The delays did fire.
        assert monotonic() - t0 >= TRANSFER_STEPS * HYBRID_DELAYED_OPS_PER_STEP * DELAY_S


def _wrapped_kinds(wrap):
    """``dist_network._KINDS`` with every layer kind's backward replaced by
    ``wrap(kind.backward)``."""
    return {
        name: kind._replace(backward=wrap(kind.backward)) if kind.backward else kind
        for name, kind in dist_network._KINDS.items()
    }


def _private_dy(backward):
    """The interpreter this one replaced, as a test double: every layer runs
    backward on a private copy of its error signal."""

    def copying(net, impl, dy, saved, op):
        if dy is not None:
            dy = DistTensor(dy.grid, dy.dist, dy.global_shape, dy.local.copy())
        return backward(net, impl, dy, saved, op)

    return copying


@functools.lru_cache(maxsize=None)
def _reference_run(backend, copying, unshuffled_fork=False):
    """Per rank: (loss trajectory as float.hex, the last step's gradients as
    bytes) of 3 steps — of :func:`transfer_net`, or of :func:`fork_net`
    sample-parallel."""
    spec = fork_net() if unshuffled_fork else transfer_net()
    strategy = LayerParallelism(sample=4) if unshuffled_fork else _transfer_strategy()

    def prog(comm):
        net, losses = _transfer_train(comm, spec, strategy)
        grads = {
            layer: {p: a.tobytes() for p, a in g.items()}
            for layer, g in net.grads.items()
        }
        return [float(v).hex() for v in losses], grads

    with pytest.MonkeyPatch.context() as mp:
        if copying:
            mp.setattr(dist_network, "_KINDS", _wrapped_kinds(_private_dy))
        return run_spmd(4, prog, backend=backend)


class TestErrorSignalsByReference:
    """A layer's ``dx`` is its parent's ``dy``: no copy on a single-consumer
    edge, a fresh sum at a fork, and nothing a producer still holds is ever
    written to."""

    def test_single_consumers_alias_and_a_fork_sums_afresh(self):
        spec = fork_net()
        x, t = make_batch(spec, n=4, seed=12)
        log = {}

        def spy(backward):
            def recording(net, impl, dy, saved, op):
                dx, g = backward(net, impl, dy, saved, op)
                log[id(impl)] = (dy, dx, None if dx is None else dx.local.copy())
                return dx, g

            return recording

        def prog(comm):
            net = DistNetwork(spec, comm, LayerParallelism(sample=2), seed=0)
            net.forward(x, targets=t)
            net.backward()
            seen = {n: log[id(impl)] for n, impl in net._layers.items() if id(impl) in log}
            assert set(seen) == set(net._layers) - {"input"}
            # One consumer: the error signal is the child's dx, not a copy.
            for layer, child in [
                ("fc", "loss"), ("gap", "fc"), ("r", "gap"), ("j", "r"),
                ("b1", "j"), ("c1", "b1"),
            ]:
                assert np.shares_memory(seen[layer][0].local, seen[child][1].local), layer
            # Two consumers: a fresh array holding the sum of both, in
            # arrival order (j's dx, which is j's own dy, then c1's).
            dy0 = seen["c0"][0].local
            parts = [seen["j"][1].local, seen["c1"][1].local]
            assert not any(np.shares_memory(dy0, part) for part in parts)
            np.testing.assert_array_equal(dy0, parts[0] + parts[1])
            # Nothing was written to after its producer returned it.
            for _, dx, returned in seen.values():
                if dx is not None:
                    np.testing.assert_array_equal(dx.local, returned)
            return True

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dist_network, "_KINDS", _wrapped_kinds(spy))
            assert run_spmd(2, prog) == [True, True]

    def test_bitwise_equal_to_copying_every_error_signal(self, backend):
        """Handing error signals over by reference trains to the bits of an
        interpreter that gives every layer a private copy — losses and
        gradients."""
        assert _reference_run(backend, True) == _reference_run(backend, False)

    def test_bitwise_equal_to_copying_at_an_unshuffled_fork(self):
        """Same, where the fork's contributions are the producers' own
        arrays (no shuffle in between hands out fresh ones)."""
        got = _reference_run("thread", False, unshuffled_fork=True)
        assert got == _reference_run("thread", True, unshuffled_fork=True)
        assert all(rank == got[0] for rank in got)


def conv_bn_relu_chain(depth=6, channels=8, size=48):
    """``depth`` conv-BN-ReLU blocks and a 1x1 prediction under BCE."""
    spec = NetworkSpec("chain")
    spec.add("input", "input", channels=channels, height=size, width=size)
    tip = "input"
    for i in range(depth):
        spec.add(f"c{i}", "conv", [tip], filters=channels, kernel=3, pad=1)
        spec.add(f"b{i}", "bn", [f"c{i}"])
        tip = spec.add(f"r{i}", "relu", [f"b{i}"])
    spec.add("predict", "conv", [tip], filters=1, kernel=1, bias=True)
    spec.add("loss", "bce", ["predict"])
    return spec


def wide_net(depth=4, channels=128, size=2, classes=10):
    """The e2e benchmark's wide net, scaled down: ``depth`` bias-free 3x3
    convolutions of ``channels`` filters — each weight its own gradient
    bucket — then GAP and a 1x1 classifier, which joins the first bucket."""
    spec = NetworkSpec("wide")
    spec.add("input", "input", channels=channels, height=size, width=size)
    tip = "input"
    for i in range(depth):
        spec.add(f"c{i}", "conv", [tip], filters=channels, kernel=3, pad=1)
        tip = spec.add(f"r{i}", "relu", [f"c{i}"])
    spec.add("gap", "gap", [tip])
    spec.add("fc", "conv", ["gap"], filters=classes, kernel=1, bias=True)
    spec.add("loss", "softmax_ce", ["fc"])
    return spec


def _saved_state(net) -> list[str]:
    """The layers whose saved state the network's table holds for backward."""
    return sorted(net._saved or ())


def _layer_arrays(net) -> list[str]:
    """``layer.attribute`` of every array a layer refers to beyond its
    parameters and batch norm's running statistics — what it would have
    kept of a step."""
    params = {id(a) for layer in net.params.values() for a in layer.values()}
    held = []

    def walk(where, value):
        if isinstance(value, DistTensor):
            value = value.local
        if isinstance(value, np.ndarray):
            if id(value) not in params:
                held.append(where)
        elif isinstance(value, (dict, tuple, list)):
            items = value.items() if isinstance(value, dict) else enumerate(value)
            for key, v in items:
                walk(f"{where}[{key!r}]", v)

    for name, impl in net._layers.items():
        for attr, value in vars(impl).items() if impl is not None else ():
            if attr not in ("running_mean", "running_var"):
                walk(f"{name}.{attr}", value)
    return held


LIVENESS_NETS = {
    "resnet_tiny": lambda: build_resnet_tiny(image_size=16),
    "mesh_tiny": lambda: build_mesh_model(
        resolution=32, convs_per_block=2, block_channels=(8, 12), input_channels=4
    ),
    # A max-pool that backward never reaches, in front of the first conv.
    "dead_maxpool": lambda: dead_input_nets(pool_mode="max")["pool"],
}
LIVENESS_CASES = [
    pytest.param(net, nranks, par, id=f"{net}-p{nranks}")
    for net in LIVENESS_NETS
    for nranks, par in [
        (1, LayerParallelism()),
        (2, LayerParallelism(sample=2) if net == "resnet_tiny" else LayerParallelism(height=2)),
    ]
    if nranks == 1 or net != "dead_maxpool"
]


class TestStepLiveness:
    """A step holds only what backward still reads: forward releases each
    activation after its last reader (the schedule's ``releases``), the
    network's table holds what the layers backward reaches saved, each
    layer's backward consumes its entry, and no layer keeps any of it."""

    @staticmethod
    def _run(net_name, nranks, par, body):
        spec = LIVENESS_NETS[net_name]()
        x, t = make_batch(spec, n=2, seed=5)

        def prog(comm):
            net = DistNetwork(spec, comm, par, seed=0)
            return body(net, spec, x, t)

        return run_spmd(nranks, prog)

    @pytest.mark.parametrize("net_name,nranks,par", LIVENESS_CASES)
    def test_forward_keeps_only_the_outputs(self, net_name, nranks, par):
        def body(net, spec, x, t):
            net.forward(x, targets=t)
            return sorted(net._acts) == sorted(layer.name for layer in spec.outputs())

        assert self._run(net_name, nranks, par, body) == [True] * nranks

    @pytest.mark.parametrize("net_name,nranks,par", LIVENESS_CASES)
    def test_backward_leaves_no_saved_state(self, net_name, nranks, par):
        def body(net, spec, x, t):
            for _ in range(2):
                net.forward(x, targets=t)
                # Forward saved for exactly the layers backward reaches.
                assert _saved_state(net) == sorted(op.name for op in net._sched.backward)
                assert _layer_arrays(net) == []
                net.backward()
                assert _saved_state(net) == [] and _layer_arrays(net) == []
            return True

        assert self._run(net_name, nranks, par, body) == [True] * nranks

    def test_evaluation_forward_keeps_nothing(self):
        """``DistTrainer.evaluate`` runs forward only, so nothing of it is
        kept for a backward: no table, and no layer holds a view of an
        input, a ReLU mask or a pooling argmax."""
        spec = small_conv_net()
        x, t = make_batch(spec, n=2, seed=8)

        def prog(comm):
            net = DistNetwork(spec, comm, LayerParallelism(), seed=0)
            trainer = DistTrainer(net)
            trainer.step(x, t)
            trainer.evaluate(x, t)
            return net._saved, _layer_arrays(net)

        assert run_spmd(1, prog) == [(None, [])]

    @pytest.mark.parametrize("net_name", ["resnet_tiny", "mesh_tiny"])
    def test_evaluation_builds_no_seed(self, net_name, monkeypatch):
        """An evaluation forward computes the loss but not the logits' error
        signal, which no backward would read; a training forward does."""
        from repro.nn import functional as F

        built = []
        for name in ("softmax_cross_entropy", "sigmoid_bce_with_logits"):
            def spy(*args, _real=getattr(F, name), **kwargs):
                loss, grad = _real(*args, **kwargs)
                built.append(grad is not None)
                return loss, grad

            monkeypatch.setattr(F, name, spy)
        spec = LIVENESS_NETS[net_name]()
        x, t = make_batch(spec, n=2, seed=5)
        par = LayerParallelism(sample=2) if net_name == "resnet_tiny" else LayerParallelism(height=2)

        def prog(comm, evaluate):
            net = DistNetwork(spec, comm, par, seed=0)
            if evaluate:
                return DistTrainer(net).evaluate(x, t)
            return net.forward(x, targets=t)

        for evaluate in (True, False):
            built.clear()
            losses = run_spmd(2, functools.partial(prog, evaluate=evaluate), backend="thread")
            assert losses[0] == losses[1] and np.isfinite(losses[0])
            assert built == [not evaluate] * 2

    @pytest.mark.parametrize("net_name,nranks,par", LIVENESS_CASES)
    def test_gathering_a_released_activation_names_the_outputs(self, net_name, nranks, par):
        def body(net, spec, x, t):
            net.forward(x, targets=t)
            with pytest.raises(ValueError, match=r"not held.*'loss'"):
                net.gather_activation("input")
            # The loss forwards its logits: the output holds them.
            return net.gather_activation("loss")

        spec = LIVENESS_NETS[net_name]()
        x, t = make_batch(spec, n=2, seed=5)
        local = LocalNetwork(spec, seed=0)
        local.forward(x, t)
        expected = local.activations[spec["loss"].parents[0]]
        for got in self._run(net_name, nranks, par, body):
            np.testing.assert_allclose(got, expected, rtol=RTOL, atol=ATOL)

    def test_an_activation_read_only_through_a_shuffle_dies_at_its_start(self):
        """``r1`` runs sample-parallel and both its readers spatially: its
        one forward shuffle is the last thing that reads it."""
        from repro.core.schedule import lower

        spec = transfer_net()
        sched = lower(spec, _transfer_strategy(), 4)
        dies = {p: op.name for op in sched.layers for p in op.releases}
        assert dies["r1"] == "r1" and [s.parent for s in sched["r1"].starts] == ["r1"]
        assert dies["p2"] == "j" and dies["c1"] == "r1" and "loss" not in dies
        assert set(dies) == {layer.name for layer in spec} - {"loss"}

        def prog(comm):
            net, _ = _transfer_train(comm, spec, _transfer_strategy())
            x, t = _transfer_batch(spec)
            net.forward(x, targets=t)
            return sorted(net._acts)

        assert run_spmd(4, prog) == [["loss"]] * 4

    def test_step_peak_is_below_holding_every_activation(self):
        """A p = 1 chain of six conv-BN-ReLU blocks, traced over one step
        after a warm-up step, in units of one activation (2 x 8 x 48 x 48
        float64).  Forward keeps per block the convolution output (in its
        batch norm's cache), the ReLU output (the next convolution reads it
        in place) and a bool mask — the batch-norm output dies with its
        ReLU — and backward frees them block by block.  Holding every
        activation to the end of backward reads 19.1 after forward, 26.2 at
        the peak and 19.2 after backward; this schedule reads 13.0, 17.9
        and 0.3."""
        import tracemalloc

        spec = conv_bn_relu_chain()
        x, t = make_batch(spec, n=2, seed=5)

        def prog(comm):
            net = DistNetwork(spec, comm, LayerParallelism(), seed=0)
            net.forward(x, targets=t)
            net.backward()
            tracemalloc.start()
            try:
                net.forward(x, targets=t)
                kept = tracemalloc.get_traced_memory()[0]
                net.backward()
                left, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return kept / x.nbytes, peak / x.nbytes, left / x.nbytes

        ((kept, peak, left),) = run_spmd(1, prog)
        assert kept < 16 and peak < 22 and left < 1, (kept, peak, left)

    def test_a_spatially_split_rank_keeps_no_region_between_steps(self):
        """Between steps a spatially split rank (p = 2, height split, forked
        ranks) holds its parameters, its velocity, its network and cached
        plans — nothing that grows with the sample: no halo region or
        staging buffer lives from one step into the next.  Read as
        ``tracemalloc``'s current bytes after two steps, traced from before
        the network is built (a first network has warmed the plan caches),
        at two resolutions of the same net: parameters alike, samples 4x
        apart.  Keeping each exchanged window's assembled regions between
        steps grew it by 1.29 MB (3.3x the input shard's growth); what is
        left grows 6 KB."""
        import tracemalloc

        def held(resolution):
            spec = build_mesh_model(
                resolution=resolution, convs_per_block=2, block_channels=(8, 12),
                input_channels=4,
            )
            x, t = make_batch(spec, n=2, seed=5)

            def train(comm):
                net = DistNetwork(spec, comm, LayerParallelism(height=2), seed=0)
                trainer = DistTrainer(net, SGD(lr=0.01, momentum=0.9))
                for _ in range(2):
                    trainer.step(x, t)
                return net, trainer

            def prog(comm):
                train(comm)
                tracemalloc.start()
                try:
                    net, trainer = train(comm)
                    current = tracemalloc.get_traced_memory()[0]
                finally:
                    tracemalloc.stop()
                state = sum(a.nbytes for p in net.params.values() for a in p.values())
                state += sum(v.nbytes for v in trainer.optimizer._velocity.values())
                return current - state, x.nbytes // 2

            return run_spmd(2, prog, backend="process")

        for (small, shard_small), (large, shard_large) in zip(held(64), held(128)):
            assert large - small < 0.1 * (shard_large - shard_small), (small, large)

    def test_fused_step_holds_two_buckets(self):
        """Two sample-parallel thread ranks, traced over one fused
        ``DistTrainer`` step after a warm-up step, in units of the largest
        bucket (1.2 MB; :func:`wide_net` cuts four).  Launching a bucket
        completes the one before it, so beside its parameters and owned
        velocity a rank holds at most two buckets' gradients — the one in
        flight and the one just computed.  The slack, per rank, is one
        bucket of wire copies (the thread world copies every message, and
        at p = 2 each of the two buckets has at most one half-bucket
        message of this rank in flight) and 512 KiB of activations and
        interpreter state.  Over parameters + velocity, the two ranks'
        joint peak reads 10.4-10.9 when every gradient lives until the
        drain and 5.9-6.4 here, under a bound of 6 buckets + 1 MiB (6.9)."""
        import tracemalloc

        spec = wide_net()
        x, t = make_batch(spec, n=4, seed=5)

        def prog(comm):
            net = DistNetwork(spec, comm, LayerParallelism(sample=2), seed=0)
            opt = SGD(lr=0.1, momentum=0.9)
            trainer = DistTrainer(net, opt)
            trainer.step(x, t)
            comm.barrier()
            if comm.rank == 0:
                tracemalloc.reset_peak()
            comm.barrier()
            trainer.step(x, t)
            comm.barrier()
            peak = tracemalloc.get_traced_memory()[1]
            held = sum(a.nbytes for layer in net.params.values() for a in layer.values())
            held += sum(v.nbytes for v in opt._velocity.values())
            cuts = net._reducer().buckets
            return peak, held, len(cuts), max(cut.nbytes for cut in cuts)

        tracemalloc.start()
        try:
            (peak, held0, n_cuts, bucket), (_, held1, *_) = run_spmd(2, prog)
        finally:
            tracemalloc.stop()
        assert n_cuts == 4
        slack = bucket + (512 << 10)
        over = (peak - held0 - held1) / bucket
        assert peak <= held0 + held1 + 2 * (2 * bucket + slack), over


def dead_input_nets(pool_mode="avg"):
    """Four ways an input feeds the first parameterised layer; in each, the
    error signal toward the input (and toward ``p0``, a ``pool_mode``
    pooling, in ``pool``) is dead.  Stride-2 convolutions keep the
    phase-decomposed Eq. 3 on the live path."""
    nets = {}
    for label in ("conv", "pool", "bn", "skip"):
        net = NetworkSpec(f"dead-input-{label}")
        net.add("input", "input", channels=2, height=16, width=16)
        tip = "input"
        if label == "pool":
            tip = net.add("p0", "pool", [tip], mode=pool_mode, kernel=3, stride=1, pad=1)
        if label == "bn":
            tip = net.add("b0", "bn", [tip])
        net.add("c1", "conv", [tip], filters=2, kernel=3, pad=1, bias=True)
        tip = "c1"
        if label == "skip":
            tip = net.add("j", "add", ["c1", "input"])
        net.add("r1", "relu", [tip])
        net.add("c2", "conv", ["r1"], filters=3, kernel=5, stride=2, pad=2)
        net.add("b2", "bn", ["c2"])
        net.add("predict", "conv", ["b2"], filters=1, kernel=1, bias=True)
        net.add("loss", "bce", ["predict"])
        nets[label] = net
    return nets


DEAD_STEPS = 2
SPATIAL2 = LayerParallelism(height=2)
#: Sample-parallel input feeding a spatial body: every edge out of the input
#: is a forward shuffle.
SAMPLE_THEN_SPATIAL = ParallelStrategy(
    {"input": LayerParallelism(sample=2)}, default=SPATIAL2
)


@functools.lru_cache(maxsize=None)
def _dead_input_run(backend):
    """Per net and strategy, rank 0's ``(grads as float.hex, region_data
    exchanges, shuffles)`` after ``DEAD_STEPS`` steps on 2 ranks."""
    nets = dead_input_nets()

    def prog(comm):
        out = {}
        for label, spec in nets.items():
            x, t = make_batch(spec, n=2, seed=5)
            for sname, strategy in (
                ("spatial", SPATIAL2), ("sample-spatial", SAMPLE_THEN_SPATIAL)
            ):
                net = DistNetwork(spec, comm, strategy, seed=3, collective_algorithm="direct")
                comm.stats.reset()
                for _ in range(DEAD_STEPS):
                    net.forward(x, targets=t)
                    grads = net.backward()
                out[label, sname] = (
                    {
                        f"{layer}.{pname}": [float(v).hex() for v in g.ravel()]
                        for layer, lg in grads.items()
                        for pname, g in lg.items()
                    },
                    comm.stats.collectives.get("region_data", 0),
                    comm.stats.collectives.get("shuffle", 0),
                )
        return out

    return run_spmd(2, prog, backend=backend)[0]


class TestDeadInputGradient:
    """No error signal is computed for, exchanged toward or shuffled to a
    layer that needs none (``NetworkSpec.needs_error_signal``), and the
    gradients that remain are the sequential algorithm's."""

    @pytest.mark.parametrize("label", ["conv", "pool", "bn", "skip"])
    def test_grads_match_local_and_backends(self, label, backend):
        spec = dead_input_nets()[label]
        local = LocalNetwork(spec, seed=3)
        _, ref = local.loss_and_grad(*make_batch(spec, n=2, seed=5))
        want = {f"{layer}.{p}": g for layer, lg in ref.items() for p, g in lg.items()}
        for sname in ("spatial", "sample-spatial"):
            hexes, _, _ = _dead_input_run(backend)[label, sname]
            assert hexes == _dead_input_run("thread")[label, sname][0]
            assert hexes.keys() == want.keys()
            for key, g in want.items():
                got = np.array([float.fromhex(h) for h in hexes[key]]).reshape(g.shape)
                np.testing.assert_allclose(got, g, rtol=RTOL, atol=ATOL)

    def test_first_conv_posts_no_backward_halo_exchange(self):
        run = _dead_input_run("thread")
        # Forward: c1 and c2 gather halos (predict is 1x1).  Backward: c2
        # alone - c1's parent needs no error signal.
        assert run["conv", "spatial"][1] == DEAD_STEPS * (2 + 1)
        # With a BN in front, c1's parent does need one: that one exchange
        # per step is the whole difference.
        assert run["bn", "spatial"][1] == run["conv", "spatial"][1] + DEAD_STEPS
        # The average pool in front of c1 gathers its own forward halo; its
        # backward never runs.
        assert run["pool", "spatial"][1] == run["conv", "spatial"][1] + DEAD_STEPS

    def test_no_shuffle_toward_an_input(self):
        run = _dead_input_run("thread")
        # One forward shuffle of the input (in "skip", both of its
        # consumers read the same redistributed tensor), none back.
        for label in ("conv", "pool", "bn", "skip"):
            assert run[label, "sample-spatial"][2] == DEAD_STEPS
            assert run[label, "spatial"][2] == 0

    def test_layer_default_still_returns_dx(self):
        """``need_dx`` is the network's call: a ``DistConv2d.backward``
        handed Eq. 3's window returns ``dx``; one handed none returns the
        same ``dw``, and no exchange is posted for it."""
        from conftest import Driven
        from repro.core.dist_conv import DistConv2d
        from repro.core.parallelism import activation_dist
        from repro.tensor import DistTensor, ProcessGrid

        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 2, 8, 8))
        w = rng.standard_normal((3, 2, 3, 3))
        dy = rng.standard_normal((1, 3, 8, 8))

        def prog(comm):
            grid = ProcessGrid(comm, (1, 1, 2, 1))
            conv = Driven(DistConv2d(grid, w, pad=1))
            xt = DistTensor.from_global(grid, activation_dist(grid.shape, x.shape), x)
            dyt = DistTensor.from_global(grid, activation_dist(grid.shape, dy.shape), dy)
            conv.forward(xt)
            dx, dw, _ = conv.backward(dyt)
            conv.forward(xt)
            before = comm.stats.collectives["region_data"]
            none, dw_only, _ = conv.backward(dyt, need_dx=False)
            assert comm.stats.collectives["region_data"] == before
            return dx is not None, none is None, np.array_equal(dw, dw_only)

        assert run_spmd(2, prog) == [(True, True, True)] * 2


class TestValidation:
    def test_strategy_rank_mismatch(self):
        spec = small_conv_net()

        def prog(comm):
            DistNetwork(spec, comm, LayerParallelism(sample=4))

        with pytest.raises(ValueError, match="strategy uses 4 ranks"):
            run_spmd(2, prog, timeout=10)

    def test_eval_mode_runs(self):
        """An evaluation forward blocks on the schedule's forward
        collectives except batch norm's statistics: it normalises with the
        running ones."""
        from repro.core.schedule import lower

        spec = small_conv_net()
        x, t = make_batch(spec, n=2, seed=8)

        def prog(comm):
            net = DistNetwork(spec, comm, LayerParallelism(sample=2))
            trainer = DistTrainer(net)
            trainer.step(x, t)
            before = comm.stats.collectives.get("allreduce", 0)
            loss = trainer.evaluate(x, t)
            return loss, comm.stats.collectives.get("allreduce", 0) - before

        losses, issued = zip(*run_spmd(2, prog))
        assert np.isfinite(losses).all()
        assert losses[0] == pytest.approx(losses[1])
        sched = lower(spec, ParallelStrategy.uniform(LayerParallelism(sample=2)), 2)
        ops = [c.op_id for c in sched.collectives if c.op_id.startswith("fwd:")]
        assert any(":bnstats:" in op for op in ops)
        assert issued == (sum(":bnstats:" not in op for op in ops),) * 2

    def test_backward_before_forward(self):
        spec = small_conv_net()

        def prog(comm):
            net = DistNetwork(spec, comm, LayerParallelism())
            with pytest.raises(RuntimeError, match="before forward"):
                net.backward()
            return True

        assert run_spmd(1, prog) == [True]

    def test_backward_after_evaluation_forward_raises(self):
        """``DistTrainer.evaluate`` is forward-only; a backward after it would
        apply the training formula to running statistics — and, on a net
        without batch norm, return gradients of nothing.  Each backward
        reads what one training forward with targets saved: a second
        backward, or one after a training forward without targets (no
        seed), raises too."""
        bn_free = NetworkSpec("bn-free")
        bn_free.add("input", "input", channels=3, height=16, width=16)
        bn_free.add("c1", "conv", ["input"], filters=4, kernel=3, pad=1)
        bn_free.add("r1", "relu", ["c1"])
        bn_free.add("p1", "pool", ["r1"], mode="max", kernel=2)
        bn_free.add("predict", "conv", ["p1"], filters=1, kernel=1, bias=True)
        bn_free.add("loss", "bce", ["predict"])

        def prog(comm):
            grads = []
            for spec in (small_conv_net(), bn_free):
                x, t = make_batch(spec, n=2, seed=8)
                net = DistNetwork(spec, comm, LayerParallelism(sample=2))
                net.forward(x, targets=t, training=False)
                with pytest.raises(RuntimeError, match="after an evaluation forward"):
                    net.backward()
                net.forward(x, targets=t, training=True)
                grads.append(sorted(net.backward()))
                with pytest.raises(RuntimeError, match="before forward"):
                    net.backward()
                net.forward(x, training=True)
                with pytest.raises(RuntimeError, match="before forward"):
                    net.backward()
            return grads

        assert run_spmd(2, prog) == [
            [["b1", "b2", "c1", "c2", "predict"], ["c1", "predict"]]
        ] * 2

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
