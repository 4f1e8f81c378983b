"""End-to-end exactness: distributed network == single-device network.

Covers the full §III pipeline: conv + pool + BN + ReLU + residual adds +
GAP + losses, under sample / spatial / hybrid strategies, including
per-layer strategies that force data redistributions (§III-C).
"""

import functools
import itertools

import numpy as np
import pytest

from conftest import FORKED_BACKENDS, CopyingReducer, reduce_for_process
from repro.comm import run_spmd
from repro.core import DistNetwork, DistTrainer, LayerParallelism, ParallelStrategy
from repro.core import dist_network
from repro.core.grad_reducer import BucketedGradReducer
from repro.nn import LocalNetwork, NetworkSpec, SGD
from repro.nn.meshnet import mesh_model_tiny
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
        spec = mesh_model_tiny(resolution=32)
        x, t = make_batch(spec, n=2, seed=7)
        ref_losses, _ = run_local(spec, x, t, steps=2)
        for losses, _ in run_dist(spec, nranks, par, x, t, steps=2):
            np.testing.assert_allclose(losses, ref_losses, rtol=RTOL)


def flag_matrix_net():
    """Sample-parallel stem feeding a spatial body: the r1 activation has
    two consumers on the far side of the strategy cut — c2 and, along the
    skip edge, ``j`` — which share one forward shuffle (in flight behind
    c2/p2 for ``j``), p2 is a K > S pool whose windows straddle the
    partition, and conv/bn/fc layers all carry gradients."""
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


def _flag_strategy():
    sample = LayerParallelism(sample=4)
    return ParallelStrategy(
        {"input": sample, "c1": sample, "r1": sample},
        default=LayerParallelism(height=2, width=2),
    )


def _flag_train(comm, spec, strategy, flags, algorithm="direct"):
    """``(net, losses)`` of FLAG_STEPS training steps under one combination
    of ``(overlap_halo, overlap_shuffle, overlap_grad_reduce)``."""
    overlap_halo, overlap_shuffle, overlap_grad_reduce = flags
    net = DistNetwork(
        spec, comm, strategy, seed=0,
        overlap_halo=overlap_halo,
        overlap_shuffle=overlap_shuffle,
        overlap_grad_reduce=overlap_grad_reduce,
        collective_algorithm=algorithm,
    )
    trainer = DistTrainer(net, SGD(lr=0.1))
    x, t = _flag_batch(spec)
    return net, [trainer.step(x, t) for _ in range(FLAG_STEPS)]


@functools.lru_cache(maxsize=None)
def _flag_run(
    backend, overlap_halo, overlap_shuffle, overlap_grad_reduce,
    algorithm="direct", reducer=BucketedGradReducer,
):
    """Per rank: (loss trajectory as float.hex, region_data bytes, shuffle
    bytes, shuffles) of 3 steps under one flag combination."""
    spec = flag_matrix_net()
    flags = (overlap_halo, overlap_shuffle, overlap_grad_reduce)

    def prog(comm):
        net, losses = _flag_train(comm, spec, _flag_strategy(), flags, algorithm)
        rows = comm.stats.collective_bytes
        assert net.shuffle_count == comm.stats.collectives["shuffle"]
        return (
            [float(v).hex() for v in losses],
            rows.get("region_data", 0),
            rows.get("shuffle", 0),
            net.shuffle_count,
        )

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dist_network, "BucketedGradReducer", reducer)
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
        assert all(rd > 0 and sh > 0 for _, rd, sh, _ in got)
        # Per step: r1 is redistributed once for both of its consumers
        # (c2 and the skip edge into j); each sends its error signal back.
        assert all(count == FLAG_STEPS * (1 + 2) for *_, count in got)

        spec = flag_matrix_net()
        ref_losses, _ = run_local(spec, *_flag_batch(spec), steps=FLAG_STEPS)
        for hexes, *_ in got:
            np.testing.assert_allclose(
                [float.fromhex(h) for h in hexes], ref_losses, rtol=RTOL
            )

    @pytest.mark.parametrize("algorithm", ["direct", "auto"])
    @pytest.mark.parametrize(
        "backend,flags",
        [("thread", f) for f in itertools.product((True, False), repeat=3)]
        + [(b, (False, False, False)) for b in FORKED_BACKENDS],
        ids=lambda v: v if isinstance(v, str) else "".join(map(str, map(int, v))),
    )
    def test_donated_partials_are_invisible(self, backend, flags, algorithm):
        """The reducer reduces a layer's partial in place; a reducer that
        copies every partial first trains to the same bits and bytes, in
        every corner (the forked backends' reduced matrix: all flags off),
        under the scheduled algorithms that do reduce in place as under
        ``"direct"`` — nothing reads a partial after ``add()``."""
        assert _flag_run(backend, *flags, algorithm, CopyingReducer) == _flag_run(
            backend, *flags, algorithm
        )


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

    def copying(impl, dy, need_dx):
        if dy is not None:
            dy = DistTensor(dy.grid, dy.dist, dy.global_shape, dy.local.copy())
        return backward(impl, dy, need_dx)

    return copying


@functools.lru_cache(maxsize=None)
def _reference_run(backend, flags, copying, unshuffled_fork=False):
    """Per rank: (loss trajectory as float.hex, the last step's gradients as
    bytes) of 3 steps — of the flag-matrix net under one flag combination,
    or of :func:`fork_net` sample-parallel."""
    spec = fork_net() if unshuffled_fork else flag_matrix_net()
    strategy = LayerParallelism(sample=4) if unshuffled_fork else _flag_strategy()

    def prog(comm):
        net, losses = _flag_train(comm, spec, strategy, flags)
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
            def recording(impl, dy, need_dx):
                dx, g = backward(impl, dy, need_dx)
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

    @pytest.mark.parametrize(
        "flags", list(itertools.product((True, False), repeat=3)),
        ids=lambda f: "halo{}-shuffle{}-reduce{}".format(*map(int, f)),
    )
    def test_bitwise_equal_to_copying_every_error_signal(self, flags, backend):
        """Handing error signals over by reference trains to the bits of an
        interpreter that gives every layer a private copy — losses and
        gradients, in every flag corner (forked backends: all flags off)."""
        reduce_for_process(backend, any(flags), "all-flags-off corner only")
        assert _reference_run(backend, flags, True) == _reference_run(backend, flags, False)

    def test_bitwise_equal_to_copying_at_an_unshuffled_fork(self):
        """Same, where the fork's contributions are the producers' own
        arrays (no shuffle in between hands out fresh ones)."""
        flags = (True, True, True)
        got = _reference_run("thread", flags, False, unshuffled_fork=True)
        assert got == _reference_run("thread", flags, True, unshuffled_fork=True)
        assert all(rank == got[0] for rank in got)


def dead_input_nets():
    """Four ways an input feeds the first parameterised layer; in each, the
    error signal toward the input (and toward ``p0`` in ``pool``) is dead.
    Stride-2 convolutions keep the phase-decomposed Eq. 3 on the live path."""
    nets = {}
    for label in ("conv", "pool", "bn", "skip"):
        net = NetworkSpec(f"dead-input-{label}")
        net.add("input", "input", channels=2, height=16, width=16)
        tip = "input"
        if label == "pool":
            tip = net.add("p0", "pool", [tip], mode="avg", kernel=3, stride=1, pad=1)
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
        """``need_dx`` is the network's call: a bare ``DistConv2d.backward(dy)``
        returns ``dx``; ``need_dx=False`` returns the same ``dw`` and posts
        no exchange."""
        from repro.core.dist_conv import DistConv2d
        from repro.core.parallelism import activation_dist
        from repro.tensor import DistTensor, ProcessGrid

        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 2, 8, 8))
        w = rng.standard_normal((3, 2, 3, 3))
        dy = rng.standard_normal((1, 3, 8, 8))

        def prog(comm):
            grid = ProcessGrid(comm, (1, 1, 2, 1))
            conv = DistConv2d(grid, w, pad=1)
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

    def test_backward_after_evaluation_forward_raises(self):
        """``DistTrainer.evaluate`` is forward-only; a backward after it would
        apply the training formula to running statistics."""
        spec = small_conv_net()
        x, t = make_batch(spec, n=2, seed=8)

        def prog(comm):
            net = DistNetwork(spec, comm, LayerParallelism(sample=2))
            net.forward(x, targets=t, training=False)
            with pytest.raises(RuntimeError, match="after an evaluation forward"):
                net.backward()
            net.forward(x, targets=t, training=True)
            return sorted(net.backward())

        assert run_spmd(2, prog) == [["b1", "b2", "c1", "c2", "predict"]] * 2

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
