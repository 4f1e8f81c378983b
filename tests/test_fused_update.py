"""The optimizer step fused into the bucketed gradient reduction.

``DistTrainer.step`` hands its optimizer to the reducer, which runs
``SGD.step`` between the reduce-scatter and allgather halves of every
bucket, on the slices whose fold this rank finished, and lets the
allgather carry updated weights.  The contract held here, with no clocks:

* **parity** — parameters and velocity after three trainer steps are
  bitwise those of the reference path (``net.loss_and_grad()`` then
  ``SGD.step`` on every replica), over backend x algorithm x world size;
* **counts** — each rank steps the elements of its own chunks (n/p +- 1 per
  ring or Rabenseifner bucket, n under power-of-two recursive doubling,
  nothing on a rank recursive doubling folds away), keeps momentum for
  exactly those, and puts the allreduce path's bytes on the wire;
* **checkpoints** — momentum is sharded in memory and replicated on disk;
* **layout** — a bucket's owned range splits into parameter views that
  tile it, and the rest of the bucket lands around it;
* the reducer's ``poll``, which the unfused path keeps.
"""

import numpy as np
import pytest

from conftest import reduce_for_process
from repro.comm import run_spmd
from repro.core import DistNetwork, DistTrainer, LayerParallelism, ParallelStrategy
from repro.core import checkpoint as ckpt
from repro.core.grad_reducer import BucketedGradReducer, _Layout
from repro.core.schedule import cut_buckets, lower
from repro.nn import NetworkSpec, SGD

STEPS = 3
#: Cuts the net into fc (w + b) | c2 alone | b1 + c1: a multi-tensor, a
#: single-tensor and a remainder bucket.
BUCKET_BYTES = 400
HOSTMAP = "0,1:A 2,3:B"


def fused_net() -> NetworkSpec:
    net = NetworkSpec("fused-update")
    net.add("input", "input", channels=4, height=4, width=4)
    net.add("c1", "conv", ["input"], filters=16, kernel=3, pad=1, bias=True)
    net.add("b1", "bn", ["c1"])
    net.add("r1", "relu", ["b1"])
    net.add("c2", "conv", ["r1"], filters=16, kernel=3, pad=1)
    net.add("r2", "relu", ["c2"])
    net.add("gap", "gap", ["r2"])
    net.add("fc", "fc", ["gap"], units=3, bias=True)
    net.add("loss", "softmax_ce", ["fc"])
    return net


def batch(n=12, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, 4, 4, 4)), rng.integers(0, 3, size=n)


def _optimizer():
    return SGD(lr=0.05, momentum=0.9, weight_decay=1e-3)


def _net(comm, algorithm):
    return DistNetwork(
        fused_net(), comm, LayerParallelism(sample=comm.size), seed=0,
        collective_algorithm=algorithm, grad_bucket_bytes=BUCKET_BYTES,
    )


def _mismatches(comm, algorithm):
    """Train the fused and the reference path side by side; name every
    parameter or velocity slice whose bits differ."""
    x, t = batch()
    fused, reference = (_net(comm, algorithm) for _ in range(2))
    trainer, ref_opt = DistTrainer(fused, _optimizer()), _optimizer()
    for _ in range(STEPS):
        trainer.step(x, t)
        _, grads = reference.loss_and_grad(x, t)
        ref_opt.step(reference.params, grads)
    bad = [
        f"{layer}.{pname}"
        for layer, lparams in reference.params.items()
        for pname, ref in lparams.items()
        if fused.params[layer][pname].tobytes() != ref.tobytes()
    ]
    for key, v in trainer.optimizer._velocity.items():
        layer, pname, *offset = key
        full = ref_opt._velocity[layer, pname].reshape(-1)
        at = offset[0] if offset else 0
        if v.reshape(-1).tobytes() != full[at : at + v.size].tobytes():
            bad.append(f"velocity {key}")
    return [(algorithm, bad)] if bad else []


ALGORITHMS = ("auto", "ring", "rabenseifner", "recursive_doubling", "direct")


def _parity_prog(comm, algorithms):
    return [miss for algorithm in algorithms for miss in _mismatches(comm, algorithm)]


class TestParity:
    """Fused == reference, bit for bit.  p = 3 exercises Rabenseifner's ring
    fallback and recursive doubling's fold.  The forked backends run their
    reduced matrix: process the p = 3 schedules, socket the two-node host
    map, where ``"hierarchical"`` composes the schedule."""

    FORKED = {
        "process": (3, None, ("ring", "recursive_doubling")),
        "socket": (4, HOSTMAP, ("auto", "hierarchical")),
    }

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_params_and_velocity_match_the_reference_path(self, backend, p):
        hostmap, algorithms = None, ALGORITHMS if p > 1 else ("auto",)
        if backend in self.FORKED:
            forked_p, hostmap, algorithms = self.FORKED[backend]
            reduce_for_process(backend, p != forked_p, f"p={forked_p} only")
        got = run_spmd(
            p, _parity_prog, algorithms, backend=backend, hostmap=hostmap,
            timeout=120,
        )
        assert got == [[]] * p


def _count_prog(comm, algorithm):
    """Per bucket, the gradient elements ``SGD.step`` was handed, the
    velocity elements kept, and the wire bytes of the fused and the plain
    path."""
    x, t = batch()
    net = _net(comm, algorithm)
    trainer = DistTrainer(net, _optimizer())
    stepped: dict[str, int] = {}
    step = trainer.optimizer.step

    def counting(params, grads, offsets=None):
        for layer, g in grads.items():
            stepped[layer] = stepped.get(layer, 0) + sum(a.size for a in g.values())
        return step(params, grads, offsets)

    trainer.optimizer.step = counting
    comm.stats.reset()
    trainer.step(x, t)
    fused_wire = comm.stats.total_wire_sent("iallreduce")
    comm.stats.reset()
    net.loss_and_grad(x, t)
    plain_wire = comm.stats.total_wire_sent("iallreduce")
    kept: dict[str, int] = {}
    for (layer, *_), v in trainer.optimizer._velocity.items():
        kept[layer] = kept.get(layer, 0) + v.size
    return stepped, kept, fused_wire, plain_wire


class TestCounts:
    @pytest.mark.parametrize("p", [2, 3, 4])
    @pytest.mark.parametrize("algorithm", ["ring", "rabenseifner", "recursive_doubling"])
    def test_each_rank_steps_its_own_chunks(self, p, algorithm):
        x, _ = batch()
        strategy = ParallelStrategy.uniform(LayerParallelism(sample=p))
        cuts = lower(fused_net(), strategy, len(x)).grad_buckets(BUCKET_BYTES, 8)
        results = run_spmd(p, _count_prog, algorithm)

        def in_cut(stepped, cut):
            return sum(stepped.get(layer, 0) for layer in cut.layers)

        for rank, (stepped, kept, fused_wire, plain_wire) in enumerate(results):
            assert fused_wire == plain_wire > 0
            assert kept == stepped  # momentum for exactly what is stepped
            for cut in cuts:
                n, got = int(cut.nbytes) // 8, in_cut(stepped, cut)
                if algorithm != "recursive_doubling":
                    assert n // p <= got <= n // p + 1, (cut.op_id, rank, got)
                elif p == 3 and rank == 0:
                    assert got == 0  # folded into rank 1: owns nothing
                else:
                    assert got == n
        if algorithm != "recursive_doubling":  # every element exactly once
            for cut in cuts:
                total = sum(in_cut(stepped, cut) for stepped, *_ in results)
                assert total == int(cut.nbytes) // 8


def _ckpt_prog(comm, ckdir, resume):
    x, t = batch()
    net = _net(comm, "ring")
    trainer = DistTrainer(net, _optimizer(), checkpoint_dir=ckdir)
    if resume:
        assert trainer.resume() == 2
        trainer.step(x, t)
        velocity = {k: v.size for k, v in trainer.optimizer._velocity.items()}
        return trainer.network.params, velocity
    for _ in range(2):
        trainer.step(x, t)
    trainer.save_checkpoint()
    trainer.step(x, t)
    return trainer.network.params, None


def _replicated_velocity(steps):
    """The reference path's velocity after ``steps`` steps on 2 ranks."""

    def prog(comm):
        x, t = batch()
        net, opt = _net(comm, "ring"), _optimizer()
        for _ in range(steps):
            _, grads = net.loss_and_grad(x, t)
            opt.step(net.params, grads)
        return opt._velocity

    return run_spmd(2, prog)[0]


class TestCheckpoint:
    def test_velocity_is_sharded_in_memory_and_replicated_on_disk(self, tmp_path):
        d = str(tmp_path)
        uninterrupted = run_spmd(2, _ckpt_prog, d, False)
        velocity = ckpt.load_state(d, 2)["optimizer"]["velocity"]
        reference = _replicated_velocity(2)
        assert set(velocity) == set(reference)
        for key, v in reference.items():
            assert velocity[key].shape == v.shape
            assert velocity[key].tobytes() == v.tobytes()
        # Resumed from the replicated file, each rank keeps only its half,
        # and lands on the uninterrupted run's bits.
        resumed = run_spmd(2, _ckpt_prog, d, True)
        total = sum(v.size for v in reference.values())
        kept = [sum(velocity.values()) for _, velocity in resumed]
        assert sum(kept) == total and all(0 < k < total for k in kept)
        for (params, _), (ref, _) in zip(resumed, uninterrupted):
            for layer, lparams in ref.items():
                for pname, arr in lparams.items():
                    assert params[layer][pname].tobytes() == arr.tobytes()


class TestUnfusedPlumbing:
    """``BucketedGradReducer.poll`` on the unfused path (no optimizer handed
    to the reducer)."""

    def test_poll_returns_each_layer_exactly_once(self):
        names = [f"L{i}" for i in range(6)]
        # 128 B each: two layers per bucket.
        cuts = cut_buckets(((name, ("g",), 128) for name in names), 256)

        def prog(comm):
            red = BucketedGradReducer(cuts, algorithm="direct")
            for i, name in enumerate(names):
                red.add(name, {"w": np.full(16, float(i + comm.rank))}, comm)
            polled: list[str] = []
            for _ in range(200):
                polled.extend(red.poll())
                if red.inflight == 0:
                    break
            return polled, red.drain()

        for polled, final in run_spmd(2, prog):
            assert len(polled) == len(set(polled))  # no layer twice
            assert sorted(final) == names
            for i, name in enumerate(names):  # poll results stay in the drain
                np.testing.assert_array_equal(
                    final[name]["w"], np.full(16, 2.0 * i + 1.0)
                )


#: A multi-tensor bucket of 15 elements: w (6) | b (4) | v (5).
LAYOUT = (("fc", "w", (2, 3)), ("fc", "b", (4,)), ("bn", "v", (5,)))


def _layout(shapes):
    """A ``_Layout`` over ``shapes`` and parameters whose values are their
    elements' positions in the bucket."""
    entries, params, start = [], {}, 0
    for layer, pname, shape in shapes:
        size = int(np.prod(shape))
        entries.append((layer, pname, shape, start, size))
        params.setdefault(layer, {})[pname] = np.arange(
            start, start + size, dtype=float
        ).reshape(shape)
        start += size
    return _Layout(entries), params


class TestLayout:
    """``_Layout.fuse`` over one owned range: views of the parameters that
    tile it in bucket order (whole tensors keep their shape and unoffset
    momentum), the shards ``SGD`` keys momentum by, and the landing strips
    on either side of it."""

    @pytest.mark.parametrize(
        "owned",
        [None, (0, 15), (2, 5), (4, 8), (6, 10), (12, 15)],
        ids=["none", "all", "inside", "straddle", "whole-middle", "tail"],
    )
    def test_multi_tensor_pieces_tile_the_owned_range(self, owned):
        layout, params = _layout(LAYOUT)
        layout.fuse(params, owned)
        a, b = owned or (0, 0)
        tree, offsets, parts = layout.piece
        assert layout.out is None
        at = 0
        for layer, pname, start, size, shape, view in parts:
            assert start == at  # in bucket order, no gap
            at += size
            assert np.shares_memory(view, params[layer][pname])
            first = a + start
            assert view.ravel().tolist() == list(range(first, first + size))
            assert tree[layer][pname] is view
            whole = shape == params[layer][pname].shape
            assert ((layer, pname) in offsets) == (not whole)
        assert at == b - a
        mine = {
            (layer, pname): (offsets.get((layer, pname), 0), size)
            for layer, pname, _, size, _, _ in parts
        }
        assert layout.shards == {
            key: (mine[key],) if key in mine else ()
            for key in ((layer, pname) for layer, pname, _ in LAYOUT)
        }
        covered = list(range(a, b))
        for view, lo, hi in layout.landing:
            layer, pname, _, start, _ = next(
                e for e in layout.entries if e[3] <= lo < e[3] + e[4]
            )
            assert np.shares_memory(view, params[layer][pname])
            assert view.tolist() == list(range(lo, hi))
            covered.extend(range(lo, hi))
        assert sorted(covered) == list(range(layout.size))

    @pytest.mark.parametrize(
        "owned", [None, (0, 10), (3, 7)], ids=["none", "all", "part"]
    )
    def test_single_tensor_bucket_lands_in_its_parameter(self, owned):
        layout, params = _layout((("c", "w", (2, 5)),))
        layout.fuse(params, owned)
        w = params["c"]["w"]
        assert layout.landing == []
        assert np.shares_memory(layout.out, w) and layout.out.shape == (10,)
        a, b = owned or (0, 0)
        _, offsets, parts = layout.piece
        assert [(start, size) for _, _, start, size, _, _ in parts] == (
            [(0, b - a)] if owned else []
        )
        assert offsets == ({("c", "w"): a} if owned and b - a < 10 else {})
        assert layout.shards == {("c", "w"): ((a, b - a),) if owned else ()}
