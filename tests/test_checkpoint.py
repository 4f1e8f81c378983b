"""Checkpoint/resume: atomicity, rank agreement, and the headline bitwise
guarantee — a killed-and-resumed training run produces exactly the same
parameters and losses as an uninterrupted one, on both world backends.
"""

import os

import numpy as np
import pytest

from repro.comm import CommAborted, run_spmd
from repro.core import DistNetwork, DistTrainer, LayerParallelism
from repro.core import checkpoint as ckpt
from repro.nn import NetworkSpec, SGD
from tests.conftest import reduce_for_process

NSTEPS = 6
EVERY = 2
KILL_AT = 3  # between cadences: the newest checkpoint is step 2


def small_spec() -> NetworkSpec:
    spec = NetworkSpec("ckpt")
    spec.add("input", "input", channels=1, height=8, width=8)
    spec.add("c1", "conv", ["input"], filters=4, kernel=3, pad=1, bias=True)
    spec.add("b1", "bn", ["c1"])
    spec.add("r1", "relu", ["b1"])
    spec.add("gap", "gap", ["r1"])
    spec.add("fc", "fc", ["gap"], units=3)
    spec.add("loss", "softmax_ce", ["fc"])
    return spec


def train(comm, ckdir, kill_at=None, resume=False, nsteps=NSTEPS):
    """Seeded training loop drawing batches from the trainer's rng, so a
    bitwise-restored rng replays the identical data order."""
    net = DistNetwork(
        small_spec(), comm, LayerParallelism(sample=comm.size), seed=0
    )
    trainer = DistTrainer(
        net,
        SGD(lr=0.05, momentum=0.9, weight_decay=1e-4),
        checkpoint_dir=ckdir,
        checkpoint_every=EVERY,
        rng=np.random.default_rng(42),
    )
    start = 0
    if resume:
        start = trainer.resume() or 0
    for _ in range(start, nsteps):
        x = trainer.rng.standard_normal((4, 1, 8, 8))
        t = trainer.rng.integers(0, 3, size=4)
        trainer.step(x, t)
        if kill_at is not None and trainer.step_index == kill_at:
            raise RuntimeError("simulated rank death")
    # SGD updates its velocities in place: a snapshot must not alias them,
    # and a restore must not adopt the arrays it was handed.
    opt = trainer.optimizer
    snap = opt.state_dict()
    for restored in (False, True):
        if restored:
            opt.load_state_dict(snap)
        assert snap["velocity"] and not any(
            np.shares_memory(v, opt._velocity[key])
            for key, v in snap["velocity"].items()
        )
    params = {
        layer: {p: a.copy() for p, a in v.items()}
        for layer, v in net.params.items()
    }
    bn = net.state_dict()["bn"]
    return params, bn, trainer.stats.losses, trainer.step_index


class TestPrimitives:
    def test_roundtrip_is_bitwise_and_preserves_dtypes(self, tmp_path):
        state = {
            "f64": np.random.default_rng(0).standard_normal(17),
            "f32": np.arange(5, dtype=np.float32) / 3,
            "i8": np.array([-1, 2], dtype=np.int8),
            "nested": [{"deep": (np.full((2, 3), np.pi), "label", 7)}],
            "scalar": 1.5,
            "none": None,
        }
        ckpt.save_state(str(tmp_path), 3, 0, state)
        out = ckpt.load_state(str(tmp_path), 3, 0)
        assert out["f64"].dtype == np.float64 and out["i8"].dtype == np.int8
        np.testing.assert_array_equal(out["f64"], state["f64"])
        np.testing.assert_array_equal(out["f32"], state["f32"])
        np.testing.assert_array_equal(
            out["nested"][0]["deep"][0], state["nested"][0]["deep"][0]
        )
        assert out["nested"][0]["deep"][1:] == ("label", 7)
        assert out["scalar"] == 1.5 and out["none"] is None

    def test_save_is_atomic_no_temp_left_under_final_name(self, tmp_path):
        path = ckpt.save_state(str(tmp_path), 1, 0, {"x": np.ones(4)})
        assert os.path.basename(path) == "step00000001.rank0.npz"
        # Nothing but complete final files in the directory.
        assert all(
            not f.startswith(".tmp-") for f in os.listdir(tmp_path)
        )

    def test_interrupted_save_leaves_prior_checkpoint_intact(self, tmp_path):
        """os.replace semantics: the final name always points at a complete
        file, so a crash mid-save costs the new step, not the old one."""
        ckpt.save_state(str(tmp_path), 2, 0, {"x": np.zeros(4)})
        # Simulate the torn write an interrupted save leaves behind.
        stale = tmp_path / ".tmp-step00000004.rank0-abc.npz"
        stale.write_bytes(b"torn")
        assert ckpt.local_steps(str(tmp_path), 0) == [2]
        out = ckpt.load_state(str(tmp_path), 2, 0)
        np.testing.assert_array_equal(out["x"], np.zeros(4))
        # The next prune sweeps stale temp files.
        ckpt.prune(str(tmp_path), 0, keep=5)
        assert not stale.exists()

    def test_prune_keeps_newest(self, tmp_path):
        for step in (1, 2, 3, 4):
            ckpt.save_state(str(tmp_path), step, 0, {"s": np.array([step])})
        removed = ckpt.prune(str(tmp_path), 0, keep=2)
        assert removed == [1, 2]
        assert ckpt.local_steps(str(tmp_path), 0) == [3, 4]

    def test_prune_keep_zero_removes_all(self, tmp_path):
        """keep=0 means "keep none" — historically the ``steps[:-0]``
        empty-slice trap made it silently keep everything."""
        for step in (1, 2, 3):
            ckpt.save_state(str(tmp_path), step, 0, {"s": np.array([step])})
        removed = ckpt.prune(str(tmp_path), 0, keep=0)
        assert removed == [1, 2, 3]
        assert ckpt.local_steps(str(tmp_path), 0) == []

    def test_prune_negative_keep_rejected(self, tmp_path):
        """Negative keep used to delete the *newest* checkpoints
        (``steps[:-(-2)]`` drops from the front of the sorted list)."""
        for step in (1, 2, 3):
            ckpt.save_state(str(tmp_path), step, 0, {"s": np.array([step])})
        with pytest.raises(ValueError, match="keep"):
            ckpt.prune(str(tmp_path), 0, keep=-2)
        # Nothing was touched.
        assert ckpt.local_steps(str(tmp_path), 0) == [1, 2, 3]

    def test_latest_common_step_intersects_ranks(self, tmp_path):
        """A crash mid-cadence leaves the newest step on a subset of ranks;
        every rank must agree on the newest *common* step."""
        d = str(tmp_path)
        for rank in (0, 1):
            ckpt.save_state(d, 2, rank, {"r": np.array([rank])})
        ckpt.save_state(d, 4, 0, {"r": np.array([0])})  # rank 1 died first

        def prog(comm):
            return ckpt.latest_common_step(d, comm)

        assert run_spmd(2, prog) == [2, 2]

    def test_latest_common_step_empty(self, tmp_path):
        d = str(tmp_path)

        def prog(comm):
            return ckpt.latest_common_step(d, comm)

        assert run_spmd(2, prog) == [None, None]


class TestBitwiseResume:
    @pytest.mark.parametrize("nranks", [1, 2])
    def test_kill_then_resume_matches_uninterrupted(
        self, backend, nranks, tmp_path
    ):
        reduce_for_process(
            backend, heavy=nranks == 1, reason="2-rank run covers the backend"
        )
        ref_dir, kill_dir = str(tmp_path / "ref"), str(tmp_path / "kill")

        ref = run_spmd(nranks, train, ref_dir, backend=backend)
        with pytest.raises(RuntimeError, match="simulated rank death"):
            run_spmd(nranks, train, kill_dir, kill_at=KILL_AT, backend=backend)
        out = run_spmd(nranks, train, kill_dir, resume=True, backend=backend)

        for (p_ref, bn_ref, losses_ref, step_ref), (
            p_out, bn_out, losses_out, step_out,
        ) in zip(ref, out):
            assert step_ref == step_out == NSTEPS
            for layer in p_ref:
                for pname in p_ref[layer]:
                    np.testing.assert_array_equal(
                        p_ref[layer][pname], p_out[layer][pname]
                    )
            for layer in bn_ref:
                for sname in bn_ref[layer]:
                    np.testing.assert_array_equal(
                        bn_ref[layer][sname], bn_out[layer][sname]
                    )
            # The resumed run replays steps 3..6; its recorded losses must
            # equal the uninterrupted run's tail bitwise.
            assert losses_out == losses_ref[KILL_AT - 1:]

    def test_hard_crash_then_resume_on_process_backend(self, tmp_path):
        """The rank dies by os._exit (injected crash) — no Python unwind,
        no atexit — and the on-disk checkpoints still support an exact
        resume."""
        ck = str(tmp_path / "ck")
        ref_dir = str(tmp_path / "ref")

        ref = run_spmd(2, train, ref_dir)

        def killed(comm, ckdir):
            try:
                return train(comm, ckdir, kill_at=None)
            except CommAborted:
                return None

        out = run_spmd(
            2,
            killed,
            ck,
            backend="process",
            # Scheduled allreduces send 3 "#alg" messages per rank per step
            # (packed BN statistics forward, packed BN sums backward, the
            # gradient bucket); send 7 is mid-step-3, after the step-2
            # checkpoint cadence was written.
            faults="crash@rank1:tag=#alg:after=7",
            allow_failures=True,
            detect_interval=0.2,
            timeout=30.0,
        )
        assert any(isinstance(o, (CommAborted, type(None))) for o in out)
        steps = ckpt.local_steps(ck, 0)
        assert steps and max(steps) >= EVERY

        resumed = run_spmd(2, train, ck, resume=True, backend="process")
        for (p_ref, bn_ref, losses_ref, _), (p_out, bn_out, _, _) in zip(
            ref, resumed
        ):
            for layer in p_ref:
                for pname in p_ref[layer]:
                    np.testing.assert_array_equal(
                        p_ref[layer][pname], p_out[layer][pname]
                    )

    def test_resume_without_checkpoint_is_noop(self, tmp_path):
        def prog(comm):
            net = DistNetwork(
                small_spec(), comm, LayerParallelism(sample=comm.size), seed=0
            )
            trainer = DistTrainer(
                net, checkpoint_dir=str(tmp_path / "none"), rng=None
            )
            return trainer.resume()

        assert run_spmd(2, prog) == [None, None]

    def test_resume_demands_rng_when_checkpoint_has_one(self, tmp_path):
        d = str(tmp_path)

        def save(comm):
            net = DistNetwork(
                small_spec(), comm, LayerParallelism(sample=comm.size), seed=0
            )
            tr = DistTrainer(
                net, checkpoint_dir=d, rng=np.random.default_rng(1)
            )
            tr.save_checkpoint()

        def load(comm):
            net = DistNetwork(
                small_spec(), comm, LayerParallelism(sample=comm.size), seed=0
            )
            tr = DistTrainer(net, checkpoint_dir=d, rng=None)
            try:
                tr.resume()
            except RuntimeError as exc:
                return str(exc)
            return None

        run_spmd(1, save)
        (msg,) = run_spmd(1, load)
        assert "no rng" in msg
