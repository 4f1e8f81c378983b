"""Deterministic fault injection: plan parsing, every fault kind, both
backends, and the headline detection guarantee.

The acceptance property of the fault-tolerance layer: with an injected rank
crash mid-allreduce on the process backend, every survivor raises
``CommAborted`` *naming the failed rank* within 2x the detection interval —
no hang, no leaked ``/dev/shm`` segments.
"""

import os
import traceback
from time import monotonic

import numpy as np
import pytest

from repro.comm import CommAborted, FaultPlan, FaultSpec, InjectedCrash, run_spmd
from repro.comm.faults import INJECTED_CRASH_EXIT
from repro.comm.proc_backend import SHM_PREFIX
from tests.conftest import CRASH_KINDS, assert_one_cause

SHM_DIR = "/dev/shm"


def _shm_segments() -> set[str]:
    if not os.path.isdir(SHM_DIR):  # pragma: no cover - non-Linux hosts
        pytest.skip("no /dev/shm on this platform")
    return {f for f in os.listdir(SHM_DIR) if f.startswith(SHM_PREFIX)}


class TestFaultPlanParsing:
    def test_parse_full_grammar(self):
        plan = FaultPlan.parse(
            "crash@rank2:after=3:tag=#alg; delay@rank0:seconds=0.2:recurring;"
            "drop@rank1:peer=3; corrupt@rank0:point=recv; seed=7"
        )
        assert plan.seed == 7
        kinds = [s.kind for s in plan.specs]
        assert kinds == ["crash", "delay", "drop", "corrupt"]
        crash = plan.specs[0]
        assert (crash.rank, crash.after, crash.tag) == (2, 3, "#alg")
        delay = plan.specs[1]
        assert delay.seconds == 0.2 and delay.once is False
        assert plan.specs[2].peer == 3
        assert plan.specs[3].point == "recv"

    def test_parse_rejects_malformed_entries(self):
        with pytest.raises(ValueError, match="expected kind@rank"):
            FaultPlan.parse("crash@two")
        with pytest.raises(ValueError, match="unknown fault option"):
            FaultPlan.parse("crash@rank0:wat=1")
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.parse("melt@rank0")

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="drop faults arm on the send"):
            FaultSpec(kind="drop", rank=0, point="recv")
        with pytest.raises(ValueError, match="unknown fault point"):
            FaultSpec(kind="crash", rank=0, point="everywhere")

    def test_injector_only_for_armed_ranks(self):
        plan = FaultPlan.parse("crash@rank1")
        assert plan.injector(0) is None
        assert plan.injector(1) is not None


class TestFaultKinds:
    """Each fault kind, exercised on the (fast) thread backend."""

    def test_delay_is_survivable(self):
        def prog(comm):
            return float(comm.allreduce(np.ones(8), algorithm="ring")[0])

        out = run_spmd(4, prog, faults="delay@rank2:seconds=0.05:tag=#alg")
        assert out == [4.0] * 4

    def test_delayed_direct_collectives_stay_bitwise(self, backend):
        """Direct collectives ride the mailbox on every backend, so a
        ``#coll`` delay — at the send or the recv point — reaches them;
        the comm-rank fold never depends on arrival timing."""

        def prog(comm):
            x = np.random.default_rng(comm.rank).standard_normal(33)
            return (
                comm.allreduce(x, algorithm="direct"),
                comm.iallreduce(x, op="prod", algorithm="direct").wait(),
                comm.alltoall([x[j::3] for j in range(comm.size)]),
                comm.allreduce(0.1 * (comm.rank + 1)),
            )

        plan = (
            "delay@rank0:seconds=0.03:tag=#coll:recurring;"
            "delay@rank2:point=recv:seconds=0.02:tag=#coll:after=1:recurring; seed=3"
        )
        calm = run_spmd(3, prog, backend=backend)
        t0 = monotonic()
        slow = run_spmd(3, prog, backend=backend, faults=plan)
        assert monotonic() - t0 >= 0.03 * 2 * 4  # rank 0: 2 sends x 4 ops
        for c, s in zip(calm, slow):
            for a, b in zip(c, s):
                np.testing.assert_array_equal(a, b)

    def test_delayed_star_bcast_stays_bitwise(self, backend):
        """``bcast``'s star is ``#coll`` traffic: a delay on the root's
        sends and on a peer's receive reaches it, and the bits delivered
        never depend on the timing."""

        def prog(comm):
            x = np.random.default_rng(7).standard_normal(33)
            return [
                comm.bcast(x * k if comm.rank == 0 else None, root=0)
                for k in range(4)
            ]

        plan = (
            "delay@rank0:seconds=0.03:tag=#coll:recurring;"
            "delay@rank2:point=recv:seconds=0.02:tag=#coll:recurring"
        )
        calm = run_spmd(3, prog, backend=backend)
        t0 = monotonic()
        slow = run_spmd(3, prog, backend=backend, faults=plan)
        assert monotonic() - t0 >= 0.03 * 2 * 4  # root: 2 sends x 4 bcasts
        for c, s in zip(calm, slow):
            for a, b in zip(c, s):
                np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(calm[1][3], calm[0][3])

    def test_drop_turns_into_timeout_naming_pending_inbox(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.ones(4), dest=1, tag="wanted")
            elif comm.rank == 1:
                return comm.recv(source=0, tag="wanted")
            return None

        with pytest.raises(CommAborted, match=r"timed out.*pending inbox") as info:
            run_spmd(
                2, prog, faults="drop@rank0:tag=wanted", timeout=1.5
            )
        # No culprit: the rank that waited is blamed.
        assert (info.value.kind, info.value.failed_rank) == ("timeout", 1)

    def test_corrupt_is_deterministic_across_runs(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.zeros(64), dest=1, tag=9)
                return None
            return comm.recv(source=0, tag=9).copy()

        plan = "corrupt@rank0:tag=9; seed=5"
        first = run_spmd(2, prog, faults=plan)[1]
        second = run_spmd(2, prog, faults=plan)[1]
        assert np.count_nonzero(first) == 1  # exactly one element perturbed
        np.testing.assert_array_equal(first, second)  # bitwise reproducible

    def test_crash_raises_injected_crash_in_rank(self):
        def prog(comm):
            return float(comm.allreduce(np.ones(4), algorithm="ring")[0])

        out = run_spmd(
            4, prog, faults="crash@rank1:tag=#alg", allow_failures=True
        )
        assert isinstance(out[1], InjectedCrash)
        survivors = [out[r] for r in (0, 2, 3)]
        assert all(isinstance(e, CommAborted) for e in survivors)
        assert all("rank 1" in str(e) for e in survivors)
        assert_one_cause(out, 1, {"injected-crash"})

    def test_after_counts_matching_ops(self):
        """after=N skips the first N matches: sends 0 and 1 pass, send 2
        is dropped (observed as an irecv that never completes)."""

        def prog2(comm):
            if comm.rank == 0:
                for i in range(3):
                    comm.send(np.full(4, float(i)), dest=1, tag="seq")
                comm.barrier()
                return None
            a = comm.recv(source=0, tag="seq")
            b = comm.recv(source=0, tag="seq")
            req = comm.irecv(source=0, tag="seq")
            comm.barrier()
            ok = req.test()
            return float(a[0]), float(b[0]), ok

        out = run_spmd(
            2, prog2, faults="drop@rank0:tag=seq:after=2", timeout=5.0
        )
        a, b, third_arrived = out[1]
        assert (a, b) == (0.0, 1.0)
        assert third_arrived is False

    def test_env_variable_installs_plan(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "crash@rank0")

        def prog(comm):
            comm.send(np.ones(2), dest=(comm.rank + 1) % comm.size, tag=1)
            return comm.recv(source=(comm.rank - 1) % comm.size, tag=1)

        out = run_spmd(2, prog, allow_failures=True)
        assert isinstance(out[0], InjectedCrash)

    def test_explicit_plan_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "crash@rank0")

        def prog(comm):
            return float(comm.allreduce(1.0))

        # An explicit empty plan disables the env faults.
        assert run_spmd(2, prog, faults=FaultPlan([])) == [2.0, 2.0]


class TestProcessBackendCrash:
    """The acceptance property: bounded-time detection, named rank, no
    leaks — with the rank dying via ``os._exit`` (a real hard death) on
    the forked backends."""

    def test_crash_mid_allreduce_detected_within_two_intervals(self, backend):
        detect = 1.0
        before = _shm_segments()

        def prog(comm):
            x = np.full(4096, float(comm.rank))
            t0 = monotonic()
            try:
                if backend == "socket":
                    # Socket ranks may still be connecting: once any rank
                    # leaves the ring every rank is up.  A survivor can
                    # lag behind in it when the abort lands, hence inside
                    # the try.  "#alg" traffic does not arm the fault.
                    comm.allreduce(x, algorithm="ring")
                    t0 = monotonic()
                # The direct exchange tags traffic "#coll" on every
                # backend; scheduled algorithms ("#alg") are covered below
                # and in tests/test_abort_propagation.py.
                comm.allreduce(x, algorithm="direct")
            except CommAborted as exc:
                return (monotonic() - t0, exc)
            return None  # only the crashed rank "returns" nothing

        out = run_spmd(
            4,
            prog,
            backend=backend,
            faults="crash@rank1:tag=#coll",
            allow_failures=True,
            detect_interval=detect,
            timeout=60.0,  # detection must NOT come from the op timeout
        )
        if backend == "thread":
            assert isinstance(out[1], InjectedCrash)
        else:
            # The dead rank is reported as an injected crash by exit code.
            assert isinstance(out[1], CommAborted)
            assert "exit code 117" in str(out[1]) and "injected" in str(out[1])
        for r in (0, 2, 3):
            elapsed, err = out[r]
            assert "rank 1" in str(err), str(err)
            assert elapsed < 2.0 * detect, (
                f"survivor {r} took {elapsed:.2f}s > 2x detection interval"
            )
        # On ``process`` a same-node peer's EOF is no verdict of its own:
        # the parent's exit-code watcher names the crash, and every
        # survivor carries it — none turns the lost link into a
        # "peer-death".
        errors = [o if r == 1 else o[1] for r, o in enumerate(out)]
        assert_one_cause(errors, 1, CRASH_KINDS[backend])
        assert _shm_segments() == before

    def test_exit_code_is_the_injected_sentinel(self):
        assert INJECTED_CRASH_EXIT == 117  # documented in README

    def test_crash_during_scheduled_allreduce_names_rank(self):
        """A rank that exits with no fault plan behind it — the way a
        segfault or an OOM kill ends one — is a ``child-exit``."""

        def prog(comm):
            if comm.rank == 2:
                os._exit(3)
            return comm.allreduce(np.ones(64), algorithm="ring")

        out = run_spmd(
            4,
            prog,
            backend="process",
            allow_failures=True,
            detect_interval=0.2,
            timeout=30.0,
        )
        for r in (0, 1, 3):
            assert isinstance(out[r], CommAborted)
            assert "rank 2" in str(out[r])
        assert "exit code 3" in str(out[2])
        assert_one_cause(out, 2, {"child-exit"})


#: The forked transports whose scheduled receives are consumed straight
#: out of the shm arena (socket: between ranks of one logical node).
ARENA_PATHS = [("process", None), ("socket", "0,1:A")]


@pytest.mark.parametrize("backend,hostmap", ARENA_PATHS, ids=["process", "socket"])
class TestFaultsOnTheSinkPath:
    """Recv-point faults run on the payload *before* the collective's sink
    consumes it, whether that payload is a private array (thread, TCP) or
    a view of arena blocks the transport still owns."""

    @staticmethod
    def _allreduce(comm):
        x = np.random.default_rng(comm.rank).standard_normal(4096)
        out = comm.iallreduce(x, algorithm="ring", donate=True).wait()
        return out, getattr(comm._world, "transport", {}).get("shm_messages", 0)

    def test_corrupt_perturbs_the_reduction_with_the_same_bits(self, backend, hostmap):
        plan = "corrupt@rank1:point=recv:tag=#alg; seed=11"
        want = run_spmd(2, self._allreduce, faults=plan)  # private payloads
        clean = run_spmd(2, self._allreduce, backend=backend, hostmap=hostmap)
        got = run_spmd(2, self._allreduce, backend=backend, hostmap=hostmap, faults=plan)
        for (g, shm), (w, _), (c, _) in zip(got, want, clean):
            assert shm > 0  # the segments did ride the arena
            assert g.tobytes() == w.tobytes()
            assert np.count_nonzero(g != c) == 1  # one seeded element, reduced

    def test_recurring_delay_never_moves_a_training_bit(self, backend, hostmap):
        from repro.core import DistNetwork, DistTrainer, LayerParallelism
        from repro.nn import NetworkSpec, SGD

        spec = NetworkSpec("sink-delay")
        spec.add("input", "input", channels=4, height=8, width=8)
        spec.add("c1", "conv", ["input"], filters=16, kernel=3, pad=1, bias=True)
        spec.add("gap", "gap", ["c1"])
        spec.add("fc", "fc", ["gap"], units=3)
        spec.add("loss", "softmax_ce", ["fc"])
        rng = np.random.default_rng(2)
        x, t = rng.standard_normal((4, 4, 8, 8)), rng.integers(0, 3, size=4)

        def prog(comm):
            net = DistNetwork(spec, comm, LayerParallelism(sample=2), seed=0)
            trainer = DistTrainer(net, SGD(lr=0.1, momentum=0.9))
            losses = [float(trainer.step(x, t)).hex() for _ in range(3)]
            return losses, comm._world.transport["shm_messages"]

        plan = "delay@rank1:point=recv:tag=#alg:seconds=0.05:recurring"
        calm = run_spmd(2, prog, backend=backend, hostmap=hostmap)
        t0 = monotonic()
        slow = run_spmd(2, prog, backend=backend, hostmap=hostmap, faults=plan)
        assert monotonic() - t0 >= 3 * 0.05  # at least the bucket, every step
        assert slow == calm and all(shm > 0 for _, shm in slow)

    def test_crash_holding_arena_blocks_leaks_no_segment(self, backend, hostmap):
        before = _shm_segments()
        out = run_spmd(
            2, self._allreduce, backend=backend, hostmap=hostmap,
            faults="crash@rank1:point=recv:tag=#alg",
            allow_failures=True, detect_interval=0.2, timeout=30.0,
        )
        assert isinstance(out[0], CommAborted) and "rank 1" in str(out[0])
        assert isinstance(out[1], CommAborted) and "injected" in str(out[1])
        assert_one_cause(out, 1, {"injected-crash"}, hostmap=hostmap)
        assert _shm_segments() == before


class _Unpicklable(Exception):
    def __init__(self):
        super().__init__("holds a lambda")
        self.callback = lambda: None


def _raise_unpicklable():
    raise _Unpicklable()


class TestAllowFailures:
    def test_mixed_results_and_errors_in_rank_order(self):
        def prog(comm):
            if comm.rank == 1:
                raise ValueError("boom")
            try:
                comm.barrier()
            except CommAborted as exc:
                return exc
            return comm.rank

        out = run_spmd(3, prog, allow_failures=True, timeout=5.0)
        assert isinstance(out[1], ValueError)
        assert_one_cause(out, 1, {"exception"})

    def test_an_unpicklable_rank_error_is_that_rank_s_error(self, backend):
        """A forked rank's exception that cannot cross the pipe is still
        its own error — type, text and traceback — never mistaken for a
        survivor's abort echo."""

        def prog(comm):
            if comm.rank == 2:
                _raise_unpicklable()
            comm.barrier()

        kwargs = dict(backend=backend, timeout=20.0, detect_interval=0.2)
        with pytest.raises(Exception) as info:
            run_spmd(3, prog, **kwargs)
        err = info.value
        assert not isinstance(err, CommAborted)
        text = "".join(traceback.format_exception(type(err), err, err.__traceback__))
        assert "holds a lambda" in text and "_raise_unpicklable" in text
        if backend != "thread":
            assert "world rank 2 failed: _Unpicklable" in str(err)
        out = run_spmd(3, prog, allow_failures=True, **kwargs)
        assert not isinstance(out[2], CommAborted)
        assert_one_cause(out, 2, {"exception"})

    def test_single_rank_allow_failures(self):
        def prog(comm):
            raise RuntimeError("solo failure")

        out = run_spmd(1, prog, allow_failures=True)
        assert isinstance(out[0], RuntimeError)


class TestPerOpTimeouts:
    def test_op_timeout_overrides_default(self):
        """A tight recv override fails fast while the world default stays
        long — per-op knobs replace the single world timeout."""

        def prog(comm):
            if comm.rank == 0:
                return None
            t0 = monotonic()
            try:
                comm.recv(source=0, tag=1)
            except CommAborted:
                return monotonic() - t0
            return None

        out = run_spmd(
            2, prog, timeout=60.0, op_timeouts={"recv": 1.0},
            allow_failures=True,
        )
        assert out[1] < 10.0  # far below the 60s world default

    def test_longest_prefix_wins(self):
        from repro.comm import JobConfig

        cfg = JobConfig(
            timeout=100.0, op_timeouts={"i": 50.0, "iallreduce": 5.0}
        )
        assert cfg.timeout_for("iallreduce") == 5.0
        assert cfg.timeout_for("ialltoall") == 50.0
        assert cfg.timeout_for("recv") == 100.0
