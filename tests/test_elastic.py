"""Elastic self-healing training: supervised restart, cross-world resume,
degraded-mode continuation.

The headline guarantees:

* a rank killed mid-run is detected, classified, and the job auto-resumed
  at the *same* world size with **bitwise** identical final parameters to
  an uninterrupted run — on both forked backends;
* a repeatedly-failing rank/host is blacklisted and the job resumes at a
  *shrunk* world from the larger world's checkpoint file, matching a
  from-scratch run at the smaller size (allclose: reduction order differs
  across world sizes) that replays the same global batch order;
* when shrinking would cross ``min_ranks``, the runner stops restarting
  and reports structured degradation instead of looping forever.
"""

import numpy as np
import pytest

from repro.comm import CommAborted, HostMap, InjectedCrash, run_spmd
from repro.comm.backend import FAILURE_KINDS, AbortCause, CommIntegrityError
from repro.core import DistNetwork, DistTrainer, LayerParallelism, save_state
from repro.core.elastic import ElasticRunner, classify_error, classify_failures
from tests.conftest import assert_one_cause
from repro.nn import NetworkSpec, SGD

NSTEPS = 6
EVERY = 2


def small_spec() -> NetworkSpec:
    spec = NetworkSpec("elastic")
    spec.add("input", "input", channels=1, height=8, width=8)
    spec.add("c1", "conv", ["input"], filters=4, kernel=3, pad=1, bias=True)
    spec.add("b1", "bn", ["c1"])
    spec.add("r1", "relu", ["b1"])
    spec.add("gap", "gap", ["r1"])
    spec.add("fc", "fc", ["gap"], units=3)
    spec.add("loss", "softmax_ce", ["fc"])
    return spec


def etrain(comm, ckdir, nsteps=NSTEPS):
    """Elastic training entry: resumes from the newest checkpoint (written
    by a world of this size or another), then trains to ``nsteps``.  The
    global batch (size 6: divisible by 1, 2, and 3 sample-parallel ways) is
    drawn from the replicated trainer rng, so every world size replays the
    identical data order."""
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
    trainer.resume()
    for _ in range(trainer.step_index, nsteps):
        x = trainer.rng.standard_normal((6, 1, 8, 8))
        t = trainer.rng.integers(0, 3, size=6)
        trainer.step(x, t)
    params = {
        layer: {p: a.copy() for p, a in v.items()}
        for layer, v in net.params.items()
    }
    return params, trainer.stats.losses, trainer.step_index


def work(comm):
    """Array allreduce so compiled (#alg-tagged) schedules carry traffic
    the fault injector can arm on."""
    return float(np.sum(comm.allreduce(np.ones(4096))))


def _assert_params_match(ref, out, exact=True):
    for (p_ref, _, s_ref), (p_out, _, s_out) in zip(ref, out):
        assert s_ref == s_out == NSTEPS
        for layer in p_ref:
            for pname in p_ref[layer]:
                if exact:
                    np.testing.assert_array_equal(
                        p_ref[layer][pname], p_out[layer][pname]
                    )
                else:
                    np.testing.assert_allclose(
                        p_ref[layer][pname], p_out[layer][pname],
                        rtol=1e-9, atol=1e-12,
                    )


class TestClassification:
    def test_structured_attrs_win(self):
        err = CommAborted("boom", failed_rank=3, host="B", kind="peer-death")
        f = classify_error(err)
        assert (f.rank, f.host, f.kind) == (3, "B", "peer-death")

    @pytest.mark.parametrize("kind", FAILURE_KINDS)
    def test_survivor_echo_names_culprit_not_observer(self, kind):
        """A survivor's abort is the job's cause: its culprit and host,
        whatever the message says, and never the observing rank."""
        cause = AbortCause(kind, 1, "world rank 1: what the detector saw")
        err = cause.error(HostMap.parse("0:A 1:B"), "barrier(world rank 0 <- 1)")
        f = classify_error(err, observer_rank=0)
        assert (f.rank, f.host, f.kind, f.attributed) == (1, "B", kind, True)
        assert isinstance(err, CommIntegrityError) == (kind == "integrity")

    def test_a_rank_s_own_error_blames_that_rank(self):
        f = classify_error(ValueError("boom"), observer_rank=2)
        assert (f.rank, f.kind, f.attributed) == (2, "exception", True)
        f = classify_error(InjectedCrash("crash@rank1"), observer_rank=1)
        assert (f.rank, f.kind) == (1, "injected-crash")

    def test_timeout_blamed_on_observer_when_no_culprit(self):
        err = CommAborted("recv(source=1, tag=5) timed out after 2.0s", kind="timeout")
        f = classify_error(err, observer_rank=1)
        assert f.rank == 1 and f.kind == "timeout" and not f.attributed

    def test_echoes_folded_into_culprit(self):
        """The failed rank's own report beats its echoes: a forked rank's
        exit code says more than a peer's lost link."""
        results = [
            CommAborted("barrier interrupted", failed_rank=2, kind="peer-death"),
            None,
            CommAborted("crash fired", failed_rank=2, kind="injected-crash"),
            CommAborted("recv interrupted", failed_rank=2, kind="peer-death"),
        ]
        failures = classify_failures(results)
        assert len(failures) == 1
        assert failures[0].rank == 2
        assert failures[0].kind == "injected-crash"

    def test_all_unattributed_timeouts_kept(self):
        """A genuine deadlock (no culprit anywhere) must not classify to
        an empty failure list — that would look like success."""
        results = [
            CommAborted("op timed out after 5.0s", kind="timeout"),
            CommAborted("op timed out after 5.0s", kind="timeout"),
        ]
        failures = classify_failures(results)
        assert len(failures) == 2
        assert {f.kind for f in failures} == {"timeout"}


class TestRestartLoop:
    def test_transient_crash_restarts_same_world(self):
        slept = []
        report = ElasticRunner(
            2, backoff=0.05, sleep=slept.append,
            faults=["crash@rank1:after=0"], timeout=10.0,
        ).run(work)
        assert report.ok and not report.degraded
        assert report.total_restarts == 1
        assert report.final_nranks == 2
        assert report.results == [8192.0, 8192.0]
        assert slept == [0.05]
        [rec] = report.restarts
        assert rec.action == "restart"
        assert [f.kind for f in rec.failures] == ["injected-crash"]

    def test_backoff_grows_exponentially(self):
        slept = []
        report = ElasticRunner(
            2, backoff=0.1, backoff_factor=2.0, max_restarts=3,
            blacklist_after=99, sleep=slept.append,
            faults=["crash@rank1:after=0", "crash@rank1:after=0", None],
            timeout=10.0,
        ).run(work)
        assert report.ok
        assert slept == [0.1, 0.2]

    def test_exhausted_restarts_give_up(self):
        report = ElasticRunner(
            2, backoff=0.0, max_restarts=1, blacklist_after=99,
            sleep=lambda s: None,
            faults=["crash@rank1:after=0"] * 3, timeout=10.0,
        ).run(work)
        assert not report.ok and report.restarts[-1].action == "gave-up"
        assert report.total_restarts == 1  # the gave-up record is not a restart

    def test_repeat_offender_blacklisted_by_host(self):
        report = ElasticRunner(
            4, backoff=0.0, min_ranks=2, blacklist_after=2, max_restarts=5,
            sleep=lambda s: None, hostmap="0,1:A 2,3:B",
            faults=["crash@rank3:after=0", "crash@rank3:after=0"],
            timeout=10.0,
        ).run(work)
        assert report.ok and report.degraded
        assert report.final_nranks == 2
        assert report.blacklisted_hosts == ("B",)
        assert report.results == [8192.0, 8192.0]
        actions = [rec.action for rec in report.restarts]
        assert actions == ["restart", "shrink"]

    def test_degraded_when_min_ranks_would_be_crossed(self):
        report = ElasticRunner(
            2, backoff=0.0, min_ranks=2, blacklist_after=2, max_restarts=5,
            sleep=lambda s: None,
            faults=["crash@rank1:after=0", "crash@rank1:after=0"],
            timeout=10.0,
        ).run(work)
        assert not report.ok and report.degraded
        assert report.restarts[-1].action == "degraded"
        # The report is JSON-serializable for the CI artifact.
        doc = report.to_dict()
        assert doc["restarts"][-1]["action"] == "degraded"
        assert doc["total_restarts"] == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="min_ranks"):
            ElasticRunner(2, min_ranks=3)
        with pytest.raises(ValueError, match="nranks"):
            ElasticRunner(0)


class TestResumePoint:
    def test_restart_log_records_the_newest_checkpoint_file(self, tmp_path):
        """Any final-name file can be resumed from, whoever wrote it, so the
        resume point is the newest one."""
        d = str(tmp_path)
        for step in (2, 4):
            save_state(d, step, {"x": np.ones(2)})
        report = ElasticRunner(
            2, backoff=0.0, sleep=lambda s: None, checkpoint_dir=d,
            faults=["crash@rank1:after=0"], timeout=10.0,
        ).run(work)
        assert report.ok
        [rec] = report.restarts
        assert rec.resumed_step == 4
        assert "; resume step 4" in report.describe()


class TestElasticTraining:
    """The acceptance criteria: kill-then-auto-resume parity."""

    @pytest.mark.parametrize("backend", ["process", "socket"])
    def test_same_world_auto_resume_is_bitwise(self, backend, tmp_path):
        ref = run_spmd(
            2, etrain, str(tmp_path / "ref"), backend=backend, timeout=30.0
        )
        ckdir = str(tmp_path / "kill")
        report = ElasticRunner(
            2, backend=backend, backoff=0.0, sleep=lambda s: None,
            # 4 "#alg" sends per rank per step (packed BN statistics
            # forward, the loss, packed BN sums backward, the gradient
            # bucket): send 9 is mid-step-3, after the step-2 checkpoint
            # cadence hit the disk.
            faults=["crash@rank1:tag=#alg:after=9"],
            checkpoint_dir=ckdir,
            detect_interval=0.2, timeout=30.0,
        ).run(etrain, ckdir)
        assert report.ok, report.describe()
        assert report.total_restarts == 1
        [rec] = report.restarts
        assert rec.resumed_step == EVERY
        _assert_params_match(ref, report.results, exact=True)

    def test_shrunk_world_resumes_from_resharded_checkpoints(self, tmp_path):
        """3 ranks, rank 2 dies twice -> blacklisted -> 2-rank world
        resumes from the file the 3-rank world saved, with the same plain
        ``resume()``, and matches a from-scratch 2-rank run replaying the
        same global batch order."""
        ref = run_spmd(
            2, etrain, str(tmp_path / "ref"), backend="process", timeout=30.0
        )
        ckdir = str(tmp_path / "shrink")
        report = ElasticRunner(
            3, backend="process", backoff=0.0, sleep=lambda s: None,
            min_ranks=2, blacklist_after=2, max_restarts=5,
            faults=[
                "crash@rank2:tag=#alg:after=9",
                "crash@rank2:tag=#alg:after=0",
            ],
            checkpoint_dir=ckdir,
            detect_interval=0.2, timeout=30.0,
        ).run(etrain, ckdir)
        assert report.ok, report.describe()
        assert report.final_nranks == 2 and report.degraded
        # Both crashes land after the step-2 checkpoint: every restart
        # resumes from it, none restarts from scratch.
        assert [rec.resumed_step for rec in report.restarts] == [EVERY, EVERY]
        _assert_params_match(ref, report.results, exact=False)

    def test_thread_backend_end_to_end(self, tmp_path):
        """Cheap smoke of the full loop on the in-process backend."""
        ref = run_spmd(2, etrain, str(tmp_path / "ref"))
        ckdir = str(tmp_path / "kill")
        report = ElasticRunner(
            2, backoff=0.0, sleep=lambda s: None,
            faults=["crash@rank1:tag=#alg:after=9"],
            checkpoint_dir=ckdir, timeout=20.0,
        ).run(etrain, ckdir)
        assert report.ok, report.describe()
        [rec] = report.restarts
        assert rec.resumed_step == EVERY  # the crash lands mid-step-3
        _assert_params_match(ref, report.results, exact=True)


class TestIntegrity:
    def test_wire_corruption_surfaces_named_integrity_error(self):
        """Satellite: CRC32 on socket frames.  A corrupted wire frame must
        raise a named integrity error at the receiving rank — never be
        silently unpickled into wrong data."""
        out = run_spmd(
            2, work, backend="socket", hostmap="0:A 1:B",
            faults="corrupt@rank0:point=wire",
            allow_failures=True, timeout=20.0, detect_interval=0.2,
        )
        # Every rank, the sender included, fails with the receiver's
        # verdict: the corrupted frame's sender on host A.
        assert all(isinstance(e, CommIntegrityError) for e in out), out
        assert all("CRC32" in str(e) for e in out)
        assert_one_cause(out, 0, {"integrity"}, hostmap="0:A 1:B")

    def test_clean_socket_traffic_unaffected_by_crc(self):
        out = run_spmd(
            2, work, backend="socket", hostmap="0:A 1:B", timeout=20.0
        )
        assert out == [8192.0, 8192.0]
