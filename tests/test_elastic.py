"""Elastic self-healing training: supervised restart, cross-world resume,
degraded-mode continuation.

The headline guarantees:

* a rank killed mid-run is detected, classified, and the job auto-resumed
  at the *same* world size with **bitwise** identical final parameters to
  an uninterrupted run — on both forked backends;
* a repeatedly-failing rank/host is blacklisted and the job resumes at a
  *shrunk* world from re-sharded checkpoints, matching a from-scratch run
  at the smaller size (allclose: reduction order differs across world
  sizes) that replays the same global batch order;
* when shrinking would cross ``min_ranks``, the runner stops restarting
  and reports structured degradation instead of looping forever.
"""

import numpy as np
import pytest

from repro.comm import CommAborted, run_spmd
from repro.comm.backend import CommIntegrityError
from repro.core import DistNetwork, DistTrainer, LayerParallelism
from repro.core.elastic import (
    ElasticRunner,
    classify_error,
    classify_failures,
    parse_elastic_env,
    run_elastic,
)
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
    """Elastic training entry: resumes from whatever checkpoints exist
    (same-world bitwise, cross-world re-sharded), then trains to
    ``nsteps``.  The global batch (size 6: divisible by 1, 2, and 3
    sample-parallel ways) is drawn from the replicated trainer rng, so
    every world size replays the identical data order."""
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
    trainer.resume_elastic()
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

    def test_survivor_echo_names_culprit_not_observer(self):
        err = CommAborted(
            "allreduce[seq=0, schedule step 1](world rank 0 <- 1, "
            "tag=(('world',), ('#alg', 0))) interrupted: world aborted — "
            "world rank 1 failed: InjectedCrash: crash@rank1"
        )
        f = classify_error(err, observer_rank=0)
        assert f.rank == 1 and f.kind == "injected-crash" and f.attributed

    def test_child_exit_message(self):
        err = CommAborted(
            "world rank 2 exited abnormally (exit code 1) "
            "before reporting a result"
        )
        f = classify_error(err)
        assert f.rank == 2 and f.kind == "child-exit"

    def test_peer_death_with_host_attribution(self):
        err = CommAborted(
            "world rank 3 (host B) lost: connection closed unexpectedly "
            "(crash or network failure), detected by world rank 1"
        )
        f = classify_error(err)
        assert (f.rank, f.host, f.kind) == (3, "B", "peer-death")

    def test_integrity_message(self):
        err = CommAborted(
            "recv interrupted: world aborted — frame from world rank 0 "
            "(host A) failed its CRC32 integrity check at world rank 1"
        )
        f = classify_error(err)
        assert (f.rank, f.host, f.kind) == (0, "A", "integrity")

    def test_timeout_blamed_on_observer_when_no_culprit(self):
        err = CommAborted("recv(source=1, tag=5) timed out after 2.0s")
        f = classify_error(err, observer_rank=1)
        assert f.rank == 1 and f.kind == "timeout" and not f.attributed

    def test_echoes_folded_into_culprit(self):
        results = [
            CommAborted(
                "barrier interrupted: world aborted — world rank 2 failed: "
                "InjectedCrash: crash@rank2"
            ),
            None,
            CommAborted("crash fired", failed_rank=2, kind="injected-crash"),
            CommAborted("op timed out after 5.0s"),
        ]
        failures = classify_failures(results)
        assert len(failures) == 1
        assert failures[0].rank == 2
        assert failures[0].kind == "injected-crash"

    def test_all_unattributed_timeouts_kept(self):
        """A genuine deadlock (no culprit anywhere) must not classify to
        an empty failure list — that would look like success."""
        results = [
            CommAborted("op timed out after 5.0s"),
            CommAborted("op timed out after 5.0s"),
        ]
        failures = classify_failures(results)
        assert len(failures) == 2
        assert {f.kind for f in failures} == {"timeout"}


class TestEnvParsing:
    def test_parse(self):
        assert parse_elastic_env(
            "max_restarts=3;min_ranks=2;backoff=0.25"
        ) == {"max_restarts": 3, "min_ranks": 2, "backoff": 0.25}

    def test_empty_and_none(self):
        assert parse_elastic_env(None) == {}
        assert parse_elastic_env("") == {}

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            parse_elastic_env("restarts=3")

    def test_env_feeds_run_elastic(self, monkeypatch):
        monkeypatch.setenv("REPRO_ELASTIC", "max_restarts=0;backoff=0.0")
        report = run_elastic(
            work, 2,
            faults=["crash@rank1:after=0"],
            sleep=lambda s: None,
            timeout=10.0,
        )
        # max_restarts=0 from the environment: first failure gives up.
        assert not report.ok
        assert report.restarts[-1].action == "gave-up"


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
            # 3 "#alg" sends per rank per step (packed BN statistics
            # forward, packed BN sums backward, the gradient bucket): send
            # 7 is mid-step-3, after the step-2 checkpoint cadence hit the
            # disk.
            faults=["crash@rank1:tag=#alg:after=7"],
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
        re-shards the 3-rank checkpoint set and matches a from-scratch
        2-rank run replaying the same global batch order."""
        ref = run_spmd(
            2, etrain, str(tmp_path / "ref"), backend="process", timeout=30.0
        )
        ckdir = str(tmp_path / "shrink")
        report = ElasticRunner(
            3, backend="process", backoff=0.0, sleep=lambda s: None,
            min_ranks=2, blacklist_after=2, max_restarts=5,
            faults=[
                "crash@rank2:tag=#alg:after=7",
                "crash@rank2:tag=#alg:after=0",
            ],
            checkpoint_dir=ckdir,
            detect_interval=0.2, timeout=30.0,
        ).run(etrain, ckdir)
        assert report.ok, report.describe()
        assert report.final_nranks == 2 and report.degraded
        _assert_params_match(ref, report.results, exact=False)

    def test_thread_backend_end_to_end(self, tmp_path):
        """Cheap smoke of the full loop on the in-process backend."""
        ref = run_spmd(2, etrain, str(tmp_path / "ref"))
        ckdir = str(tmp_path / "kill")
        report = ElasticRunner(
            2, backoff=0.0, sleep=lambda s: None,
            faults=["crash@rank1:tag=#alg:after=7"],
            checkpoint_dir=ckdir, timeout=20.0,
        ).run(etrain, ckdir)
        assert report.ok, report.describe()
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
        integrity = [e for e in out if isinstance(e, CommIntegrityError)]
        assert integrity, f"no CommIntegrityError in {out!r}"
        err = integrity[0]
        assert err.kind == "integrity"
        assert err.failed_rank == 0  # the corrupted frame's sender
        assert "CRC32" in str(err)
        # And the elastic classifier maps it to the right culprit.
        failures = classify_failures(out)
        assert any(f.kind == "integrity" and f.rank == 0 for f in failures)

    def test_clean_socket_traffic_unaffected_by_crc(self):
        out = run_spmd(
            2, work, backend="socket", hostmap="0:A 1:B", timeout=20.0
        )
        assert out == [8192.0, 8192.0]
