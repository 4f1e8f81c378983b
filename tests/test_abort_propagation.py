"""Abort propagation through the scheduled collectives and ``bcast``'s
star: a rank crashed at *any* schedule phase must take the whole job down
promptly, with every survivor's ``CommAborted`` naming the failed rank —
never a hang.

The crash points are derived from the compiled schedules themselves: for
each algorithm the crashing rank's sends are counted and the fault is
injected at the first send (reduce-scatter / exchange phase) and at the
last (allgather / final phase), so both halves of every algorithm are
covered without hard-coding step indices.
"""

import numpy as np
import pytest

from repro.comm import CommAborted, InjectedCrash, run_spmd
from repro.comm import algorithms as alg
from tests.conftest import CRASH_KINDS, assert_one_cause, reduce_for_process

NRANKS = 4
CRASH_RANK = 2


def _send_count(algorithm: str, rank: int, p: int = NRANKS) -> int:
    sched = alg.compile_allreduce(p, algorithm)[rank]
    return sum(1 for s in sched if s.kind == "send")


def _phase_points(algorithm: str) -> list[tuple[str, int]]:
    """(phase label, send index) pairs: first send and last send."""
    n = _send_count(algorithm, CRASH_RANK)
    assert n >= 2, f"{algorithm} has too few sends to split into phases"
    return [("first-phase", 0), ("last-phase", n - 1)]


def _assert_survivors_name_crashed_rank(out, backend):
    """Every non-crashed rank got CommAborted naming CRASH_RANK, in its
    text and as the job's one cause; the crashed rank died by
    InjectedCrash (thread) or is reported dead (process)."""
    for r, res in enumerate(out):
        if r == CRASH_RANK:
            if backend == "thread":
                assert isinstance(res, InjectedCrash), res
            else:
                assert isinstance(res, CommAborted), res
            continue
        assert isinstance(res, CommAborted), f"rank {r}: {res!r}"
        assert f"rank {CRASH_RANK}" in str(res), f"rank {r}: {res}"
    assert_one_cause(out, CRASH_RANK, CRASH_KINDS[backend])


PHASES = [
    (algorithm, label, after)
    for algorithm in alg.REDUCTION_ALGORITHMS
    for label, after in _phase_points(algorithm)
]


class TestScheduledAllreduceAbort:
    @pytest.mark.parametrize(
        "algorithm,label,after",
        PHASES,
        ids=[f"{a}-{lbl}" for a, lbl, _ in PHASES],
    )
    def test_crash_at_phase_propagates(self, backend, algorithm, label, after):
        reduce_for_process(
            backend,
            heavy=label != "first-phase",
            reason="one phase per algorithm is enough with real forks",
        )

        def prog(comm):
            x = np.arange(16, dtype=np.float64) * (comm.rank + 1)
            out = comm.allreduce(x, algorithm=algorithm)
            # A survivor that already held all its pieces completes the
            # collective; the abort surfaces at its *next* operation —
            # exactly MPI's semantics.  The barrier is that operation.
            comm.barrier()
            return out

        out = run_spmd(
            NRANKS,
            prog,
            backend=backend,
            faults=f"crash@rank{CRASH_RANK}:tag=#alg:after={after}",
            allow_failures=True,
            timeout=20.0,
            detect_interval=0.2,
        )
        _assert_survivors_name_crashed_rank(out, backend)

    @pytest.mark.parametrize("algorithm", sorted(alg.REDUCTION_ALGORITHMS))
    def test_crash_in_nonblocking_schedule(self, backend, algorithm):
        """The progressive (iallreduce) runner must also unwind cleanly."""
        reduce_for_process(
            backend,
            heavy=algorithm != "ring",
            reason="one algorithm exercises the nonblocking path with forks",
        )

        def prog(comm):
            req = comm.iallreduce(np.ones(16), algorithm=algorithm)
            out = req.wait()
            comm.barrier()
            return out

        out = run_spmd(
            NRANKS,
            prog,
            backend=backend,
            faults=f"crash@rank{CRASH_RANK}:tag=#alg",
            allow_failures=True,
            timeout=20.0,
            detect_interval=0.2,
        )
        _assert_survivors_name_crashed_rank(out, backend)

    def test_no_hang_when_crash_precedes_any_send(self, backend):
        """A rank that dies before its first schedule send (recv-point
        crash) still takes the job down promptly."""
        reduce_for_process(backend, heavy=False, reason="")

        def prog(comm):
            out = comm.allreduce(np.ones(16), algorithm="ring")
            comm.barrier()
            return out

        out = run_spmd(
            NRANKS,
            prog,
            backend=backend,
            faults=f"crash@rank{CRASH_RANK}:point=recv:tag=#alg",
            allow_failures=True,
            timeout=20.0,
            detect_interval=0.2,
        )
        _assert_survivors_name_crashed_rank(out, backend)


class TestStarBcastAbort:
    """``bcast``'s one-hop star (``#coll`` traffic) under a crash."""

    @pytest.mark.parametrize("point", ["recv", "send"])
    def test_crash_in_star_bcast(self, backend, point):
        """``recv``: a non-root dies at its one receive; ``send``: the
        root dies at its first send, before any peer has the payload."""
        root = CRASH_RANK if point == "send" else 0

        def prog(comm):
            x = np.ones(16) * (comm.rank + 1)
            out = comm.bcast(x if comm.rank == root else None, root=root)
            comm.barrier()
            return out

        out = run_spmd(
            NRANKS,
            prog,
            backend=backend,
            faults=f"crash@rank{CRASH_RANK}:point={point}:tag=#coll",
            allow_failures=True,
            timeout=20.0,
            detect_interval=0.2,
        )
        _assert_survivors_name_crashed_rank(out, backend)
