"""Aborts during flat *ring* and *hierarchical* collective schedules.

This suite crashes a rank mid-schedule in a flat ring allreduce and in the
hierarchical (two-tier) one, on both forked backends, and pins the cleanup
contract:

* every survivor raises ``CommAborted`` naming the failed rank (no hangs,
  no wrong answers),
* the job leaks nothing — no ``/dev/shm`` arena segments, no listening
  TCP sockets, no stray file descriptors in the supervising process.
"""

import gc
import os

import numpy as np
import pytest

from repro.comm import CommAborted, run_spmd
from repro.comm.proc_backend import SHM_PREFIX

NRANKS = 4
CRASH_RANK = 2
HOSTMAP = "0,1:A 2,3:B"  # two logical nodes: hierarchical schedules engage
SHM_DIR = "/dev/shm"


def _shm_segments() -> set:
    if not os.path.isdir(SHM_DIR):  # pragma: no cover - non-Linux hosts
        pytest.skip("no /dev/shm on this platform")
    return {f for f in os.listdir(SHM_DIR) if f.startswith(SHM_PREFIX)}


def _socket_fds() -> set:
    """Inode labels of this process's open socket descriptors."""
    fd_dir = "/proc/self/fd"
    if not os.path.isdir(fd_dir):  # pragma: no cover - non-Linux hosts
        return set()
    out = set()
    for fd in os.listdir(fd_dir):
        try:
            target = os.readlink(os.path.join(fd_dir, fd))
        except OSError:
            continue
        if target.startswith("socket:"):
            out.add(target)
    return out


RING_ELEMENTS = 1 << 14


def _prog_ring(comm):
    # 128 KiB over 4 ranks: six 32 KiB arena messages per rank, sent
    # eagerly, so the crash lands with chunks in flight.
    x = np.arange(RING_ELEMENTS, dtype=np.float64) * (comm.rank + 1)
    out = comm.allreduce(x, algorithm="ring")
    comm.barrier()
    return float(out.sum())


def _prog_hierarchical(comm):
    x = np.arange(1024, dtype=np.float64) * (comm.rank + 1)
    out = comm.allreduce(x, algorithm="hierarchical")
    comm.barrier()
    return float(out.sum())


PROGS = {"ring": _prog_ring, "hierarchical": _prog_hierarchical}


def _assert_survivors_name_crashed_rank(out):
    for r, res in enumerate(out):
        assert isinstance(res, CommAborted), f"rank {r}: {res!r}"
        if r != CRASH_RANK:
            assert f"rank {CRASH_RANK}" in str(res), f"rank {r}: {res}"


class TestAbortMidSchedule:
    @pytest.mark.parametrize("backend", ["process", "socket"])
    @pytest.mark.parametrize("schedule", sorted(PROGS))
    @pytest.mark.parametrize("phase,after", [("early", 0), ("late", 3)])
    def test_crash_names_failed_rank_and_leaks_nothing(
        self, backend, schedule, phase, after
    ):
        before_shm = _shm_segments()
        before_socks = _socket_fds()
        out = run_spmd(
            NRANKS,
            PROGS[schedule],
            backend=backend,
            hostmap=HOSTMAP,
            faults=f"crash@rank{CRASH_RANK}:tag=#alg:after={after}",
            allow_failures=True,
            timeout=20.0,
            detect_interval=0.2,
        )
        _assert_survivors_name_crashed_rank(out)
        gc.collect()
        assert _shm_segments() == before_shm, "leaked /dev/shm arena segment"
        leaked = _socket_fds() - before_socks
        assert not leaked, f"leaked socket fds in supervisor: {leaked}"

    @pytest.mark.parametrize("backend", ["process", "socket"])
    def test_clean_ring_and_hierarchical_answers_stay_correct(self, backend):
        """Control: the same schedules with no fault return exact sums on
        every rank (and still leak nothing)."""
        before_shm = _shm_segments()
        ring, hier = run_spmd(
            NRANKS,
            lambda comm: (_prog_ring(comm), _prog_hierarchical(comm)),
            backend=backend,
            hostmap=HOSTMAP,
            timeout=20.0,
        )[0]
        scale = sum(range(1, NRANKS + 1))
        assert ring == float(np.arange(RING_ELEMENTS).sum() * scale)
        assert hier == float(np.arange(1024).sum() * scale)
        gc.collect()
        assert _shm_segments() == before_shm
