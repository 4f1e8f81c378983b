"""The mailbox contract once, for every feeder.

Every world receives through the one :class:`repro.comm.backend.Mailbox`:
the thread transport wakes its owner through the store's condition
variable, a forked rank's :class:`repro.comm.proc_backend._Inbox` through a
wake pipe its ``select`` watches.  Both flavours are driven in-process here:

* a stateful model check of ``(source, tag)`` matching — per-pair FIFO, no
  loss, no duplicate, a miss leaves the store untouched, ``pending_keys``
  lists exactly the unmatched pairs, and the table is empty once everything
  was matched;
* a lost-wake-up check — a notify that went missing would cost the blocked
  owner one 250 ms poll interval, not a hang, so it has to be timed;

and two checks from the outside, through ``run_spmd``:

* a ``socket`` job whose host map has one node *is* the ``process``
  backend: same threads, same transport counters, no socket constructed;
* a receive that times out on one rank names its operation, sequence
  number, peer and pending inbox in every survivor's ``CommAborted`` — on
  the thread, process and socket backends alike.
"""

import multiprocessing as mp
import os
import socket
import threading
from collections import deque
from time import monotonic, sleep

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from conftest import SPMD_BACKENDS
from repro.comm import CommAborted, run_spmd
from repro.comm.backend import Mailbox, World
from repro.comm.proc_backend import SHM_PREFIX, _Inbox

NSOURCES = 3


class _ThreadBox:
    """A thread-wake mailbox (what ``World`` gives every rank)."""

    def __init__(self):
        self.box = Mailbox(World(size=NSOURCES))

    def close(self):
        pass


class _PipeBox:
    """A pipe-wake mailbox as a forked rank owns one, minus the fork: its
    queue lane stays silent, deposits arrive the way TCP readers make
    them — ``put`` from another thread."""

    def __init__(self):
        self._queue = mp.get_context("fork").Queue()
        self.box = _Inbox(World(size=NSOURCES), self._queue, [], arena=None)

    def close(self):
        os.close(self.box._wake_r)
        os.close(self.box._wake_w)
        self._queue.close()
        self._queue.join_thread()


WAKES = pytest.mark.parametrize("make", [_ThreadBox, _PipeBox], ids=["thread", "pipe"])

_keys = st.tuples(st.integers(0, NSOURCES - 1), st.sampled_from([0, 1, "a", ("c", 2)]))


def _describe():
    return "test get"


class _MailboxMachine(RuleBasedStateMachine):
    make = None

    def __init__(self):
        super().__init__()
        self.owner = self.make()
        self.box = self.owner.box
        self.model: dict[tuple, deque] = {}
        self.serial = 0

    def teardown(self):
        # Match everything that is left: the table must end up empty.
        for key, q in self.model.items():
            while q:
                assert self.box.get(*key, 5.0, _describe) == q.popleft()
        assert self.box._buffered == {}
        assert self.box.pending_keys() == "(empty)"
        self.owner.close()

    @rule(key=_keys)
    def put(self, key):
        self.box.put(*key, self.serial)
        self.model.setdefault(key, deque()).append(self.serial)
        self.serial += 1

    @rule(key=_keys)
    def try_get(self, key):
        before = {k: list(q) for k, q in self.box._buffered.items()}
        ok, payload = self.box.try_get(*key)
        q = self.model.get(key)
        if q:
            assert (ok, payload) == (True, q.popleft())
        else:
            assert (ok, payload) == (False, None)
            assert {k: list(q) for k, q in self.box._buffered.items()} == before

    @precondition(lambda self: any(self.model.values()))
    @rule(data=st.data())
    def get(self, data):
        key = data.draw(st.sampled_from([k for k, q in self.model.items() if q]))
        assert self.box.get(*key, 5.0, _describe) == self.model[key].popleft()

    @invariant()
    def store_holds_exactly_the_unmatched(self):
        unmatched = {k: list(q) for k, q in self.model.items() if q}
        assert {k: list(q) for k, q in self.box._buffered.items()} == unmatched
        listed = self.box.pending_keys(limit=len(unmatched) + 1)
        if not unmatched:
            assert listed == "(empty)"
        else:
            assert listed.count("(source=") == len(unmatched)
            for source, tag in unmatched:
                assert f"(source={source}, tag={tag!r})" in listed


_machine_settings = settings(max_examples=40, stateful_step_count=40, deadline=None)


class _ThreadWakeMachine(_MailboxMachine):
    make = _ThreadBox


class _PipeWakeMachine(_MailboxMachine):
    make = _PipeBox


TestThreadWakeContract = _ThreadWakeMachine.TestCase
TestThreadWakeContract.settings = _machine_settings
TestPipeWakeContract = _PipeWakeMachine.TestCase
TestPipeWakeContract.settings = _machine_settings


class TestWakeUps:
    @WAKES
    def test_a_deposit_wakes_a_blocked_owner(self, make):
        """200 times: the owner blocks in ``get`` (5 s timeout), a second
        thread deposits after a barrier.  A lost wake-up would surface one
        poll interval (250 ms) later; a delivered one in well under 0.2 s."""
        owner = make()
        box = owner.box
        try:
            for i in range(200):
                barrier = threading.Barrier(2)

                def sender(i=i, barrier=barrier):
                    barrier.wait(timeout=5)
                    if i % 2:
                        sleep(0.001)  # let the owner reach its wait first
                    box.put(1, "wake", i)

                t = threading.Thread(target=sender)
                t.start()
                barrier.wait(timeout=5)
                t0 = monotonic()
                got = box.get(1, "wake", 5.0, _describe)
                elapsed = monotonic() - t0
                t.join(timeout=5)
                assert not t.is_alive()
                assert got == i
                assert elapsed < 0.2, f"repetition {i}: woke after {elapsed:.3f}s"
        finally:
            owner.close()

    def test_pipe_wake_is_only_poked_while_the_owner_sleeps(self):
        """Deposits the owner will see on its next check cost no syscall:
        nothing is written to the wake pipe unless the owner is inside its
        ``select`` — and a wake pipe that is full is not an error."""
        owner = _PipeBox()
        box = owner.box
        try:
            for i in range(3):
                box.put(0, "t", i)
            assert os.get_blocking(box._wake_r) is False
            with pytest.raises(BlockingIOError):
                os.read(box._wake_r, 1)
            box._asleep = True  # as if blocked: every deposit pokes
            try:
                while True:
                    os.write(box._wake_w, b"\0" * 4096)
            except BlockingIOError:
                pass
            box.put(0, "t", 3)  # pipe full: ignored, wake-ups are pending
            box._asleep = False
            assert [box.get(0, "t", 5.0, _describe) for _ in range(4)] == [0, 1, 2, 3]
        finally:
            owner.close()


def _exchange(comm):
    x = np.arange(4096, dtype=np.float64) + comm.rank
    comm.allreduce(x, algorithm="ring")
    comm.allreduce(np.float64(comm.rank))
    peer = 1 - comm.rank
    comm.send(x, peer, tag=3)
    comm.recv(peer, tag=3)
    comm.barrier()
    names = sorted(t.name for t in threading.enumerate())
    return names, dict(comm._world.transport), comm.backend


def _shm_and_fds():
    shm = {f for f in os.listdir("/dev/shm") if f.startswith(SHM_PREFIX)}
    return shm, len(os.listdir("/proc/self/fd"))


class TestOneForkedWorld:
    def test_socket_on_one_node_is_the_process_backend(self, monkeypatch):
        monkeypatch.delenv("REPRO_HOSTMAP", raising=False)
        constructed = []

        class SpySocket(socket.socket):
            def __init__(self, *args, **kwargs):
                constructed.append(args)
                super().__init__(*args, **kwargs)

        # Listeners are bound pre-fork, so the launching process's count is
        # the whole story.
        monkeypatch.setattr(socket, "socket", SpySocket)
        proc = run_spmd(2, _exchange, backend="process", timeout=60)
        sock = run_spmd(2, _exchange, backend="socket", hostmap="0,1:A", timeout=60)
        assert constructed == []
        for (p_names, p_transport, p_name), (s_names, s_transport, s_name) in zip(
            proc, sock
        ):
            assert p_names == s_names
            assert not [n for n in s_names if n.startswith(("tcp-", "shm-feeder"))]
            assert p_transport == s_transport
            assert p_transport["tcp_messages"] == 0 < p_transport["pipe_messages"]
            assert (p_name, s_name) == ("process", "socket")

    def test_a_two_node_map_binds_one_listener_per_rank(self, monkeypatch):
        constructed = []

        class SpySocket(socket.socket):
            def __init__(self, *args, **kwargs):
                constructed.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(socket, "socket", SpySocket)
        run_spmd(2, _exchange, backend="socket", hostmap="0:A 1:B", timeout=60)
        assert len(constructed) == 2

    def test_a_failed_bind_leaks_nothing(self, monkeypatch):
        """The pre-fork state is half built when a listener cannot be
        bound: the arena, queues, pipes and the listeners already bound
        must all be released before the error reaches the caller."""
        binds = []

        class FlakySocket(socket.socket):
            def bind(self, address):
                binds.append(address)
                if len(binds) == 2:
                    raise OSError(98, "Address already in use")
                super().bind(address)

        run_spmd(2, _exchange, backend="socket", hostmap="0:A 1:B", timeout=60)  # warm
        before = _shm_and_fds()
        monkeypatch.setattr(socket, "socket", FlakySocket)
        with pytest.raises(OSError, match="Address already in use"):
            run_spmd(2, _exchange, backend="socket", hostmap="0:A 1:B", timeout=60)
        assert len(binds) == 2
        assert _shm_and_fds() == before


class TestAttributionParity:
    @pytest.mark.parametrize("backend", SPMD_BACKENDS)
    def test_a_timeout_on_one_rank_is_named_to_survivors(self, backend, monkeypatch):
        monkeypatch.delenv("REPRO_HOSTMAP", raising=False)

        def prog(comm):
            if comm.rank == 0:
                # Rank 1 never joins this collective: times out at 0.5 s.
                return comm.bcast(None, root=1)
            comm.send(np.ones(2), dest=0, tag="unwanted")
            return comm.recv(source=0, tag="never sent")  # the survivor

        out = run_spmd(
            2, prog,
            backend=backend,
            op_timeouts={"bcast": 0.5},
            timeout=30.0,
            allow_failures=True,
        )
        timed_out, survivor = out
        assert isinstance(timed_out, CommAborted) and timed_out.kind == "timeout"
        assert isinstance(survivor, CommAborted)
        text = str(survivor)
        assert "recv(world rank 1 <- 0" in text and "world aborted" in text
        # ... and rank 0's diagnostic: op, seq, peer, what sat in its inbox.
        assert "bcast[seq=0](world rank 0 <- 1" in text
        assert "timed out after 0.5s" in text
        assert "pending inbox: [(source=1, tag=" in text and "'unwanted'" in text
