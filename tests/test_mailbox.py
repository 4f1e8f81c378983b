"""The mailbox contract once, for every feeder.

Every world receives through the one :class:`repro.comm.backend.Mailbox`.
The thread transport's senders deposit from their own threads and wake the
owner through the store's condition variable; a forked rank's
:class:`repro.comm.proc_backend._Inbox` has no depositing thread — its
owner drains every lane (its links) in its own ``select``.  Both flavours
are driven in-process here:

* a stateful model check of ``(source, tag)`` matching — per-pair FIFO, no
  loss, no duplicate, a miss leaves the store untouched, ``pending_keys``
  lists exactly the unmatched pairs, and the table is empty once everything
  was matched;
* a lost-wake-up check of the thread flavour — a notify that went missing
  would cost the blocked owner one 250 ms poll interval, not a hang, so it
  has to be timed;
* a link as a lane of the forked flavour, over loopback TCP and over an
  ``AF_UNIX`` socketpair — its frames are deposited by the waiting thread,
  reassembled however the stream is split, its CRC failures are named, and
  an EOF without BYE is a death only off-node; and threads sending on it
  at once never interleave their frames;

and two checks from the outside, through ``run_spmd``:

* a ``socket`` job whose host map has one node *is* the ``process``
  backend: same threads, same transport counters, no TCP socket
  constructed;
* a receive that times out on one rank names its operation, sequence
  number, peer and pending inbox in every survivor's ``CommAborted`` — on
  the thread, process and socket backends alike.
"""

import os
import select
import socket
import sys
import threading
import zlib
from collections import deque
from contextlib import contextmanager
from time import monotonic, sleep

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from conftest import SPMD_BACKENDS
from repro.comm import CommAborted, CommIntegrityError, HostMap, JobConfig, run_spmd
from repro.comm.backend import Mailbox, World
from repro.comm.payload import encode_frame
from repro.comm.proc_backend import SHM_PREFIX, _Inbox
from repro.comm.socket_backend import (
    _FRAME_BYE,
    _FRAME_DATA,
    _FRAME_HEARTBEAT,
    _HEADER,
    _STAGE_BYTES,
    Link,
)

NSOURCES = 3


class _ThreadBox:
    """A thread-wake mailbox (what ``World`` gives every rank)."""

    def __init__(self):
        self.box = Mailbox(World(size=NSOURCES))

    def close(self):
        pass


class _ForkedBox:
    """A forked rank's inbox minus the fork: it watches no link until a
    test adds one, and the owner deposits itself, as its link drains do."""

    def __init__(self, world=None):
        world = world if world is not None else World(size=NSOURCES)
        self.box = _Inbox(world, arena=None)

    def close(self):
        pass


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


class _ForkedInboxMachine(_MailboxMachine):
    make = _ForkedBox


TestThreadWakeContract = _ThreadWakeMachine.TestCase
TestThreadWakeContract.settings = _machine_settings
TestForkedInboxContract = _ForkedInboxMachine.TestCase
TestForkedInboxContract.settings = _machine_settings


class TestWakeUps:
    def test_a_deposit_wakes_a_blocked_owner(self):
        """200 times: the owner blocks in ``get`` (5 s timeout), a second
        thread deposits after a barrier.  A lost wake-up would surface one
        poll interval (250 ms) later; a delivered one in well under 0.2 s."""
        owner = _ThreadBox()
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


def _frame(ftype, blob=b"", crc=None):
    crc = zlib.crc32(blob) if crc is None else crc
    return _HEADER.pack(ftype, len(blob), crc) + blob


def _data(payload, tag="t"):
    return _frame(_FRAME_DATA, encode_frame((1, tag), payload))


#: The two kinds of link: an off-node peer's, a same-node peer's.
LINK_KINDS = ("tcp", "socketpair")


@contextmanager
def _link_lane(kind):
    """A forked inbox (owner: world rank 0) with one real link from world
    rank 1 as a lane — loopback TCP or an ``AF_UNIX`` socketpair; yields
    ``(world, box, link, peer)``, where ``peer`` is rank 1's raw end."""
    world = World(size=NSOURCES, config=JobConfig(hostmap=HostMap.one_per_rank(NSOURCES)))
    world.rank = 0
    owner = _ForkedBox(world)
    if kind == "tcp":
        with socket.create_server(("127.0.0.1", 0)) as listener:
            peer = socket.create_connection(listener.getsockname())
            mine, _ = listener.accept()
    else:
        mine, peer = socket.socketpair()
    link = Link(world, 1, mine, owner.box)
    owner.box.watch(link.fileno, link.drain)
    try:
        yield world, owner.box, link, peer
    finally:
        link.close()
        peer.close()
        owner.close()


def _drain_until_finished(box, link):
    """Let the owner drain until the link has left its ``select``."""
    for _ in range(10):
        if link.fileno not in box._lanes:
            return
        select.select([link.fileno], [], [], 5.0)
        box.try_get(1, "never sent")


#: A stream item: a heartbeat, a small ``DATA`` frame, or one too large to
#: stage (its body is read into a buffer of its own).
_items = st.one_of(
    st.none(), st.integers(0, 300), st.just(_STAGE_BYTES // 8 + 100)
)


@pytest.mark.parametrize("kind", LINK_KINDS)
class TestLinkLane:
    """A link of either kind is a lane of the forked inbox, read by the
    waiting thread, and one writer shared by every thread that sends on
    it."""

    def test_a_frame_is_deposited_by_the_waiting_thread(self, kind):
        with _link_lane(kind) as (_, box, link, peer):
            depositors = []
            store = link._deposit

            def recording_store(frame):
                depositors.append(threading.current_thread())
                store(frame)

            link._deposit = recording_store
            sender = threading.Thread(target=peer.sendall, args=(_data(7),))
            sender.start()
            assert box.get(1, "t", 5.0, _describe) == 7
            sender.join(timeout=5)
            assert not sender.is_alive()
            assert depositors == [threading.current_thread()]

    def test_concurrent_senders_never_interleave_frames(self, kind):
        """Four threads send over one link at once, far faster than the peer
        reads, with the interpreter switching threads every microsecond:
        each write goes out on its caller's thread or queues behind the
        backlog, and frames reach the peer whole, in each sender's order."""
        nthreads, count, size = 4, 50, 100_000
        with _link_lane(kind) as (_, _, link, peer):

            def send(t):
                for i in range(count):
                    link.send_frame(_FRAME_DATA, bytes([t, i]) * (size // 2))

            switch = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                workers = [threading.Thread(target=send, args=(t,)) for t in range(nthreads)]
                for w in workers:
                    w.start()
                for w in workers:
                    w.join(timeout=30)
            finally:
                sys.setswitchinterval(switch)
            assert not any(w.is_alive() for w in workers)
            peer.settimeout(30)
            data, expect = bytearray(), nthreads * count * (_HEADER.size + size)
            while len(data) < expect:
                chunk = peer.recv(1 << 20)
                assert chunk
                data += chunk
        seen: dict[int, list[int]] = {t: [] for t in range(nthreads)}
        for pos in range(0, expect, _HEADER.size + size):
            ftype, length, crc = _HEADER.unpack_from(data, pos)
            blob = bytes(data[pos + _HEADER.size : pos + _HEADER.size + length])
            assert (ftype, length, zlib.crc32(blob)) == (_FRAME_DATA, size, crc)
            t, i = blob[:2]
            assert blob == bytes([t, i]) * (size // 2)
            seen[t].append(i)
        assert len(data) == expect
        assert seen == {t: list(range(count)) for t in range(nthreads)}

    def test_a_close_racing_the_sender_thread_raises_nothing(self, kind, monkeypatch):
        """The peer has read the last byte the sender thread wrote, and the
        owner closes the link before that thread books the write: the
        thread finds its backlog dropped and exits quietly."""
        errors = []
        monkeypatch.setattr(threading, "excepthook", lambda args: errors.append(args.exc_type))
        for _ in range(200):
            with _link_lane(kind) as (_, _, link, peer):
                # A small send buffer: the sender thread writes most of it.
                link._sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
                link.send_frame(_FRAME_DATA, bytes(100_000))
                got = 0
                while got < _HEADER.size + 100_000:
                    got += len(peer.recv(1 << 20))
            link._sender.join(timeout=5)
            assert not link._sender.is_alive()
        assert errors == []

    @settings(max_examples=30, deadline=None)
    @given(items=st.lists(_items, min_size=1, max_size=8),
           cuts=st.lists(st.integers(1, 3 * _STAGE_BYTES), max_size=10))
    def test_frames_split_anywhere_reassemble(self, kind, items, cuts):
        """However the stream is cut, every ``DATA`` frame is deposited once,
        in order, bit for bit and read-only; heartbeats deposit nothing.
        (Past the drawn cuts the rest goes in pieces a socketpair's buffer
        takes at once.)"""
        sent = [np.arange(n, dtype=np.float64) + i for i, n in enumerate(items) if n is not None]
        stream = b"".join(
            _frame(_FRAME_HEARTBEAT) if n is None else _data(np.arange(n, dtype=np.float64) + i)
            for i, n in enumerate(items)
        )
        with _link_lane(kind) as (world, box, link, peer):
            got, pos, cuts = [], 0, iter(cuts)
            while pos < len(stream):
                chunk = stream[pos : pos + next(cuts, 3 * _STAGE_BYTES)]
                peer.sendall(chunk)
                pos += len(chunk)
                select.select([link.fileno], [], [], 5.0)
                ok, payload = box.try_get(1, "t")
                while ok:
                    got.append(payload)
                    ok, payload = box.try_get(1, "t")
            while len(got) < len(sent):
                got.append(box.get(1, "t", 5.0, _describe))
            assert box._buffered == {} and not world.aborted
        assert [a.tobytes() for a in got] == [a.tobytes() for a in sent]
        assert not any(a.flags.writeable for a in got)

    def test_eof_after_bye_is_orderly(self, kind):
        with _link_lane(kind) as (world, box, link, peer):
            peer.sendall(_data(3) + _frame(_FRAME_BYE))
            peer.close()
            assert box.get(1, "t", 5.0, _describe) == 3
            _drain_until_finished(box, link)
            assert link.fileno not in box._fds and link.peer_done
            assert not world.aborted

    def test_eof_without_bye_is_a_death_only_off_node(self, kind):
        """An off-node peer's EOF without BYE aborts naming it.  A same-node
        peer's only unwatches the link: the parent, which alone sees the
        exit code, names that rank."""
        with _link_lane(kind) as (world, box, link, peer):
            peer.close()
            if kind == "socketpair":
                _drain_until_finished(box, link)
                assert link.fileno not in box._fds and not world.aborted
                return
            with pytest.raises(CommAborted) as info:
                box.get(1, "never sent", 5.0, _describe)
            err = info.value
            assert (err.kind, err.failed_rank, err.host) == ("peer-death", 1, "node1")
            assert "world rank 1 (host node1) lost" in str(err)
            assert link.fileno not in box._fds

    def test_a_bad_crc_aborts_naming_the_sender(self, kind):
        with _link_lane(kind) as (world, box, link, peer):
            blob = encode_frame((1, "t"), np.ones(4))
            peer.sendall(_frame(_FRAME_DATA, blob, crc=zlib.crc32(blob) ^ 1))
            with pytest.raises(CommIntegrityError) as info:
                box.get(1, "t", 5.0, _describe)
            err = info.value
            assert (err.kind, err.failed_rank, err.host) == ("integrity", 1, "node1")
            assert "CRC32" in str(err)
            assert link.fileno not in box._fds and box._buffered == {}


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
                super().__init__(*args, **kwargs)
                constructed.append(self.family)

        # Links and listeners are made pre-fork, so the launching process's
        # sockets are the whole story: one socketpair, no TCP.
        monkeypatch.setattr(socket, "socket", SpySocket)
        proc = run_spmd(2, _exchange, backend="process", timeout=60)
        sock = run_spmd(2, _exchange, backend="socket", hostmap="0,1:A", timeout=60)
        assert constructed == [socket.AF_UNIX] * 4
        for (p_names, p_transport, p_name), (s_names, s_transport, s_name) in zip(
            proc, sock
        ):
            assert p_names == s_names
            assert not [n for n in s_names if n.startswith(("tcp-", "link-"))]
            assert p_transport == s_transport
            assert p_transport["tcp_messages"] == 0 < p_transport["local_frames"]
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
        bound: the arena, the links, the result pipes and the listeners
        already bound must all be released before the error reaches the
        caller."""
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
