"""Socket/TCP backend: host-map routing, parity, failure naming, no leaks.

The socket backend must be a drop-in :class:`BaseWorld`: same (source,
tag) matching, same collectives, same fault semantics — only the transport
differs (shared memory within a logical node, TCP frames across nodes).
These tests pin:

* the :class:`HostMap` abstraction (parsing, modulo folding, grouping);
* routing — a single-node map moves zero TCP bytes, the default map moves
  everything over TCP, a two-node map splits exactly along the boundary;
* cross-backend parity, **bitwise**, for the direct and scheduled
  collectives;
* cross-host failure detection — a killed rank's peers fail with
  :class:`CommAborted` naming the dead world rank, and a busy rank does not
  report a peer whose heartbeats wait unread on its link;
* what a frame costs on either kind of link — a same-node socketpair
  (``process``) or TCP (``socket``) — as counts: one ``select`` and one
  ``recv_into`` on the receiving thread, one ``sendmsg`` on the calling
  one; and that a send never blocks and loses nothing;
* resource hygiene — a rank holds one socket per link and no other, and a
  completed (or aborted) job leaks no sockets or file descriptors in the
  parent, mirroring the ``/dev/shm`` arena check.
"""

import gc
import os
import socket
import threading
import time

import numpy as np
import pytest

from conftest import Counting
from repro.comm import CommAborted, HostMap, run_spmd
from repro.comm import socket_backend
from repro.comm.hostmap import resolve_hostmap
from repro.comm.socket_backend import _FRAME_DATA, _HEADER

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

HOSTMAP_2X2 = "0,1:A 2,3:B"


# ---------------------------------------------------------------------------
# HostMap
# ---------------------------------------------------------------------------


class TestHostMap:
    def test_parse_and_describe_roundtrip(self):
        hm = HostMap.parse(HOSTMAP_2X2)
        assert hm.size == 4
        assert hm.nnodes == 2
        assert hm.names == ("A", "B")
        assert [hm.node_of(r) for r in range(4)] == [0, 0, 1, 1]
        assert HostMap.parse(hm.describe()) == hm

    def test_ranges_and_merged_hosts(self):
        hm = HostMap.parse("0-2:n0 3,5:n1 4:n0")
        assert hm.size == 6
        assert hm.node_of(4) == 0
        assert [hm.node_of(r) for r in range(6)] == [0, 0, 0, 1, 0, 1]

    def test_modulo_folding_reuses_one_map_for_any_job_size(self):
        hm = HostMap.parse(HOSTMAP_2X2)
        # 2 ranks: both fold onto node A -> effectively single-node.
        assert hm.is_single_node(2)
        # 8 ranks: 0,1,4,5 -> A and 2,3,6,7 -> B.
        assert [hm.node_of(r) for r in range(8)] == [0, 0, 1, 1, 0, 0, 1, 1]

    def test_every_rank_exactly_once(self):
        with pytest.raises(ValueError):
            HostMap.parse("0,1:A 1,2:B")
        with pytest.raises(ValueError):
            HostMap.parse("0,2:A")  # rank 1 missing

    def test_env_resolution(self):
        assert resolve_hostmap(None, HOSTMAP_2X2) == HostMap.parse(HOSTMAP_2X2)
        explicit = HostMap.one_per_rank(3)
        assert resolve_hostmap(explicit, HOSTMAP_2X2) is explicit
        assert resolve_hostmap(None, None) is None


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------


def _traffic(comm):
    x = np.arange(512, dtype=np.float64) + comm.rank
    comm.allreduce(x, algorithm="ring")
    peer = (comm.rank + 1) % comm.size
    comm.send(x, peer, tag=3)
    comm.recv((comm.rank - 1) % comm.size, tag=3)
    t = comm._world.transport
    return t["tcp_messages"], t["shm_messages"] + t["inline_messages"]


class TestRouting:
    def test_single_node_map_moves_no_tcp(self):
        for tcp, local in run_spmd(
            3, _traffic, backend="socket", hostmap="0,1,2:only", timeout=60
        ):
            assert tcp == 0
            assert local > 0

    def test_default_map_moves_everything_over_tcp(self, monkeypatch):
        # The *default* map is one rank per node; shed any ambient
        # REPRO_HOSTMAP (CI's multi-host job exports one) first.
        monkeypatch.delenv("REPRO_HOSTMAP", raising=False)
        for tcp, local in run_spmd(3, _traffic, backend="socket", timeout=60):
            assert tcp > 0
            assert local == 0

    def test_two_node_map_splits_on_the_boundary(self):
        def prog(comm):
            world = comm._world
            me = comm.rank
            for peer in range(comm.size):
                if peer != me:
                    comm.send(np.full(64, me, np.float32), peer, tag=9)
            for peer in range(comm.size):
                if peer != me:
                    got = comm.recv(peer, tag=9)
                    assert np.all(got == peer)
            t = world.transport
            # 2 inter-node peers x one 256 B array each.
            return t["tcp_messages"], t["tcp_payload_bytes"]

        for tcp_msgs, tcp_payload in run_spmd(
            4, prog, backend="socket", hostmap=HOSTMAP_2X2, timeout=60
        ):
            assert tcp_msgs == 2
            assert tcp_payload == 2 * 64 * 4

    def test_hostmap_env_is_picked_up(self, monkeypatch):
        monkeypatch.setenv("REPRO_HOSTMAP", "0,1,2:lone")

        def prog(comm):
            return comm._world.hostmap.describe(), _traffic(comm)[0]

        for desc, tcp in run_spmd(3, prog, backend="socket", timeout=60):
            assert desc == "0,1,2:lone"
            assert tcp == 0

    def test_node_of_is_uniform_across_backends(self):
        def prog(comm):
            return tuple(comm._world.node_of(r) for r in range(comm.size))

        for backend in ("thread", "process", "socket"):
            out = run_spmd(
                4, prog, backend=backend, hostmap=HOSTMAP_2X2, timeout=60
            )
            assert out == [(0, 0, 1, 1)] * 4


# ---------------------------------------------------------------------------
# Cross-backend parity (bitwise)
# ---------------------------------------------------------------------------


def _parity_prog(comm):
    rng = np.random.default_rng(1234 + comm.rank)
    x = rng.standard_normal(1536).astype(np.float32)
    out = {
        "direct": comm.allreduce(x, algorithm="direct"),
        "ring": comm.allreduce(x, algorithm="ring"),
        "hier": comm.allreduce(x, algorithm="hierarchical"),
        "bcast": comm.bcast(x if comm.rank == 1 else None, root=1),
        "gathered": comm.allgather(float(comm.rank)),
        "a2a": comm.alltoall([x[i::comm.size] for i in range(comm.size)]),
    }
    req = comm.iallreduce(x, algorithm="rabenseifner")
    out["nb"] = req.wait()
    return out


class TestCrossBackendParity:
    def test_socket_matches_thread_bitwise(self):
        kwargs = dict(hostmap=HOSTMAP_2X2, timeout=60)
        ref = run_spmd(4, _parity_prog, backend="thread", **kwargs)
        got = run_spmd(4, _parity_prog, backend="socket", **kwargs)
        for r, g in zip(ref, got):
            assert set(r) == set(g)
            for key in r:
                np.testing.assert_array_equal(
                    np.asarray(r[key]), np.asarray(g[key]), err_msg=key
                )


# ---------------------------------------------------------------------------
# Failure detection across logical hosts
# ---------------------------------------------------------------------------


class TestCrossHostFailure:
    def test_crashed_rank_is_named_to_survivors(self):
        def prog(comm):
            x = np.ones(4096, dtype=np.float64)
            for _ in range(10):
                comm.allreduce(x, algorithm="ring")
            return comm.rank

        out = run_spmd(
            4, prog,
            backend="socket",
            hostmap=HOSTMAP_2X2,
            faults="crash@rank3:point=send:after=2:tag=#alg",
            allow_failures=True,
            detect_interval=0.1,
            timeout=30,
        )
        assert all(isinstance(o, CommAborted) for o in out)
        # Every survivor's failure (and the dead rank's synthesized one)
        # names world rank 3 — the cross-host diagnostic contract.
        for o in out:
            assert "rank 3" in str(o)

    def test_skewed_completion_is_not_a_false_positive(self):
        # A fast rank exits (BYE + FIN) long before its peers; the EOF
        # after BYE must not be mistaken for a crash.
        def prog(comm):
            import time as _t

            x = np.arange(256, dtype=np.float64)
            got = comm.allreduce(x)
            if comm.rank:
                _t.sleep(0.4 * comm.rank)
            return float(got.sum())

        out = run_spmd(
            3, prog, backend="socket", timeout=30, detect_interval=0.1
        )
        assert out == [out[0]] * 3

    def test_a_busy_rank_does_not_report_its_heartbeating_peer(
        self, caplog, monkeypatch
    ):
        """A rank only hears a peer when it drains, so one that computes
        past the staleness bound must probe the link before it warns:
        heartbeats waiting unread mean the peer is alive.  (Records are
        read inside each rank: a forked rank logs into its own copy of
        ``caplog``.)"""
        monkeypatch.setattr(socket_backend, "_STALE_AFTER", 0.2)

        def prog(comm):
            if comm.rank == 1:
                time.sleep(1.0)  # computing, 5x past the bound
            comm.barrier()
            return [r.getMessage() for r in caplog.records]

        out = run_spmd(
            2, prog, backend="socket", hostmap="0:A 1:B",
            detect_interval=0.02, timeout=30,
        )
        assert out == [[], []]


# ---------------------------------------------------------------------------
# What a frame costs, on either kind of link
# ---------------------------------------------------------------------------

#: Two logical nodes whatever ``REPRO_HOSTMAP`` says: every byte crosses TCP.
OFF_NODE = "0:A 1:B"


@pytest.fixture(params=["process", "socket"])
def link_job(request, monkeypatch):
    """``run_spmd`` keywords for a two-rank job whose one link is a
    same-node socketpair (``process``) or a TCP connection (``socket``)."""
    # An arena too small for the MB-scale sends below: they ride inline.
    monkeypatch.setenv("REPRO_SHM_BYTES", str(1 << 20))
    if request.param == "socket":
        return dict(backend="socket", hostmap=OFF_NODE, timeout=60)
    return dict(backend="process", timeout=60)


def _link(comm, peer):
    return comm._world._links[peer]


def _await_data_frame(sock):
    """Block until a whole ``DATA`` frame waits unread on ``sock``, peeking
    past the heartbeats ahead of it (consumes nothing)."""
    need = _HEADER.size
    while True:
        data = sock.recv(need, socket.MSG_PEEK | socket.MSG_WAITALL)
        pos = 0
        while True:
            need = pos + _HEADER.size
            if need > len(data):
                break
            ftype, length, _ = _HEADER.unpack_from(data, pos)
            need += length
            if need > len(data):
                break
            if ftype == _FRAME_DATA:
                return
            pos = need


class _ThreadCalls:
    """A socket stand-in logging ``(method, thread name)`` for the named
    methods; everything else falls through to ``_real``."""

    def __init__(self, real, log, *logged):
        self._real, self._log, self._logged = real, log, logged

    def __getattr__(self, name):
        attr = getattr(self._real, name)
        if name not in self._logged:
            return attr

        def logging_call(*args, **kwargs):
            self._log.append((name, threading.current_thread().name))
            return attr(*args, **kwargs)

        return logging_call


class TestFixedCostPerFrame:
    """What a message costs on either kind of link, as counts (no clock):
    the patches are made inside a forked rank and die with it."""

    def test_no_thread_reads_a_link_or_writes_an_idle_one(self, link_job):
        def prog(comm):
            comm.barrier()
            return sorted(t.name for t in threading.enumerate())

        for rank, names in enumerate(run_spmd(2, prog, **link_job)):
            helpers = [f"heartbeat-rank-{rank}"]
            if link_job["backend"] == "socket":
                helpers.append(f"tcp-heartbeat-rank-{rank}")
            assert names == sorted(["MainThread", *helpers])

    def test_receiving_an_arrived_frame_is_one_select_and_one_recv(self, link_job):
        def prog(comm):
            from repro.comm import proc_backend

            if comm.rank == 0:
                comm.send(np.ones(128), dest=1, tag=1)  # 1 KiB: rides its frame
                comm.barrier()
                return None
            link = _link(comm, 0)
            _await_data_frame(link._sock)
            counts = {}
            proc_backend.select = Counting(proc_backend.select, counts, "select")
            link._sock = Counting(link._sock, counts, "recv_into")
            got = comm.recv(source=0, tag=1)
            proc_backend.select = proc_backend.select._real
            link._sock = link._sock._real
            comm.barrier()
            return counts, bool((got == 1.0).all())

        _, (counts, ok) = run_spmd(2, prog, **link_job)
        assert ok and counts == {"select": 1, "recv_into": 1}

    def test_a_send_on_an_idle_link_is_one_sendmsg_on_the_calling_thread(self, link_job):
        def prog(comm):
            peer = 1 - comm.rank
            link = _link(comm, peer)
            calls = []
            link._sock = _ThreadCalls(link._sock, calls, "sendmsg", "send")
            comm.send(np.ones(128), peer, tag=1)  # 1 KiB
            queued = len(link._out)
            link._sock = link._sock._real
            got = comm.recv(peer, tag=1)
            heartbeats = f"tcp-heartbeat-rank-{comm.rank}"
            return [c for c in calls if c[1] != heartbeats], queued, bool((got == 1).all())

        for calls, queued, ok in run_spmd(2, prog, **link_job):
            assert calls == [("sendmsg", "MainThread")]
            assert queued == 0 and ok

    def test_two_ranks_each_send_16_mib_before_either_receives(self, link_job):
        """Neither kernel takes 16 MiB at once (inline: the arena is too
        small for it): the rest waits for the link's sender thread while
        the caller moves on to its receive."""
        words = (16 << 20) // 8

        def prog(comm):
            peer = 1 - comm.rank
            comm.send(np.arange(words, dtype=np.float64) * (comm.rank + 1), peer, tag=7)
            backlog = len(_link(comm, peer)._out)
            got = comm.recv(peer, tag=7)
            expect = np.arange(words, dtype=np.float64) * (peer + 1)
            return backlog, got.tobytes() == expect.tobytes()

        out = run_spmd(2, prog, **link_job)
        assert all(ok for _, ok in out)
        assert any(backlog for backlog, _ in out)

    def test_a_rank_that_returns_after_its_last_send_loses_nothing(self, link_job):
        """Rank 0 exits with 16 MiB (inline) still on their way; rank 1
        pauses before each receive.  Rank 0's backlog is on the link during
        the second pause, so a plain close — over TCP, where the next
        heartbeat would reset the frames still in its kernel away — could
        lose it.  It half-closes and drains to rank 1's EOF instead."""
        words = (8 << 20) // 8
        sent = np.arange(words, dtype=np.float64)

        def prog(comm):
            if comm.rank == 0:
                comm.send(sent, 1, tag=1)
                comm.send(sent, 1, tag=2)
                return None
            got = []
            for tag in (1, 2):
                time.sleep(0.3)
                got.append(comm.recv(0, tag=tag).tobytes() == sent.tobytes())
            return got

        out = run_spmd(2, prog, detect_interval=0.02, **link_job)
        assert out == [None, [True, True]]


# ---------------------------------------------------------------------------
# Resource hygiene
# ---------------------------------------------------------------------------


def _open_fds():
    fds = {}
    for name in os.listdir("/proc/self/fd"):
        try:
            fds[name] = os.readlink(f"/proc/self/fd/{name}")
        except OSError:
            continue
    return fds


def _new_sockets(before, after):
    """fd -> socket of every socket in ``after`` that ``before`` lacks."""
    return {
        n: t for n, t in after.items() if t.startswith("socket:") and before.get(n) != t
    }


#: One job per layout: all-socketpair, and socketpairs beside TCP links.
FD_JOBS = [
    pytest.param(dict(backend="process"), id="process"),
    pytest.param(dict(backend="socket", hostmap=HOSTMAP_2X2), id="socket"),
]


class TestNoLeaks:
    @pytest.mark.parametrize("job", FD_JOBS)
    def test_a_rank_holds_one_socket_per_link_and_no_other(self, job):
        """Right after the fork a rank closes every inherited link end that
        is not its own (and the listeners it will not accept on): its socket
        fds are its same-node peers' socketpair ends plus its TCP links.
        Sockets the launching process already held are inherited, not made
        by the job, and are left out."""
        inherited = _open_fds()

        def prog(comm):
            comm.barrier()
            links = comm._world._links
            mine = sorted(int(n) for n in _new_sockets(inherited, _open_fds()))
            return mine, sorted(link.fileno for link in links.values()), sorted(links)

        for rank, (mine, link_fds, peers) in enumerate(run_spmd(4, prog, timeout=60, **job)):
            assert mine == link_fds
            assert peers == [r for r in range(4) if r != rank]

    @pytest.mark.parametrize("job", FD_JOBS)
    def test_no_sockets_or_fds_leak_in_the_parent(self, job):
        def prog(comm):
            comm.allreduce(np.ones(8192))
            return comm.rank

        # Warm any lazily created module state first.
        run_spmd(4, prog, timeout=60, **job)
        gc.collect()
        before = _open_fds()
        for _ in range(3):
            run_spmd(4, prog, timeout=60, **job)
        gc.collect()
        after = _open_fds()
        leaked = _new_sockets(before, after)
        assert not leaked, f"leaked sockets: {leaked}"
        # The fd *count* is back where it was (result pipes, shm handles).
        assert len(after) == len(before)

    @pytest.mark.parametrize("backend", ["process", "socket"])
    def test_no_leak_after_an_aborted_job(self, backend):
        def prog(comm):
            comm.allreduce(np.ones(1024))
            return comm.rank

        run_spmd(2, prog, backend=backend, timeout=60)  # warm-up
        gc.collect()
        before = _open_fds()
        with pytest.raises(CommAborted):
            run_spmd(
                2, prog,
                backend=backend,
                faults="crash@rank1:point=send:after=0",
                detect_interval=0.1,
                timeout=30,
            )
        gc.collect()
        after = _open_fds()
        leaked = _new_sockets(before, after)
        assert not leaked, f"leaked sockets: {leaked}"
        assert len(after) == len(before)


# ---------------------------------------------------------------------------
# Contract plumbing
# ---------------------------------------------------------------------------


class TestContract:
    def test_backend_name_and_registration(self):
        from repro.comm import available_backends

        assert "socket" in available_backends()

        def prog(comm):
            return comm.backend

        assert run_spmd(2, prog, backend="socket", timeout=60) == [
            "socket", "socket",
        ]

    def test_tag_matching_across_the_wire(self):
        # Out-of-order tags on one (source, dest) pair must match by tag,
        # not arrival order — the same contract the thread mailbox has.
        def prog(comm):
            peer = 1 - comm.rank
            comm.send(np.array([1.0]), peer, tag=10)
            comm.send(np.array([2.0]), peer, tag=20)
            second = comm.recv(peer, tag=20)
            first = comm.recv(peer, tag=10)
            return float(first[0]), float(second[0])

        assert run_spmd(2, prog, backend="socket", timeout=60) == [
            (1.0, 2.0), (1.0, 2.0),
        ]

    def test_received_arrays_are_frozen(self):
        def prog(comm):
            peer = 1 - comm.rank
            comm.send(np.zeros(2048), peer)  # large enough for a DATA frame
            got = comm.recv(peer)
            return got.flags.writeable

        assert run_spmd(2, prog, backend="socket", timeout=60) == [False, False]
