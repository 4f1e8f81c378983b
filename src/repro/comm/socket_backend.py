"""Socket/TCP SPMD backend with host-map routing.

The process backend is "MPI on one host": every byte moves through shared
memory.  Real deployments of the paper's fine-grained parallelism span
nodes, where the inter-node wire — not the NVLink domain — bottlenecks the
gradient allreduces (§VI-B1).  This backend puts an actual network stack
under the engine while staying runnable on one machine:

* **Host map** — ranks are grouped into *logical nodes* by a
  :class:`~repro.comm.hostmap.HostMap` (``run_spmd(..., hostmap=...)`` or
  ``REPRO_HOSTMAP``, e.g. ``"0,1:A 2,3:B"``).  Ranks on the same logical
  node exchange messages exactly as the process backend does (queue +
  shared-memory arena); ranks on *different* nodes talk over per-pair TCP
  connections on the loopback interface.  The default map (no host map
  given) is one rank per node, so every byte crosses TCP.  The same map
  feeds :meth:`BaseWorld.node_of`, which drives the communicator's
  hierarchical collective selection — the transport and the cost model see
  one topology.
* **Wire protocol** — length-prefixed frames (``!BII`` header: type,
  payload length, CRC32 of the payload) over ``TCP_NODELAY`` sockets.
  ``DATA`` frames carry a pickled ``(source, tag, payload)``; ``HEARTBEAT``
  frames keep liveness fresh; a ``BYE`` frame announces an orderly exit, so
  the subsequent EOF is not mistaken for a crash.  The receiver recomputes
  every payload's CRC32 before unpickling: a mismatch — real link
  corruption, or an injected ``corrupt@…:point=wire`` fault — aborts the
  job with a :class:`CommIntegrityError` naming the sending rank and host,
  instead of feeding silently wrong bytes into the collectives (an
  elastic-restartable failure class: the data was bad, not the rank).
  Sends are *eager*: ``deliver`` enqueues
  the frame on a per-peer outbound queue serviced by a sender thread and
  never blocks the caller, preserving the buffered-send contract all
  backends share.  Transport counters (``tcp_messages`` / ``tcp_bytes`` /
  ``tcp_payload_bytes``) are tallied synchronously at ``deliver`` time, so
  they are deterministic and — for the ndarray-payload counter — exactly
  comparable to the collective cost model's wire-byte predictions.
* **Failure detection across hosts** — each rank heartbeats its inter-node
  peers over the sockets (and its parent through the shared slot).  A peer
  that dies takes its connections with it: the reader thread sees EOF
  without a preceding ``BYE`` and aborts the job naming the lost rank and
  its host; a peer that is alive but silent past the staleness bound is
  logged as a straggler.  Survivors fail with :class:`CommAborted` naming
  the failed rank, exactly as on the other backends.
* **No leaks** — listening sockets are bound pre-fork (port 0, loopback)
  and closed by the parent right after the fork; each child closes every
  listener but its own, and closes its connections after a BYE + bounded
  outbound flush on exit.  A completed job leaves no sockets or fds behind
  in the parent (regression-tested by ``tests/test_socket_backend.py`` and
  the CI ``multi-host`` job, mirroring the ``/dev/shm`` leak check).

Fault injection, result plumbing, and the parent's failure detector are
shared with the process backend (`_launch_forked`, `_pack`/`_unpack`):
this module only swaps the transport underneath the same
:class:`~repro.comm.backend.BaseWorld` contract — collectives live above
it, in the communicator — so every collective stays bitwise identical
across backends.
"""

from __future__ import annotations

import logging
import pickle
import socket
import struct
import threading
import time
import zlib
from collections import deque
from time import monotonic
from typing import Any, Callable

import numpy as np

from repro.comm.backend import (
    CommAborted,
    CommIntegrityError,
    _format_pending,
    _retry_note,
    register_backend,
)
from repro.comm.faults import JobConfig
from repro.comm.hostmap import HostMap
from repro.obs import tracer
from repro.comm.proc_backend import (
    ProcessWorld,
    _child_main,
    _Inbox,
    _launch_forked,
    _SharedJobState,
    _unpack,
)

logger = logging.getLogger(__name__)

#: Frame types of the wire protocol (header ``!BII``: type, payload
#: length, CRC32 of the payload).
_FRAME_DATA = 0
_FRAME_HEARTBEAT = 1
_FRAME_BYE = 2

_HEADER = struct.Struct("!BII")
_HELLO = struct.Struct("!I")

#: How long an exiting rank waits for its outbound frames to drain before
#: closing a connection (per connection; an orderly peer drains in
#: microseconds — this bound only matters when the peer is wedged).
_FLUSH_TIMEOUT = 10.0

#: Bound on establishing the full inter-node mesh at startup.
_CONNECT_TIMEOUT = 60.0


def _array_nbytes(payload: Any) -> int:
    """Total ndarray bytes in ``payload`` (recursively; object dtype excluded).

    The model-comparable part of a message: collective schedules ship bare
    array segments, so for them this equals the wire bytes the cost model
    prices — pickle framing and container skeletons are excluded, keeping
    the modeled == measured comparison exact.
    """
    if isinstance(payload, np.ndarray):
        return 0 if payload.dtype == object else payload.nbytes
    if isinstance(payload, (tuple, list)):
        return sum(_array_nbytes(p) for p in payload)
    if isinstance(payload, dict):
        return sum(_array_nbytes(v) for v in payload.values())
    return 0


class _SocketShared(_SharedJobState):
    """Process-backend shared state plus pre-fork-bound listeners + host map."""

    def __init__(self, ctx, nranks: int, config: JobConfig) -> None:
        super().__init__(ctx, nranks, config)
        #: Effective node layout: the job's host map, or one-rank-per-node
        #: (all traffic over TCP) when none was given.
        self.hostmap: HostMap = config.hostmap or HostMap.one_per_rank(nranks)
        # One loopback listener per rank, bound pre-fork so every child
        # knows every port without any rendezvous service.
        self.listeners: list[socket.socket | None] = []
        self.ports: list[int] = []
        try:
            for _ in range(nranks):
                s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                s.bind(("127.0.0.1", 0))
                s.listen(nranks + 4)
                self.listeners.append(s)
                self.ports.append(s.getsockname()[1])
        except OSError:
            self.post_fork_parent()
            super().teardown()
            raise

    def post_fork_parent(self) -> None:
        """Close the parent's copies of the listeners and fast-lane pipes
        (the children own theirs from fork on)."""
        super().post_fork_parent()
        for i, s in enumerate(self.listeners):
            if s is not None:
                try:
                    s.close()
                except OSError:  # pragma: no cover - depends on host
                    pass
                self.listeners[i] = None

    def teardown(self) -> None:
        self.post_fork_parent()
        super().teardown()


class _SocketInbox(_Inbox):
    """(source, tag)-matched mailbox fed by TCP readers and the lane feeder.

    Unlike the process backend's single-consumer `_Inbox`, messages arrive
    from multiple threads (one reader per TCP connection plus the
    shared-memory lane feeder), so the buffer is guarded by a condition
    variable; the owning rank's ``get`` blocks on it, waking immediately
    on TCP arrivals and — via the feeder's ``select`` over the descriptor
    pipes and the queue fd — promptly for intra-node arrivals.  The
    drain/reorder machinery (descriptor-pipe fast lane, cross-lane
    sequence numbers) is inherited; only admission (``_deposit``) is
    rerouted through the condition variable.
    """

    def __init__(self, world: "SocketWorld") -> None:
        super().__init__(world)
        self._cv = threading.Condition()
        threading.Thread(
            target=self._feeder_loop,
            name=f"shm-feeder-rank-{world.rank}",
            daemon=True,
        ).start()

    # -- producers (reader threads, feeder thread, self-delivery) ----------
    def put(self, source: int, tag: Any, payload: Any) -> None:
        with self._cv:
            self._buffered.setdefault((source, tag), deque()).append(payload)
            self._cv.notify_all()

    def _deposit(self, source: int, tag: Any, payload: Any) -> None:
        # Intra-node (arena/pipe/queue) admission from the feeder thread.
        self.put(source, tag, payload)

    def _feeder_loop(self) -> None:
        """Drain this rank's intra-node lanes into the buffer."""
        while True:
            try:
                self._drain_blocking(0.25)
            except (OSError, ValueError):  # queue closed: rank is exiting
                return

    # -- consumer (the rank's own threads) ---------------------------------
    def get(
        self, source: int, tag: Any, timeout: float, describe: Any
    ) -> Any:
        # ``describe`` may be a zero-arg callable, formatted only on the
        # abort/timeout slow paths (see ``_Inbox.get``).
        world = self._world
        retries = world.config.retries
        attempt = 0
        deadline = monotonic() + timeout
        poll = min(0.25, max(0.01, world.config.detect_interval))
        key = (source, tag)
        with self._cv:
            while True:
                q = self._buffered.get(key)
                if q:
                    return self._pop(key, q)
                if world.aborted:
                    raise world.abort_error(
                        f"{describe() if callable(describe) else describe} "
                        f"interrupted: world aborted{world.abort_suffix()}"
                    )
                remaining = deadline - monotonic()
                if remaining <= 0:
                    if attempt < retries:
                        attempt += 1
                        logger.warning(
                            "%s still waiting after %.1fs; retry %d/%d "
                            "(pending inbox: %s)",
                            describe() if callable(describe) else describe,
                            timeout, attempt, retries,
                            self.pending_keys(),
                        )
                        deadline = monotonic() + timeout
                        continue
                    reason = (
                        f"{describe() if callable(describe) else describe} "
                        f"timed out after {timeout:.1f}s"
                        f"{_retry_note(attempt)}; "
                        f"pending inbox: {self.pending_keys()}"
                    )
                    world.abort(reason)
                    raise CommAborted(reason, kind="timeout")
                self._cv.wait(min(remaining, poll))

    def try_get(self, source: int, tag: Any) -> tuple[bool, Any]:
        with self._cv:
            q = self._buffered.get((source, tag))
            if q:
                return True, self._pop((source, tag), q)
        if self._world.aborted:
            raise self._world.abort_error(
                f"irecv(source={source}, tag={tag}) interrupted: "
                f"world aborted{self._world.abort_suffix()}"
            )
        return False, None

    def pending_keys(self, limit: int = 8) -> str:
        with self._cv:
            keys = [k for k, q in self._buffered.items() if q]
        return _format_pending(keys, limit)


class _Connection:
    """One TCP link to an inter-node peer: sender + reader threads.

    Sends are enqueued (never blocking the caller) and written by the
    sender thread; the reader feeds the world's inbox and doubles as the
    cross-host failure detector — EOF without a preceding BYE means the
    peer died, and aborts the job naming it.
    """

    def __init__(self, world: "SocketWorld", peer: int, sock: socket.socket) -> None:
        self._world = world
        self.peer = peer
        self._sock = sock
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(None)
        self._out: deque[bytes] = deque()
        self._cv = threading.Condition()
        self._sending = False
        self._closed = False
        #: Peer announced an orderly exit (BYE received).
        self.peer_done = False
        #: monotonic() stamp of the last frame read from this peer.
        self.last_heard = monotonic()
        name = f"rank-{world.rank}-peer-{peer}"
        threading.Thread(
            target=self._sender_loop, name=f"tcp-send-{name}", daemon=True
        ).start()
        threading.Thread(
            target=self._reader_loop, name=f"tcp-recv-{name}", daemon=True
        ).start()

    # -- sending -----------------------------------------------------------
    def send_frame(self, ftype: int, blob: bytes = b"", crc: int | None = None) -> None:
        """Queue one frame.  ``crc`` defaults to the blob's CRC32; `deliver`
        passes the checksum of the *pre-wire-fault* payload so injected
        on-the-wire corruption is detectable at the receiver, exactly like
        a frame corrupted by the link after the NIC computed its checksum."""
        if crc is None:
            crc = zlib.crc32(blob) & 0xFFFFFFFF
        frame = _HEADER.pack(ftype, len(blob), crc) + blob
        with self._cv:
            if self._closed:
                return
            self._out.append(frame)
            self._cv.notify_all()

    def _sender_loop(self) -> None:
        while True:
            with self._cv:
                while not self._out and not self._closed:
                    self._cv.wait(0.25)
                if not self._out:
                    return  # closed and drained
                frame = self._out.popleft()
                self._sending = True
            try:
                self._sock.sendall(frame)
            except OSError as exc:
                world = self._world
                with self._cv:
                    self._out.clear()
                    self._sending = False
                    self._cv.notify_all()
                if self.peer_done or world.aborted or self._closed:
                    # The peer exited cleanly (or the job is already dying):
                    # frames to a finished rank are fire-and-forget leftovers.
                    return
                world.record_failure(
                    "peer-death", self.peer, world.hostmap.host_of(self.peer)
                )
                world.abort(
                    f"world rank {self.peer} "
                    f"(host {world.hostmap.host_of(self.peer)}) unreachable "
                    f"from world rank {world.rank}: send failed "
                    f"({type(exc).__name__}: {exc})"
                )
                return
            with self._cv:
                self._sending = False
                if not self._out:
                    self._cv.notify_all()

    # -- receiving ---------------------------------------------------------
    def _recv_exact(self, n: int) -> bytes | None:
        buf = bytearray()
        while len(buf) < n:
            try:
                chunk = self._sock.recv(n - len(buf))
            except OSError:
                return None
            if not chunk:
                return None
            buf += chunk
        return bytes(buf)

    def _reader_loop(self) -> None:
        world = self._world
        while True:
            header = self._recv_exact(_HEADER.size)
            if header is None:
                break
            ftype, length, crc = _HEADER.unpack(header)
            blob = self._recv_exact(length) if length else b""
            if blob is None:
                break
            self.last_heard = monotonic()
            if (zlib.crc32(blob) & 0xFFFFFFFF) != crc:
                # Corrupted on the wire: abort with an integrity failure
                # instead of unpickling garbage into the collectives.
                host = world.hostmap.host_of(self.peer)
                world.record_failure("integrity", self.peer, host)
                world.abort(
                    f"frame from world rank {self.peer} (host {host}) "
                    f"failed its CRC32 integrity check at world rank "
                    f"{world.rank} (payload corrupted on the wire)"
                )
                return
            if ftype == _FRAME_DATA:
                source, tag, payload = pickle.loads(blob)
                # Freeze received arrays, mirroring every other transport:
                # received data is immutable by contract.
                world._inbox.put(source, tag, _unpack(payload, []))
            elif ftype == _FRAME_BYE:
                self.peer_done = True
            # heartbeats only refresh last_heard
        if self.peer_done or self._closed or world.aborted:
            return  # orderly EOF
        world.record_failure(
            "peer-death", self.peer, world.hostmap.host_of(self.peer)
        )
        world.abort(
            f"world rank {self.peer} "
            f"(host {world.hostmap.host_of(self.peer)}) lost: connection "
            f"closed unexpectedly (crash or network failure), detected by "
            f"world rank {world.rank}"
        )

    # -- teardown ----------------------------------------------------------
    def close(self, flush_timeout: float = _FLUSH_TIMEOUT) -> None:
        """Drain outbound frames (bounded), then close the socket."""
        deadline = monotonic() + flush_timeout
        with self._cv:
            while self._out or self._sending:
                remaining = deadline - monotonic()
                if remaining <= 0:
                    logger.warning(
                        "world rank %d: dropping %d unflushed frames to "
                        "world rank %d on close",
                        self._world.rank, len(self._out), self.peer,
                    )
                    break
                self._cv.wait(min(0.05, remaining))
            self._closed = True
            self._cv.notify_all()
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - depends on host
            pass


class SocketWorld(ProcessWorld):
    """One rank's view of a socket-backend SPMD job.

    Subclasses :class:`ProcessWorld`: fault injection, abort
    plumbing, and the intra-node shared-memory path are inherited; only
    message *routing* (queue/arena within a logical node, TCP frames
    across nodes) and connection lifecycle differ.
    """

    backend_name = "socket"

    def __init__(self, shared: _SocketShared, rank: int) -> None:
        super().__init__(shared, rank)
        self._hostmap: HostMap = shared.hostmap
        self._node = tuple(self._hostmap.node_of(r) for r in range(self.size))
        self._inbox = _SocketInbox(self)
        self._conns: dict[int, _Connection] = {}
        self._conn_lock = threading.Lock()
        self._shutting_down = False
        #: Structured cause of a wire-level failure this rank observed
        #: (kind, peer rank, peer host), recorded just before the abort so
        #: survivor exceptions can carry it (first observation wins).
        self._failure: tuple[str, int, str] | None = None
        self.transport.update(
            tcp_messages=0,
            tcp_bytes=0,          # full frame payloads (pickle included)
            tcp_payload_bytes=0,  # ndarray bytes only (model-comparable)
        )

    # -- failure attribution -------------------------------------------------
    def record_failure(self, kind: str, peer: int, host: str) -> None:
        """Remember the structured cause behind an imminent abort."""
        if self._failure is None:
            self._failure = (kind, peer, host)

    def abort_error(self, message: str) -> CommAborted:
        """Build the survivor-side exception for an aborted world, carrying
        the recorded wire-level cause; integrity failures get the dedicated
        :class:`CommIntegrityError` type."""
        if self._failure is not None:
            kind, peer, host = self._failure
            cls = CommIntegrityError if kind == "integrity" else CommAborted
            return cls(message, failed_rank=peer, host=host, kind=kind)
        return CommAborted(message)

    # -- topology ----------------------------------------------------------
    @property
    def hostmap(self) -> HostMap:
        """The *effective* host map (defaulted, unlike ``config.hostmap``)."""
        return self._hostmap

    def node_of(self, world_rank: int) -> int:
        return self._node[world_rank]

    def _inter_peers(self) -> list[int]:
        my = self._node[self.rank]
        return [q for q in range(self.size) if self._node[q] != my]

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        """Establish the inter-node TCP mesh (rank ``a`` dials ``b`` iff
        ``a < b``); blocks until every expected connection is up."""
        shared: _SocketShared = self._shared  # type: ignore[assignment]
        me = self.rank
        inter = self._inter_peers()
        expect_accept = [q for q in inter if q < me]
        to_dial = [q for q in inter if q > me]
        # Every child inherited every listener; keep only our own (and
        # only if someone will dial it).
        for q, s in enumerate(shared.listeners):
            if s is not None and (q != me or not expect_accept):
                try:
                    s.close()
                except OSError:  # pragma: no cover - depends on host
                    pass
                shared.listeners[q] = None
        if expect_accept:
            threading.Thread(
                target=self._accept_loop,
                args=(shared.listeners[me], len(expect_accept)),
                name=f"tcp-accept-rank-{me}",
                daemon=True,
            ).start()
        for q in to_dial:
            sock = socket.create_connection(
                ("127.0.0.1", shared.ports[q]), timeout=_CONNECT_TIMEOUT
            )
            sock.sendall(_HELLO.pack(me))
            with self._conn_lock:
                self._conns[q] = _Connection(self, q, sock)
        deadline = monotonic() + min(self.timeout, _CONNECT_TIMEOUT)
        while True:
            with self._conn_lock:
                missing = [q for q in inter if q not in self._conns]
            if not missing:
                break
            if self.aborted:
                raise CommAborted(
                    f"world rank {me}: connection setup interrupted: world "
                    f"aborted{self.abort_suffix()}"
                )
            if monotonic() > deadline:
                reason = (
                    f"world rank {me} could not reach world rank(s) "
                    f"{missing} within {_CONNECT_TIMEOUT:.0f}s of startup"
                )
                self.abort(reason)
                raise CommAborted(reason)
            time.sleep(0.005)
        if inter:
            threading.Thread(
                target=self._peer_monitor_loop,
                name=f"tcp-heartbeat-rank-{me}",
                daemon=True,
            ).start()

    def _accept_loop(self, listener: socket.socket, expected: int) -> None:
        try:
            for _ in range(expected):
                sock, _addr = listener.accept()
                hello = sock.recv(_HELLO.size, socket.MSG_WAITALL)
                if len(hello) != _HELLO.size:
                    sock.close()
                    continue
                (peer,) = _HELLO.unpack(hello)
                with self._conn_lock:
                    self._conns[peer] = _Connection(self, peer, sock)
        except OSError:  # pragma: no cover - listener closed mid-accept
            pass
        finally:
            try:
                listener.close()
            except OSError:  # pragma: no cover - depends on host
                pass
            self._shared.listeners[self.rank] = None

    def _peer_monitor_loop(self) -> None:
        """Heartbeat inter-node peers and flag the silent ones."""
        detect = max(0.02, self.config.detect_interval)
        stale_after = max(10 * detect, 5.0)
        flagged: set[int] = set()
        while not self.aborted and not self._shutting_down:
            now = monotonic()
            with self._conn_lock:
                conns = list(self._conns.values())
            for conn in conns:
                if conn.peer_done:
                    continue
                conn.send_frame(_FRAME_HEARTBEAT)
                silent = now - conn.last_heard
                if silent > stale_after and conn.peer not in flagged:
                    flagged.add(conn.peer)
                    logger.warning(
                        "world rank %d: no frames from world rank %d "
                        "(host %s) for %.1fs (straggler or wedged rank)",
                        self.rank, conn.peer,
                        self._hostmap.host_of(conn.peer), silent,
                    )
            time.sleep(max(0.02, detect / 2.0))

    def shutdown(self, ok: bool) -> None:
        """Announce an orderly exit and flush + close every connection."""
        self._shutting_down = True
        with self._conn_lock:
            conns = list(self._conns.values())
        for conn in conns:
            conn.send_frame(_FRAME_BYE)
        for conn in conns:
            conn.close(flush_timeout=_FLUSH_TIMEOUT if ok else 1.0)

    # -- transport ----------------------------------------------------------
    def deliver(self, source: int, dest: int, tag: Any, payload: Any) -> None:
        self._check_rank(dest, "dest")
        if source == self.rank:
            action, payload = self._fault("send", dest, tag, payload)
            if action == "drop":
                return
        if dest == self.rank:
            self._inbox.put(source, tag, payload)
            return
        if self._node[dest] == self._node[self.rank]:
            # Intra-node: the process backend's arena + fast-lane path.
            self._send_local(source, dest, tag, payload)
            return
        # Inter-node: one DATA frame on the pair's TCP connection.
        blob = pickle.dumps(
            (source, tag, payload), protocol=pickle.HIGHEST_PROTOCOL
        )
        # The frame's CRC32 is stamped *before* the wire fault point, so an
        # injected on-the-wire corruption reaches the receiver with a stale
        # checksum and trips its integrity check — modeling a link that
        # flips bits after the sender computed the frame's checksum.
        crc = zlib.crc32(blob) & 0xFFFFFFFF
        if source == self.rank:
            _, blob = self._fault("wire", dest, tag, blob)
        self.transport["tcp_messages"] += 1
        self.transport["tcp_bytes"] += len(blob)
        self.transport["tcp_payload_bytes"] += _array_nbytes(payload)
        conn = self._conns.get(dest)
        if conn is None:  # pragma: no cover - defensive
            raise CommAborted(
                f"world rank {self.rank} has no connection to world rank "
                f"{dest} (host {self._hostmap.host_of(dest)})"
            )
        with tracer.span("xport:tcp", cat="transport", dest=dest, bytes=len(blob)):
            conn.send_frame(_FRAME_DATA, blob, crc=crc)


def _socket_child_main(
    shared: _SocketShared,
    rank: int,
    fn: Callable[..., Any],
    args: tuple,
    kwargs: dict,
) -> None:
    _child_main(shared, rank, fn, args, kwargs, world_cls=SocketWorld)


def _run_spmd_sockets(
    nranks: int,
    fn: Callable[..., Any],
    args: tuple,
    kwargs: dict,
    config: JobConfig,
) -> list[Any]:
    """Socket-backend launcher: the forked parent loop over TCP children."""
    return _launch_forked(
        nranks, fn, args, kwargs, config,
        shared_factory=_SocketShared, child_main=_socket_child_main,
    )


register_backend("socket", _run_spmd_sockets)
