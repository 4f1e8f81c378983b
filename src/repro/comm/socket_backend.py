"""The TCP wire under the forked-rank world's off-node rank pairs.

A one-node job is "MPI on one host": every byte moves through shared
memory.  Real deployments of the paper's fine-grained parallelism span
nodes, where the inter-node wire — not the NVLink domain — bottlenecks the
gradient allreduces (§VI-B1).  This module puts an actual network stack
under :class:`~repro.comm.proc_backend.ForkedWorld` while staying runnable
on one machine.  It hides the wire *format* and the links' lifecycle and
nothing else — routing, the mailbox, fault hooks and the launcher live in
:mod:`repro.comm.proc_backend`, which hands each rank with an off-node peer
one :class:`TcpMesh`:

* **Routing map** — ranks are grouped into *logical nodes* by a
  :class:`~repro.comm.hostmap.HostMap` (``run_spmd(..., hostmap=...)`` or
  ``REPRO_HOSTMAP``, e.g. ``"0,1:A 2,3:B"``).  Ranks on the same logical
  node exchange messages through the shared-memory arena and its lanes;
  ranks on *different* nodes talk over per-pair TCP connections on the
  loopback interface.  The ``"socket"`` backend's default map (no host map
  given) is one rank per node, so every byte crosses TCP.  The same map
  feeds :meth:`BaseWorld.node_of`, which drives the communicator's
  hierarchical collective selection — the transport and the cost model see
  one topology.
* **Wire protocol** — length-prefixed frames (``!BII`` header: type,
  payload length, CRC32 of the payload) over ``TCP_NODELAY`` sockets.
  ``DATA`` frames carry the message as
  :func:`~repro.comm.payload.encode_frame` lays it out — a pickled
  ``((source, tag), skeleton, descriptors)`` header, then every array's
  bytes raw, the layout the shared-memory lanes use; ``HEARTBEAT``
  frames keep liveness fresh; a ``BYE`` frame announces an orderly exit, so
  the subsequent EOF is not mistaken for a crash.  The receiver recomputes
  every payload's CRC32 before decoding: a mismatch — real link
  corruption, or an injected ``corrupt@…:point=wire`` fault — aborts the
  job with a :class:`CommIntegrityError` naming the sending rank and host,
  instead of feeding silently wrong bytes into the collectives (an
  elastic-restartable failure class: the data was bad, not the rank).
  Sends are *eager*: :meth:`TcpMesh.send` enqueues
  the frame on a per-peer outbound queue serviced by a sender thread and
  never blocks the caller, preserving the buffered-send contract all
  backends share.  Transport counters (``tcp_messages`` / ``tcp_bytes`` /
  ``tcp_payload_bytes``) are tallied synchronously at ``deliver`` time, so
  they are deterministic and — for the ndarray-payload counter — exactly
  comparable to the collective cost model's wire-byte predictions.
  Received frames are deposited into the rank's one mailbox from the
  reader thread, which wakes the owner's ``select`` through its wake pipe.
* **Failure detection across hosts** — each rank heartbeats its inter-node
  peers over the sockets (and its parent through the shared slot).  A peer
  that dies takes its connections with it: the reader thread sees EOF
  without a preceding ``BYE`` and aborts the job naming the lost rank and
  its host; a peer that is alive but silent past the staleness bound is
  logged as a straggler.  Survivors fail with :class:`CommAborted` naming
  the failed rank, exactly as over shared memory.
* **No leaks** — listening sockets are bound pre-fork (port 0, loopback;
  only when the routing map has two nodes or more)
  and closed by the parent right after the fork; each child closes every
  listener but its own, and closes its connections after a BYE + bounded
  outbound flush on exit.  A completed job leaves no sockets or fds behind
  in the parent (regression-tested by ``tests/test_socket_backend.py`` and
  the CI ``multi-host`` job, mirroring the ``/dev/shm`` leak check).
"""

from __future__ import annotations

import logging
import socket
import struct
import threading
import time
import zlib
from collections import deque
from time import monotonic
from typing import TYPE_CHECKING, Any, Callable

from repro.comm.backend import CommAborted
from repro.comm.payload import array_nbytes, decode_frame, encode_frame, join
from repro.obs import tracer

if TYPE_CHECKING:
    from repro.comm.proc_backend import ForkedWorld

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


def bind_listeners(nranks: int) -> list[socket.socket]:
    """One loopback listener per rank, bound in the parent before the fork
    so every child knows every port without a rendezvous service.  A bind
    failure closes the listeners already bound before re-raising."""
    listeners: list[socket.socket] = []
    try:
        for _ in range(nranks):
            s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listeners.append(s)
            s.bind(("127.0.0.1", 0))
            s.listen(nranks + 4)
    except OSError:
        for s in listeners:
            s.close()
        raise
    return listeners


class _Connection:
    """One TCP link to an inter-node peer: sender + reader threads.

    Sends are enqueued (never blocking the caller) and written by the
    sender thread; the reader deposits into the rank's mailbox and doubles as the
    cross-host failure detector — EOF without a preceding BYE means the
    peer died, and aborts the job naming it.
    """

    def __init__(
        self,
        world: "ForkedWorld",
        peer: int,
        sock: socket.socket,
        deposit: Callable[[int, Any, Any], None],
    ) -> None:
        self._world = world
        self._deposit = deposit
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
        """Queue one frame.  ``crc`` defaults to the blob's CRC32; `TcpMesh.send`
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
                # instead of decoding garbage into the collectives.
                host = world.hostmap.host_of(self.peer)
                world.record_failure("integrity", self.peer, host)
                world.abort(
                    f"frame from world rank {self.peer} (host {host}) "
                    f"failed its CRC32 integrity check at world rank "
                    f"{world.rank} (payload corrupted on the wire)"
                )
                return
            if ftype == _FRAME_DATA:
                (source, tag), skeleton, arrays, _ = decode_frame(blob)
                self._deposit(source, tag, join(skeleton, arrays))
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


class TcpMesh:
    """One rank's TCP links to its off-node peers: mesh setup, eager framed
    sends, peer heartbeats, and the BYE + bounded-flush shutdown.

    ``deposit(source, tag, payload)`` is called from the per-connection
    reader threads for every ``DATA`` frame that passed its CRC.
    """

    def __init__(
        self, world: "ForkedWorld", deposit: Callable[[int, Any, Any], None]
    ) -> None:
        self._world = world
        self._deposit = deposit
        self._conns: dict[int, _Connection] = {}
        self._conn_lock = threading.Lock()
        self._shutting_down = False

    def _connected(self, peer: int, sock: socket.socket) -> None:
        with self._conn_lock:
            self._conns[peer] = _Connection(self._world, peer, sock, self._deposit)

    def start(
        self, peers: list[int], listeners: list["socket.socket | None"], ports: list[int]
    ) -> None:
        """Connect to ``peers`` (rank ``a`` dials ``b`` iff ``a < b``);
        blocks until every expected connection is up."""
        world = self._world
        me = world.rank
        expect_accept = [q for q in peers if q < me]
        # Every child inherited every listener; keep only our own (and
        # only if someone will dial it).
        for q, s in enumerate(listeners):
            if s is not None and (q != me or not expect_accept):
                s.close()
                listeners[q] = None
        if expect_accept:
            threading.Thread(
                target=self._accept_loop,
                args=(listeners, len(expect_accept)),
                name=f"tcp-accept-rank-{me}",
                daemon=True,
            ).start()
        for q in peers:
            if q > me:
                sock = socket.create_connection(
                    ("127.0.0.1", ports[q]), timeout=_CONNECT_TIMEOUT
                )
                sock.sendall(_HELLO.pack(me))
                self._connected(q, sock)
        deadline = monotonic() + min(world.timeout, _CONNECT_TIMEOUT)
        while True:
            with self._conn_lock:
                missing = [q for q in peers if q not in self._conns]
            if not missing:
                break
            if world.aborted:
                raise CommAborted(
                    f"world rank {me}: connection setup interrupted: world "
                    f"aborted{world.abort_suffix()}"
                )
            if monotonic() > deadline:
                reason = (
                    f"world rank {me} could not reach world rank(s) "
                    f"{missing} within {_CONNECT_TIMEOUT:.0f}s of startup"
                )
                world.abort(reason)
                raise CommAborted(reason)
            time.sleep(0.005)
        threading.Thread(
            target=self._peer_monitor_loop,
            name=f"tcp-heartbeat-rank-{me}",
            daemon=True,
        ).start()

    def _accept_loop(self, listeners: list, expected: int) -> None:
        listener = listeners[self._world.rank]
        try:
            for _ in range(expected):
                sock, _addr = listener.accept()
                hello = sock.recv(_HELLO.size, socket.MSG_WAITALL)
                if len(hello) != _HELLO.size:
                    sock.close()
                    continue
                self._connected(_HELLO.unpack(hello)[0], sock)
        except OSError:  # pragma: no cover - listener closed mid-accept
            pass
        finally:
            listener.close()
            listeners[self._world.rank] = None

    def _peer_monitor_loop(self) -> None:
        """Heartbeat inter-node peers and flag the silent ones."""
        world = self._world
        detect = max(0.02, world.config.detect_interval)
        stale_after = max(10 * detect, 5.0)
        flagged: set[int] = set()
        while not world.aborted and not self._shutting_down:
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
                        world.rank, conn.peer,
                        world.hostmap.host_of(conn.peer), silent,
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

    def send(self, source: int, dest: int, tag: Any, payload: Any) -> None:
        """Queue one ``DATA`` frame on the link to ``dest`` (never blocks)."""
        world = self._world
        blob = encode_frame((source, tag), payload)
        # The frame's CRC32 is stamped *before* the wire fault point, so an
        # injected on-the-wire corruption reaches the receiver with a stale
        # checksum and trips its integrity check — modeling a link that
        # flips bits after the sender computed the frame's checksum.
        crc = zlib.crc32(blob) & 0xFFFFFFFF
        if source == world.rank:
            _, blob = world._fault("wire", dest, tag, blob)
        # Tallied here, not in the sender thread, so the counters are
        # deterministic; the payload-bytes one is model-comparable.
        world.transport["tcp_messages"] += 1
        world.transport["tcp_bytes"] += len(blob)
        world.transport["tcp_payload_bytes"] += array_nbytes(payload)
        conn = self._conns.get(dest)
        if conn is None:  # pragma: no cover - defensive
            raise CommAborted(
                f"world rank {world.rank} has no connection to world rank "
                f"{dest} (host {world.hostmap.host_of(dest)})"
            )
        with tracer.span("xport:tcp", cat="transport", dest=dest, bytes=len(blob)):
            conn.send_frame(_FRAME_DATA, blob, crc=crc)
