"""The link: one framed stream socket per cross-process rank pair.

Every two ranks of a :class:`~repro.comm.proc_backend.ForkedWorld` that
live in different processes talk over one :class:`Link`.  Whether the pair
shares memory decides only the socket's kind and what its frames carry: a
*same-node* pair gets an ``AF_UNIX`` ``socketpair`` made before the fork,
whose frames mostly carry descriptors into the shared-memory arena; an
*off-node* pair gets a loopback TCP connection, whose frames carry every
byte.  TCP is one kind of link: this module also sets the TCP links up
(:class:`TcpMesh`).  Routing, the mailbox, fault hooks and the launcher
live in :mod:`repro.comm.proc_backend`.

A one-node job is "MPI on one host".  Real deployments of the paper's
fine-grained parallelism span nodes, where the inter-node wire — not the
NVLink domain — bottlenecks the gradient allreduces (§VI-B1); the TCP
links put an actual network stack under the forked world while staying
runnable on one machine.

* **Routing map** — ranks are grouped into *logical nodes* by a
  :class:`~repro.comm.hostmap.HostMap` (``run_spmd(..., hostmap=...)`` or
  ``REPRO_HOSTMAP``, e.g. ``"0,1:A 2,3:B"``).  Ranks on the same logical
  node share the arena and a socketpair; ranks on *different* nodes talk
  over per-pair TCP connections on the loopback interface.  The
  ``"socket"`` backend's default map (no host map given) is one rank per
  node, so every byte crosses TCP.  The same map feeds
  :meth:`BaseWorld.node_of`, which drives the communicator's hierarchical
  collective selection — the transport and the cost model see one topology.
* **Wire protocol** — length-prefixed frames (``!BII`` header: type,
  payload length, CRC32 of the payload), the same on both kinds of link
  (TCP ones with ``TCP_NODELAY``).  ``DATA`` frames carry the message as
  :func:`~repro.comm.payload.encode_frame` lays it out — a pickled
  ``((source, tag), skeleton, descriptors)`` header, then the bytes of
  every array not placed in the arena, raw; ``HEARTBEAT`` frames keep an
  off-node peer's liveness fresh; a ``BYE`` frame announces an orderly
  exit, so the subsequent EOF is not mistaken for a crash.  The receiver
  recomputes every payload's CRC32 before decoding: a mismatch — real link
  corruption, or an injected ``corrupt@…:point=wire`` fault — aborts the
  job with a :class:`CommIntegrityError` naming the sending rank and host,
  instead of feeding silently wrong bytes into the collectives (an
  elastic-restartable failure class: the data was bad, not the rank).
  Sends are *eager*: :meth:`Link.send_frame` writes the frame on the
  calling thread, header and payload in one nonblocking ``sendmsg``; what
  the kernel will not take waits for the link's sender thread, so a send
  never blocks the caller, preserving the buffered-send contract all
  backends share.  TCP transport counters (``tcp_messages`` / ``tcp_bytes``
  / ``tcp_payload_bytes``) are tallied synchronously at ``deliver`` time,
  so they are deterministic and — for the ndarray-payload counter — exactly
  comparable to the collective cost model's wire-byte predictions.  Frames
  are received by the waiting thread's drain: every link's socket is one
  lane of the owner's ``select``
  (:class:`~repro.comm.proc_backend._Inbox`), read, checked and handed to
  the inbox's one store on the receiving thread.
* **Failure detection** — each rank heartbeats its off-node peers over TCP
  (and its parent through the shared slot).  A peer that dies takes its
  links with it.  An off-node peer's EOF without a preceding ``BYE`` makes
  the waiting thread's drain abort the job naming the lost rank and its
  host; a same-node peer's only stops the drain watching it — the parent,
  which alone sees the exit code, names that rank.  An off-node peer that
  is alive but silent past the staleness bound — nothing drained from it,
  and nothing unread on its link — is logged as a straggler.  Survivors
  fail with :class:`CommAborted` naming the failed rank either way.
* **No leaks** — listening sockets are bound pre-fork (port 0, loopback;
  only when the routing map has two nodes or more) and closed by the parent
  right after the fork; each child closes every listener but its own, and
  on exit every link, of either kind, half-closes (BYE, bounded outbound
  flush, ``SHUT_WR``) before it is drained to the peer's EOF and closed
  (:func:`close_links`).  A completed job leaves no sockets or fds behind
  in the parent (regression-tested by ``tests/test_socket_backend.py`` and
  the CI ``multi-host`` job, mirroring the ``/dev/shm`` leak check).
"""

from __future__ import annotations

import logging
import select
import socket
import struct
import threading
import time
import zlib
from collections import deque
from time import monotonic
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.comm.backend import AbortCause
from repro.comm.payload import array_nbytes, encode_frame
from repro.obs import tracer

if TYPE_CHECKING:
    from repro.comm.proc_backend import ForkedWorld, _Inbox

logger = logging.getLogger(__name__)

#: Frame types of the wire protocol (header ``!BII``: type, payload
#: length, CRC32 of the payload).
_FRAME_DATA = 0
_FRAME_HEARTBEAT = 1
_FRAME_BYE = 2

_HEADER = struct.Struct("!BII")
_HELLO = struct.Struct("!I")

#: Size of a link's staging buffer: what one drain ``recv_into`` asks for.
#: A frame that fits is read whole with the frames around it (one syscall
#: for a small message); a larger one's body is read straight into a
#: buffer of its own size.
_STAGE_BYTES = 1 << 16

#: How long an exiting rank waits for its links to close: outbound frames
#: flushed, then each peer's EOF (an orderly peer takes microseconds — this
#: bound only matters when the peer is wedged or still computing).
_FLUSH_TIMEOUT = 10.0

#: Bound on establishing the full inter-node mesh at startup.
_CONNECT_TIMEOUT = 60.0

#: A peer is logged as a straggler after this long without a frame (or
#: ``10 * detect_interval``, if longer).
_STALE_AFTER = 5.0


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


class Link:
    """One rank's end of the stream socket to one peer process: an
    ``AF_UNIX`` socketpair end for a same-node peer, a TCP connection for
    an off-node one.  Frames, locking and the close are the same for both.

    **Sending** happens on the calling thread: one nonblocking ``sendmsg``
    of header and payload.  Whatever the kernel will not take waits in
    ``_out`` for the link's sender thread (started the first time there is
    such a tail), and every later frame queues behind it, so frames never
    interleave and a send never blocks.

    **Receiving** is the waiting thread's drain: the socket is a lane of the
    owner's ``select``, and :meth:`drain` reads what the link holds, checks
    each frame's CRC32 and hands the ``DATA`` frames to the inbox's store.
    EOF without a preceding BYE means the peer died: a TCP link's drain
    aborts the job naming it; a same-node link's leaves the verdict to the
    parent, which alone sees the exit code.
    """

    def __init__(
        self, world: "ForkedWorld", peer: int, sock: socket.socket, inbox: "_Inbox"
    ) -> None:
        self._world = world
        self._deposit = inbox.store
        self.peer = peer
        self._sock = sock
        #: The peer is on another node: its death is this rank's to report.
        self.remote = sock.family != socket.AF_UNIX
        # Blocking, for the sender thread; the calling thread and the drain
        # pass MSG_DONTWAIT.
        sock.settimeout(None)
        self.fileno = sock.fileno()
        #: The unsent tails of frames, oldest first.
        self._out: deque[memoryview] = deque()
        self._cv = threading.Condition()
        self._sender: threading.Thread | None = None
        #: No frame may be queued or written any more (half-closed, failed).
        self._closed = False
        # Inbound: bytes staged from offset 0, and the body of a frame too
        # large to stage while it is being read (with its type and CRC).
        self._stage = bytearray(_STAGE_BYTES)
        self._staged = memoryview(self._stage)
        self._have = 0
        self._body: memoryview | None = None
        self._got = 0
        self._body_head = (0, 0)
        #: Peer announced an orderly exit (BYE received).
        self.peer_done = False
        #: monotonic() stamp of the last drain that read from this peer.
        self.last_heard = monotonic()

    # -- sending -----------------------------------------------------------
    def send_frame(self, ftype: int, blob: bytes = b"", crc: int | None = None) -> None:
        """Write one frame, or queue what the kernel would not take.  ``crc``
        defaults to the blob's CRC32; `TcpMesh.send` passes the checksum of
        the *pre-wire-fault* payload so injected on-the-wire corruption is
        detectable at the receiver, exactly like a frame corrupted by the
        link after the NIC computed its checksum."""
        if crc is None:
            crc = zlib.crc32(blob) & 0xFFFFFFFF
        header = _HEADER.pack(ftype, len(blob), crc)
        with self._cv:
            if self._closed:
                return
            sent = 0
            if not self._out:  # nothing queued ahead of this frame
                try:
                    sent = self._sock.sendmsg((header, blob), (), socket.MSG_DONTWAIT)
                except BlockingIOError:
                    pass
                except OSError:
                    self._write_failed()
                    return
            for buf in (header, blob):
                if sent < len(buf):
                    self._out.append(memoryview(buf)[sent:])
                    sent = 0
                else:
                    sent -= len(buf)
            if self._out:
                if self._sender is None:
                    self._sender = threading.Thread(
                        target=self._sender_loop,
                        name=f"link-send-rank-{self._world.rank}-peer-{self.peer}",
                        daemon=True,
                    )
                    self._sender.start()
                self._cv.notify_all()

    def _sender_loop(self) -> None:
        """Write the backlog, blocking as long as the peer does not read."""
        while True:
            with self._cv:
                while not self._out and not self._closed:
                    self._cv.wait()
                if not self._out:
                    return  # closed and flushed
                buf = self._out[0]
            try:
                n = self._sock.send(buf)
            except OSError:
                with self._cv:
                    self._write_failed()
                return
            with self._cv:
                if not self._out or self._out[0] is not buf:
                    continue  # ``close`` dropped the backlog meanwhile
                if n < len(buf):
                    self._out[0] = buf[n:]
                else:
                    self._out.popleft()

    def _write_failed(self) -> None:
        """The peer's end is gone (lock held): stop writing.  Whether it
        exited or died is the drain's call — BYE then EOF, or EOF alone —
        so a heartbeat that races a finished peer's close aborts nothing."""
        self._closed = True
        self._out.clear()
        self._cv.notify_all()

    # -- receiving ---------------------------------------------------------
    def drain(self) -> bool:
        """Read what the link holds and store every complete ``DATA``
        frame; ``False`` once the link is finished (EOF, or a frame failed
        its CRC and aborted the job).

        ``select`` reported the socket readable, so the first read returns
        data; a read shorter than asked for emptied the socket, so the
        common one-message drain is one ``recv_into``.
        """
        while True:
            body = self._body
            view = self._staged[self._have :] if body is None else body[self._got :]
            try:
                n = self._sock.recv_into(view, 0, socket.MSG_DONTWAIT)
            except BlockingIOError:
                return True  # the previous, full read had emptied the socket
            except OSError:
                n = 0  # reset by the peer: an EOF
            if not n:
                return self._eof()
            self.last_heard = monotonic()
            if body is None:
                self._have += n
                if not self._unstage():
                    return False
            else:
                self._got += n
                if self._got == len(body):
                    self._body = None
                    if not self._frame(*self._body_head, body.toreadonly()):
                        return False
            if n < len(view):
                return True

    def _unstage(self) -> bool:
        """Take every complete frame out of the staging buffer; start the
        body of one too large for it; keep the head of the next."""
        staged, pos, end = self._staged, 0, self._have
        while end - pos >= _HEADER.size:
            ftype, length, crc = _HEADER.unpack_from(staged, pos)
            start = pos + _HEADER.size
            if start + length <= end:
                pos = start + length
                if not self._frame(ftype, crc, staged[start:pos].tobytes()):
                    return False
            elif _HEADER.size + length > _STAGE_BYTES:
                body = memoryview(np.empty(length, np.uint8))
                body[: end - start] = staged[start:end]
                self._body, self._got, self._body_head = body, end - start, (ftype, crc)
                pos = end
            else:
                break
        self._have = end - pos
        if pos and self._have:
            self._stage[: self._have] = self._stage[pos:end]
        return True

    def _frame(self, ftype: int, crc: int, blob) -> bool:
        """Check one frame's CRC32 and act on it; ``False`` if it failed."""
        if (zlib.crc32(blob) & 0xFFFFFFFF) != crc:
            # Corrupted on the wire: abort with an integrity failure
            # instead of decoding garbage into the collectives.
            world = self._world
            world.abort(AbortCause(
                "integrity", self.peer,
                f"frame from world rank {self.peer} "
                f"(host {world.hostmap.host_of(self.peer)}) failed its CRC32 "
                f"integrity check at world rank {world.rank} (payload "
                f"corrupted on the wire)",
            ))
            return False
        if ftype == _FRAME_DATA:
            self._deposit(blob)
        elif ftype == _FRAME_BYE:
            self.peer_done = True
        # heartbeats only refresh last_heard
        return True

    def _eof(self) -> bool:
        world = self._world
        if self.remote and not (self.peer_done or world.aborted):
            world.abort(AbortCause(
                "peer-death", self.peer,
                f"world rank {self.peer} (host {world.hostmap.host_of(self.peer)}) "
                f"lost: connection closed unexpectedly (crash or network "
                f"failure), detected by world rank {world.rank}",
            ))
        return False

    def unread(self) -> bool:
        """Whether bytes from the peer wait on the link (a zero-timeout
        probe, safe from any thread)."""
        try:
            return bool(select.select([self.fileno], [], [], 0)[0])
        except (OSError, ValueError):  # closed under the probe
            return False

    # -- teardown ----------------------------------------------------------
    def flushed(self) -> bool:
        return not self._out

    def half_close(self) -> None:
        """No more frames: send the FIN after what is already written."""
        with self._cv:
            self._closed = True
            self._cv.notify_all()
        try:
            self._sock.shutdown(socket.SHUT_WR)
        except OSError:  # the peer is already gone
            pass

    def close(self) -> None:
        with self._cv:
            self._closed = True
            self._out.clear()
            self._cv.notify_all()
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - depends on host
            pass


def close_links(world: "ForkedWorld", links: list[Link], ok: bool) -> None:
    """Announce an orderly exit and close every link, in two passes.

    First every link is half-closed: BYE, outbound backlog flushed,
    ``SHUT_WR``.  Only then is each drained to the peer's EOF before it is
    closed — a TCP socket closed with unread bytes resets, and a reset can
    take frames the slower peer has not read yet with it.  Closing the links
    one at a time instead would make ranks wait on each other pair by pair.
    Inbound frames are drained all along, so two ranks flushing to each
    other cannot stall.  A failed rank, or one in an aborted job, only
    flushes, within 1 s.
    """
    for link in links:
        link.send_frame(_FRAME_BYE)
    linger = ok and not world.aborted
    deadline = monotonic() + (_FLUSH_TIMEOUT if linger else 1.0)
    unflushed = list(links)
    reading = {link.fileno: link for link in links}
    while True:
        for link in [link for link in unflushed if link.flushed()]:
            link.half_close()
            unflushed.remove(link)
        linger = linger and not world.aborted
        if not unflushed and not (linger and reading):
            break
        remaining = deadline - monotonic()
        if remaining <= 0:
            for link in unflushed:
                logger.warning(
                    "world rank %d: dropping unflushed frames to world "
                    "rank %d on close", world.rank, link.peer,
                )
            break
        ready = select.select(list(reading), [], [], min(0.05, remaining))[0]
        for fd in ready:
            if not reading[fd].drain():
                del reading[fd]
    for link in links:
        link.close()


class TcpMesh:
    """One rank's TCP links to its off-node peers: mesh setup, framed
    ``DATA`` sends with their wire counters, and peer heartbeats.

    The links are made into ``links`` — the world's one table of links, a
    same-node peer's socketpair end beside them — and closed with the rest
    by :func:`close_links`.
    """

    def __init__(
        self, world: "ForkedWorld", inbox: "_Inbox", links: dict[int, Link]
    ) -> None:
        self._world = world
        self._inbox = inbox
        self._links = links
        self._links_lock = threading.Lock()
        #: No more heartbeats or straggler warnings: the rank is closing.
        self.stopped = False

    def _connected(self, peer: int, sock: socket.socket) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with self._links_lock:
            self._links[peer] = Link(self._world, peer, sock, self._inbox)

    def start(
        self, peers: list[int], listeners: list["socket.socket | None"], ports: list[int]
    ) -> None:
        """Connect to ``peers`` (rank ``a`` dials ``b`` iff ``a < b``);
        blocks until every expected connection is up and this rank holds no
        listener any more."""
        world = self._world
        me = world.rank
        expect_accept = [q for q in peers if q < me]
        # Every child inherited every listener; keep only our own (and
        # only if someone will dial it).
        for q, s in enumerate(listeners):
            if s is not None and (q != me or not expect_accept):
                s.close()
                listeners[q] = None
        accepter = None
        if expect_accept:
            accepter = threading.Thread(
                target=self._accept_loop,
                args=(listeners, len(expect_accept)),
                name=f"tcp-accept-rank-{me}",
                daemon=True,
            )
            accepter.start()
        for q in peers:
            if q > me:
                sock = socket.create_connection(
                    ("127.0.0.1", ports[q]), timeout=_CONNECT_TIMEOUT
                )
                sock.sendall(_HELLO.pack(me))
                self._connected(q, sock)
        deadline = monotonic() + min(world.timeout, _CONNECT_TIMEOUT)
        setup = f"world rank {me}: connection setup"
        while True:
            with self._links_lock:
                missing = [q for q in peers if q not in self._links]
            if not missing:
                break
            if world.aborted:
                raise world.abort_error(setup)
            if monotonic() > deadline:
                # A timeout: blamed on the rank that waited, like any other.
                reason = (
                    f"world rank {me} could not reach world rank(s) "
                    f"{missing} within {_CONNECT_TIMEOUT:.0f}s of startup"
                )
                first = world.abort(AbortCause("timeout", me, reason))
                raise world.abort_error(None if first else setup)
            time.sleep(0.005)
        if accepter is not None:
            accepter.join()  # closes the listener on its way out
        threading.Thread(
            target=self._peer_monitor_loop,
            args=([self._links[q] for q in peers],),
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

    def _peer_monitor_loop(self, links: list[Link]) -> None:
        """Heartbeat off-node peers and flag the silent ones."""
        world = self._world
        detect = max(0.02, world.config.detect_interval)
        stale_after = max(10 * detect, _STALE_AFTER)
        flagged: set[int] = set()
        while not world.aborted and not self.stopped:
            now = monotonic()
            for link in links:
                if link.peer_done:
                    continue
                link.send_frame(_FRAME_HEARTBEAT)
                silent = now - link.last_heard
                # ``last_heard`` only moves when this rank drains: frames
                # waiting unread mean the peer is alive and this rank busy.
                if silent > stale_after and link.peer not in flagged and not link.unread():
                    flagged.add(link.peer)
                    logger.warning(
                        "world rank %d: no frames from world rank %d "
                        "(host %s) for %.1fs (straggler or wedged rank)",
                        world.rank, link.peer,
                        world.hostmap.host_of(link.peer), silent,
                    )
            time.sleep(max(0.02, detect / 2.0))

    def send(self, source: int, dest: int, tag: Any, payload: Any) -> None:
        """Write one ``DATA`` frame on the link to ``dest`` (never blocks)."""
        world = self._world
        blob = encode_frame((source, tag), payload)
        # The frame's CRC32 is stamped *before* the wire fault point, so an
        # injected on-the-wire corruption reaches the receiver with a stale
        # checksum and trips its integrity check — modeling a link that
        # flips bits after the sender computed the frame's checksum.
        crc = zlib.crc32(blob) & 0xFFFFFFFF
        if source == world.rank:
            _, blob = world._fault("wire", dest, tag, blob)
        # Tallied here, not by whichever thread writes the bytes, so the
        # counters are deterministic; the payload-bytes one is
        # model-comparable.
        world.transport["tcp_messages"] += 1
        world.transport["tcp_bytes"] += len(blob)
        world.transport["tcp_payload_bytes"] += array_nbytes(payload)
        with tracer.span("xport:tcp", cat="transport", dest=dest, bytes=len(blob)):
            self._links[dest].send_frame(_FRAME_DATA, blob, crc=crc)
