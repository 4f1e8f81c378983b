"""The forked-rank world: one OS process per rank, two routing layouts.

The paper's measurements assume one MPI process per accelerator; the thread
backend time-shares one interpreter, so its overlap wins are
synchronization-bound.  Here every rank is **one forked OS process**
(``run_spmd``'s closures and captured arrays are inherited without
pickling) behind the same :class:`~repro.comm.backend.BaseWorld` contract.
Whether a message is "intra" or "inter" is a property of the rank pair, not
of the job (paper §II-B), so there is one world, :class:`ForkedWorld`, and a
*routing map* (a :class:`~repro.comm.hostmap.HostMap`) that says which
pairs share memory.  The two registered backend names differ in nothing
else:

* ``"process"`` — the one-node map: every byte moves through shared
  memory and socketpairs, no TCP socket is ever constructed.
* ``"socket"`` — the job's host map, or one node per rank without one:
  same-node pairs as above, off-node pairs over TCP.  A ``socket`` job
  whose map puts all its ranks on one node *is* a ``process`` job.

Either way every cross-process rank pair has exactly one
:class:`~repro.comm.socket_backend.Link` — an ``AF_UNIX`` socketpair for a
same-node pair, a TCP connection for an off-node one — and a message is one
framed write on it.  What the world is made of:

* **Same-node transport** — every same-node rank pair shares one
  ``socket.socketpair()``, made by the parent before the fork, and a message
  crosses it as one **frame** (:func:`repro.comm.payload.encode_frame`) in
  the link's framing, exactly like a TCP one: a small pickled header — the
  message's ``(source, tag)``, the payload's *skeleton* (its containers,
  scalars and object-dtype arrays, every other array lifted out by the one
  payload walk and replaced by an :class:`~repro.comm.payload.ArrayRef`)
  and one ``(offset, nbytes, shape, dtype)`` descriptor per lifted array —
  followed by raw array bytes.  No array is pickled; a descriptor places
  its array one of two ways.
  *Arena* (``offset`` an integer, arrays of :data:`SHM_MIN_BYTES` and up):
  the sender copied the array into a run of blocks of a fixed
  ``multiprocessing.shared_memory.SharedMemory`` **arena** created by the
  parent before the fork, and the frame carries the descriptor alone; the
  receiver, once a receive *matches* the message, either hands its
  consumer a read-only view of the blocks (a ``sink``: a schedule step
  reducing straight out of the arena) or copies the array out, and frees
  the blocks (see :class:`_Inbox`).  *Inline* (``offset`` ``None``: small
  arrays, and any array when the arena is momentarily full — the send path
  never blocks, preserving the eager buffered-send contract): the array's
  C-order bytes ride the frame after the header, each array starting on a
  16-byte boundary of the frame, and the receiver builds the array over
  the frame's immutable bytes — born read-only and aligned, never copied.
  The sending thread writes the frame with one nonblocking ``sendmsg``,
  whatever its size; the link's sender thread only writes a tail the
  kernel would not take.
* **Receiving** — :class:`_Inbox` is the package's one
  :class:`~repro.comm.backend.Mailbox` with a ``select`` for a wait: its
  lanes are the rank's links, one per peer, and every message is taken in
  by the waiting thread's drain and admitted through the inbox's one
  store, whichever kind of link it came over.
* **Collectives** — none here: the communicator builds every collective
  on ``deliver``/``collect``/``try_collect`` alone, with the same
  arithmetic in the same comm-rank order as on the thread backend, so
  results are bitwise identical across backends.
* **Failure handling** — a shared abort flag plus one result pipe per
  rank (written once, at exit), with the job's
  :class:`~repro.comm.backend.AbortCause` (first failure wins) in shared
  memory beside the flag — its kind and failed rank in two lock-free
  ``RawValue`` slots, its message in a buffer — so every survivor's
  ``CommAborted`` carries the failed rank and the kind of failure.  A rank
  that raises aborts the job; the parent re-raises the first real error
  by rank (``CommAborted`` from surviving ranks is secondary, as in the
  thread backend).  A **child-exit watcher** in the parent (paced by
  ``JobConfig.detect_interval``) spots a rank that died without reporting
  — segfault, OOM kill, or an injected ``os._exit`` crash — and aborts
  the job naming that rank within about one interval, so survivors fail
  fast instead of waiting out their per-op timeouts (a same-node peer's
  EOF leaves that verdict to it).  Each child also stamps a shared
  **heartbeat** slot from a daemon thread, which the parent uses to flag
  stragglers.  Hangs fail with a diagnostic naming the waiting world
  rank, operation, sequence number, and the pending inbox; a rank the
  parent must ``terminate()`` dumps every thread's stack to stderr first.
  Each process keeps only its own ends of the links and result pipes
  (:meth:`_SharedJobState.keep_own`, :meth:`~_SharedJobState.release_parent_fds`),
  so a rank's exit is an EOF to its peers and its parent.  On teardown
  the parent closes and **unlinks** every shared-memory segment and
  closes every result pipe and listener — with failures logged as
  warnings, never swallowed — so a completed *or aborted* job leaves
  nothing in ``/dev/shm`` and no fd behind (regression-tested by
  ``tests/test_proc_backend.py`` and ``tests/test_socket_backend.py``).

**The locking rule.**  No non-main thread of a forked rank acquires a
process-shared lock on the healthy path.  Such a thread drops the GIL while
it holds (or waits for) the lock, and a main thread calling ``os._exit``
meanwhile — an injected crash — leaves it held forever, wedging the parent
and every survivor.  So the heartbeat thread only stores a stamp, the abort
flag is a lock-free ``RawValue`` (``abort_lock`` is taken to *raise* it: the
failure path), and the arena lock is only ever taken by a rank's main
thread — as is every deposit, since all links are read by the waiting
thread's drain.  A link's sender thread and the TCP heartbeat thread take
only their link's thread lock.

What this world does *not* model: NUMA/core pinning, a real NIC, or network
topology — it is "MPI on one host" with an optional loopback wire, giving
the engine genuinely parallel rank execution (subject to available cores).
"""

from __future__ import annotations

import faulthandler
import logging
import os
import pickle
import secrets
import select
import signal
import socket
import sys
import threading
import time
import traceback
from functools import partial
from multiprocessing import shared_memory
from multiprocessing.connection import wait
from time import monotonic
from typing import Any, Callable

import numpy as np

from repro.comm.backend import (
    FAILURE_KINDS,
    AbortCause,
    BaseWorld,
    CommAborted,
    Mailbox,
    _job_outcome,
    register_backend,
)
from repro.comm.faults import INJECTED_CRASH_EXIT, FaultInjector, JobConfig
from repro.comm.hostmap import HostMap
from repro.comm.payload import decode_frame, encode_frame, join
from repro.comm.socket_backend import (
    _FRAME_DATA,
    Link,
    TcpMesh,
    bind_listeners,
    close_links,
)
from repro.obs import tracer

logger = logging.getLogger(__name__)

#: Arrays at or above this many bytes are shipped through the shared-memory
#: arena; smaller ones ride their frame inline (latency-bound anyway).
SHM_MIN_BYTES = 2048

#: Total arena capacity per SPMD job.  Env override: ``REPRO_SHM_BYTES``.
DEFAULT_ARENA_BYTES = 64 << 20

#: Arena allocation granularity.
ARENA_BLOCK = 32 << 10

#: Name prefix of the job arenas (leak checks scan /dev/shm for this).
SHM_PREFIX = "repro-arena-"

#: How long the parent keeps draining results after the job starts dying
#: (abort flag up, a child crashed, or all children exited) before
#: declaring unreported ranks hung and tearing everything down.  While the
#: children are alive and healthy the parent waits indefinitely, exactly
#: like the thread backend's joins — per-operation timeouts are enforced
#: *inside* the ranks.
_PARENT_GRACE = 30.0


class _ArenaMessage:
    """A buffered message some of whose arrays still sit in the sender's
    arena blocks: the decoded frame's skeleton and array list, in which an
    arena-placed array is still its ``(offset, nbytes, shape, dtype)``
    descriptor (see :func:`~repro.comm.payload.decode_frame`)."""

    __slots__ = ("skeleton", "arrays")

    def __init__(self, skeleton: Any, arrays: list) -> None:
        self.skeleton = skeleton
        self.arrays = arrays

    def open(self, arena: "_Arena", copy: bool) -> Any:
        """The payload, its arrays read-only: the arena's as private copies
        (``copy``) or as views of the blocks, valid until :meth:`release`."""
        arrays = []
        for arr in self.arrays:
            if type(arr) is tuple:
                offset, nbytes, shape, dtype = arr
                arr = arena.flat()[offset : offset + nbytes].view(dtype).reshape(shape)
                if copy:
                    arr = arr.copy()
                arr.flags.writeable = False
            arrays.append(arr)
        return join(self.skeleton, arrays)

    def release(self, arena: "_Arena") -> None:
        for arr in self.arrays:
            if type(arr) is tuple:
                arena.free(arr[0], arr[1])

    def take(self, arena: "_Arena") -> Any:
        """Copy the payload out of the arena and free its blocks."""
        payload = self.open(arena, copy=True)
        self.release(arena)
        return payload


class _Arena:
    """Fixed shared-memory segment with a block-bitmap first-fit allocator.

    Created by the parent before the fork, so every rank inherits the same
    mapping (no per-message attach) and the parent alone owns the unlink.
    Allocation is guarded by one cross-process lock; ``alloc`` returns
    ``None`` when no contiguous run is free — callers must fall back to
    shipping the array inline rather than block, keeping sends eager.
    """

    def __init__(self, ctx, nbytes: int, block: int) -> None:
        self.block = int(block)
        self.nblocks = max(1, int(nbytes) // self.block)
        self.shm = shared_memory.SharedMemory(
            create=True,
            size=self.nblocks * self.block,
            name=f"{SHM_PREFIX}{os.getpid()}-{secrets.token_hex(4)}",
        )
        self.name = self.shm.name
        self._lock = ctx.Lock()
        # 0 = free, 1 = used; shared (inherited) and lock-protected.
        self._bitmap = ctx.RawArray("b", self.nblocks)
        # Lazy per-process flat view of the segment (see ``flat``).
        self._flat: np.ndarray | None = None

    def flat(self) -> np.ndarray:
        """Flat ``uint8`` view of the whole segment, cached per process.

        Constructing ``np.ndarray(..., buffer=self.shm.buf, offset=...)``
        per message re-exports and validates the buffer every time (~10us);
        slicing one cached view is ~1us, and the send/receive paths do it
        for every arena transfer.  Created lazily so the parent (which
        never moves payloads) holds no export that would block ``destroy``.
        """
        view = self._flat
        if view is None:
            view = self._flat = np.frombuffer(self.shm.buf, dtype=np.uint8)
        return view

    def alloc(self, nbytes: int) -> int | None:
        """Byte offset of a free run covering ``nbytes``, or ``None``.

        The first-fit search runs at C speed: the bitmap is a ctypes
        buffer, so a run of free blocks is a ``bytes.find`` for a run of
        zero bytes — the time under the shared lock is one O(nblocks)
        memchr-style scan plus marking ``need`` blocks, not a Python loop
        over every block.
        """
        need = max(1, -(-int(nbytes) // self.block))
        if need > self.nblocks:
            return None
        bm = self._bitmap
        zeros = b"\x00" * need
        with self._lock:
            start = bytes(bm).find(zeros)
            if start < 0:
                return None
            bm[start : start + need] = b"\x01" * need
            return start * self.block

    def free(self, offset: int, nbytes: int) -> None:
        start = int(offset) // self.block
        count = max(1, -(-int(nbytes) // self.block))
        with self._lock:
            self._bitmap[start : start + count] = b"\x00" * count

    def used_blocks(self) -> int:
        with self._lock:
            return bytes(self._bitmap).count(1)

    def destroy(self) -> None:
        """Parent-side teardown: unmap and unlink the segment."""
        self._flat = None  # release the buffer export before close()
        try:
            self.shm.close()
        finally:
            self.shm.unlink()


#: Capacity of the shared abort-cause message buffer (UTF-8 bytes,
#: NUL-padded).
_MESSAGE_BYTES = 1024


def _close(ends: list, what: str, keep: int | None = None) -> None:
    """Close every end in ``ends`` but the one at index ``keep``, and mark
    it closed (``None``); a failure is logged as a warning, never
    swallowed — a leaked fd is what an operator needs to see."""
    for i, end in enumerate(ends):
        if end is not None and i != keep:
            try:
                end.close()
            except Exception as exc:
                logger.warning(
                    "proc backend: failed to close %s %d: %s: %s",
                    what, i, type(exc).__name__, exc,
                )
            ends[i] = None


class _SharedJobState:
    """Everything the forked ranks share, created pre-fork by the parent."""

    # ``teardown`` also runs on a state whose construction stopped early.
    links: Any = ()
    readers: Any = ()
    writers: Any = ()
    listeners: Any = ()

    def __init__(self, ctx, nranks: int, config: JobConfig, routing: HostMap) -> None:
        self.nranks = nranks
        self.config = config
        self.timeout = config.timeout
        #: Which rank pairs share memory and which cross TCP — the one
        #: thing the registered backends differ in.
        self.routing = routing
        # First failure wins: the cause is written exactly once, under
        # abort_lock, before the flag is raised, so any rank that sees the
        # flag also sees the cause.  The flag is a lock-free ``RawValue``:
        # it is read on every miss of the receive loop and by every
        # transport thread, and none of those may touch a shared lock.
        self.abort_lock = ctx.Lock()
        self.abort_flag = ctx.RawValue("b", 0)
        #: The cause: its kind (index into FAILURE_KINDS), its failed rank
        #: (-1: none) and its message.
        self.abort_kind = ctx.RawValue("b", 0)
        self.abort_rank = ctx.RawValue("i", -1)
        self.abort_message = ctx.Array("c", _MESSAGE_BYTES, lock=False)
        #: monotonic() stamp per rank, refreshed by a daemon thread in each
        #: child; the parent flags ranks whose stamp goes stale.
        self.heartbeats = ctx.RawArray("d", nranks)
        self.arena = _Arena(
            ctx,
            int(os.environ.get("REPRO_SHM_BYTES", DEFAULT_ARENA_BYTES)),
            ARENA_BLOCK,
        )
        try:
            # One link per same-node rank pair, made pre-fork so both ends
            # are inherited: ``links[r][d]`` is rank r's end of the
            # socketpair it shares with d (``None`` on the diagonal and
            # for off-node pairs, which dial TCP).
            self.links = [[None] * nranks for _ in range(nranks)]
            node = routing.node_of
            for a in range(nranks):
                for b in range(a + 1, nranks):
                    if node(a) == node(b):
                        self.links[a][b], self.links[b][a] = socket.socketpair()
            # Each rank reports its outcome once, on a pipe of its own.
            self.readers, self.writers = (
                list(ends) for ends in zip(*(ctx.Pipe(duplex=False) for _ in range(nranks)))
            )
            # TCP listeners only where some pair is off-node: a one-node
            # job binds no port.
            if not routing.is_single_node(nranks):
                self.listeners = bind_listeners(nranks)
        except OSError:
            self.teardown()
            raise
        self.ports = [s.getsockname()[1] for s in self.listeners]

    def keep_own(self, rank: int) -> None:
        """Run in ``rank``'s child right after the fork: close every
        inherited link end and result pipe end that is not this rank's.
        A peer's exit only reaches its links as an EOF, and the parent
        only sees a dead rank's result pipe end, once no other process
        holds the ends."""
        for r, row in enumerate(self.links):
            if r != rank:
                _close(row, "link end")
        _close(self.readers, "result pipe")
        _close(self.writers, "result pipe", keep=rank)

    def release_parent_fds(self) -> None:
        """Close this process's copies of every link end, every result
        pipe's write end and the listeners (idempotent).

        Run by the *parent*, once every child is forked and again at
        teardown: the children inherited their own ends, and the parent
        holding one would keep the EOF a dead rank's peers wait for.
        """
        for row in self.links:
            _close(row, "link end")
        _close(self.writers, "result pipe")
        _close(self.listeners, "listener")

    @property
    def aborted(self) -> bool:
        return bool(self.abort_flag.value)

    def set_abort(self, cause: AbortCause) -> bool:
        """Abort the job; ``True`` when ``cause`` is the recorded one (the
        first caller's)."""
        with self.abort_lock:
            if self.abort_flag.value:
                return False
            self.abort_kind.value = FAILURE_KINDS.index(cause.kind)
            self.abort_rank.value = -1 if cause.failed_rank is None else cause.failed_rank
            data = cause.message.encode("utf-8", "replace")[: _MESSAGE_BYTES - 1]
            self.abort_message[: len(data)] = data
            self.abort_flag.value = 1
            return True

    @property
    def abort_cause(self) -> AbortCause | None:
        if not self.abort_flag.value:
            return None
        rank = self.abort_rank.value
        return AbortCause(
            FAILURE_KINDS[self.abort_kind.value],
            None if rank < 0 else rank,
            bytes(self.abort_message).split(b"\x00", 1)[0].decode("utf-8", "replace"),
        )

    def teardown(self) -> None:
        """Parent-side cleanup: close every fd the job made, unlink the
        arena.

        Failures are logged as warnings, never swallowed silently — a
        cleanup error here is exactly the kind of leak (an fd left open, an
        orphaned ``/dev/shm`` segment) an operator needs to see.
        """
        self.release_parent_fds()
        _close(self.readers, "result pipe")
        try:
            self.arena.destroy()
        except Exception as exc:  # pragma: no cover - depends on host
            logger.warning(
                "proc backend teardown: failed to unlink arena %s: %s: %s "
                "(a stale /dev/shm/%s segment may remain)",
                self.arena.name, type(exc).__name__, exc, self.arena.name,
            )


def _pack(head: tuple, payload: Any, arena: _Arena, counters: dict) -> bytes:
    """The :func:`~repro.comm.payload.encode_frame` of one same-node
    message, its arrays of :data:`SHM_MIN_BYTES` and up moved into the arena.

    An array the arena has no room for rides the frame inline like the small
    ones; either way the array's bytes are copied before this returns, so
    the sender may keep mutating it (``copies_on_send``).
    """

    def place(arr: np.ndarray) -> int | None:
        nbytes = arr.nbytes
        if nbytes >= SHM_MIN_BYTES:
            offset = arena.alloc(nbytes)
            if offset is not None:
                dst = arena.flat()[offset : offset + nbytes]
                np.copyto(dst.view(arr.dtype).reshape(arr.shape), arr)
                counters["shm_messages"] += 1
                counters["shm_bytes"] += nbytes
                return offset
            counters["arena_full_fallbacks"] += 1
        counters["inline_messages"] += 1
        return None

    return encode_frame(head, payload, place)


class _Inbox(Mailbox):
    """The :class:`~repro.comm.backend.Mailbox` of a forked rank: the store
    and wait loop are inherited, fed from this rank's lanes — its links,
    one per peer, a socketpair for a same-node one and TCP otherwise.

    **Wait.**  The owner blocks in its own ``select`` over every lane and
    drains whichever became readable on the receiving thread — the waiting
    thread's drain.  No other thread deposits, so there is nobody to wake
    and nothing to release the store's lock for.

    Each link is FIFO; messages that do not match the current receive are
    buffered, preserving per-(source, tag) FIFO order.  Every ``DATA``
    frame, of either kind of link, is admitted by :meth:`store`.

    **Admit at match.**  A drained message with arrays in the arena is
    buffered as an :class:`_ArenaMessage` — their descriptors only, the
    bytes stay where the sender put them — and ``get``/``try_get`` return that
    record; :meth:`ForkedWorld._consume` then either lends the matched
    receive's sink a view of the blocks or copies the arrays out, and
    frees the blocks.  So a message is copied at most once on this side,
    and only if its consumer wants a private array.

    **The half-full rule.**  A message matched late holds its blocks until
    then, and a sender that finds no free run falls back to shipping the
    array inline.  So when more than half the arena is in use at drain time
    the message is copied out and freed at once: a lazy receiver can cost
    a sender at most half the arena.
    """

    def __init__(self, world: BaseWorld, rank: int, arena: _Arena | None) -> None:
        super().__init__(world, rank)
        self._arena = arena
        #: Every lane ``select`` watches: fd -> its drain, which returns
        #: ``False`` once the lane is finished (EOF).
        self._lanes: dict[int, Callable[[], bool]] = {}
        self._fds: list[int] = []

    def watch(self, fd: int, drain: Callable[[], bool]) -> None:
        """Add a lane: ``drain()`` runs on the receiving thread whenever
        ``select`` finds ``fd`` readable (a link's)."""
        self._lanes[fd] = drain
        self._fds.append(fd)

    # -- what this transport supplies ------------------------------------------
    def _wake(self) -> None:
        pass  # every deposit is made by the owner thread itself

    def _wait(self, timeout: float) -> None:
        """One ``select`` — sleeping up to ``timeout``, or a zero-timeout
        probe for a nonblocking ``try_get`` (which replaces p-1 EAGAIN
        reads) — then drain exactly the lanes it reported."""
        for fd in select.select(self._fds, [], [], timeout)[0]:
            if not self._lanes[fd]():
                # A finished lane stays readable (EOF): stop watching it,
                # or it would spin the loop.
                del self._lanes[fd]
                self._fds.remove(fd)

    def store(self, frame) -> None:
        """Decode one ``DATA`` frame off a link and admit its message —
        as arena descriptors unless the half-full rule copies it out now."""
        (source, tag), skeleton, arrays, placed = decode_frame(frame)
        if not placed:
            entry = join(skeleton, arrays)
        else:
            entry = _ArenaMessage(skeleton, arrays)
            if 2 * self._arena.used_blocks() > self._arena.nblocks:
                entry = entry.take(self._arena)
        self.put(source, tag, entry)


class ForkedWorld(BaseWorld):
    """One rank's view of a process-per-rank SPMD job.

    The ``"process"`` and ``"socket"`` backends are this one world under two
    *routing maps* (``shared.routing``): ``deliver`` runs the sender's fault
    hook, keeps a self-send in-process, ships to a same-node peer through
    the arena and the pair's socketpair, and frames everything else onto
    the pair's TCP link.  ``"process"`` is the one-node map, so it never
    dials TCP; a rank with no off-node peer has no mesh and no heartbeat
    monitor.
    """

    #: ``deliver`` copies every cross-process payload out synchronously
    #: before returning (arena ``np.copyto``, or the ``tobytes`` of an
    #: inline array into its frame), so senders — in particular
    #: :class:`~repro.comm.algorithms.ScheduleRunner` — may pass live
    #: views of buffers they keep mutating, skipping the staging copy the
    #: thread backend's zero-copy transport requires.
    copies_on_send = True

    def __init__(self, shared: _SharedJobState, rank: int, backend_name: str) -> None:
        self.backend_name = backend_name
        self.size = shared.nranks
        self.timeout = shared.timeout
        self.config = shared.config
        self.rank = rank
        self._shared = shared
        #: The map ``hostmap``/``node_of`` answer from: the job's own, else
        #: the routing default — as the collective layer has always seen it.
        self._hostmap: HostMap = shared.config.hostmap or shared.routing
        node = shared.routing.node_of
        self._same_node = [node(r) == node(rank) for r in range(self.size)]
        self._inbox = _Inbox(self, rank, shared.arena)
        #: Peer -> this rank's link to it: a socketpair end per same-node
        #: peer from the start, a TCP connection per off-node one once
        #: ``start`` has made the mesh.
        self._links: dict[int, Link] = {
            d: Link(self, d, sock, self._inbox)
            for d, sock in enumerate(shared.links[rank])
            if sock is not None
        }
        self._mesh: TcpMesh | None = None
        self._stats: dict[int, Any] = {}
        faults = shared.config.faults
        self._injector: FaultInjector | None = (
            faults.injector(rank) if faults is not None else None
        )
        #: Per-process transport counters (this rank's sends only), tallied
        #: synchronously in ``deliver``.
        self.transport = {
            "shm_messages": 0,
            "shm_bytes": 0,
            "inline_messages": 0,
            "arena_full_fallbacks": 0,
            "local_frames": 0,
            "tcp_messages": 0,
            "tcp_bytes": 0,          # full frame payloads (header included)
            "tcp_payload_bytes": 0,  # ndarray bytes only (model-comparable)
        }

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        """Connect to the off-node peers, if the routing map has any, and
        make every link a lane of the inbox."""
        off_node = [r for r in range(self.size) if not self._same_node[r]]
        if off_node:
            self._mesh = TcpMesh(self, self._inbox, self._links)
            self._mesh.start(off_node, self._shared.listeners, self._shared.ports)
        for link in self._links.values():
            self._inbox.watch(link.fileno, link.drain)

    def shutdown(self, ok: bool) -> None:
        """Pre-exit teardown inside the child (``ok`` = rank succeeded):
        close every link, of either kind, in :func:`close_links`' two
        passes."""
        if self._mesh is not None:
            self._mesh.stopped = True
        close_links(self, list(self._links.values()), ok)

    @property
    def aborted(self) -> bool:
        return self._shared.aborted

    @property
    def abort_cause(self) -> AbortCause | None:
        return self._shared.abort_cause

    @property
    def hostmap(self) -> HostMap:
        return self._hostmap

    def node_of(self, world_rank: int) -> int:
        return self._hostmap.node_of(world_rank)

    def _fault(self, point: str, peer: int, tag: Any, payload: Any):
        """Run this rank's armed faults at a transport point.

        An injected crash hard-exits the child (``os._exit``) without
        reporting a result — exercising the parent's child-exit watcher
        exactly as a real segfault or OOM kill would.
        """
        inj = self._injector
        if inj is None:
            return "pass", payload
        return inj.on_transport(
            point, peer, tag, payload,
            lambda detail: os._exit(INJECTED_CRASH_EXIT),
        )

    # -- point-to-point ----------------------------------------------------
    def deliver(self, source: int, dest: int, tag: Any, payload: Any) -> None:
        self._check_rank(dest, "dest")
        if source == self.rank:
            action, payload = self._fault("send", dest, tag, payload)
            if action == "drop":
                return
        if dest == self.rank:
            # Self-delivery stays in-process (no copy), matching the thread
            # backend's zero-copy self-sends.
            self._inbox.put(source, tag, payload)
        elif self._same_node[dest]:
            self._send_local(source, dest, tag, payload)
        else:
            self._mesh.send(source, dest, tag, payload)

    def _send_local(self, source: int, dest: int, tag: Any, payload: Any) -> None:
        """Ship one message to a same-node peer: its large arrays into the
        arena, the frame down the pair's socketpair."""
        with tracer.span("xport:send", cat="transport", dest=dest) as sp:
            frame = _pack((source, tag), payload, self._shared.arena, self.transport)
            self.transport["local_frames"] += 1
            sp.set(bytes=len(frame))
            self._links[dest].send_frame(_FRAME_DATA, frame)

    def collect(
        self, dest: int, source: int, tag: Any, opname: str = "recv", sink=None
    ) -> Any:
        self._check_rank(source, "source")
        if dest != self.rank:
            raise ValueError(
                f"a forked rank can only collect for itself "
                f"({self.rank}), not {dest}"
            )
        entry = self._inbox.get(
            source,
            tag,
            self.timeout_for(opname),
            lambda: f"{opname}(world rank {dest} <- {source}, tag={tag!r})",
        )
        return self._consume(source, tag, entry, sink)

    def try_collect(
        self, dest: int, source: int, tag: Any, sink=None
    ) -> tuple[bool, Any]:
        self._check_rank(source, "source")
        ok, entry = self._inbox.try_get(source, tag)
        if ok:
            entry = self._consume(source, tag, entry, sink)
        return ok, entry

    def _consume(self, source: int, tag: Any, entry: Any, sink) -> Any:
        """Turn a matched inbox entry into what the receive returns.

        An :class:`_ArenaMessage` is lent to a ``sink`` as views of its
        arena blocks, or copied out when there is none; either way the
        blocks are free on return.  Anything else is already private.
        Recv-point faults run on the payload before the sink and count
        successful retrievals only, so ``after`` stays deterministic
        regardless of how often empty polls ran.
        """
        arena = self._shared.arena
        message = entry if type(entry) is _ArenaMessage else None
        lend = message is not None and sink is not None
        if message is not None:
            entry = message.open(arena, copy=False) if lend else message.take(arena)
        try:
            _, payload = self._fault("recv", source, tag, entry)
            return payload if sink is None else sink(payload)
        finally:
            if lend:
                message.release(arena)

    def rank_stats(self, world_rank: int):
        from repro.comm.stats import CommStats

        stats = self._stats.get(world_rank)
        if stats is None:
            stats = self._stats[world_rank] = CommStats()
        return stats

    # -- failure handling ---------------------------------------------------
    def abort(self, cause: AbortCause) -> bool:
        return self._shared.set_abort(cause)


def _heartbeat_loop(shared: _SharedJobState, rank: int) -> None:
    """Daemon thread in each child: stamp this rank's liveness slot.

    Lock-free on purpose, and for the life of the process (the parent
    ignores stamps once the job aborts): a contended acquire of a shared
    lock drops the GIL, and a main thread calling ``os._exit`` meanwhile
    (an injected crash) leaves that lock held forever, wedging the parent
    and every survivor.
    """
    interval = max(0.02, shared.config.detect_interval / 2.0)
    while True:
        shared.heartbeats[rank] = monotonic()
        time.sleep(interval)


def _child_main(
    shared: _SharedJobState,
    rank: int,
    fn: Callable[..., Any],
    args: tuple,
    kwargs: dict,
    backend_name: str,
) -> None:
    """Rank entry point in the forked child."""
    from repro.comm.communicator import Communicator

    shared.keep_own(rank)
    # A rank the parent has to ``terminate()`` after ``_PARENT_GRACE`` dumps
    # every thread's stack first: a hang is a failure with tracebacks.
    if sys.__stderr__ is not None:
        faulthandler.register(
            signal.SIGTERM, file=sys.__stderr__, all_threads=True, chain=True
        )
    world = ForkedWorld(shared, rank, backend_name)
    # Rank identity (and tracing, when enabled) for every thread of this
    # child — heartbeat and transport helpers attribute to the rank too.
    tracer.enter_rank(rank, world.hostmap.host_of(rank), trace=shared.config.trace)
    threading.Thread(
        target=_heartbeat_loop,
        args=(shared, rank),
        name=f"heartbeat-rank-{rank}",
        daemon=True,
    ).start()
    status = "ok"
    try:
        world.start()
        comm = Communicator._world_comm(world, rank)
        result = fn(comm, *args, **kwargs)
        try:
            blob = pickle.dumps(result)
        except Exception as exc:
            # The job is failing: abort it so peers blocked on anything
            # this rank still owed them fail promptly with CommAborted
            # instead of timing out (the error teardown below drops
            # undelivered messages).
            message = (
                f"world rank {rank} produced an unpicklable result "
                f"({type(exc).__name__}: {exc})"
            )
            world.abort(AbortCause("exception", rank, message))
            status = "err"
            blob = pickle.dumps((RuntimeError(message), ""))
    except BaseException as exc:  # noqa: BLE001 - must propagate anything
        world.abort(AbortCause.raised(rank, exc))  # an abort echo: the first cause stands
        status = "err"
        tb = traceback.format_exc()
        try:
            blob = pickle.dumps((exc, tb))
            pickle.loads(blob)  # what the parent will do with it
        except Exception as perr:
            # Still this rank's own error, not an abort echo: its type,
            # text and traceback ride a RuntimeError that survives the pipe.
            blob = pickle.dumps((
                RuntimeError(
                    f"world rank {rank} failed: {type(exc).__name__}: {exc} "
                    f"(the exception itself could not cross the process "
                    f"boundary: {type(perr).__name__}: {perr})"
                ),
                tb,
            ))
    try:
        world.shutdown(status == "ok")
    except Exception as exc:  # pragma: no cover - depends on host
        logger.warning(
            "world rank %d: transport shutdown failed: %s: %s",
            rank, type(exc).__name__, exc,
        )
    try:
        tracer.exit_rank()  # flush this rank's trace file before reporting
    except Exception as exc:  # pragma: no cover - disk-full etc.
        logger.warning(
            "world rank %d: trace flush failed: %s: %s",
            rank, type(exc).__name__, exc,
        )
    shared.writers[rank].send_bytes(pickle.dumps((status, blob)))


def _launch_forked(
    backend_name: str,
    routing_for: Callable[[JobConfig, int], HostMap],
    nranks: int,
    fn: Callable[..., Any],
    args: tuple,
    kwargs: dict,
    config: JobConfig,
) -> list[Any]:
    """The forked backends' launcher: fork one child per rank, run the
    failure detector, gather and decode results.

    ``routing_for(config, nranks)`` is all a registered name chooses: the
    map that says which rank pairs share memory and which cross TCP.
    """
    import multiprocessing as mp

    try:
        ctx = mp.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX hosts
        raise RuntimeError(
            "the forked backends require the fork start method; "
            "use backend='thread' on this platform"
        ) from None

    shared = _SharedJobState(ctx, nranks, config, routing_for(config, nranks))
    detect = max(0.02, config.detect_interval)
    # A heartbeat is "stale" well past its refresh period; generous slack
    # keeps a scheduler hiccup from flagging a healthy rank.
    stale_after = max(10 * detect, 5.0)
    now = monotonic()
    for r in range(nranks):
        shared.heartbeats[r] = now
    procs = []
    outcomes: dict[int, tuple[str, Any]] = {}
    flagged_stale: set[int] = set()
    try:
        for rank in range(nranks):
            p = ctx.Process(
                target=_child_main,
                args=(shared, rank, fn, args, kwargs, backend_name),
                name=f"spmd-rank-{rank}",
            )
            p.start()
            procs.append(p)
        shared.release_parent_fds()

        # `timeout` bounds individual blocked operations (enforced inside
        # the ranks, exactly as on the thread backend) — it is NOT a job
        # deadline, so a healthy long-computing job is never cut short.
        # The parent only starts a drain deadline once the job is known to
        # be dying: the abort flag went up, a child crashed, or every child
        # exited without reporting.  The loop doubles as the failure
        # detector, paced by ``config.detect_interval``: a child that died
        # without reporting aborts the job (naming the dead rank) within
        # about one interval, and stale heartbeats are flagged.
        drain_deadline: float | None = None
        unreported = {reader: r for r, reader in enumerate(shared.readers)}
        while len(outcomes) < nranks:
            for reader in wait(list(unreported), timeout=min(0.25, detect)):
                rank = unreported.pop(reader)
                try:
                    outcomes[rank] = pickle.loads(reader.recv_bytes())
                except (EOFError, OSError):
                    # Exited without reporting: reap it, so the watcher
                    # below names it now rather than an interval later.
                    procs[rank].join(timeout=detect)
            for r, p in enumerate(procs):
                if r not in outcomes and p.exitcode not in (None, 0):
                    outcomes[r] = ("crash", p.exitcode)
                    injected = p.exitcode == INJECTED_CRASH_EXIT
                    shared.set_abort(AbortCause(
                        "injected-crash" if injected else "child-exit", r,
                        f"world rank {r} died (exit code {p.exitcode}"
                        f"{', injected crash' if injected else ''}) "
                        "before reporting a result",
                    ))
            if not shared.aborted:
                now = monotonic()
                for r, p in enumerate(procs):
                    if (
                        r not in outcomes
                        and r not in flagged_stale
                        and p.exitcode is None
                        and now - shared.heartbeats[r] > stale_after
                    ):
                        flagged_stale.add(r)
                        logger.warning(
                            "world rank %d heartbeat stale for %.1fs "
                            "(straggler or wedged rank)",
                            r, now - shared.heartbeats[r],
                        )
            dying = shared.aborted or all(
                p.exitcode is not None for p in procs
            )
            if not dying:
                drain_deadline = None
                continue
            if drain_deadline is None:
                drain_deadline = monotonic() + _PARENT_GRACE
            elif monotonic() > drain_deadline:
                shared.set_abort(AbortCause(
                    "hang", None, "job torn down: unreported ranks presumed hung"
                ))
                for r in range(nranks):
                    outcomes.setdefault(r, ("hang", None))
                break
    finally:
        for p in procs:
            p.join(timeout=5.0)
        for p in procs:
            if p.is_alive():  # pragma: no cover - wedged child
                p.terminate()
                p.join(timeout=5.0)
        cause = shared.abort_cause
        shared.teardown()

    suffix = f" — {cause.message}" if cause is not None else ""
    results: list[Any] = [None] * nranks
    errors: list[BaseException | None] = [None] * nranks
    for rank in range(nranks):
        status, blob = outcomes[rank]
        if status == "ok":
            results[rank] = pickle.loads(blob)
        elif status == "err":
            exc, tb = pickle.loads(blob)
            if tb and not isinstance(exc, CommAborted):
                exc.__cause__ = RuntimeError(f"rank {rank} traceback:\n{tb}")
            errors[rank] = exc
        else:  # no report: "crash" (blob is the exit code) or "hang"
            if status == "crash":
                injected = blob == INJECTED_CRASH_EXIT
                kind = "injected-crash" if injected else "child-exit"
                message = (
                    f"world rank {rank} exited abnormally (exit code {blob}"
                    f"{', injected crash' if injected else ''}) "
                    "before reporting a result"
                )
            else:
                kind = "hang"
                message = (
                    f"world rank {rank} did not report a result within "
                    f"{_PARENT_GRACE:.0f}s of the job starting to die "
                    f"(abort/crash/exit); job torn down{suffix}"
                )
            errors[rank] = AbortCause(kind, rank, message).error(config.hostmap)
    return _job_outcome(results, errors, config.allow_failures)


register_backend(
    "process",
    partial(_launch_forked, "process", lambda config, n: HostMap.uniform(n, n)),
)
register_backend(
    "socket",
    partial(
        _launch_forked,
        "socket",
        lambda config, n: config.hostmap or HostMap.one_per_rank(n),
    ),
)
