"""SPMD execution harness: pluggable world backends behind one contract.

The paper's implementation runs one MPI process per GPU.  This module
defines the *contract* a rank runtime must satisfy — the abstract
:class:`BaseWorld`: launch, an eager ``(source, tag)``-matched mailbox
(``deliver``/``collect``/``try_collect``), and failure detection — plus the
backend registry :func:`run_spmd` dispatches on, the one :class:`Mailbox`
every world receives through, and the default **thread** backend: one
Python thread per rank over shared mailboxes (numpy releases
the GIL for array kernels, so ranks overlap for the bulk of the
arithmetic, but Python-level work time-shares — "overlap" on this backend
buys removed synchronization, not parallel compute).

**One mailbox.**  The ``(source, tag)`` store and the wait / timeout /
abort loop exist once, in :class:`Mailbox`; a transport only says how a
deposit wakes the owner and how the owner blocks — a condition variable
between threads, a ``select`` over links in a forked rank — so a thread
rank and a TCP rank time out and attribute an abort by the same code.

The **process** and **socket** backends (:mod:`repro.comm.proc_backend`)
are one forked-rank world — one OS process per rank, so ranks genuinely
execute in parallel — under two routing layouts: all ranks on one node
(every byte through shared memory), or the job's host map (shared memory
within a node, framed TCP across).  Select a backend per call
(``run_spmd(..., backend="process")``) or globally via the
``REPRO_BACKEND`` environment variable; the thread backend stays the
default because it is the cheap, debuggable choice for tests.

A backend knows nothing about collectives: every one of them — the
``"direct"`` all-to-all exchange and the compiled schedules alike — is
built in :mod:`repro.comm.communicator` / :mod:`repro.comm.algorithms` on
the mailbox alone, which is what keeps results bitwise reproducible across
backends for a fixed rank count.  Sends never block, so a collective is
issued by sending and completed by receiving: a rank only blocks when it
*waits*, and only until its peers have *sent* — a fast rank never waits
for slow peers to read, which is what lets the per-layer dL/dw allreduces
overlap with the remainder of backpropagation (paper §IV).

``deliver`` is the one place a sent array is copied, on every backend, and
the copy is made before it returns: the thread world hands the receiver a
read-only private copy (:func:`repro.comm.payload.freeze`), the forked
world copies into a shared-memory arena or a frame (see
:mod:`repro.comm.proc_backend`).  A sender may therefore reuse its buffer
as soon as a send returns.

Error handling follows MPI's "abort the job" philosophy: if any rank
raises, the world is aborted, every blocked receive is woken, and the
original exception is re-raised in
the caller with :class:`CommAborted` raised inside the surviving ranks.
A failure has one record, an :class:`AbortCause` — ``(kind, failed_rank,
message)`` — written once per job by the site that detected it (first
failure wins), and every survivor's :class:`CommAborted` is built from it,
so a chaos test can assert that rank 3's death was named on ranks 0-2 and
the elastic supervisor reads the culprit from attributes, never from text.
Timeouts identify the stuck operation: the diagnostic names the waiting
world rank, the operation, (for sequenced collectives) the sequence number
and schedule step, and dumps the pending inbox — the queued-but-unmatched
``(source, tag)`` pairs — rather than a bare "timed out"; the timed-out
rank aborts the job with that diagnostic as the cause's message.

Timeouts are per *transport operation*, not per job: ``run_spmd`` takes a
default ``timeout`` plus ``op_timeouts`` overrides keyed by operation-name
prefix (e.g. ``{"recv": 5.0, "iallreduce": 30.0}``).  Deterministic fault injection
(``run_spmd(..., faults=...)`` / ``REPRO_FAULTS``) hooks the same
transport paths on every backend; see :mod:`repro.comm.faults`.
"""

from __future__ import annotations

import abc
import os
import threading
from collections import deque
from dataclasses import dataclass, field
from time import monotonic, time as _wall_time
from typing import Any, Callable

from repro.obs import tracer

from repro.comm.faults import (
    FAULTS_ENV,
    FaultInjector,
    FaultPlan,
    InjectedCrash,
    JobConfig,
)
from repro.comm.hostmap import HOSTMAP_ENV, HostMap, resolve_hostmap
from repro.comm.payload import freeze
from repro.comm.stats import CommStats


class CommAborted(RuntimeError):
    """Raised inside surviving ranks when the SPMD world has been aborted.

    Built from the job's :class:`AbortCause`: ``kind`` is its failure class
    (one of :data:`FAILURE_KINDS`), ``failed_rank`` the culprit's world rank
    and ``host`` that rank's logical host in the job's host map (``None``
    without one).  These attributes are what the elastic supervisor acts
    on; the message is for humans.  They survive process-boundary pickling
    (see :meth:`__reduce__`), so the parent of a forked job sees the same
    structure the raising rank built.
    """

    def __init__(
        self,
        message: str,
        *,
        failed_rank: int | None = None,
        host: str | None = None,
        kind: str | None = None,
    ) -> None:
        super().__init__(message)
        self.failed_rank = failed_rank
        self.host = host
        self.kind = kind

    def __reduce__(self):
        # Default exception pickling re-calls __init__ with ``args`` only,
        # dropping the keyword attributes; carry them as post-init state.
        return (
            self.__class__,
            (self.args[0] if self.args else "",),
            {"failed_rank": self.failed_rank, "host": self.host, "kind": self.kind},
        )


class CommIntegrityError(CommAborted):
    """A transport frame failed its integrity check (CRC32 mismatch).

    Raised on the socket backend when a received TCP frame's payload does
    not match the checksum its sender stamped into the header — real link
    corruption, or an injected ``corrupt@…:point=wire`` fault.  Subclasses
    :class:`CommAborted` so every existing abort-handling path treats it as
    a job abort, but the distinct type (``kind="integrity"``) marks the
    failure as restartable-with-the-same-world for the elastic supervisor:
    the data was bad, not the rank.
    """


#: Every failure class an :class:`AbortCause` names: a rank raised, a fault
#: plan crashed it, its process died, its TCP link closed without a BYE, a
#: frame it sent failed its CRC, a wait timed out (blamed on the rank that
#: waited), or ranks never reported.
FAILURE_KINDS = (
    "exception",
    "injected-crash",
    "child-exit",
    "peer-death",
    "integrity",
    "timeout",
    "hang",
)


def failure_kind(exc: BaseException) -> str:
    """The failure class of an exception a rank raised: a
    :class:`CommAborted`'s own ``kind``, ``"injected-crash"`` for an
    :class:`~repro.comm.faults.InjectedCrash`, else ``"exception"``."""
    if isinstance(exc, CommAborted) and exc.kind in FAILURE_KINDS:
        return exc.kind
    return "injected-crash" if isinstance(exc, InjectedCrash) else "exception"


@dataclass(frozen=True)
class AbortCause:
    """Why a job aborted: the one record of a failure, written once per job
    by the site that detected it (:meth:`BaseWorld.abort`, first failure
    wins) and read by every survivor.

    ``failed_rank`` is the culprit's world rank — for a timeout, the rank
    that gave up waiting; ``None`` when no rank can be named.  The host is
    not stored: it is the failed rank's entry in the job's host map.
    """

    kind: str
    failed_rank: int | None
    message: str

    @classmethod
    def raised(cls, rank: int, exc: BaseException) -> "AbortCause":
        """The cause a rank's own uncaught exception records."""
        return cls(
            failure_kind(exc), rank,
            f"world rank {rank} failed: {type(exc).__name__}: {exc}",
        )

    def error(self, hostmap: "HostMap | None", message: str | None = None) -> CommAborted:
        """This cause as an exception: ``message`` (default: the cause's
        own) with the cause's ``kind``/``failed_rank`` and the failed rank's
        host in ``hostmap``; an integrity failure is a
        :class:`CommIntegrityError`."""
        rank = self.failed_rank
        host = hostmap.host_of(rank) if hostmap is not None and rank is not None else None
        cls = CommIntegrityError if self.kind == "integrity" else CommAborted
        return cls(message or self.message, failed_rank=rank, host=host, kind=self.kind)


#: Default number of seconds a rank will wait on a peer before concluding the
#: job is wedged.  Functional tests run on <=16 in-process ranks; a minute is
#: far beyond any legitimate wait.
DEFAULT_TIMEOUT: float = 120.0


# ---------------------------------------------------------------------------
# The backend contract
# ---------------------------------------------------------------------------


class BaseWorld(abc.ABC):
    """All shared state of one SPMD job, as one rank sees it.

    Point-to-point delivery is MPI-style eager and buffered: ``deliver``
    never blocks; ``collect`` blocks until a matching ``(source, tag)``
    message arrives, the world aborts, or the timeout expires (with a
    diagnostic naming the waiting rank and operation).
    """

    backend_name: str = "abstract"
    size: int
    timeout: float
    #: Per-job knobs (op timeouts, faults, host map); every concrete world
    #: assigns one in its constructor.
    config: JobConfig

    @property
    @abc.abstractmethod
    def aborted(self) -> bool: ...

    @property
    def abort_cause(self) -> AbortCause | None:
        """The job's recorded cause of the abort (first failure wins)."""
        return None

    def abort_error(self, what: str | None = None) -> CommAborted:
        """The exception this rank raises in an aborted job, built from the
        recorded cause: ``what`` (the operation the abort interrupted)
        followed by the cause's message, or the cause's message alone."""
        cause = self.abort_cause
        message = f"{what} interrupted: world aborted — {cause.message}" if what else None
        return cause.error(self.config.hostmap, message)

    def timeout_for(self, opname: str) -> float:
        """The timeout bound for one blocked operation named ``opname``."""
        return self.config.timeout_for(opname)

    def _check_rank(self, rank: int, what: str) -> None:
        if not 0 <= rank < self.size:
            raise ValueError(f"{what}={rank} out of range for world of size {self.size}")

    @property
    def hostmap(self) -> "HostMap | None":
        """The job's logical-node layout (``None`` = all one node)."""
        return self.config.hostmap

    def node_of(self, world_rank: int) -> int:
        """Logical node index of a world rank (0 when no host map is set).

        Drives hierarchical collective selection: two ranks with equal
        ``node_of`` share the fast intra-node transport domain, differing
        values mean traffic between them crosses the inter-node wire.
        """
        hm = self.config.hostmap
        return 0 if hm is None else hm.node_of(world_rank)

    @abc.abstractmethod
    def deliver(self, source: int, dest: int, tag: Any, payload: Any) -> None:
        """Eagerly send ``payload`` to ``dest`` (never blocks).  Every array
        in it is copied before this returns, so the caller may overwrite
        its buffers at once; the receiver gets read-only arrays."""

    @abc.abstractmethod
    def collect(
        self, dest: int, source: int, tag: Any, opname: str = "recv",
        sink: Callable[[Any], Any] | None = None,
    ) -> Any:
        """Block for the matching message and return its payload.

        With a ``sink``, the payload is handed to ``sink(payload)`` while
        the transport still owns its bytes — on the forked backends array
        data is then a read-only view of the shared-memory arena, released
        as soon as the sink returns — and the sink's result is returned
        instead.  A sink must consume the payload (reduce it, copy it into
        place), never keep a reference.  Recv-point faults run on the
        payload before the sink sees it.
        """

    @abc.abstractmethod
    def try_collect(
        self, dest: int, source: int, tag: Any,
        sink: Callable[[Any], Any] | None = None,
    ) -> tuple[bool, Any]:
        """Nonblocking :meth:`collect`: ``(True, payload or sink result)``
        when a matching message had arrived, else ``(False, None)``."""

    @abc.abstractmethod
    def rank_stats(self, world_rank: int):
        """The :class:`~repro.comm.stats.CommStats` of one world rank
        (shared by every communicator that rank participates in)."""

    @abc.abstractmethod
    def abort(self, cause: AbortCause) -> bool:
        """Abort the job; ``True`` when ``cause`` is the one recorded (this
        was the first failure), ``False`` when the job was already aborted."""


# ---------------------------------------------------------------------------
# Backend registry
# ---------------------------------------------------------------------------

#: name -> launcher(nranks, fn, args, kwargs, config) -> list of results.
_BACKENDS: dict[str, Callable[..., list[Any]]] = {}

#: Environment variable overriding the default backend for every
#: ``run_spmd`` call that does not pass ``backend=`` explicitly.
BACKEND_ENV = "REPRO_BACKEND"


def register_backend(name: str, launcher: Callable[..., list[Any]]) -> None:
    """Register a world implementation under ``name``.

    ``launcher(nranks, fn, args, kwargs, config)`` must run
    ``fn(comm, *args, **kwargs)`` on ``nranks`` ranks under the
    :class:`~repro.comm.faults.JobConfig` knobs and return the results in
    rank order, re-raising the first real rank error (or, with
    ``config.allow_failures``, returning per-rank exceptions in place).
    """
    _BACKENDS[name] = launcher


def available_backends() -> tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_BACKENDS))


def default_backend() -> str:
    """The backend used when ``run_spmd`` gets no explicit ``backend``."""
    return os.environ.get(BACKEND_ENV, "thread")


def resolve_backend(backend: str | None) -> str:
    """Validate an explicit/env/default backend choice."""
    name = backend if backend is not None else default_backend()
    if name not in _BACKENDS:
        raise ValueError(
            f"unknown SPMD backend {name!r}; available: {available_backends()}"
        )
    return name


def run_spmd(
    nranks: int,
    fn: Callable[..., Any],
    *args: Any,
    timeout: float = DEFAULT_TIMEOUT,
    backend: str | None = None,
    op_timeouts: dict[str, float] | None = None,
    faults: "FaultPlan | str | None" = None,
    allow_failures: bool = False,
    detect_interval: float = 0.25,
    hostmap: "HostMap | str | None" = None,
    trace: str | None = None,
    **kwargs: Any,
) -> list[Any]:
    """Run ``fn(comm, *args, **kwargs)`` on ``nranks`` ranks; return results.

    This is the in-process analogue of ``mpiexec -n nranks python script.py``.
    ``fn`` receives a :class:`~repro.comm.communicator.Communicator` whose
    ``rank``/``size`` identify the caller.  Results are returned in rank
    order.  If any rank raises, the world is aborted and the first exception
    (by rank) is re-raised in the caller.

    ``backend`` selects the world implementation (``"thread"``,
    ``"process"`` or ``"socket"``; see :func:`available_backends`).  When
    omitted, the ``REPRO_BACKEND`` environment variable decides, defaulting
    to the thread backend.  The forked backends require ``fn``'s results to
    be picklable and ``fn`` itself to be fork-inheritable (any callable
    defined before the call qualifies, closures included).

    Fault-tolerance knobs:

    * ``timeout`` bounds one blocked transport operation (not the job);
      ``op_timeouts`` overrides it per operation-name prefix.
    * ``faults`` installs a deterministic
      :class:`~repro.comm.faults.FaultPlan` (or a string in the
      ``REPRO_FAULTS`` syntax) on every backend's transport paths; when
      omitted, the ``REPRO_FAULTS`` environment variable applies.
    * ``allow_failures`` returns per-rank exceptions *in the result list*
      instead of re-raising the first one — the chaos-testing mode in
      which survivor ``CommAborted``\\ s are observable alongside the
      failed rank's error.
    * ``detect_interval`` paces the forked backends' failure detector
      (child-exit watcher + heartbeats); a dead rank aborts the job within
      about one interval.
    * ``hostmap`` (a :class:`~repro.comm.hostmap.HostMap` or a spec string
      like ``"0,1:A 2,3:B"``; env ``REPRO_HOSTMAP``) groups ranks into
      logical nodes: the socket backend routes intra-node traffic over
      shared memory and inter-node traffic over TCP (the process backend
      routes everything over shared memory whatever the map says), and the
      collective layer selects hierarchical two-level schedules when the
      layout spans nodes.  ``None`` leaves each backend's default layout
      (thread and process: all one node; socket: one node per rank).
    * ``trace`` (env ``REPRO_TRACE``) enables per-rank span tracing: every
      rank records structured spans/flows (see :mod:`repro.obs.tracer`)
      and, after the job completes, the per-rank files are merged into one
      Chrome trace-event JSON at the given path, clock-aligned via the
      shared job epoch captured here before launch.

    For ``nranks == 1`` the function is invoked directly on the calling
    thread regardless of backend, which keeps single-rank tests cheap and
    debuggable.
    """
    name = resolve_backend(backend)
    if faults is None:
        env_faults = os.environ.get(FAULTS_ENV)
        if env_faults:
            faults = FaultPlan.parse(env_faults)
    elif isinstance(faults, str):
        faults = FaultPlan.parse(faults)
    config = JobConfig(
        timeout=timeout,
        op_timeouts=dict(op_timeouts or {}),
        faults=faults,
        allow_failures=allow_failures,
        detect_interval=detect_interval,
        hostmap=resolve_hostmap(hostmap, os.environ.get(HOSTMAP_ENV)),
    )
    trace_path = trace if trace is not None else os.environ.get(tracer.TRACE_ENV)
    if trace_path:
        config.trace = tracer.TraceConfig(path=str(trace_path), epoch=_wall_time())
    if nranks == 1:
        from repro.comm.communicator import Communicator

        world = World(size=nranks, timeout=timeout, config=config)
        tracer.enter_rank(0, _host_of(config, 0), trace=config.trace, thread_scope=True)
        try:
            results = [fn(Communicator._world_comm(world, 0), *args, **kwargs)]
        except Exception as exc:
            if allow_failures:
                results = [exc]
            else:
                raise
        finally:
            tracer.exit_rank(thread_scope=True)
        _merge_trace(config, nranks)
        return results
    results = _BACKENDS[name](nranks, fn, args, kwargs, config)
    _merge_trace(config, nranks)
    return results


def _host_of(config: JobConfig, rank: int) -> str:
    return config.hostmap.host_of(rank) if config.hostmap is not None else "node0"


def _merge_trace(config: JobConfig, nranks: int) -> None:
    """Fold the per-rank trace files into one Chrome-trace JSON; called
    after the launcher returns (ranks have flushed by join time).  Skipped
    when the job raised, leaving the rank files behind for debugging."""
    if config.trace is None:
        return
    from repro.obs.export import merge_traces

    merge_traces(config.trace.path, nranks)


# ---------------------------------------------------------------------------
# Thread backend
# ---------------------------------------------------------------------------


class Mailbox:
    """The ``(source, tag)`` -> FIFO message store of one destination rank,
    and the only wait loop in the package.

    Messages are matched MPI-style on ``(source, tag)`` with FIFO order per
    pair.  Deposits are eager (:meth:`put` never blocks); :meth:`get`
    blocks until a match arrives, the world aborts, or the timeout expires
    — which aborts the job, blaming ``rank``, the owner.

    A transport supplies two things only, by overriding them: how a deposit
    *wakes* the owner (:meth:`_wake`, called under the store's lock) and
    how the owner *blocks until something may have arrived* (:meth:`_wait`,
    called with the lock held).  This class is the thread transport —
    sender threads ``put``, and the owner waits on the lock's condition,
    which lets them in while it blocks; the wake-up is taken under the lock
    the owner checked the store under, so it cannot be lost: a lost notify
    would be a stall of one poll interval, not a hang, which is why
    ``tests/test_mailbox.py`` times it.  The forked ranks' flavour,
    :class:`repro.comm.proc_backend._Inbox`, has no depositing thread to
    wake: its ``_wait`` is a ``select`` over the rank's links that drains
    the readable ones itself.
    """

    def __init__(self, world: BaseWorld, rank: int) -> None:
        self._world = world
        self._rank = rank
        self._cv = threading.Condition()
        self._buffered: dict[tuple[int, Any], deque[Any]] = {}

    # -- what a transport supplies -------------------------------------------
    def _wake(self) -> None:
        self._cv.notify_all()

    def _wait(self, timeout: float) -> None:
        # ``timeout == 0`` asks for whatever has arrived to be pulled in;
        # thread senders deposit directly, so there is never anything to pull.
        if timeout > 0:
            self._cv.wait(timeout)

    # -- the store -------------------------------------------------------------
    def put(self, source: int, tag: Any, payload: Any) -> None:
        with self._cv:
            self._buffered.setdefault((source, tag), deque()).append(payload)
            self._wake()

    def _pop(self, key: tuple[int, Any]) -> tuple[bool, Any]:
        """``(True, oldest payload)`` under ``key``, else ``(False, None)``."""
        q = self._buffered.get(key)
        if not q:
            return False, None
        payload = q.popleft()
        # Collective tags are unique per operation: drop drained queues so
        # the table does not grow by one entry per collective and peer.
        if not q:
            del self._buffered[key]
        return True, payload

    def get(
        self, source: int, tag: Any, timeout: float, describe: Callable[[], str]
    ) -> Any:
        # ``describe`` is only called on the abort/timeout slow paths: the
        # hot receive loop never pays for an f-string (tag reprs are not
        # free at tens of thousands of messages per second).
        world = self._world
        # Abort is not a deposit, so on a forked rank nothing wakes a blocked
        # owner for it: the poll interval bounds how late it is noticed.
        poll = min(0.25, max(0.01, world.config.detect_interval))
        key = (source, tag)
        deadline = monotonic() + timeout
        with self._cv:
            while True:
                ok, payload = self._pop(key)
                if ok:
                    return payload
                if world.aborted:
                    raise world.abort_error(describe())
                remaining = deadline - monotonic()
                if remaining > 0:
                    self._wait(min(remaining, poll))
                    continue
                self._wait(0)  # the diagnostic lists everything that arrived
                # Abort the whole job: a wedged collective should fail
                # everywhere with this rank's diagnostic, not hang peers.
                reason = (
                    f"{describe()} timed out after {timeout:.1f}s; "
                    f"pending inbox: {self.pending_keys()}"
                )
                first = world.abort(AbortCause("timeout", self._rank, reason))
                raise world.abort_error(None if first else describe())

    def try_get(self, source: int, tag: Any) -> tuple[bool, Any]:
        """Nonblocking probe-and-pop: ``(True, payload)`` or ``(False, None)``."""
        with self._cv:
            self._wait(0)
            ok, payload = self._pop((source, tag))
        if not ok and self._world.aborted:
            raise self._world.abort_error(f"irecv(source={source}, tag={tag})")
        return ok, payload

    def pending_keys(self, limit: int = 8) -> str:
        """Buffered-but-unmatched ``(source, tag)`` pairs, for diagnostics."""
        with self._cv:
            keys = [k for k, q in self._buffered.items() if q]
        if not keys:
            return "(empty)"
        shown = ", ".join(f"(source={s}, tag={t!r})" for s, t in keys[:limit])
        more = len(keys) - limit
        return f"[{shown}{f', … +{more} more' if more > 0 else ''}]"


@dataclass
class World(BaseWorld):
    """Thread-backend shared state for one SPMD job."""

    size: int
    timeout: float = DEFAULT_TIMEOUT
    config: JobConfig | None = None
    _aborted: bool = False
    _abort_cause: AbortCause | None = None
    _mailboxes: list[Mailbox] = field(default_factory=list)
    _abort_lock: threading.Lock = field(default_factory=threading.Lock)

    backend_name = "thread"

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"world size must be >= 1, got {self.size}")
        if self.config is None:
            self.config = JobConfig(timeout=self.timeout)
        else:
            self.timeout = self.config.timeout
        self._mailboxes = [Mailbox(self, r) for r in range(self.size)]
        # One CommStats per world rank, shared by every communicator that
        # rank participates in, so split comms accumulate into one place.
        self._stats_registry = [CommStats() for _ in range(self.size)]
        faults = self.config.faults
        self._injectors: list[FaultInjector | None] = [
            faults.injector(r) if faults is not None else None
            for r in range(self.size)
        ]

    @property
    def aborted(self) -> bool:
        return self._aborted

    @property
    def abort_cause(self) -> AbortCause | None:
        return self._abort_cause

    # -- point-to-point ----------------------------------------------------
    def deliver(self, source: int, dest: int, tag: Any, payload: Any) -> None:
        self._check_rank(dest, "dest")
        inj = self._injectors[source] if 0 <= source < self.size else None
        if inj is not None:
            # On the thread backend an injected crash propagates as an
            # exception in the sending rank's thread; no process to kill.
            action, payload = inj.on_transport(
                "send", dest, tag, payload, lambda detail: None
            )
            if action == "drop":
                return
        self._mailboxes[dest].put(source, tag, freeze(payload))

    def collect(
        self, dest: int, source: int, tag: Any, opname: str = "recv", sink=None
    ) -> Any:
        self._check_rank(source, "source")
        payload = self._mailboxes[dest].get(
            source,
            tag,
            self.timeout_for(opname),
            lambda: f"{opname}(world rank {dest} <- {source}, tag={tag!r})",
        )
        return self._received(dest, source, tag, payload, sink)

    def try_collect(
        self, dest: int, source: int, tag: Any, sink=None
    ) -> tuple[bool, Any]:
        self._check_rank(source, "source")
        ok, payload = self._mailboxes[dest].try_get(source, tag)
        if ok:
            payload = self._received(dest, source, tag, payload, sink)
        return ok, payload

    def _received(self, dest: int, source: int, tag: Any, payload: Any, sink) -> Any:
        """Apply recv-point faults on a *successful* retrieval, then hand
        the payload to the ``sink`` (payloads here are the private copies
        ``deliver`` made: nothing to release).

        Counting only retrievals (never empty polls) keeps ``after``
        deterministic even though ``try_collect`` may poll a
        run-dependent number of times.
        """
        inj = self._injectors[dest] if 0 <= dest < self.size else None
        if inj is not None:
            _, payload = inj.on_transport(
                "recv", source, tag, payload, lambda detail: None
            )
        return payload if sink is None else sink(payload)

    def rank_stats(self, world_rank: int):
        return self._stats_registry[world_rank]

    # -- failure handling ---------------------------------------------------
    def abort(self, cause: AbortCause) -> bool:
        with self._abort_lock:
            if self._aborted:
                return False
            self._abort_cause = cause  # before the flag: whoever sees it has a cause
            self._aborted = True
        for mb in self._mailboxes:
            with mb._cv:
                mb._wake()
        return True


def _run_spmd_threads(
    nranks: int,
    fn: Callable[..., Any],
    args: tuple,
    kwargs: dict,
    config: JobConfig,
) -> list[Any]:
    """Thread-backend launcher (the historical in-process harness)."""
    from repro.comm.communicator import Communicator

    world = World(size=nranks, timeout=config.timeout, config=config)
    results: list[Any] = [None] * nranks
    errors: list[BaseException | None] = [None] * nranks

    def runner(rank: int) -> None:
        tracer.enter_rank(
            rank, _host_of(config, rank), trace=config.trace, thread_scope=True
        )
        try:
            comm = Communicator._world_comm(world, rank)
            results[rank] = fn(comm, *args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - must propagate anything
            errors[rank] = exc
            world.abort(AbortCause.raised(rank, exc))  # an abort echo: the first cause stands
        finally:
            tracer.exit_rank(thread_scope=True)

    threads = [
        threading.Thread(target=runner, args=(rank,), name=f"spmd-rank-{rank}")
        for rank in range(nranks)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    return _job_outcome(results, errors, config.allow_failures)


def _job_outcome(
    results: list[Any], errors: list[BaseException | None], allow_failures: bool
) -> list[Any]:
    """The tail every launcher ends with: with ``allow_failures`` each
    rank's exception takes its result's place; otherwise the first real
    error by rank is raised — a survivor's :class:`CommAborted` is
    secondary and only raised when nothing else failed."""
    if allow_failures:
        return [r if e is None else e for r, e in zip(results, errors)]
    failed = [e for e in errors if e is not None]
    real = [e for e in failed if not isinstance(e, CommAborted)]
    if failed:
        raise (real or failed)[0]
    return results


register_backend("thread", _run_spmd_threads)
