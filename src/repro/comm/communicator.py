"""MPI-style communicator over a pluggable SPMD world backend.

The interface mirrors mpi4py's lower-case (object) API: payloads are Python
objects, collectives combine contributions in deterministic comm-rank order
so runs are bit-reproducible for a fixed rank count — on *either* backend:
the communicator is backend-agnostic and talks to the world only through
the :class:`~repro.comm.backend.BaseWorld` pt2pt mailbox
(``deliver``/``collect``/``try_collect``), so every collective runs the
same arithmetic on the same comm-rank order whether ranks are threads or
processes.

Array payloads cross the communication boundary **zero-copy** where
possible on the thread backend: a C-contiguous ndarray is shared as a
read-only view instead of being deep-copied (non-contiguous arrays are
still copied; see :func:`~repro.comm.payload.set_zero_copy` to disable
the fast path when chasing a suspected aliasing bug).  The process backend
copies through a shared-memory arena instead.  The contract is MPI's
either way: a buffer handed to ``send``/``isend`` or contributed to a
collective must not be mutated afterwards.  Received arrays are read-only;
treat them as immutable (``bcast``/``scatter`` results are exempt — they are private
writable copies, since they commonly carry small control state the
receiver updates in place).

**Copy discipline** — one rule: *a byte is copied only where two owners
would otherwise write and read the same memory, by whoever hands it over,
and freed by whoever consumes it.*  Where that puts every copy:

====================  ==========================  ===========================
mechanism             who copies, when            who frees / how long it lives
====================  ==========================  ===========================
``payload.freeze``    nobody for a C-contiguous   the view lives as long as
(``send``, ``isend``, array (a read-only view     receivers hold it; the
nonblocking           crosses); the sender, once, sender never mutates the
contributions)        for a non-contiguous one    buffer again
``_detached``         the caller's rank, once     garbage-collected with the
(blocking ``direct``  per call, only on a         last receiver's reference
collectives)          zero-copy transport: the
                      buffer is the caller's to
                      reuse on return
``_stage_segment``    the sending runner, per     the communicator's
(schedule sends on a  send, into a pooled         ``BufferPool``, once every
zero-copy transport,  buffer: the working buffer  receiver dropped its view
and self-sends)       is reduced into afterwards
arena send            ``deliver``, synchronously  the receiver, when the
(process / socket     (``copies_on_send``), so    message is *matched*: after
intra-node, arrays    schedule sends skip the     the sink returns, or after
of 2 KiB and up)      staging copy                copying out; at drain time
                                                  when the arena is over half
                                                  full (``proc_backend._Inbox``)
inline frame          ``deliver``, synchronously  garbage-collected: received
(process / socket,    (``tobytes`` into the       arrays are read-only views
smaller arrays; every frame); the receiver does   of the frame's immutable
array over TCP)       not copy                    bytes and keep it alive
donated buffer        nobody: the runner reduces  the caller gave it up; the
(``iallreduce(        in the array it is given    result is that memory
donate=True)``,       or just built; otherwise
``owns_buffer``)      one working copy at issue
sink                  nobody: a scheduled         the transport, right after
(``collect(sink=)``)  receive is folded or        the sink returns; an unsunk
                      placed into the working     receive gets a private
                      buffer where it landed      read-only array instead
``payload.private``   the receiver, once          the receiver (``bcast`` /
                                                  ``scatter`` results are
                                                  writable)
====================  ==========================  ===========================

``freeze`` and ``private`` (``_detached`` is one after the other) are
:func:`repro.comm.payload.map_arrays` — the one walk over tuple/list/dict —
so they reach the same arrays.

Semantics implemented:

* eager buffered ``send``/``recv``/``sendrecv`` matched on ``(source, tag)``;
* ``barrier``, ``bcast``, ``gather``, ``scatter``, ``allgather``,
  ``alltoall``, ``reduce``, ``allreduce``, ``reduce_scatter``;
* **nonblocking** ``isend``/``irecv``/``iallreduce``/``ialltoall`` returning
  :class:`Request` handles with MPI-style ``wait()``/``test()``; any number
  of requests may be in flight per communicator and they may be completed
  out of order.  This is the primitive the training engine uses to overlap
  the dL/dw allreduces with backpropagation (paper §IV);
* ``split(color, key)`` creating sub-communicators, the building block for
  the sample-group × spatial-group process grids of the paper's hybrid
  sample/spatial parallelism;
* **algorithmic wire schedules**: the reduction and rooted collectives take
  an ``algorithm=`` knob (``"auto"`` → the cost model's Thakur-style
  selection; ``REPRO_COLLECTIVE_ALG`` overrides globally) that compiles
  ring / Rabenseifner / recursive-doubling / binomial-tree schedules onto
  the point-to-point transport (:mod:`repro.comm.algorithms`), cutting an
  allreduce's per-rank wire volume from ``n(p-1)`` to ``2n(p-1)/p``;
  ``"direct"`` — an all-to-all :class:`~repro.comm.algorithms.Exchange`
  of whole contributions followed by the ascending-comm-rank fold — is
  the bitwise-reference mode.
"""

from __future__ import annotations

import os
from functools import partial
from time import perf_counter
from typing import Any, Callable, Sequence

import numpy as np

from repro.comm import algorithms as _alg
from repro.comm.backend import BaseWorld
from repro.comm.buffers import BufferPool
from repro.comm.collective_models import (
    HIERARCHICAL_ALGORITHM,
    TwoTierTopology,
    resolve_allreduce_algorithm,
    segment_sizes,
    select_inter_algorithm,
    select_segment_bytes,
)
from repro.comm.payload import freeze, payload_nbytes, private
from repro.comm.stats import CommStats
from repro.obs import tracer as _trace

_REDUCE_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "sum": lambda a, b: a + b,
    "prod": lambda a, b: a * b,
    "max": lambda a, b: np.maximum(a, b),
    "min": lambda a, b: np.minimum(a, b),
}


def _reduce_fn(op: str) -> Callable[[Any, Any], Any]:
    try:
        return _REDUCE_OPS[op]
    except KeyError:
        raise ValueError(f"unknown reduction op {op!r}") from None


#: The binary ufunc behind each reduction op — handed to
#: :class:`~repro.comm.algorithms.ScheduleRunner` so scheduled reductions
#: accumulate in place (``ufunc(a, b, out=a)``) instead of allocating a
#: temporary per receive.  Operand order still follows the compiled
#: schedule's ``acc_first``, so results stay bitwise identical to the
#: generic-callable path.
_REDUCE_UFUNCS: dict[str, Any] = {
    "sum": np.add,
    "prod": np.multiply,
    "max": np.maximum,
    "min": np.minimum,
}

#: Environment override for every ``algorithm=`` collective knob: set to
#: ``direct`` for the bitwise-reference mode (every collective exchanges
#: whole contributions and folds in comm-rank order), to ``ring`` /
#: ``rabenseifner`` /
#: ``recursive_doubling`` to force the reduction schedules, to
#: ``binomial`` to force the rooted trees, or to ``auto`` for model-driven
#: selection.  Values that are meaningless for an op (e.g. ``binomial``
#: for an allreduce) leave that op on its own default resolution.
COLLECTIVE_ALG_ENV = "REPRO_COLLECTIVE_ALG"

#: Environment override for the reduction collectives' ``segment_bytes=``
#: pipelining knob: ``auto`` applies the cost model's
#: :func:`~repro.comm.collective_models.select_segment_bytes` minimization,
#: ``none``/``off``/``0`` disables segmentation, and a positive integer
#: forces that segment size in bytes.  Anything else fails loudly.
SEGMENT_BYTES_ENV = "REPRO_SEGMENT_BYTES"

_REDUCTION_ALG_CHOICES = {
    "auto", "direct", HIERARCHICAL_ALGORITHM, *_alg.REDUCTION_ALGORITHMS
}
_TREE_ALG_CHOICES = {"auto", "direct", "binomial"}
_RS_ALG_CHOICES = {"auto", "direct", "ring"}
#: Every name the env override may legally carry; anything else is a typo
#: and must fail loudly rather than silently disable the override.
_ALL_ALG_CHOICES = _REDUCTION_ALG_CHOICES | _TREE_ALG_CHOICES | _RS_ALG_CHOICES


def _parse_segment_bytes(text: str) -> int | str | None:
    """Parse a ``segment_bytes`` knob/env value; raise loudly on typos."""
    t = text.strip().lower()
    if t in ("none", "off", "0"):
        return None
    if t == "auto":
        return "auto"
    try:
        value = int(t)
    except ValueError:
        raise ValueError(
            f"{SEGMENT_BYTES_ENV}={text!r} is not a segment size; expected "
            f"'auto', 'none', or a positive integer byte count"
        ) from None
    if value < 1:
        raise ValueError(
            f"{SEGMENT_BYTES_ENV}={text!r} must be a positive byte count"
        )
    return value


#: "``REPRO_SEGMENT_BYTES`` is unset": distinct from its ``None`` (= off).
_NO_OVERRIDE = object()


def _env_knobs() -> tuple[str | None, Any]:
    """``(REPRO_COLLECTIVE_ALG, REPRO_SEGMENT_BYTES)`` validated and parsed
    — ``None`` / :data:`_NO_OVERRIDE` when unset.  Read once, when a job's
    world communicator is built (set them before ``run_spmd``); a typo
    raises there, naming the variable."""
    alg = os.environ.get(COLLECTIVE_ALG_ENV) or None
    if alg is not None and alg not in _ALL_ALG_CHOICES:
        raise ValueError(
            f"{COLLECTIVE_ALG_ENV}={alg!r} names no collective "
            f"algorithm; expected one of {sorted(_ALL_ALG_CHOICES)}"
        )
    seg = os.environ.get(SEGMENT_BYTES_ENV)
    if seg is None or seg.strip() == "":
        return alg, _NO_OVERRIDE
    return alg, _parse_segment_bytes(seg)


#: A reduction plan is ``(algorithm, this rank's compiled steps, offset table,
#: segment count)``; this one says "take the ``"direct"`` exchange".
_DIRECT_PLAN = ("direct", None, None, 0)


def _mapped(
    combine: Callable[[list[Any]], Any],
    update: Callable[[int, int, np.ndarray, np.ndarray], None],
    out: np.ndarray | None,
    slots: list[Any],
) -> np.ndarray:
    """The ``"direct"`` fold of an :meth:`Communicator.iallreduce`, then its
    fused map over the whole (fresh) folded buffer."""
    reduced = combine(slots)
    flat = reduced.reshape(-1)
    dst = flat if out is None else out.reshape(-1)
    update(0, flat.size, flat, dst)
    return dst.reshape(reduced.shape)


def _schedulable_array(payload: Any) -> bool:
    """True if a payload can run through the chunked reduction schedules."""
    return isinstance(payload, np.ndarray) and payload.dtype != object


class Request:
    """Handle to an in-flight nonblocking operation (MPI_Request analogue).

    ``wait()`` blocks until the operation completes and returns its result
    (``None`` for sends).  ``test()`` polls without blocking and returns
    whether the operation has completed; once it returns True the result is
    available from ``wait()`` immediately.  Requests may be completed in any
    order.  If the world aborts, both raise :class:`CommAborted`.
    """

    _done: bool = False
    _result: Any = None

    @property
    def complete(self) -> bool:
        return self._done

    def wait(self) -> Any:  # pragma: no cover - abstract
        raise NotImplementedError

    def test(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


class _RunnerRequest(Request):
    """The one request: an operation in flight, driving one
    ``launch``/``progress``/``finish`` runner — an
    :class:`~repro.comm.algorithms.Exchange` (``"direct"``), a compiled
    :class:`~repro.comm.algorithms.ScheduleRunner`, or the single
    :class:`~repro.comm.algorithms.Receive` behind ``irecv``
    (``collective=False``: its bytes book as a receive, not a wire row).

    Issue time launches the runner (every send that can go goes, eagerly),
    ``test()`` advances it with nonblocking probes, ``wait()`` blocks
    through the rest, then ``combine`` (the ``"direct"`` fold) turns the
    runner's output into the result.  The arithmetic order is fixed by the
    runner and the fold, so *when* progress happens never affects the bits.

    An exchange or a receive completes from the peers' issue-time sends
    alone, so a fast rank can fire-and-forget many and drain them later,
    out of order.
    Later steps of a *driven* runner (a schedule) depend on peers making
    progress on the same schedule, so waiting on one first completes any
    earlier in-flight driven requests on the communicator (they cache
    their results in their own request objects) — the liveness rule that
    lets requests be waited in any order, mirroring an MPI progress engine.
    """

    def __init__(
        self,
        comm: "Communicator",
        runner: Any,
        opname: str,
        combine: Callable[[Any], Any] | None = None,
        collective: bool = True,
    ) -> None:
        self._comm = comm
        self._runner = runner
        self._opname = opname
        self._combine = combine
        self._collective = collective
        self._t_launch = perf_counter()
        runner.launch()
        if runner.driven:
            comm._inflight.append(self)

    @classmethod
    def completed(cls, result: Any = None) -> "_RunnerRequest":
        """A request born complete (eager ``isend``): nothing to drive."""
        req = cls.__new__(cls)
        req._done, req._result = True, result
        return req

    def _complete(self, out: Any, t_wait: float) -> None:
        comm = self._comm
        # The caller is blocked while the reduction arithmetic runs, so
        # combine time counts as wait, never as hidden communication.
        result = out if self._combine is None else self._combine(out)
        nbytes = payload_nbytes(result)
        if self._collective:
            comm.stats.record_wire(self._opname, self._runner)
        else:
            comm.stats.record_recv(nbytes)
        now = perf_counter()
        waited = now - t_wait
        overlapped = (now - self._t_launch) - waited
        comm.stats.record_async(
            self._opname, nbytes, waited, overlapped, collective=self._collective
        )
        if _trace.is_on():
            _trace.wait_span(self._opname, waited, overlapped, nbytes)
        if self._runner.driven:
            comm._inflight.remove(self)
        self._result = result
        self._done = True

    def _drain_predecessors(self, blocking: bool) -> None:
        if not self._runner.driven:
            return
        for req in list(self._comm._inflight):
            if req is self:
                break
            if blocking:
                req.wait()
            else:
                req.test()

    def wait(self) -> Any:
        if self._done:
            return self._result
        t0 = perf_counter()
        self._drain_predecessors(blocking=True)
        self._complete(self._runner.finish(), t0)
        return self._result

    def test(self) -> bool:
        if self._done:
            return True
        self._drain_predecessors(blocking=False)
        if self._runner.progress():
            self._complete(self._runner.finish(), perf_counter())
        return self._done


class Communicator:
    """A group of ranks with point-to-point and collective operations."""

    def __init__(
        self,
        world: BaseWorld,
        members: tuple[int, ...],
        rank: int,
        key: Any,
        knobs: tuple[str | None, Any] | None = None,
    ) -> None:
        self._world = world
        self._members = members
        self.rank = rank
        self.size = len(members)
        self._key = key
        self._coll_seq = 0  # collective sequence (matched across ranks)
        self._xchg_seq = 0  # pt2pt exchange-pattern sequence (matched across ranks)
        #: Staging buffers for the schedules' send segments (recycled once
        #: receivers drop their zero-copy views).
        self._alg_pool = BufferPool(max_buffers_per_key=4)
        #: In-flight scheduled nonblocking collectives, in issue order.
        self._inflight: list[_RunnerRequest] = []
        #: Lazy caches for the node-hierarchy view of this communicator
        #: (``False`` = not yet computed; the layout is immutable).
        self._hierarchy_cache: Any = False
        self._inter_flags_cache: tuple[bool, ...] | None = None
        #: The environment overrides as parsed for the world communicator;
        #: ``split``/``dup`` hand theirs down, so a job reads them once.
        self._knobs = _env_knobs() if knobs is None else knobs
        #: ``(op, algorithm knob, segment knob, element count, dtype)`` ->
        #: resolved reduction plan (:meth:`_reduction_plan`), so a repeated
        #: shape skips selection, compilation and the offset tables.
        self._plans: dict[tuple, tuple] = {}
        self.stats: CommStats = world.rank_stats(members[rank])

    # -- construction -------------------------------------------------------
    @classmethod
    def _world_comm(cls, world: BaseWorld, rank: int) -> "Communicator":
        return cls(world, tuple(range(world.size)), rank, key=("world",))

    # -- identity ------------------------------------------------------------
    @property
    def world_rank(self) -> int:
        """This rank's id in the global (world) communicator."""
        return self._members[self.rank]

    @property
    def members(self) -> tuple[int, ...]:
        """World ranks of this communicator's members, in comm-rank order."""
        return self._members

    @property
    def backend(self) -> str:
        """Name of the world backend this communicator runs on."""
        return self._world.backend_name

    def translate(self, comm_rank: int) -> int:
        """Map a rank of this communicator to its world rank."""
        return self._members[comm_rank]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Communicator(rank={self.rank}/{self.size}, "
            f"world_rank={self.world_rank}, backend={self.backend}, "
            f"key={self._key!r})"
        )

    # -- point-to-point -------------------------------------------------------
    def send(self, payload: Any, dest: int, tag: int = 0) -> None:
        """Eagerly send ``payload`` to comm-rank ``dest`` (never blocks).

        Contiguous arrays are handed over zero-copy: the buffer must not be
        mutated after the call.  Self-sends (``dest == self.rank``) are
        legal, as in buffered MPI.
        """
        self._check_peer(dest, "dest")
        frozen = freeze(payload)
        nbytes = payload_nbytes(frozen)
        self.stats.record_send(nbytes)
        tag_key = self._tag_key(tag)
        with _trace.span("send", cat="pt2pt", dest=dest, bytes=nbytes):
            _trace.flow_out(self._members[dest], tag_key)
            self._world.deliver(self.world_rank, self._members[dest], tag_key, frozen)

    def recv(self, source: int, tag: int = 0) -> Any:
        """Block until a message from comm-rank ``source`` with ``tag`` arrives."""
        self._check_peer(source, "source")
        tag_key = self._tag_key(tag)
        with _trace.span("recv", cat="pt2pt", source=source) as sp:
            payload = self._world.collect(self.world_rank, self._members[source], tag_key)
            _trace.flow_in(self._members[source], tag_key)
            nbytes = payload_nbytes(payload)
            sp.set(bytes=nbytes)
        self.stats.record_recv(nbytes)
        return payload

    def isend(self, payload: Any, dest: int, tag: int = 0) -> Request:
        """Nonblocking send.  Sends are eager, so the request is born complete."""
        self.send(payload, dest, tag=tag)
        return _RunnerRequest.completed()

    def irecv(self, source: int, tag: int = 0, *, opname: str = "irecv") -> Request:
        """Nonblocking receive; ``wait()`` returns the payload.

        ``opname`` labels the request in :class:`~repro.comm.stats.CommStats`
        so structured exchange patterns (e.g. the overlapped halo exchange)
        can surface their wait-vs-overlap split separately from generic
        point-to-point traffic.
        """
        self._check_peer(source, "source")
        return _RunnerRequest(
            self, _alg.Receive(self, opname, tag, source), opname, collective=False
        )

    def sendrecv(
        self,
        payload: Any,
        dest: int,
        source: int,
        send_tag: int = 0,
        recv_tag: int = 0,
    ) -> Any:
        """Combined send+receive; safe in any order because sends are eager."""
        self.send(payload, dest, tag=send_tag)
        return self.recv(source, tag=recv_tag)

    def _check_peer(self, peer: int, what: str) -> None:
        if not 0 <= peer < self.size:
            raise ValueError(
                f"{what}={peer} out of range for communicator of size {self.size}"
            )

    def next_exchange_seq(self) -> int:
        """Sequence number for one symmetric point-to-point exchange pattern.

        Structured exchanges (halo gathers) tag their messages with this
        sequence so concurrent or skewed exchanges on the same communicator
        can never mis-match.  Every rank must call it at the same logical
        point (once per exchange, in program order) — the same discipline
        MPI imposes on collective call order.
        """
        seq = self._xchg_seq
        self._xchg_seq += 1
        return seq

    def _tag_key(self, tag: int) -> Any:
        # Namespacing tags by communicator key keeps traffic on different
        # communicators (e.g. spatial group vs sample group) from colliding.
        return (self._key, tag)

    # -- algorithm selection --------------------------------------------------
    def _next_coll_seq(self) -> int:
        """Sequence number for one collective of any kind.

        Matched across ranks because every member issues a group's
        collectives in the same program order — the discipline MPI itself
        imposes — so the pt2pt tags they exchange under line up.
        """
        seq = self._coll_seq
        self._coll_seq += 1
        return seq

    def _knob(self, algorithm: Any, choices: set, opname: str) -> str:
        """Validate an ``algorithm=`` knob and apply the env override.

        ``REPRO_COLLECTIVE_ALG`` overrides every call site when its value
        is meaningful for the op (``direct`` always is — the global
        bitwise-reference mode); meaningless combinations (``binomial``
        for an allreduce) leave the op on its own resolution.
        """
        name = "auto" if algorithm is None else getattr(algorithm, "value", algorithm)
        if name not in choices:
            raise ValueError(
                f"unknown {opname} algorithm {name!r}; "
                f"expected one of {sorted(choices)}"
            )
        env = self._knobs[0]
        return env if env in choices else name

    # -- node hierarchy -------------------------------------------------------
    def hierarchy(self) -> tuple[tuple[int, ...], ...] | None:
        """This communicator's comm ranks grouped by logical node.

        Groups follow the world's host map (:meth:`BaseWorld.node_of`),
        ordered by node id with comm ranks ascending inside each group.
        Returns ``None`` unless the layout is *usable* for a two-level
        schedule: at least two nodes, at least two members per node, and
        the same member count on every node.  Without a host map all
        members share node 0, so flat single-machine runs see ``None``.
        """
        if self._hierarchy_cache is False:
            groups: dict[int, list[int]] = {}
            for comm_rank, member in enumerate(self._members):
                groups.setdefault(self._world.node_of(member), []).append(comm_rank)
            layout = tuple(tuple(groups[n]) for n in sorted(groups))
            usable = (
                len(layout) >= 2
                and len(layout[0]) >= 2
                and all(len(g) == len(layout[0]) for g in layout)
            )
            self._hierarchy_cache = layout if usable else None
        return self._hierarchy_cache

    def _two_tier(self) -> TwoTierTopology | None:
        """Two-tier cost-model topology of this communicator, or ``None``."""
        h = self.hierarchy()
        if h is None:
            return None
        return TwoTierTopology(nnodes=len(h), ranks_per_node=len(h[0]))

    def _inter_flags(self) -> tuple[bool, ...] | None:
        """Per-comm-rank flag: does that member live on another node?

        ``None`` when every member shares this rank's node (no inter-node
        wire to meter) — the schedule runners then skip the inter tally.
        """
        if self._inter_flags_cache is None:
            my_node = self._world.node_of(self.world_rank)
            flags = tuple(
                self._world.node_of(m) != my_node for m in self._members
            )
            self._inter_flags_cache = flags if any(flags) else ()
        return self._inter_flags_cache or None

    def _reduction_plan(
        self, opname: str, algorithm: Any, segment_bytes: Any, value: Any
    ) -> tuple:
        """How this communicator runs one allreduce of ``value``'s shape:
        ``(algorithm, steps, offsets, nseg)``, resolved once per distinct
        ``(op, algorithm knob, segment knob, element count, dtype)`` the way
        ``tensor/`` memoises a ``TransferPlan``.  ``steps is None`` means the
        ``"direct"`` exchange (always, for non-array payloads)."""
        if not isinstance(value, np.ndarray):
            self._knob(algorithm, _REDUCTION_ALG_CHOICES, opname)  # validate
            return _DIRECT_PLAN
        return self._array_plan(
            opname, algorithm, segment_bytes, value.size, value.dtype
        )

    def _array_plan(self, *key: Any) -> tuple:
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = self._plan_reduction(*key)
        return plan

    def owned_ranges(
        self,
        n: int,
        dtype: Any,
        *,
        algorithm: str | None = None,
        segment_bytes: int | str | None = None,
    ) -> tuple[tuple[int, int], ...]:
        """The element ranges ``[lo, hi)`` of an ``n``-element
        :meth:`iallreduce` (same knobs) whose fold completes on this rank:
        where its ``update`` map runs here, in the order it runs.  The
        ``"direct"`` exchange — and so a one-rank group — folds everything
        everywhere; recursive doubling finishes the whole buffer on every
        rank that takes part in the doubling; ring and Rabenseifner give each
        rank its own chunk (one per pipeline segment)."""
        _, steps, offsets, _ = self._array_plan(
            "iallreduce", algorithm, segment_bytes, n, np.dtype(dtype)
        )
        if steps is None:
            return ((0, n),) if n else ()
        return tuple(
            (offsets[st.lo], offsets[st.hi])
            for st in steps
            if st.done and st.kind == "recv_reduce" and offsets[st.hi] > offsets[st.lo]
        )

    def _plan_reduction(
        self, opname: str, algorithm: Any, segment_bytes: Any, n: int, dtype: np.dtype
    ) -> tuple:
        """Resolve the knobs for ``n`` elements of ``dtype`` and compile.

        With a resolved segment size that splits the payload into
        ``nseg >= 2`` segments, the compiled schedule is expanded
        step-major over the :func:`~repro.comm.algorithms.segmented_offsets`
        table (:func:`~repro.comm.algorithms.segment_steps`), so segment
        ``k+1`` is on the wire while ``k`` reduces; ``nseg <= 1`` leaves
        the base schedule untouched — bitwise-identical to the
        unsegmented path.
        """
        alg = self._knob(algorithm, _REDUCTION_ALG_CHOICES, opname)
        if self.size == 1 or dtype == object:
            return _DIRECT_PLAN
        nbytes = n * dtype.itemsize
        if alg == "auto":
            alg = resolve_allreduce_algorithm(
                "auto", self.size, nbytes, self._two_tier()
            )
        elif alg == HIERARCHICAL_ALGORITHM and self.hierarchy() is None:
            # Forced hierarchical without a usable node layout (no host
            # map, non-uniform groups, or a single node): fall back to the
            # flat model-driven choice rather than fail the collective.
            alg = resolve_allreduce_algorithm("auto", self.size, nbytes)
        if alg == "direct":
            return _DIRECT_PLAN
        if alg == HIERARCHICAL_ALGORITHM:
            h = self.hierarchy()
            inter = select_inter_algorithm(len(h), max(1.0, nbytes / len(h[0])))
            steps = _alg.compile_hierarchical_allreduce(h, inter.value)[self.rank]
        else:
            steps = _alg.compile_allreduce(self.size, alg)[self.rank]
        seg = self._resolve_segment_bytes(segment_bytes, nbytes, alg)
        nseg = len(segment_sizes(nbytes, seg)) if seg else 0
        if nseg <= 1:
            return alg, steps, _alg.chunk_offsets(n, self.size), 0
        return (
            alg,
            _alg.segment_steps(steps, self.size, nseg),
            _alg.segmented_offsets(n, self.size, nseg),
            nseg,
        )

    def _resolve_segment_bytes(
        self, segment_bytes: Any, nbytes: int, alg: str
    ) -> int | None:
        """Normalize a ``segment_bytes`` knob to a concrete byte count.

        ``None`` → unsegmented (the pre-segmentation schedules, bitwise);
        ``"auto"`` → the cost model's
        :func:`~repro.comm.collective_models.select_segment_bytes`
        minimization for this ``(p, nbytes, algorithm)``; an integer
        forces that size.  :data:`SEGMENT_BYTES_ENV` overrides the call
        site.
        """
        if self._knobs[1] is not _NO_OVERRIDE:
            segment_bytes = self._knobs[1]
        elif isinstance(segment_bytes, str):
            segment_bytes = _parse_segment_bytes(segment_bytes)
        if segment_bytes is None:
            return None
        if segment_bytes == "auto":
            return select_segment_bytes(self.size, nbytes, algorithm=alg)
        seg = int(segment_bytes)
        if seg < 1:
            raise ValueError(
                f"segment_bytes must be a positive byte count, got {seg}"
            )
        return seg

    def _reduction_runner(
        self,
        opname: str,
        plan: tuple,
        value: np.ndarray,
        op: str,
        owns_buffer: bool = False,
        update: Callable[[int, int, np.ndarray, np.ndarray], None] | None = None,
        out: np.ndarray | None = None,
    ) -> "_alg.ScheduleRunner":
        """The schedule runner for one scheduled reduction under ``plan``.

        ``owns_buffer``: the runner may reduce in place in ``value`` (a
        donated contribution) instead of in a private copy; ``update`` and
        ``out``: the fused map (:meth:`iallreduce`).
        """
        _, steps, offsets, nseg = plan
        if nseg:
            self.stats.record_segments(opname, nseg)
        return _alg.ScheduleRunner(
            self, opname, steps, value, _reduce_fn(op), self._next_coll_seq(),
            offsets=offsets, owns_buffer=owns_buffer,
            inter_peers=self._inter_flags(), ufunc=_REDUCE_UFUNCS.get(op),
            update=update, out=out,
        )

    def _resolve_tree(self, algorithm: Any, opname: str) -> str:
        name = self._knob(algorithm, _TREE_ALG_CHOICES, opname)
        if self.size == 1:
            return "direct"
        return "binomial" if name == "auto" else name

    def _progress_inflight(self) -> None:
        """Advance pending scheduled collectives without blocking.

        Called on entry to the blocking ``"direct"`` collectives: a rank
        about to block on its peers first pushes its in-flight schedules
        as far as the already-arrived messages allow, so peers driving
        those schedules keep receiving segments.  (The SPMD discipline
        still requires every rank to eventually wait each scheduled
        request — a rank that abandons one can starve peers that wait it.)
        """
        for req in list(self._inflight):
            req.test()

    def _route(self, opname: str, tag_class: str) -> tuple[str, Any, Any]:
        """Label, tag and inter-node flags for the endpoint of one
        collective (bumps the sequence every member bumps in step)."""
        seq = self._next_coll_seq()
        return (
            f"{opname}[seq={seq}]", self._tag_key((tag_class, seq)),
            self._inter_flags(),
        )

    def _exchange(self, opname: str, payloads: list[Any]) -> "_alg.Exchange":
        """The ``"direct"`` transport: frozen ``payloads[j]`` to rank ``j``."""
        return _alg.Exchange(self, *self._route(opname, "#coll"), payloads)

    def _collective(
        self,
        opname: str,
        alg: str,
        t: Any,
        run: Callable[[], Any],
        nbytes: int | None = None,
    ) -> Any:
        """One blocking collective and all of its accounting: the ``coll``
        span around ``run()``, then the wire row from the tally of ``t``
        (the runner or endpoint ``run`` moves bytes over) and the logical
        row — ``nbytes``, or the size of what ``run`` returned."""
        with _trace.span(opname, cat="coll", alg=alg) as sp:
            out = run()
            if nbytes is None:
                nbytes = payload_nbytes(out)
            sp.set(bytes=nbytes)
        self.stats.record_wire(opname, t)
        self.stats.record_collective(opname, nbytes)
        return out

    def _direct(
        self,
        opname: str,
        payloads: list[Any],
        combine: Callable[[list[Any]], Any] | None = None,
        nbytes: int | None = None,
    ) -> Any:
        """Blocking ``"direct"`` collective over detached ``payloads``: an
        unlaunched exchange's ``finish()`` is issue + wait (no issue-time
        probes, no wait/overlap row), then the fold."""
        exchange = self._exchange(opname, payloads)

        def run() -> Any:
            self._progress_inflight()
            out = exchange.finish()
            return out if combine is None else combine(out)

        return self._collective(opname, "direct", exchange, run, nbytes)

    def _detached(self, payload: Any) -> Any:
        """Freeze a contribution to a *blocking* ``"direct"`` collective.

        The call returns once the peers' pieces are in — not once the
        peers have read this rank's — yet a blocking collective's send
        buffer is the caller's to reuse on return.  On a zero-copy
        transport the piece therefore must not alias it: one private copy
        per call, fanned out to every peer.  Transports that copy on send
        need none.
        """
        if self.size > 1 and not getattr(self._world, "copies_on_send", False):
            payload = private(payload)
        return freeze(payload)

    def _detached_pieces(self, payloads: Sequence[Any]) -> list[Any]:
        """Per-destination pieces of a blocking ``"direct"`` collective
        (this rank's own piece never leaves, so it is only frozen)."""
        return [
            freeze(p) if j == self.rank else self._detached(p)
            for j, p in enumerate(payloads)
        ]

    def _rooted(
        self, opname: str, alg: str, root: int
    ) -> tuple["_alg.TreeNode", "_alg.Endpoint", Callable[[Any], Any]]:
        """This rank's tree position, pt2pt endpoint and send-side freeze
        for one rooted collective: ``"direct"`` is the one-hop star
        (``#coll`` traffic, detached contributions), ``"binomial"`` the
        compiled tree (``#alg``)."""
        if alg == "direct":
            self._progress_inflight()
            nodes = _alg.compile_star(self.size, root)
        else:
            nodes = _alg.compile_tree(self.size, root)
        t = _alg.Endpoint(
            self, *self._route(opname, "#coll" if alg == "direct" else "#alg")
        )
        return nodes[self.rank], t, self._detached if alg == "direct" else freeze

    # -- collectives ------------------------------------------------------------
    def barrier(self) -> None:
        with _trace.span("barrier", cat="coll"):
            self._progress_inflight()
            # An exchange of nothing: no request, so no wire row either.
            self._exchange("barrier", [None] * self.size).finish()

    def bcast(
        self, payload: Any, root: int = 0, *, algorithm: str | None = None
    ) -> Any:
        """Broadcast ``root``'s payload to every member.

        ``algorithm``: ``"binomial"`` (the default via ``"auto"``) routes
        the payload down a binomial tree in ``⌈lg p⌉`` point-to-point
        rounds, so the root sends ``⌈lg p⌉`` copies instead of ``p - 1``;
        ``"direct"`` sends root -> everyone in one hop.  Both are pure
        routing — results are bitwise identical either way.
        """
        self._check_peer(root, "root")
        alg = self._resolve_tree(algorithm, "bcast")
        node, t, frozen = self._rooted("bcast", alg, root)
        mine = frozen(payload) if self.rank == root else None
        return self._collective(
            "bcast", alg, t, lambda: private(_alg.run_tree_bcast(t, node, mine))
        )

    def gather(
        self, payload: Any, root: int = 0, *, algorithm: str | None = None
    ) -> list[Any] | None:
        """Gather every member's payload at ``root`` (comm-rank order).

        ``"binomial"`` (the default via ``"auto"``) merges subtree bundles
        up a binomial tree; ``"direct"`` ships every contribution straight
        to the root.  Pure routing — bitwise identical either way.  The
        root's stats row accounts the full gathered volume (non-roots
        their own contribution), so ``comm_report`` rows line up with the
        transport counters.
        """
        self._check_peer(root, "root")
        alg = self._resolve_tree(algorithm, "gather")
        node, t, frozen = self._rooted("gather", alg, root)
        return self._collective(
            "gather", alg, t,
            lambda: _alg.run_tree_gather(t, node, frozen(payload)),
            None if self.rank == root else payload_nbytes(payload),
        )

    def scatter(
        self,
        payloads: Sequence[Any] | None,
        root: int = 0,
        *,
        algorithm: str | None = None,
    ) -> Any:
        """Distribute ``payloads[j]`` from ``root`` to comm-rank ``j``.

        ``"binomial"`` (the default via ``"auto"``) sends each child its
        subtree's bundle down a binomial tree; ``"direct"`` ships from the
        root directly.  Pure routing — bitwise identical either way.  The
        root's stats row accounts all scattered pieces (non-roots their
        received piece).
        """
        self._check_peer(root, "root")
        if self.rank == root:
            if payloads is None or len(payloads) != self.size:
                raise ValueError(
                    f"scatter root must supply exactly {self.size} payloads"
                )
        alg = self._resolve_tree(algorithm, "scatter")
        node, t, frozen = self._rooted("scatter", alg, root)
        pieces = frozen(list(payloads)) if self.rank == root else None
        return self._collective(
            "scatter", alg, t,
            lambda: private(_alg.run_tree_scatter(t, node, pieces)),
            payload_nbytes(pieces) if self.rank == root else None,
        )

    def allgather(self, payload: Any) -> list[Any]:
        """Gather every member's payload at every member (comm-rank order).

        One ``"direct"`` exchange: the frozen payload is fanned out to
        every peer.  Pure routing — heterogeneous payloads of any type and
        per-rank size (uneven shards, even empty ones) route unchanged.
        """
        return self._direct(
            "allgather", [self._detached(payload)] * self.size,
            nbytes=payload_nbytes(payload),
        )

    def alltoall(self, payloads: Sequence[Any]) -> list[Any]:
        """``payloads[j]`` is sent to comm-rank ``j``; returns what each rank sent us."""
        if len(payloads) != self.size:
            raise ValueError(f"alltoall requires exactly {self.size} payloads")
        return self._direct(
            "alltoall", self._detached_pieces(payloads),
            nbytes=sum(
                payload_nbytes(p) for i, p in enumerate(payloads) if i != self.rank
            ),
        )

    def ialltoall(self, payloads: Sequence[Any]) -> Request:
        """Nonblocking all-to-all: sends immediately, returns a handle.

        ``wait()`` blocks only until every member's piece has arrived (never
        until they have read theirs) — bitwise identical to
        :meth:`alltoall`, the same exchange with the wait deferred, so a
        fast rank keeps computing while peers are still producing their
        payloads.  All members must issue their nonblocking collectives on
        a communicator in the same order.
        """
        if len(payloads) != self.size:
            raise ValueError(f"alltoall requires exactly {self.size} payloads")
        return _RunnerRequest(
            self, self._exchange("ialltoall", [freeze(p) for p in payloads]),
            "ialltoall",
        )

    def reduce(
        self,
        value: Any,
        op: str = "sum",
        root: int = 0,
        *,
        algorithm: str | None = None,
    ) -> Any | None:
        """Rooted reduction: the result lands at ``root``, ``None`` elsewhere.

        Historically this ran a full allreduce and threw the result away
        on non-roots — allreduce wire volume for a rooted op.  It is now a
        genuinely rooted collective recorded under its own ``"reduce"``
        stats: ``"direct"`` gathers every contribution at the root in one
        hop (non-roots move just their own payload) and folds in comm-rank
        order — bitwise identical to the ``"direct"`` allreduce — while
        ``"binomial"`` (the default via ``"auto"`` for array payloads)
        folds up a binomial tree, each node combining its children in
        ascending relative rank, so non-roots move ``O(n log p)`` and the
        root receives ``⌈lg p⌉`` messages instead of ``p - 1``.
        """
        self._check_peer(root, "root")
        fn = _reduce_fn(op)
        alg = self._resolve_tree(algorithm, "reduce")
        if alg == "binomial" and not _schedulable_array(value):
            alg = "direct"
        node, t, frozen = self._rooted("reduce", alg, root)

        def run() -> Any:
            if alg == "binomial":
                return _alg.run_tree_reduce(t, node, value, fn)
            slots = _alg.run_tree_gather(t, node, frozen(value))
            return self._reduce_combine(fn)(slots) if slots else None

        return self._collective("reduce", alg, t, run, payload_nbytes(value))

    @staticmethod
    def _reduce_combine(fn: Callable[[Any, Any], Any]) -> Callable[[list[Any]], Any]:
        """Fold slots in comm-rank order (bitwise-deterministic)."""

        def combine(slots: list[Any]) -> Any:
            if len(slots) == 1:
                return private(slots[0])
            acc = fn(slots[0], slots[1])
            for s in slots[2:]:
                acc = fn(acc, s)
            return acc

        return combine

    def allreduce(
        self,
        value: Any,
        op: str = "sum",
        *,
        algorithm: str | None = None,
        segment_bytes: int | str | None = None,
    ) -> Any:
        """Element-wise reduction over every member.

        ``segment_bytes`` pipelines a *scheduled* algorithm: the payload is
        split into near-equal segments (the cost model's ``segment_sizes``)
        and every schedule step runs per segment, so segment ``k+1`` is on
        the wire while ``k`` reduces.  ``None`` (default) keeps the whole
        schedule — bitwise-identical to the unsegmented path; ``"auto"``
        applies the model's ``select_segment_bytes`` minimization; an
        integer forces that segment size.  The ``REPRO_SEGMENT_BYTES``
        environment variable overrides the knob globally.  Segmentation
        never changes the per-segment reduction order (the base
        algorithm's documented order applies to each segment
        independently), so segmented results remain allclose to
        ``"direct"`` and deterministic for a given
        ``(algorithm, p, nseg)``; ``"direct"`` itself never segments.

        ``algorithm`` selects how the payload moves on the wire:

        * ``None``/``"auto"`` — model-driven selection (the same
          Thakur-style rule the cost model prices): recursive doubling for
          small payloads, Rabenseifner for large power-of-two groups, ring
          otherwise;
        * ``"ring"`` / ``"rabenseifner"`` / ``"recursive_doubling"`` —
          force one of the chunked point-to-point schedules
          (:mod:`repro.comm.algorithms`), ``2n(p-1)/p`` bytes per rank for
          the bandwidth-optimal pair;
        * ``"hierarchical"`` — the two-level composition (intra-node ring
          reduce-scatter → inter-node allreduce over same-local-index
          counterparts → intra-node allgather), same ``2n(p-1)/p`` total
          volume but only ``2(n/k)(m-1)/m`` of it on the inter-node wire.
          Requires a usable node layout (:meth:`hierarchy`); without one
          it falls back to the flat ``"auto"`` choice.  ``"auto"`` picks
          it by itself when the world carries a host map and the two-tier
          cost model favors the composition;
        * ``"direct"`` — every member sends its whole contribution to
          every peer and folds in comm-rank order: the bitwise-reference
          mode (``n(p-1)`` per rank on the wire).

        Non-array payloads (scalars, tuples, object arrays) always take
        ``"direct"``.  Every mode is deterministic across runs and
        backends; the scheduled modes match ``"direct"`` to floating-point
        *allclose* (their documented reduction orders differ).  The
        ``REPRO_COLLECTIVE_ALG`` environment variable overrides the knob
        globally.
        """
        plan = self._reduction_plan("allreduce", algorithm, segment_bytes, value)
        if plan is _DIRECT_PLAN:
            return self._direct(
                "allreduce", [self._detached(value)] * self.size,
                self._reduce_combine(_reduce_fn(op)),
            )
        runner = self._reduction_runner("allreduce", plan, value, op)
        return self._collective(
            "allreduce", plan[0], runner, runner.finish, value.nbytes
        )

    def iallreduce(
        self,
        value: Any,
        op: str = "sum",
        *,
        algorithm: str | None = None,
        segment_bytes: int | str | None = None,
        donate: bool = False,
        update: Callable[[int, int, np.ndarray, np.ndarray], None] | None = None,
        out: np.ndarray | None = None,
    ) -> Request:
        """Nonblocking allreduce: returns a handle immediately.

        ``donate=True`` gives ``value``'s memory to the operation (the
        ``MPI_IN_PLACE`` analogue): the caller must not read or write it
        again, a scheduled algorithm reduces in it instead of in a private
        copy, and the result may alias it.  Without it the caller's array
        is only ever read.

        ``update(lo, hi, reduced, dst)`` fuses an element-wise map into the
        reduction (Das et al.'s part-reduce / part-broadcast): a rank maps
        the elements whose fold finished on it — :meth:`owned_ranges` says
        which — with ``reduced`` the reduced slice ``[lo, hi)`` and ``dst``
        the same slice of ``out`` (a C-contiguous array of ``value``'s
        size; default: the reduced buffer itself) to write the mapped
        values to.  The allgather half then
        carries mapped values, and the result is ``out``.  On a scheduled
        algorithm the map runs between the reduce-scatter and the
        allgather, on this rank's chunks only; ``"direct"`` maps the whole
        folded buffer on every rank.  Wire bytes, messages and the reduced
        values the map sees are exactly the plain allreduce's.

        ``algorithm`` and ``segment_bytes`` select the wire path exactly
        as in :meth:`allreduce` — a segmented schedule gives ``test()``
        finer progress granularity on top of the in-schedule pipelining
        (each probe can land one segment instead of one whole chunk).
        With ``"direct"``, the call sends its contribution to every
        peer and ``wait()`` blocks only until every member's has arrived,
        then folds in comm-rank order — bitwise identical to the blocking
        ``"direct"`` allreduce.  With a scheduled algorithm,
        the first segments are sent eagerly at issue time and the
        remaining steps progress on ``test()``/``wait()``; requests may be
        waited in any order (waiting one first completes earlier in-flight
        scheduled collectives — see :class:`_RunnerRequest`).  All
        members must issue their nonblocking collectives in the same
        order, as always — and, unlike the fire-and-forget-able
        ``"direct"`` exchanges, every member must eventually ``wait()`` (or
        ``test()`` to completion) each *scheduled* request: later segments
        only move when their owner drives them, so a rank that abandons
        one can starve peers that wait it.
        """
        plan = self._reduction_plan("iallreduce", algorithm, segment_bytes, value)
        if plan is _DIRECT_PLAN:
            combine = self._reduce_combine(_reduce_fn(op))
            if update is not None:
                combine = partial(_mapped, combine, update, out)
            return _RunnerRequest(
                self, self._exchange("iallreduce", [freeze(value)] * self.size),
                "iallreduce", combine,
            )
        runner = self._reduction_runner(
            "iallreduce", plan, value, op, donate, update, out
        )
        return _RunnerRequest(self, runner, "iallreduce")

    def reduce_scatter(
        self, parts: Sequence[Any], op: str = "sum", *, algorithm: str | None = None
    ) -> Any:
        """``parts[j]`` is this rank's contribution destined for rank ``j``.

        Returns the reduction, over all ranks, of their contribution for
        *this* rank.  This is the primitive channel-parallel convolution
        uses to combine partial sums over the channel group (paper §III-D).

        ``algorithm``: ``"ring"`` (the default via ``"auto"`` when every
        part is an ndarray of one dtype) circulates partial sums around
        the ring — part ``j`` is folded in ring order starting at rank
        ``j + 1`` — moving the same ``(p-1)/p`` volume as ``"direct"`` but
        as a pipelined schedule; ``"direct"`` ships each piece to its
        destination and folds in comm-rank order (bitwise reference).
        """
        if len(parts) != self.size:
            raise ValueError(f"reduce_scatter requires exactly {self.size} parts")
        fn = _reduce_fn(op)
        alg = self._knob(algorithm, _RS_ALG_CHOICES, "reduce_scatter")
        if (
            self.size == 1
            or not all(_schedulable_array(x) for x in parts)
            or len({x.dtype for x in parts}) != 1
        ):
            alg = "direct"
        elif alg == "auto":
            alg = "ring"

        if alg != "ring":
            # Each member receives only the pieces destined for it and
            # folds them in comm-rank order.
            return self._direct(
                "reduce_scatter", self._detached_pieces(parts),
                self._reduce_combine(fn),
            )
        flat = np.concatenate(
            [np.ascontiguousarray(x).reshape(-1) for x in parts]
        )
        offsets = [0]
        for x in parts:
            offsets.append(offsets[-1] + x.size)
        steps = _alg.compile_reduce_scatter(self.size)[self.rank]
        runner = _alg.ScheduleRunner(
            self, "reduce_scatter", steps, flat, fn,
            self._next_coll_seq(), offsets=tuple(offsets),
            owns_buffer=True,  # just built above: nobody else holds it
            inter_peers=self._inter_flags(),
            ufunc=_REDUCE_UFUNCS.get(op),
        )
        lo, hi = offsets[self.rank], offsets[self.rank + 1]
        return self._collective(
            "reduce_scatter", "ring", runner,
            lambda: runner.finish()[lo:hi].reshape(parts[self.rank].shape),
        )

    # -- sub-communicators ----------------------------------------------------
    def split(self, color: int | None, key: int | None = None) -> "Communicator | None":
        """Partition the communicator by ``color``; order new ranks by ``key``.

        Ranks passing ``color=None`` receive ``None`` (MPI_UNDEFINED).  All
        members must call ``split`` (it is collective).
        """
        # Every collective bumps this sequence, whatever algorithm moves
        # it, so consecutive splits can never derive the same child key.
        seq = self._coll_seq
        sort_key = key if key is not None else self.rank
        infos = self.allgather((color, sort_key))

        if color is None:
            return None
        group = sorted(
            (
                (info_key, comm_rank)
                for comm_rank, (info_color, info_key) in enumerate(infos)
                if info_color == color
            ),
        )
        new_members = tuple(self._members[comm_rank] for _, comm_rank in group)
        new_rank = new_members.index(self.world_rank)
        new_key = (self._key, "split", seq, color)
        return Communicator(self._world, new_members, new_rank, new_key, self._knobs)

    def dup(self) -> "Communicator":
        """Duplicate this communicator (fresh collective context and tags)."""
        seq = self._coll_seq
        self.barrier()
        return Communicator(
            self._world, self._members, self.rank, (self._key, "dup", seq), self._knobs
        )
