"""MPI-style communicator over a pluggable SPMD world backend.

The interface mirrors mpi4py's lower-case (object) API: payloads are Python
objects, collectives combine contributions in deterministic comm-rank order
so runs are bit-reproducible for a fixed rank count — on *either* backend:
the communicator is backend-agnostic and talks to the world only through
the :class:`~repro.comm.backend.BaseWorld` pt2pt mailbox
(``deliver``/``collect``/``try_collect``), so every collective runs the
same arithmetic on the same comm-rank order whether ranks are threads or
processes.

**Copy discipline** — one rule: *``deliver`` copies; the caller may reuse
a buffer once a send or blocking collective returns.*  Every sent array is
copied exactly once, by the transport (``BaseWorld.deliver``), before the
send returns: the thread world into a read-only private array
(:func:`~repro.comm.payload.freeze`), the forked world into the
shared-memory arena or a frame.  Received arrays are read-only; a
``bcast`` result is a private writable copy.  A nonblocking operation's
buffers stay the operation's until ``wait()`` returns.  The exceptions to
"one copy, by ``deliver``":

====================  ==========================  ===========================
mechanism             who copies, when            who frees / how long it lives
====================  ==========================  ===========================
sink                  nobody: a scheduled         the transport, right after
(``collect(sink=)``)  receive is folded or        the sink returns; an unsunk
                      placed into the working     receive gets a private
                      buffer where it landed      read-only array instead
donated buffer        nobody: the runner reduces  the caller gave it up; the
(``iallreduce(        in the array it is given    result is that memory
donate=True)``,       or just built; otherwise
``owns_buffer``)      one working copy at issue
own slot              the caller's rank, once     garbage-collected with the
(blocking             (``freeze``): the result    result
``allgather``)        must not alias the buffer
                      the caller may reuse
``payload.private``   the receiver, once          the receiver (``bcast``
                                                  results are writable)
arena early copy-out  the receiver, at drain      the receiver: the arena
(process / socket     time, when the arena is     blocks are freed at once
intra-node)           over half full
                      (``proc_backend._Inbox``)
====================  ==========================  ===========================

``freeze`` and ``private`` are :func:`repro.comm.payload.map_arrays` — the
one walk over tuple/list/dict — so they reach the same arrays.

Semantics implemented — what the engine calls, and nothing else:

* eager buffered ``send``/``recv`` matched on ``(source, tag)``;
* ``barrier``, ``bcast`` (the one rooted op: a one-hop star from the
  root), ``allgather``, ``allreduce``;
* **nonblocking** ``irecv``/``iallreduce`` returning :class:`Request`
  handles with MPI-style ``wait()``/``test()``; any number of requests may
  be in flight per communicator and they may be completed out of order.
  This is the primitive the training engine uses to overlap the dL/dw
  allreduces with backpropagation (paper §IV);
* ``split(color, key)`` creating sub-communicators, the building block for
  the sample-group × spatial-group process grids of the paper's hybrid
  sample/spatial parallelism;
* **algorithmic wire schedules**: ``allreduce``/``iallreduce`` take an
  ``algorithm=`` knob (``"auto"`` → the cost model's Thakur-style
  selection; ``REPRO_COLLECTIVE_ALG`` overrides globally) that compiles
  ring / Rabenseifner / recursive-doubling / hierarchical schedules onto
  the point-to-point transport (:mod:`repro.comm.algorithms`), cutting an
  allreduce's per-rank wire volume from ``n(p-1)`` to ``2n(p-1)/p``; a
  call runs its one compiled schedule whole, over ``p`` chunks;
  ``"direct"`` — an all-to-all :class:`~repro.comm.algorithms.Exchange`
  of whole contributions followed by the ascending-comm-rank fold — is
  the bitwise-reference mode.
"""

from __future__ import annotations

import os
from functools import partial
from time import perf_counter
from typing import Any, Callable

import numpy as np

from repro.comm import algorithms as _alg
from repro.comm.backend import BaseWorld
from repro.comm.collective_models import (
    HIERARCHICAL_ALGORITHM,
    TwoTierTopology,
    select_allreduce_algorithm,
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

#: Environment override for the allreduce ``algorithm=`` knob: set to
#: ``direct`` for the bitwise-reference mode (every contribution is
#: exchanged whole and folded in comm-rank order), to ``ring`` /
#: ``rabenseifner`` / ``recursive_doubling`` / ``hierarchical`` to force a
#: schedule, or to ``auto`` for model-driven selection.  Anything else
#: fails loudly.
COLLECTIVE_ALG_ENV = "REPRO_COLLECTIVE_ALG"

#: Every name the ``algorithm=`` knob and its env override may carry;
#: anything else is a typo and must fail loudly rather than silently
#: disable the override.
_ALG_CHOICES = {
    "auto", "direct", HIERARCHICAL_ALGORITHM, *_alg.REDUCTION_ALGORITHMS
}


def _env_algorithm() -> str | None:
    """``REPRO_COLLECTIVE_ALG``, validated — ``None`` when unset.  Read
    once, when a job's world communicator is built (set it before
    ``run_spmd``); a typo raises there, naming the variable."""
    alg = os.environ.get(COLLECTIVE_ALG_ENV) or None
    if alg is not None and alg not in _ALG_CHOICES:
        raise ValueError(
            f"{COLLECTIVE_ALG_ENV}={alg!r} names no allreduce "
            f"algorithm; expected one of {sorted(_ALG_CHOICES)}"
        )
    return alg


#: A reduction plan is ``(algorithm, this rank's compiled steps)``; this one
#: says "take the ``"direct"`` exchange".
_DIRECT_PLAN = ("direct", None)


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


class Request:
    """Handle to an in-flight nonblocking operation (MPI_Request analogue).

    ``wait()`` blocks until the operation completes and returns its
    result.  ``test()`` polls without blocking and returns
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
        alg_override: str | None,
    ) -> None:
        self._world = world
        self._members = members
        self.rank = rank
        self.size = len(members)
        self._key = key
        self._coll_seq = 0  # collective sequence (matched across ranks)
        self._xchg_seq = 0  # pt2pt exchange-pattern sequence (matched across ranks)
        #: In-flight scheduled nonblocking collectives, in issue order.
        self._inflight: list[_RunnerRequest] = []
        #: Lazy caches for the node-hierarchy view of this communicator
        #: (``False`` = not yet computed; the layout is immutable).
        self._hierarchy_cache: Any = False
        self._inter_flags_cache: tuple[bool, ...] | None = None
        #: ``REPRO_COLLECTIVE_ALG`` as read for the world communicator;
        #: ``split`` hands it down, so a job reads it once.
        self._alg_override = alg_override
        #: ``(op, algorithm knob, element count, dtype)`` ->
        #: resolved reduction plan (:meth:`_reduction_plan`), so a repeated
        #: shape skips selection and compilation.
        self._plans: dict[tuple, tuple] = {}
        self.stats: CommStats = world.rank_stats(members[rank])

    # -- construction -------------------------------------------------------
    @classmethod
    def _world_comm(cls, world: BaseWorld, rank: int) -> "Communicator":
        return cls(
            world, tuple(range(world.size)), rank, ("world",), _env_algorithm()
        )

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Communicator(rank={self.rank}/{self.size}, "
            f"world_rank={self.world_rank}, backend={self.backend}, "
            f"key={self._key!r})"
        )

    # -- point-to-point -------------------------------------------------------
    def send(self, payload: Any, dest: int, tag: int = 0) -> None:
        """Eagerly send ``payload`` to comm-rank ``dest`` (never blocks).

        The transport copies the payload before the call returns, so the
        caller may reuse its buffers at once.  Self-sends
        (``dest == self.rank``) are legal, as in buffered MPI.
        """
        self._check_peer(dest, "dest")
        nbytes = payload_nbytes(payload)
        self.stats.record_send(nbytes)
        tag_key = self._tag_key(tag)
        with _trace.span("send", cat="pt2pt", dest=dest, bytes=nbytes):
            _trace.flow_out(self._members[dest], tag_key)
            self._world.deliver(self.world_rank, self._members[dest], tag_key, payload)

    def recv(self, source: int, tag: int = 0) -> Any:
        """Block until a message from comm-rank ``source`` with ``tag``
        arrives: an :meth:`irecv` waited at once, booked as ``"recv"``."""
        return self.irecv(source, tag, opname="recv").wait()

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

    def _knob(self, algorithm: Any, opname: str) -> str:
        """Validate an ``algorithm=`` knob; ``REPRO_COLLECTIVE_ALG``, when
        set, overrides every call site."""
        name = "auto" if algorithm is None else algorithm
        if name not in _ALG_CHOICES:
            raise ValueError(
                f"unknown {opname} algorithm {name!r}; "
                f"expected one of {sorted(_ALG_CHOICES)}"
            )
        return self._alg_override or name

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

    def _reduction_plan(self, opname: str, algorithm: Any, value: Any) -> tuple:
        """How this communicator runs one allreduce of ``value``'s shape:
        ``(algorithm, steps)``, resolved once per distinct ``(op, algorithm
        knob, element count, dtype)`` the way ``tensor/`` memoises a
        ``TransferPlan``.  ``steps is None`` means the ``"direct"`` exchange
        (always, for non-array payloads)."""
        if not isinstance(value, np.ndarray):
            self._knob(algorithm, opname)  # validate
            return _DIRECT_PLAN
        return self._array_plan(opname, algorithm, value.size, value.dtype)

    def _array_plan(self, *key: Any) -> tuple:
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = self._plan_reduction(*key)
        return plan

    def owned_range(
        self, n: int, dtype: Any, *, algorithm: str | None = None
    ) -> tuple[int, int] | None:
        """The element range ``[lo, hi)`` of an ``n``-element
        :meth:`iallreduce` (same knob) whose fold completes on this rank —
        where its ``update`` map runs here — or ``None`` if none does.  The
        ``"direct"`` exchange — and so a one-rank group — folds everything
        everywhere; recursive doubling finishes the whole buffer on every
        rank that takes part in the doubling and nothing on a rank its fold
        leaves out; ring and Rabenseifner give each rank its own chunk."""
        _, steps = self._array_plan("iallreduce", algorithm, n, np.dtype(dtype))
        if steps is None:
            return (0, n) if n else None
        offsets = _alg.chunk_offsets(n, self.size)
        for st in steps:
            if st.done and st.kind == "recv_reduce":
                lo, hi = offsets[st.lo], offsets[st.hi]
                return (lo, hi) if hi > lo else None
        return None

    def _plan_reduction(
        self, opname: str, algorithm: Any, n: int, dtype: np.dtype
    ) -> tuple:
        """Resolve the knob for ``n`` elements of ``dtype`` and compile."""
        alg = self._knob(algorithm, opname)
        if self.size == 1 or dtype == object:
            return _DIRECT_PLAN
        nbytes = n * dtype.itemsize
        if alg == "auto":
            alg = select_allreduce_algorithm(self.size, nbytes, self._two_tier())
        elif alg == HIERARCHICAL_ALGORITHM and self.hierarchy() is None:
            # Forced hierarchical without a usable node layout (no host
            # map, non-uniform groups, or a single node): fall back to the
            # flat model-driven choice rather than fail the collective.
            alg = select_allreduce_algorithm(self.size, nbytes)
        if alg == "direct":
            return _DIRECT_PLAN
        if alg == HIERARCHICAL_ALGORITHM:
            h = self.hierarchy()
            inter = select_allreduce_algorithm(len(h), nbytes / len(h[0]))
            steps = _alg.compile_hierarchical_allreduce(h, inter)[self.rank]
        else:
            steps = _alg.compile_allreduce(self.size, alg)[self.rank]
        return alg, steps

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
        return _alg.ScheduleRunner(
            self, opname, plan[1], value, _reduce_fn(op), self._next_coll_seq(),
            owns_buffer=owns_buffer, inter_peers=self._inter_flags(),
            ufunc=_REDUCE_UFUNCS.get(op), update=update, out=out,
        )

    def _progress_inflight(self) -> None:
        """Advance pending scheduled collectives without blocking.

        Called on entry to the blocking ``"direct"`` collectives: a rank
        about to block on its peers first pushes its in-flight schedules
        as far as the already-arrived messages allow, so peers driving
        those schedules keep receiving chunks.  (The SPMD discipline
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
        """Blocking ``"direct"`` collective over ``payloads``: an
        unlaunched exchange's ``finish()`` is issue + wait (no issue-time
        probes, no wait/overlap row), then the fold."""
        exchange = self._exchange(opname, payloads)

        def run() -> Any:
            self._progress_inflight()
            out = exchange.finish()
            return out if combine is None else combine(out)

        return self._collective(opname, "direct", exchange, run, nbytes)

    # -- collectives ------------------------------------------------------------
    def barrier(self) -> None:
        with _trace.span("barrier", cat="coll"):
            self._progress_inflight()
            # An exchange of nothing: no request, so no wire row either.
            self._exchange("barrier", [None] * self.size).finish()

    def bcast(self, payload: Any, root: int = 0) -> Any:
        """Broadcast ``root``'s payload to every member: a one-hop star
        under ``#coll``, the root sending its payload to each peer in
        ascending comm rank.  Pure routing, so every member's result has
        the root's bits; each is a private, writable copy."""
        self._check_peer(root, "root")
        self._progress_inflight()
        t = _alg.Endpoint(self, *self._route("bcast", "#coll"))

        def run() -> Any:
            if self.rank != root:
                return private(t.recv(root))
            for j in range(self.size):
                if j != root:
                    t.send(j, payload)
            return private(payload)

        return self._collective("bcast", "direct", t, run)

    def allgather(self, payload: Any) -> list[Any]:
        """Gather every member's payload at every member (comm-rank order).

        One ``"direct"`` exchange: the payload is fanned out to every peer.
        Pure routing — heterogeneous payloads of any type and per-rank size
        (uneven shards, even empty ones) route unchanged.  Every slot of the
        result is read-only, this rank's own a copy like the others.
        """
        pieces = [payload] * self.size
        pieces[self.rank] = freeze(payload)
        return self._direct("allgather", pieces, nbytes=payload_nbytes(payload))

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
    ) -> Any:
        """Element-wise reduction over every member.

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
        plan = self._reduction_plan("allreduce", algorithm, value)
        if plan is _DIRECT_PLAN:
            return self._direct(
                "allreduce", [value] * self.size, self._reduce_combine(_reduce_fn(op))
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
        the elements whose fold finished on it — :meth:`owned_range` says
        which — with ``reduced`` the reduced slice ``[lo, hi)`` and ``dst``
        the same slice of ``out`` (a C-contiguous array of ``value``'s
        size; default: the reduced buffer itself) to write the mapped
        values to.  The allgather half then
        carries mapped values, and the result is ``out``.  On a scheduled
        algorithm the map runs between the reduce-scatter and the
        allgather, on this rank's chunks only; ``"direct"`` maps the whole
        folded buffer on every rank.  Wire bytes, messages and the reduced
        values the map sees are exactly the plain allreduce's.

        ``algorithm`` selects the wire path exactly as in
        :meth:`allreduce`.  With ``"direct"``, the call sends its contribution to every
        peer and ``wait()`` blocks only until every member's has arrived,
        then folds in comm-rank order — bitwise identical to the blocking
        ``"direct"`` allreduce.  With a scheduled algorithm,
        the first chunks are sent eagerly at issue time and the
        remaining steps progress on ``test()``/``wait()``; requests may be
        waited in any order (waiting one first completes earlier in-flight
        scheduled collectives — see :class:`_RunnerRequest`).  All
        members must issue their nonblocking collectives in the same
        order, as always — and, unlike the fire-and-forget-able
        ``"direct"`` exchanges, every member must eventually ``wait()`` (or
        ``test()`` to completion) each *scheduled* request: later chunks
        only move when their owner drives them, so a rank that abandons
        one can starve peers that wait it.
        """
        plan = self._reduction_plan("iallreduce", algorithm, value)
        if plan is _DIRECT_PLAN:
            combine = self._reduce_combine(_reduce_fn(op))
            if update is not None:
                combine = partial(_mapped, combine, update, out)
            return _RunnerRequest(
                self, self._exchange("iallreduce", [value] * self.size),
                "iallreduce", combine,
            )
        runner = self._reduction_runner(
            "iallreduce", plan, value, op, donate, update, out
        )
        return _RunnerRequest(self, runner, "iallreduce")

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
        return Communicator(
            self._world, new_members, new_rank, new_key, self._alg_override
        )
