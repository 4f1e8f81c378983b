"""Every collective's wire pattern, over the backends' pt2pt mailbox: the
``"direct"`` all-to-all :class:`Exchange`, and ring / Rabenseifner /
recursive doubling (and binomial trees) as chunked schedules.

The cost model (:mod:`repro.comm.collective_models`) prices the
bandwidth-optimal allreduces of Thakur, Rabenseifner & Gropp — each rank
moving ``2n(p-1)/p`` bytes — where ``"direct"`` (send the full payload to
every peer, everyone folds locally) costs ``n(p-1)`` per rank.  This module
*compiles* ``(p, algorithm)`` into a per-rank schedule of
send / recv / recv-reduce steps over chunk ranges of a flat buffer, and a
:class:`ScheduleRunner` executes the schedule over the backends'
``(source, tag)``-matched point-to-point primitives, staging each outgoing
segment through a :class:`~repro.comm.buffers.BufferPool`.

Compiled schedules (``compile_allreduce``):

* ``ring`` — reduce-scatter around the ring followed by an allgather; the
  buffer is split into ``p`` near-equal chunks and each rank sends/receives
  one chunk per step, ``2(p-1)`` steps total, ``2n(p-1)/p`` bytes per rank.
* ``rabenseifner`` — recursive *halving* reduce-scatter followed by a
  recursive *doubling* allgather; ``2·lg p`` steps, the same ``2n(p-1)/p``
  bytes, for power-of-two groups (other sizes fall back to ``ring``).
* ``recursive_doubling`` — ``lg p`` whole-buffer exchanges (latency-optimal
  for small messages); non-power-of-two groups use the MPICH fold: the
  first ``2r`` ranks pair up (``r = p - 2^⌊lg p⌋``), the even partner folds
  into the odd one and receives the finished result at the end.

Binomial trees (``compile_tree``) route the rooted collectives —
bcast / reduce / gather / scatter — in ``⌈lg p⌉`` rounds instead of the
``p-1`` messages in or out of the root of the one-hop star
(``compile_star``, their ``"direct"`` layout).

Determinism contract
--------------------
Every schedule reduces in a **fixed, documented order** that depends only
on ``(algorithm, p)`` — never on timing or backend — so repeated runs and
both backends produce bitwise-identical results *for a given algorithm*:

* ``ring``: chunk ``c`` is folded in ring order starting at rank ``c``
  (``(((x_c + x_{c+1}) + x_{c+2}) + …)``, indices mod ``p``).
* ``rabenseifner`` / ``recursive_doubling``: each pairwise combine orders
  its two operands by the *minimum comm rank* their partial sums cover, so
  the fold is the balanced binary tree over (masked) rank bits — e.g.
  ``(x_0 + x_1) + (x_2 + x_3)`` for recursive doubling on 4 ranks.
* binomial ``reduce``: a node folds its children in ascending relative
  rank, each child delivering its already-folded subtree.

These orders differ from the ``"direct"`` ascending-comm-rank fold, so
algorithmic results match it to floating-point *allclose*, not bitwise —
``"direct"`` remains the bitwise-reference mode.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Any, Callable

import numpy as np

from repro.comm.payload import freeze, payload_nbytes
from repro.comm.stats import WireTally
from repro.obs import tracer as _trace

#: Allreduce-family schedule names (`"direct"` is an :class:`Exchange`, not
#: a compiled schedule, and deliberately absent).
REDUCTION_ALGORITHMS = ("ring", "rabenseifner", "recursive_doubling")


@dataclass(frozen=True)
class Step:
    """One schedule entry: a send, a plain receive, or a receive+reduce.

    ``lo``/``hi`` are *chunk indices* into the runner's offset table (for
    whole-buffer algorithms the range spans every chunk).  ``acc_first``
    orders the combine of a ``recv_reduce``: ``fn(acc, recv)`` when True,
    ``fn(recv, acc)`` when False — fixed at compile time so the reduction
    order is a pure function of ``(algorithm, p)``.  ``done`` marks the
    steps that move *finished* chunks (every member's contribution folded
    in): the ``recv_reduce`` that completes a chunk's fold on its owner,
    and every send or receive of it after that (:func:`_mark_done`).
    """

    kind: str  # "send" | "recv" | "recv_reduce"
    peer: int  # comm rank of the counterparty
    lo: int
    hi: int
    acc_first: bool = True
    done: bool = False


def chunk_offsets(n: int, p: int) -> tuple[int, ...]:
    """Element offsets splitting ``n`` elements into ``p`` near-equal chunks.

    The first ``n % p`` chunks carry one extra element, so uneven shapes
    and even ``n < p`` (empty trailing chunks) are handled uniformly; every
    rank derives the identical table.
    """
    base, extra = divmod(int(n), p)
    offs = [0]
    for i in range(p):
        offs.append(offs[-1] + base + (1 if i < extra else 0))
    return tuple(offs)


def is_power_of_two(p: int) -> bool:
    return p >= 1 and (p & (p - 1)) == 0


@lru_cache(maxsize=None)
def compile_allreduce(p: int, algorithm: str) -> tuple[tuple[Step, ...], ...]:
    """Per-rank schedules (indexed by comm rank) for one allreduce.

    ``algorithm`` is one of :data:`REDUCTION_ALGORITHMS`.  Rabenseifner
    requires a power-of-two group and falls back to the ring schedule for
    other sizes (the documented selection/fallback rule, mirrored by
    :func:`repro.comm.collective_models.select_allreduce_algorithm` which
    never picks it for non-power-of-two ``p``).
    """
    if p < 1:
        raise ValueError(f"group size must be >= 1, got {p}")
    if algorithm not in REDUCTION_ALGORITHMS:
        raise ValueError(
            f"unknown schedule algorithm {algorithm!r}; "
            f"expected one of {REDUCTION_ALGORITHMS}"
        )
    if p == 1:
        return (tuple(),)
    if algorithm == "ring":
        return _mark_done(_compile_ring(p))
    if algorithm == "rabenseifner":
        if not is_power_of_two(p):
            return compile_allreduce(p, "ring")
        return _mark_done(_compile_rabenseifner(p))
    return _mark_done(_compile_recursive_doubling(p))


def _mark_done(
    scheds: tuple[tuple[Step, ...], ...]
) -> tuple[tuple[Step, ...], ...]:
    """Set :attr:`Step.done` by running every rank's schedule symbolically.

    Each rank starts with one contribution in every chunk; a send carries
    the sender's per-chunk counts, a ``recv`` replaces the receiver's and a
    ``recv_reduce`` adds to them, matched per ``(sender, receiver)`` in
    program order as the mailbox matches them.  A step is ``done`` when the
    chunks it moves hold all ``p`` contributions.  Within one step that is
    all of its chunks or none — the schedules only ever send finished
    chunks as plain ``recv``s — which is asserted, so a schedule that broke
    the rule could not silently fuse an update into a partial sum.
    """
    p = len(scheds)
    nchunks = max(st.hi for steps in scheds for st in steps)
    counts = [[1] * nchunks for _ in range(p)]
    wires: dict[tuple[int, int], list[list[int]]] = {}
    pos = [0] * p
    out: list[list[Step]] = [[] for _ in range(p)]
    moved = True
    while moved:
        moved = False
        for r, steps in enumerate(scheds):
            while pos[r] < len(steps):
                st = steps[pos[r]]
                mine = counts[r]
                if st.kind == "send":
                    wires.setdefault((r, st.peer), []).append(mine[st.lo : st.hi])
                else:
                    queue = wires.get((st.peer, r))
                    if not queue:
                        break
                    got = queue.pop(0)
                    if st.kind == "recv":
                        mine[st.lo : st.hi] = got
                    else:
                        mine[st.lo : st.hi] = map(sum, zip(mine[st.lo : st.hi], got))
                full = {c == p for c in mine[st.lo : st.hi]}
                assert len(full) <= 1 and (st.kind != "recv" or full == {True}), st
                out[r].append(replace(st, done=full == {True}))
                pos[r] += 1
                moved = True
    assert all(pos[r] == len(steps) for r, steps in enumerate(scheds))
    return tuple(tuple(steps) for steps in out)


@lru_cache(maxsize=None)
def segmented_offsets(n: int, p: int, nseg: int) -> tuple[int, ...]:
    """Offset table for a segmented schedule: ``nseg`` outer pipeline
    segments, each split into the usual ``p`` near-equal chunks.

    The outer split reuses :func:`chunk_offsets`, matching the near-equal
    segments ``collective_models.segment_sizes`` prices; chunk ``c`` of
    segment ``g`` lives at table index ``g·p + c`` (table length
    ``nseg·p + 1``), which is exactly where :func:`segment_steps` points
    the expanded schedule.  Every rank derives the identical table.
    """
    outer = chunk_offsets(n, nseg)
    offs = [0]
    for g in range(nseg):
        inner = chunk_offsets(outer[g + 1] - outer[g], p)
        base = outer[g]
        offs.extend(base + o for o in inner[1:])
    return tuple(offs)


@lru_cache(maxsize=None)
def segment_steps(
    steps: tuple[Step, ...], p: int, nseg: int
) -> tuple[Step, ...]:
    """Expand a compiled schedule to move the buffer in ``nseg`` pipeline
    segments (over the :func:`segmented_offsets` table).

    Step-major expansion: each base step over chunks ``[lo, hi)`` of the
    ``p``-chunk table becomes ``nseg`` consecutive per-segment steps over
    the same chunk range of every segment, in ascending segment order.
    Pipelining falls out of the runner's eager sends: all ``nseg``
    per-segment sends of a base send step are staged before the following
    receive blocks, so while this rank reduces segment ``k`` its
    neighbour's segment ``k+1`` is already in flight — without reordering
    any send relative to the base schedule (per-``(peer, tag)`` FIFO
    matching is preserved because expansion keeps program order on both
    sides).

    Reduction order: the base algorithm's documented order is applied to
    every segment independently (segments partition the buffer and steps
    never cross a segment boundary), so the fold remains a pure function
    of ``(algorithm, p, nseg)``.  ``nseg <= 1`` returns the base schedule
    *unchanged* — the unsegmented path is bitwise-identical to the
    pre-segmentation engine by construction.
    """
    if nseg <= 1:
        return steps
    return tuple(
        replace(st, lo=g * p + st.lo, hi=g * p + st.hi)
        for st in steps
        for g in range(nseg)
    )


@lru_cache(maxsize=None)
def compile_reduce_scatter(p: int) -> tuple[tuple[Step, ...], ...]:
    """Ring reduce-scatter schedules: rank ``r`` ends owning chunk ``r``.

    Chunk ``c`` circulates the ring starting at rank ``c + 1`` and is
    folded in ring order (``x_{c+1}, x_{c+2}, …, x_c``), completing at its
    destination after ``p - 1`` steps — ``(p-1)/p`` of the total payload
    sent per rank, the same volume as the direct per-destination routing
    but pipelined as a schedule of partial sums.
    """
    if p < 1:
        raise ValueError(f"group size must be >= 1, got {p}")
    ring = tuple(range(p))
    return tuple(tuple(_ring_pass(ring, r, r - 1, "recv_reduce")) for r in ring)


def _ring_pass(
    ring: tuple[int, ...], i: int, first: int, kind: str, width: int = 1
) -> list[Step]:
    """One trip round a ring, as seen from position ``i`` of ``ring`` (comm
    ranks in ring order): ``k - 1`` steps, step ``s`` sending chunk
    ``first - s`` to the right neighbour and receiving chunk
    ``first - s - 1`` from the left one (mod ``k``; a chunk is ``width``
    table entries).  ``kind="recv_reduce"`` is a reduce-scatter — position
    ``i`` ends owning the fold of chunk ``first + 1``, folded in ring order
    — and ``kind="recv"`` an allgather of finished chunks."""
    k = len(ring)
    right, left = ring[(i + 1) % k], ring[(i - 1) % k]
    steps: list[Step] = []
    for s in range(k - 1):
        c_send, c_recv = (first - s) % k, (first - s - 1) % k
        steps.append(Step("send", right, c_send * width, (c_send + 1) * width))
        steps.append(
            Step(kind, left, c_recv * width, (c_recv + 1) * width,
                 acc_first=kind == "recv")
        )
    return steps


def _compile_ring(p: int) -> tuple[tuple[Step, ...], ...]:
    # Chunk c completes its reduce-scatter at rank c - 1, folded in ring
    # order starting at rank c; the allgather circulates the finished
    # chunks the rest of the way.
    ring = tuple(range(p))
    return tuple(
        tuple(
            _ring_pass(ring, r, r, "recv_reduce") + _ring_pass(ring, r, r + 1, "recv")
        )
        for r in ring
    )


def _compile_rabenseifner(p: int) -> tuple[tuple[Step, ...], ...]:
    scheds: list[list[Step]] = [[] for _ in range(p)]
    lo = [0] * p
    hi = [p] * p
    covers_min = list(range(p))
    # Recursive halving reduce-scatter: partners at distance `mask` split
    # their (identical) current chunk range, each keeping the half that
    # contains its own destination chunk.
    mask = p >> 1
    while mask:
        old_min = covers_min[:]
        for r in range(p):
            peer = r ^ mask
            mid = (lo[r] + hi[r]) // 2
            if r & mask == 0:
                keep, send = (lo[r], mid), (mid, hi[r])
            else:
                keep, send = (mid, hi[r]), (lo[r], mid)
            scheds[r].append(Step("send", peer, send[0], send[1]))
            scheds[r].append(
                Step(
                    "recv_reduce",
                    peer,
                    keep[0],
                    keep[1],
                    acc_first=old_min[r] < old_min[peer],
                )
            )
            lo[r], hi[r] = keep
            covers_min[r] = min(old_min[r], old_min[peer])
        mask >>= 1
    # Recursive doubling allgather: owned ranges pair back up and merge.
    mask = 1
    while mask < p:
        old = [(lo[r], hi[r]) for r in range(p)]
        for r in range(p):
            peer = r ^ mask
            scheds[r].append(Step("send", peer, old[r][0], old[r][1]))
            scheds[r].append(Step("recv", peer, old[peer][0], old[peer][1]))
            lo[r] = min(old[r][0], old[peer][0])
            hi[r] = max(old[r][1], old[peer][1])
        mask <<= 1
    return tuple(tuple(s) for s in scheds)


def _compile_recursive_doubling(p: int) -> tuple[tuple[Step, ...], ...]:
    scheds: list[list[Step]] = [[] for _ in range(p)]
    pof2 = 1 << (p.bit_length() - 1)
    rem = p - pof2
    covers_min = list(range(p))
    # MPICH non-power-of-two fold: the first 2*rem ranks pair up, evens
    # fold into their odd neighbour and sit out the doubling.
    newrank: dict[int, int | None] = {}
    for r in range(p):
        if r < 2 * rem:
            if r % 2 == 0:
                scheds[r].append(Step("send", r + 1, 0, p))
                newrank[r] = None
            else:
                scheds[r].append(Step("recv_reduce", r - 1, 0, p, acc_first=False))
                covers_min[r] = r - 1
                newrank[r] = r // 2
        else:
            newrank[r] = r - rem
    inv = {nr: r for r, nr in newrank.items() if nr is not None}
    mask = 1
    while mask < pof2:
        old_min = covers_min[:]
        for nr in range(pof2):
            r, peer = inv[nr], inv[nr ^ mask]
            scheds[r].append(Step("send", peer, 0, p))
            scheds[r].append(
                Step("recv_reduce", peer, 0, p, acc_first=old_min[r] < old_min[peer])
            )
            covers_min[r] = min(old_min[r], old_min[peer])
        mask <<= 1
    for r in range(2 * rem):
        if r % 2 == 0:
            scheds[r].append(Step("recv", r + 1, 0, p))
        else:
            scheds[r].append(Step("send", r - 1, 0, p))
    return tuple(tuple(s) for s in scheds)


@lru_cache(maxsize=None)
def compile_hierarchical_allreduce(
    nodes: tuple[tuple[int, ...], ...], inter_algorithm: str = "ring"
) -> tuple[tuple[Step, ...], ...]:
    """Two-level allreduce schedules for a node-grouped communicator.

    ``nodes`` is the logical-node layout: a tuple of ``m`` node groups of
    ``k`` comm ranks each (uniform; every comm rank ``0..p-1`` appears
    exactly once).  The buffer is split into the usual ``p = k·m`` chunks;
    chunk ``c`` belongs to *window* ``c // m`` — local rank ``i`` of every
    node ends phase 1 owning window ``(i + 1) % k`` (``m`` consecutive
    chunks).  Three phases compose the allreduce:

    1. **intra-node ring reduce-scatter** over the ``k`` node-local ranks,
       moving whole windows (``(k-1)/k · n`` bytes per rank, all intra);
    2. **inter-node allreduce** among the ``m`` same-local-index
       counterparts on the owned window, running the *flat*
       ``inter_algorithm`` schedule (``compile_allreduce(m, ·)``) shifted
       into the window — the only phase that crosses the node boundary,
       ``2(n/k)(m-1)/m`` bytes per rank for the inter ring;
    3. **intra-node ring allgather** of the finished windows.

    The total per-rank volume equals the flat ring's bandwidth-optimal
    ``2n(p-1)/p``; what changes is *where* the bytes flow — inter-node
    traffic drops from the flat ring's ``2n(p-1)/p`` on every
    node-boundary edge to ``2(n/k)(m-1)/m`` uniformly.  The reduction
    order (intra ring fold per window, then the inter algorithm's
    documented order over node partials) is a pure function of
    ``(nodes, inter_algorithm)``, so results are deterministic across
    runs and backends — matching ``"direct"`` to floating-point
    *allclose*, like every other schedule.
    """
    if not nodes:
        raise ValueError("hierarchical allreduce needs at least one node")
    k = len(nodes[0])
    m = len(nodes)
    if any(len(g) != k for g in nodes):
        raise ValueError(
            f"hierarchical allreduce needs a uniform layout; got node sizes "
            f"{[len(g) for g in nodes]}"
        )
    p = k * m
    flat = sorted(r for g in nodes for r in g)
    if flat != list(range(p)):
        raise ValueError(
            f"node groups must cover comm ranks 0..{p - 1} exactly once; "
            f"got {flat}"
        )
    if inter_algorithm not in REDUCTION_ALGORITHMS:
        raise ValueError(
            f"unknown inter-node algorithm {inter_algorithm!r}; "
            f"expected one of {REDUCTION_ALGORITHMS}"
        )
    inter = compile_allreduce(m, inter_algorithm)
    scheds: list[list[Step]] = [[] for _ in range(p)]
    for u, group in enumerate(nodes):
        for i, r in enumerate(group):
            steps = scheds[r]
            # Phase 1: intra-node ring reduce-scatter over whole windows
            # (window c is folded in node-local ring order starting at
            # local rank c, mirroring _compile_ring's chunk discipline).
            steps.extend(_ring_pass(group, i, i, "recv_reduce", m))
            # Phase 2: the owned window's inter-node allreduce — the flat
            # m-rank schedule with chunks shifted into the window and
            # position peers mapped to the same-local-index counterparts.
            w = (i + 1) % k if k > 1 else 0
            base = w * m
            counterparts = tuple(nodes[j][i] for j in range(m))
            steps.extend(
                replace(
                    st, peer=counterparts[st.peer], lo=st.lo + base, hi=st.hi + base
                )
                for st in inter[u]
            )
            # Phase 3: intra-node ring allgather of the finished windows.
            steps.extend(_ring_pass(group, i, i + 1, "recv", m))
    return _mark_done(tuple(tuple(s) for s in scheds))


# ---------------------------------------------------------------------------
# Binomial trees for the rooted collectives
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TreeNode:
    """One rank's position in a binomial tree rooted at ``root``.

    ``children`` are ``(child comm rank, subtree comm ranks)`` pairs in
    *descending subtree size* (the order a binomial bcast sends); gather
    and reduce walk them in reverse (ascending relative rank), which is
    the documented fold order.
    """

    rank: int
    parent: int | None
    children: tuple[tuple[int, tuple[int, ...]], ...]

    @property
    def subtree(self) -> tuple[int, ...]:
        """Comm ranks under this node in ascending relative rank, itself
        first — the order gather bundles arrive in and scatter bundles
        leave in, so bundles carry bare payloads and no rank labels."""
        return (self.rank,) + tuple(
            r for _child, sub in reversed(self.children) for r in sub
        )


@lru_cache(maxsize=None)
def compile_star(p: int, root: int) -> tuple[TreeNode, ...]:
    """Star over ``p`` ranks: every other rank is a leaf child of ``root``.

    The ``"direct"`` routing of the rooted collectives — one hop, ``p - 1``
    messages in or out of the root — expressed as a tree so the same
    ``run_tree_*`` runners serve it.
    """
    if not 0 <= root < p:
        raise ValueError(f"root={root} out of range for group of size {p}")
    leaves = tuple((root + d) % p for d in range(p - 1, 0, -1))
    return tuple(
        TreeNode(r, None, tuple((c, (c,)) for c in leaves))
        if r == root
        else TreeNode(r, root, ())
        for r in range(p)
    )


@lru_cache(maxsize=None)
def compile_tree(p: int, root: int) -> tuple[TreeNode, ...]:
    """Binomial tree over ``p`` ranks rooted at ``root`` (per-rank nodes)."""
    if not 0 <= root < p:
        raise ValueError(f"root={root} out of range for group of size {p}")
    nodes = []
    for r in range(p):
        rel = (r - root) % p
        parent: int | None = None
        mask = 1
        while mask < p:
            if rel & mask:
                parent = (r - mask) % p
                break
            mask <<= 1
        # For non-roots the loop broke at the lowest set bit of ``rel``;
        # for the root it ran to the first power of two >= p.  Children sit
        # at every smaller power-of-two distance.
        children: list[tuple[int, tuple[int, ...]]] = []
        cmask = mask >> 1
        while cmask > 0:
            if rel + cmask < p:
                subtree = tuple(
                    (root + rel2) % p
                    for rel2 in range(rel + cmask, min(rel + 2 * cmask, p))
                )
                children.append(((r + cmask) % p, subtree))
            cmask >>= 1
        nodes.append(TreeNode(rank=r, parent=parent, children=tuple(children)))
    return tuple(nodes)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def _stage_segment(comm, seg: np.ndarray) -> np.ndarray:
    """Copy ``seg`` into a pooled staging buffer; return the frozen view.

    The working buffer keeps being reduced into after a send, so segments
    must never cross the boundary as views of it (a lagging receiver would
    observe the mutation under the thread backend's zero-copy transport).
    The pool reclaims the staging buffer once the receivers drop the view
    (:meth:`~repro.comm.buffers.BufferPool.give_deferred`).
    """
    pool = comm._alg_pool
    buf = pool.take(seg.shape, seg.dtype)
    np.copyto(buf, seg)
    view = buf.view()
    view.flags.writeable = False
    pool.give_deferred(buf, view)
    return view


class ScheduleRunner(WireTally):
    """Drives one compiled reduction schedule over a communicator.

    Execution is *progressive*: :meth:`launch` performs every step up to
    the first unsatisfied receive (sends are eager and never block),
    :meth:`progress` advances as far as nonblocking probes allow, and
    :meth:`finish` blocks through the remaining steps.  The arithmetic
    order is fixed by the compiled schedule, so *when* progress happens
    never affects the result.

    ``update(lo, hi, reduced, out)``, if given, is an element-wise map
    fused into the reduction: right after the ``recv_reduce`` that
    completes the fold of elements ``[lo, hi)`` on this rank (a
    :attr:`Step.done` one) it is called with that reduced slice and the
    slice of ``out`` where the mapped values must go.  Every later step
    moves finished elements between the ``out`` buffers (default: the
    working buffer itself; ignored without an ``update``), so the
    allgather half carries mapped values and :meth:`finish` returns
    ``out``.  A rank maps only the elements its own folds finished — under
    ring and Rabenseifner one rank per element, under recursive doubling
    every rank that took part in the doubling.
    """

    #: Later steps only move when every member drives its own runner.
    driven = True

    def __init__(
        self,
        comm,
        opname: str,
        steps: tuple[Step, ...],
        value: np.ndarray,
        fn: Callable[[Any, Any], Any],
        seq: int,
        offsets: tuple[int, ...] | None = None,
        owns_buffer: bool = False,
        inter_peers: tuple[bool, ...] | None = None,
        ufunc: Any = None,
        update: Callable[[int, int, np.ndarray, np.ndarray], None] | None = None,
        out: np.ndarray | None = None,
    ) -> None:
        self._comm = comm
        self._opname = opname
        self._steps = steps
        self._shape = value.shape
        # The working buffer, flat and reduced in place: the array the runner
        # is given when it owns it (``owns_buffer``: a donated contribution,
        # or one the caller just built) and can use it as it is, else one
        # C-order copy (``flatten`` gathers a strided value once).
        flags = value.flags
        if owns_buffer and flags.c_contiguous and flags.writeable:
            self._buf = value.reshape(-1)
        else:
            self._buf = value.flatten()
        self._update = update
        self._out = self._buf if update is None or out is None else out.reshape(-1)
        # ``offsets`` overrides the near-equal chunking for ops whose
        # chunks are semantic units (reduce_scatter's per-destination
        # parts); every rank must derive the identical table.
        self._off = (
            offsets
            if offsets is not None
            else chunk_offsets(self._buf.size, comm.size)
        )
        self._fn = fn
        # Known binary ufunc matching ``fn`` (e.g. ``np.add`` for "sum"):
        # lets ``_apply`` accumulate in place instead of allocating a
        # temporary and writing it back.  Operand order still follows
        # ``acc_first``, so results stay bitwise identical to the
        # ``fn``-based path.
        self._ufunc = ufunc
        # Backends whose ``deliver`` copies the payload out synchronously
        # (process/socket: into the shm arena or a pickle frame) don't need
        # the staging copy that protects zero-copy transports from seeing
        # the working buffer mutate after a send.
        self._stage = not getattr(comm._world, "copies_on_send", False)
        self._tag = comm._tag_key(("#alg", seq))
        self._seq = seq
        self._pos = 0
        # The ``*_inter`` counters are what the hierarchical benchmark
        # checks against the two-tier cost model's predicted inter-node
        # wire volume.
        super().__init__(inter_peers)

    # -- step primitives ---------------------------------------------------
    def _range(self, step: Step) -> tuple[int, int]:
        return self._off[step.lo], self._off[step.hi]

    def _send(self, step: Step) -> None:
        a, b = self._range(step)
        if b == a:
            return  # empty segment: skipped symmetrically on the recv side
        comm = self._comm
        dest = comm._members[step.peer]
        view = (self._out if step.done else self._buf)[a:b]
        if self._stage or dest == comm.world_rank:
            view = _stage_segment(comm, view)
        comm._world.deliver(comm.world_rank, dest, self._tag, view)
        _trace.flow_out(dest, self._tag)
        self.count_sent(step.peer, view.nbytes)

    def _apply(self, step: Step, payload: np.ndarray) -> None:
        """The receive sink of one step: fold or place ``payload`` into its
        segment of the working buffer.  The transport may still own the
        payload's bytes (an arena view), so nothing here keeps it."""
        a, b = self._range(step)
        seg = self._buf[a:b]
        if step.kind == "recv":
            (self._out if step.done else self._buf)[a:b] = payload
        elif self._ufunc is not None:
            if step.acc_first:
                self._ufunc(seg, payload, out=seg)
            else:
                self._ufunc(payload, seg, out=seg)
        else:
            seg[...] = (
                self._fn(seg, payload) if step.acc_first else self._fn(payload, seg)
            )
        _trace.flow_in(self._comm._members[step.peer], self._tag)
        self.count_recv(step.peer, payload.nbytes)

    def _describe(self) -> str:
        # ``World.collect`` appends "(world rank dest <- source, tag=...)",
        # so a timeout reads e.g. "iallreduce[seq=0, schedule step 3](world
        # rank 1 <- 0, ...) timed out" — naming the op, sequence, schedule
        # position, waiting rank, and stuck peer.
        return f"{self._opname}[seq={self._seq}, schedule step {self._pos}]"

    # -- driving -----------------------------------------------------------
    def launch(self) -> bool:
        """Run eagerly up to the first unsatisfied receive (never blocks)."""
        return self.progress()

    def _advance(self, block: bool) -> bool:
        """Run steps in order; every receive is consumed by :meth:`_apply`
        as the transport's sink (the fused map runs after the transport
        has let go of the message).  Nonblocking, stop at the first
        receive whose message has not arrived (False)."""
        comm = self._comm
        world, me = comm._world, comm.world_rank
        while self._pos < len(self._steps):
            step = self._steps[self._pos]
            if step.kind == "send":
                self._send(step)
            elif self._off[step.hi] > self._off[step.lo]:
                source = comm._members[step.peer]
                sink = partial(self._apply, step)
                if block:
                    world.collect(
                        me, source, self._tag, opname=self._describe(), sink=sink
                    )
                elif not world.try_collect(me, source, self._tag, sink=sink)[0]:
                    return False
                if self._update and step.done and step.kind == "recv_reduce":
                    # This fold finished these elements: map them into
                    # ``out`` before any later step sends them.
                    a, b = self._range(step)
                    self._update(a, b, self._buf[a:b], self._out[a:b])
            self._pos += 1
        return True

    def progress(self) -> bool:
        """Advance as far as nonblocking probes allow; True when complete."""
        return self._advance(block=False)

    def finish(self) -> np.ndarray:
        """Block through the remaining steps; return the reduced (or, with
        an ``update``, mapped) array."""
        self._advance(block=True)
        return self._out.reshape(self._shape)


class Endpoint(WireTally):
    """The pt2pt endpoint every unscheduled operation moves over: eager
    :meth:`send`, blocking :meth:`recv` and nonblocking :meth:`try_recv`
    under one ``tag``, with the flow-trace marks and the wire-byte tally.

    A collective's tag is ``(tag_class, seq)`` under the communicator's
    key, ``tag_class`` being the traffic class fault specs match on:
    ``"#coll"`` for ``"direct"`` (the exchange and the one-hop star),
    ``"#alg"`` for compiled routes.
    """

    def __init__(
        self,
        comm,
        label: str,
        tag: Any,
        inter_peers: tuple[bool, ...] | None = None,
    ) -> None:
        self._comm = comm
        # ``collect`` appends "(world rank dest <- source, tag=...)": a
        # timeout names the op, sequence, waiting rank, and the peer whose
        # contribution is missing.
        self._label = label
        self._tag = tag
        super().__init__(inter_peers)

    def send(self, peer: int, payload: Any) -> None:
        comm = self._comm
        frozen = freeze(payload)
        comm._world.deliver(
            comm.world_rank, comm._members[peer], self._tag, frozen
        )
        _trace.flow_out(comm._members[peer], self._tag)
        self.count_sent(peer, payload_nbytes(frozen))

    def _received(self, peer: int, payload: Any) -> Any:
        _trace.flow_in(self._comm._members[peer], self._tag)
        self.count_recv(peer, payload_nbytes(payload))
        return payload

    def recv(self, peer: int) -> Any:
        comm = self._comm
        payload = comm._world.collect(
            comm.world_rank, comm._members[peer], self._tag, opname=self._label
        )
        return self._received(peer, payload)

    def try_recv(self, peer: int) -> tuple[bool, Any]:
        comm = self._comm
        got, payload = comm._world.try_collect(
            comm.world_rank, comm._members[peer], self._tag
        )
        if got:
            self._received(peer, payload)
        return got, payload


class Receive(Endpoint):
    """One posted point-to-point receive (``irecv``) in the runners'
    ``launch``/``progress``/``finish`` shape: nothing to launch,
    :meth:`progress` probes once, :meth:`finish` blocks for the message."""

    #: Completes from the peer's send alone.
    driven = False

    def __init__(self, comm, opname: str, tag: Any, source: int) -> None:
        super().__init__(comm, opname, comm._tag_key(tag))
        self._source = source
        self._got = False
        self._payload: Any = None

    def launch(self) -> bool:
        return False

    def progress(self) -> bool:
        if not self._got:
            self._got, self._payload = self.try_recv(self._source)
        return self._got

    def finish(self) -> Any:
        if not self._got:
            self._got, self._payload = True, self.recv(self._source)
        return self._payload


class Exchange(Endpoint):
    """One nonblocking all-to-all over the pt2pt mailbox: ``payloads[j]``
    goes to comm rank ``j`` — the transport of every ``"direct"``
    collective (allgather and allreduce fan one payload out to everyone).

    Same ``launch``/``progress``/``finish`` shape as :class:`ScheduleRunner`:
    :meth:`launch` delivers every piece eagerly and never blocks,
    :meth:`progress` collects arrived pieces with nonblocking probes, and
    :meth:`finish` blocks for the rest and returns the received pieces in
    comm-rank order (this rank's own piece in place); a ``finish`` without
    a ``launch`` is the whole exchange, blocking.  Pieces are always
    collected in ascending comm rank, so recv-point fault counts are
    deterministic.  Completion needs only the peers' *sends*, never their
    reads: a member that abandons its request starves no one.
    """

    #: Nothing here waits on a peer driving the same operation.
    driven = False

    def __init__(
        self,
        comm,
        label: str,
        tag: Any,
        inter_peers: tuple[bool, ...] | None,
        payloads: list[Any],
    ) -> None:
        super().__init__(comm, label, tag, inter_peers)
        self._slots = payloads
        self._launched = False
        self._pos = 0  # next comm rank to collect from

    def launch(self) -> bool:
        """Deliver every peer's piece (never blocks); True if complete."""
        slots = self._slots
        for j in range(self._comm.size):
            if j != self._comm.rank:
                self.send(j, slots[j])
                slots[j] = None
        self._launched = True
        return self._comm.size == 1

    def _advance(self, block: bool) -> bool:
        if not self._launched:
            self.launch()
        comm = self._comm
        while self._pos < comm.size:
            j = self._pos
            if j != comm.rank:
                if block:
                    self._slots[j] = self.recv(j)
                else:
                    got, piece = self.try_recv(j)
                    if not got:
                        return False
                    self._slots[j] = piece
            self._pos += 1
        return True

    def progress(self) -> bool:
        """Collect what has arrived; True once every piece is in."""
        return self._advance(block=False)

    def finish(self) -> list[Any]:
        """Block for the missing pieces; return all in comm-rank order."""
        self._advance(block=True)
        return self._slots


def run_tree_bcast(t: Endpoint, node: TreeNode, payload: Any) -> Any:
    """Tree broadcast: pure routing, bitwise-identical on any layout."""
    if node.parent is not None:
        payload = t.recv(node.parent)
    for child, _subtree in node.children:  # largest subtree first
        t.send(child, payload)
    return payload


def run_tree_reduce(
    t: Endpoint, node: TreeNode, value: Any, fn: Callable[[Any, Any], Any]
) -> Any:
    """Binomial reduce toward the root (``None`` elsewhere).

    Children are folded in ascending relative rank (each delivering its
    already-folded subtree), so for root 0 on 4 ranks the root computes
    ``(x0 + x1) + (x2 + x3)`` — fixed for a given ``(p, root)``.
    """
    acc = value
    for child, _subtree in reversed(node.children):  # ascending relative rank
        acc = fn(acc, t.recv(child))
    if node.parent is not None:
        t.send(node.parent, acc)
        return None
    return acc


def run_tree_gather(
    t: Endpoint, node: TreeNode, payload: Any
) -> list[Any] | None:
    """Tree gather: subtree bundles (payloads in :attr:`TreeNode.subtree`
    order) merge on the way up; the root assembles the comm-rank-ordered
    list, ``None`` elsewhere.  Pure routing — bitwise-identical on any
    layout."""
    bundle: list[Any] = [payload]
    for child, _subtree in reversed(node.children):
        bundle.extend(t.recv(child))
    if node.parent is not None:
        t.send(node.parent, bundle)
        return None
    slots: list[Any] = [None] * len(bundle)
    for rank, item in zip(node.subtree, bundle):
        slots[rank] = item
    return slots


def run_tree_scatter(t: Endpoint, node: TreeNode, payloads: Any) -> Any:
    """Tree scatter: the root sends each child its subtree's bundle
    (payloads in :attr:`TreeNode.subtree` order); interior nodes keep
    their own piece and forward the rest.  Pure routing —
    bitwise-identical on any layout."""
    if node.parent is None:
        by_rank = {r: payloads[r] for r in node.subtree}
    else:
        by_rank = dict(zip(node.subtree, t.recv(node.parent)))
    for child, subtree in node.children:
        t.send(child, [by_rank[r] for r in subtree])
    return by_rank[node.rank]
