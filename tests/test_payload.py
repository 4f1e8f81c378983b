"""The one payload walk (``repro.comm.payload``) and the frame built on it,
property-checked.

Freezing a send, the private copy of a ``bcast`` result, the frame's and a
checkpoint's array lifting, the byte counters and fault corruption are all
:func:`map_arrays`; these tests generate nested payloads — tuple/list/dict,
0-d, zero-size, strided and Fortran-ordered arrays, ``bool`` / ``complex128``
/ big-endian / ``float16`` / structured / object dtypes, scalars, ``None``,
bytes — and hold the walk to: ``join`` inverts ``split`` leaf for leaf and
bit for bit under every ``take`` rule in use, each array is visited exactly
once, and the byte counters agree on array bytes.

The ``frame`` tests hold the forked world's wire format (header pickle + raw
array bytes, ``encode_frame`` / ``decode_frame``) to the same standard: what
a ``process`` or ``socket`` rank receives is what a ``thread`` rank receives,
read-only, whichever link and placement — arena, inline, arena-full
fallback, a body too large to stage, socketpair or TCP — each array took.
"""

import multiprocessing as mp
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import run_spmd
from repro.comm.payload import (
    FRAME_ALIGN,
    ArrayRef,
    array_nbytes,
    decode_frame,
    freeze,
    join,
    map_arrays,
    payload_nbytes,
    private,
    split,
)
from repro.comm.proc_backend import (
    ARENA_BLOCK,
    SHM_MIN_BYTES,
    _Arena,
    _ArenaMessage,
    _pack,
)
from repro.comm.socket_backend import _STAGE_BYTES

# -- generated payloads ---------------------------------------------------------


#: A dtype whose ``str`` code (``|V8``) does not name its fields.
FIELDS = np.dtype([("a", "<f4"), ("b", "<i4")])


@st.composite
def arrays(draw):
    kind = draw(
        st.sampled_from(
            ["f8", "f4", "i8", "u1", "bool", "c16", ">f8", "f2", "fields", "object"]
        )
    )
    shape = tuple(draw(st.lists(st.integers(0, 9), min_size=0, max_size=3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if kind == "object":
        arr = np.empty(shape, dtype=object)
        arr[...] = "x"
        return arr
    # Up to 9**3 float64 = 5.8 KB: both sides of the arena's 2 KiB rule.
    if kind == "fields":
        arr = np.zeros(shape, dtype=FIELDS)
        arr["a"] = rng.standard_normal(shape)
        arr["b"] = rng.integers(-99, 99, shape)
    elif kind == "c16":
        arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    else:
        arr = (rng.standard_normal(shape) * 100).astype(kind)
    layout = draw(st.sampled_from(["c", "strided", "transposed"]))
    if layout == "strided" and arr.ndim:
        arr = np.repeat(arr, 2, axis=-1)[..., ::2]
    elif layout == "transposed":
        arr = np.ascontiguousarray(arr.T).T
    return arr


leaves = st.one_of(
    arrays(),
    st.none(),
    st.integers(-5, 5),
    st.floats(allow_nan=False),
    st.text(max_size=3),
    st.binary(max_size=40),
)
payloads = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=3), inner, max_size=4),
    ),
    max_leaves=12,
)


def leaves_of(payload):
    """Independent (test-side) enumeration of a payload's leaves."""
    if isinstance(payload, dict):
        payload = list(payload.values())
    if isinstance(payload, (tuple, list)):
        return [leaf for p in payload for leaf in leaves_of(p)]
    return [payload]


def same(a, b) -> bool:
    """Equal leaf for leaf, containers by exact type, arrays bit for bit."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        if a.dtype != b.dtype or a.shape != b.shape:
            return False
        if a.dtype == object:
            return a.tolist() == b.tolist()
        return a.tobytes() == b.tobytes()
    return a == b


def plain_arrays(payload) -> list[np.ndarray]:
    """The arrays a frame lifts: everything a raw copy can carry."""
    return [
        x for x in leaves_of(payload)
        if isinstance(x, np.ndarray) and not x.dtype.hasobject
    ]


TAKE_RULES = {
    "checkpoint": lambda arr: True,
    "frame": lambda arr: not arr.dtype.hasobject,
    "nothing": lambda arr: False,
}


# -- the walk ---------------------------------------------------------------------


@given(payloads)
def test_join_inverts_split_under_every_take_rule(payload):
    for take in TAKE_RULES.values():
        skeleton, lifted = split(payload, take)
        wanted = [x for x in leaves_of(payload) if isinstance(x, np.ndarray) and take(x)]
        assert [id(a) for a in lifted] == [id(a) for a in wanted]
        left = leaves_of(skeleton)
        assert sum(type(x) is ArrayRef for x in left) == len(lifted)
        assert not any(isinstance(x, np.ndarray) and take(x) for x in left)
        assert same(join(skeleton, lifted), payload)
        # A skeleton that gets pickled (frame header, ``__meta__``) holds no
        # plain array — numpy's pickle would un-swap a big-endian one.
        if not plain_arrays(skeleton):
            blob = pickle.dumps(skeleton, protocol=pickle.HIGHEST_PROTOCOL)
            assert same(join(pickle.loads(blob), lifted), payload)


@given(payloads)
def test_map_arrays_visits_each_array_exactly_once(payload):
    seen = []
    out = map_arrays(payload, lambda arr: seen.append(arr) or arr)
    wanted = [x for x in leaves_of(payload) if isinstance(x, np.ndarray)]
    assert [id(a) for a in seen] == [id(a) for a in wanted]
    assert same(out, payload)


@given(payloads)
def test_byte_counters_agree_on_array_bytes(payload):
    """``payload_nbytes`` (the communicator's) and ``array_nbytes`` (the
    socket counter's) differ by exactly what the latter excludes."""
    flat = leaves_of(payload)
    plain = sum(x.nbytes for x in flat if isinstance(x, np.ndarray) and x.dtype != object)
    objects = sum(x.nbytes for x in flat if isinstance(x, np.ndarray) and x.dtype == object)
    raw = sum(len(x) for x in flat if isinstance(x, bytes))
    other = sum(not isinstance(x, (np.ndarray, bytes)) for x in flat)
    assert array_nbytes(payload) == plain
    assert payload_nbytes(payload) == plain + objects + raw + 64 * other


@given(payloads)
def test_freeze_then_private_is_an_independent_writable_copy(payload):
    frozen = freeze(payload)
    mine = private(frozen)
    assert same(frozen, payload) and same(mine, payload)
    originals = [x for x in leaves_of(payload) if isinstance(x, np.ndarray)]
    for arr in leaves_of(frozen):
        if isinstance(arr, np.ndarray):
            assert not arr.flags.writeable
    for arr in leaves_of(mine):
        if isinstance(arr, np.ndarray):
            assert arr.flags.writeable
            assert not any(np.shares_memory(arr, o) for o in originals)


@given(payloads)
def test_freeze_shares_no_memory_with_the_sender(payload):
    """``freeze`` copies every array, even one that is already read-only
    and C-contiguous: the receiver never reads the sender's memory."""
    for arr in leaves_of(payload):
        if isinstance(arr, np.ndarray) and arr.flags.c_contiguous:
            arr.flags.writeable = False
    originals = [x for x in leaves_of(payload) if isinstance(x, np.ndarray)]
    frozen = [x for x in leaves_of(freeze(payload)) if isinstance(x, np.ndarray)]
    assert len(frozen) == len(originals)
    for arr in frozen:
        assert arr.flags.c_contiguous and not arr.flags.writeable
        assert not any(np.shares_memory(arr, o) for o in originals)


# -- the frame ----------------------------------------------------------------------


def frozen_everywhere(payload) -> bool:
    return not any(x.flags.writeable for x in plain_arrays(payload))


@pytest.fixture(scope="module")
def arena():
    a = _Arena(mp.get_context("fork"), 64 * ARENA_BLOCK, ARENA_BLOCK)
    yield a
    a.destroy()


def fresh_counters() -> dict:
    return dict.fromkeys(
        ("shm_messages", "shm_bytes", "inline_messages", "arena_full_fallbacks"), 0
    )


@given(payload=payloads)
def test_frame_round_trip_through_the_arena(arena, payload):
    counters = fresh_counters()
    sent = private(payload)
    frame = _pack((3, 0, ("tag", 1)), payload, arena, counters)
    plain = plain_arrays(payload)
    big = [x for x in plain if x.nbytes >= SHM_MIN_BYTES]
    assert counters == {
        "shm_messages": len(big),
        "shm_bytes": sum(x.nbytes for x in big),
        "inline_messages": len(plain) - len(big),
        "arena_full_fallbacks": 0,
    }
    # Every byte was copied before ``_pack`` returned:
    # the sender scribbling over its arrays now changes nothing.
    for x in plain:
        x[...] = np.zeros((), x.dtype)
    head, skeleton, arrays, placed = decode_frame(frame)
    assert head == (3, 0, ("tag", 1)) and placed == len(big)
    # No plain array is pickled: the header holds placeholders only.
    assert not plain_arrays(skeleton)
    received = _ArenaMessage(skeleton, arrays).take(arena)
    assert same(received, sent)
    assert arena.used_blocks() == 0
    assert frozen_everywhere(received)
    assert all(x.flags.aligned for x in plain_arrays(received))


def digest(payload):
    """``payload`` with every array spelled out as plain data.  A forked
    rank's *result* is pickled at the default protocol, where numpy un-swaps
    a big-endian array: what a rank received is compared by this instead."""
    return map_arrays(
        payload,
        lambda a: (
            "ndarray", repr(a.dtype), a.shape,
            a.tolist() if a.dtype.hasobject else a.tobytes(),
        ),
    )


def _send_all(comm, batch):
    """Rank 0 sends every payload of ``batch``; rank 1 returns a digest of
    what arrived and whether all of it was read-only, rank 0 its transport
    counters."""
    if comm.rank == 0:
        for tag, payload in enumerate(batch):
            comm.send(payload, dest=1, tag=tag)
        comm.barrier()
        return dict(getattr(comm._world, "transport", {}))
    got = [comm.recv(source=0, tag=tag) for tag in range(len(batch))]
    comm.barrier()
    return digest(got), all(frozen_everywhere(p) for p in got)


@settings(max_examples=15, deadline=None)
@given(batch=st.lists(payloads, min_size=6, max_size=6))
def test_frame_delivers_what_the_thread_backend_delivers(batch):
    _, (wanted, frozen) = run_spmd(2, _send_all, batch)
    assert frozen and wanted == digest(list(batch))
    plain = [x for payload in batch for x in plain_arrays(payload)]
    small = sum(x.nbytes < SHM_MIN_BYTES for x in plain)
    for backend in ("process", "socket"):
        t, (got, frozen) = run_spmd(2, _send_all, batch, backend=backend, timeout=60)
        assert frozen and got == wanted
        if backend == "socket":  # one rank per node: every message is a TCP frame
            assert t["tcp_messages"] >= len(batch)
            assert t["tcp_payload_bytes"] == sum(x.nbytes for x in plain)
            assert t["shm_messages"] == t["inline_messages"] == t["local_frames"] == 0
            continue
        # ``shm_messages`` counts arrays that went to the arena,
        # ``inline_messages`` those that rode their frame (the small ones,
        # and — under CI's 1 MiB arena — any the arena had no room for).
        assert t["shm_messages"] + t["inline_messages"] == len(plain)
        assert t["inline_messages"] == small + t["arena_full_fallbacks"]
        assert t["local_frames"] >= len(batch)
        assert t["tcp_messages"] == 0


def test_frame_bits_do_not_depend_on_placement(monkeypatch):
    """One message per way an array can be placed: in the arena
    (descriptor-only frame), inline, arena-full fallback (inline), and
    inline in a frame too large for the receiver's staging buffer (read
    into a body buffer of its own) — mixed in one payload at the end.
    Every message is one frame on the socketpair.  The receiver acks each
    one, so the arena's one block is free again for the next."""
    monkeypatch.setenv("REPRO_SHM_BYTES", str(ARENA_BLOCK))
    rng = np.random.default_rng(5)
    in_arena = rng.standard_normal(SHM_MIN_BYTES // 8)
    inline = rng.standard_normal(SHM_MIN_BYTES // 8 - 1)
    no_room = rng.standard_normal(5 * ARENA_BLOCK // 32)  # 1.25 arenas
    unstaged = [inline * k for k in range(40)]
    messages = [in_arena, inline, no_room, unstaged, {"a": in_arena, "b": (inline, no_room)}]
    assert no_room.nbytes + 1024 < _STAGE_BYTES < sum(x.nbytes for x in unstaged)

    def prog(comm):
        if comm.rank == 1:
            got = []
            for tag in range(len(messages)):
                got.append(comm.recv(source=0, tag=tag))
                comm.send(None, dest=0, tag="ack")
            return got, all(frozen_everywhere(p) for p in got)
        t = comm._world.transport
        deltas = []
        for tag, payload in enumerate(messages):
            before = dict(t)
            comm.send(payload, dest=1, tag=tag)
            deltas.append({k: t[k] - before[k] for k in t if t[k] != before[k]})
            comm.recv(source=1, tag="ack")
        return deltas

    deltas, (got, frozen) = run_spmd(2, prog, backend="process", timeout=60)
    assert frozen and same(got, messages)
    arena = {"shm_messages": 1, "shm_bytes": in_arena.nbytes}
    assert deltas == [
        {**arena, "local_frames": 1},
        {"inline_messages": 1, "local_frames": 1},
        {"inline_messages": 1, "arena_full_fallbacks": 1, "local_frames": 1},
        {"inline_messages": 40, "local_frames": 1},
        {**arena, "inline_messages": 2, "arena_full_fallbacks": 1, "local_frames": 1},
    ]


def test_frame_recv_corruption_is_a_copy(backend):
    """An inline array is a view of immutable frame bytes: a recv-point
    ``corrupt`` fault must hand on a corrupted *copy* (one seeded element,
    the same on every backend), not try to write through it."""
    clean = np.arange(16.0)

    def prog(comm):
        if comm.rank == 0:
            comm.send(clean, dest=1, tag=5)
            comm.send(clean, dest=1, tag=5)
            return None
        return comm.recv(source=0, tag=5), comm.recv(source=0, tag=5)

    plan = "corrupt@rank1:point=recv:tag=5; seed=3"
    _, (bad, good) = run_spmd(2, prog, backend=backend, faults=plan, timeout=60)
    _, (wanted, _) = run_spmd(2, prog, faults=plan)
    assert same(good, clean) and same(bad, wanted)
    assert (bad != clean).sum() == 1


def test_frame_layout_is_header_then_aligned_raw_bytes(arena):
    small, odd = np.arange(5, dtype="<f8"), np.arange(3, dtype="u1")
    frame = _pack("head", [odd, small, "text"], arena, fresh_counters())
    hlen = int.from_bytes(frame[:4], "little")
    head, skeleton, descs = pickle.loads(frame[4 : 4 + hlen])
    assert head == "head" and [type(x) for x in skeleton] == [ArrayRef, ArrayRef, str]
    assert descs == [(None, 3, (3,), "|u1"), (None, 40, (5,), "<f8")]
    first = -(-(4 + hlen) // FRAME_ALIGN) * FRAME_ALIGN
    assert frame[first : first + 3] == odd.tobytes()
    assert frame[first + FRAME_ALIGN : first + FRAME_ALIGN + 40] == small.tobytes()
    assert len(frame) == first + FRAME_ALIGN + 40 + 8

