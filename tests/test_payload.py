"""The one payload walk (``repro.comm.payload``), property-checked.

Freezing a send, the private copy of a ``bcast`` result, the arena's and a
checkpoint's array lifting, the byte counters and fault corruption are all
:func:`map_arrays`; these tests generate nested payloads — tuple/list/dict,
zero-size, non-contiguous and object-dtype arrays, scalars, ``None``,
bytes — and hold the walk to: ``join`` inverts ``split`` leaf for leaf and
bit for bit under every ``take`` rule in use, each array is visited exactly
once, and the byte counters agree on array bytes.
"""

import multiprocessing as mp
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.comm.payload import (
    ArrayRef,
    array_nbytes,
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
from repro.core import checkpoint

# -- generated payloads ---------------------------------------------------------


@st.composite
def arrays(draw):
    kind = draw(st.sampled_from(["f8", "f4", "i8", "u1", "bool", "object"]))
    shape = tuple(draw(st.lists(st.integers(0, 9), min_size=0, max_size=3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if kind == "object":
        arr = np.empty(shape, dtype=object)
        arr[...] = "x"
        return arr
    # Up to 9**3 float64 = 5.8 KB: both sides of the arena's 2 KiB rule.
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


def arena_rule(arr: np.ndarray) -> bool:
    return arr.flags.c_contiguous and arr.dtype != object and arr.nbytes >= SHM_MIN_BYTES


TAKE_RULES = {
    "checkpoint": lambda arr: True,
    "arena": arena_rule,
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
        # The skeleton is what gets pickled (lane message, ``__meta__``).
        rebuilt = join(pickle.loads(pickle.dumps(skeleton)), lifted)
        assert same(rebuilt, payload)
        assert same(join(skeleton, lifted), payload)


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


# -- the arena's take rule, for real ----------------------------------------------


@pytest.fixture(scope="module")
def arena():
    a = _Arena(mp.get_context("fork"), 64 * ARENA_BLOCK, ARENA_BLOCK)
    yield a
    a.destroy()


@given(payload=payloads)
def test_arena_round_trip(arena, payload):
    counters = dict.fromkeys(
        ("shm_messages", "shm_bytes", "inline_messages", "arena_full_fallbacks"), 0
    )
    skeleton, descs = _pack(payload, arena, counters)
    shipped = [
        x for x in leaves_of(payload)
        if isinstance(x, np.ndarray) and x.dtype != object and x.nbytes >= SHM_MIN_BYTES
    ]
    assert len(descs) == counters["shm_messages"] == len(shipped)
    assert counters["shm_bytes"] == sum(x.nbytes for x in shipped)
    assert counters["arena_full_fallbacks"] == 0
    # What stays inline is pickled after ``deliver`` returns: nothing the
    # sender can still write to may be left in it.
    for x in leaves_of(skeleton):
        if isinstance(x, np.ndarray) and x.dtype != object and x.flags.writeable:
            assert not any(np.shares_memory(x, o) for o in leaves_of(payload)
                           if isinstance(o, np.ndarray))
    message = _ArenaMessage(pickle.loads(pickle.dumps(skeleton)), descs)
    received = message.take(arena) if descs else message.open(arena, copy=True)
    assert same(received, payload)
    assert arena.used_blocks() == 0
    for x in leaves_of(received):
        if isinstance(x, np.ndarray) and x.dtype != object:
            assert not x.flags.writeable


# -- checkpoints on disk outlive the code that wrote them ---------------------------


def test_checkpoint_written_with_the_old_placeholder_name_still_loads(tmp_path, monkeypatch):
    class OldRef:
        def __init__(self, index):
            self.index = index

        def __reduce__(self):
            return (OldRef, (self.index,))

    OldRef.__module__ = "repro.core.checkpoint"
    OldRef.__name__ = OldRef.__qualname__ = "_ArrRef"
    with monkeypatch.context() as patched:
        patched.setattr(checkpoint, "_ArrRef", OldRef)
        blob = pickle.dumps(
            {"step": 3, "params": {"w": OldRef(0), "b": (OldRef(1),)}},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
    assert b"_ArrRef" in blob and b"ArrayRef" not in blob
    w, b = np.arange(6.0).reshape(2, 3), np.ones(2, dtype=np.float32)
    with open(checkpoint.checkpoint_path(str(tmp_path), 3, 0), "wb") as f:
        np.savez(f, a0=w, a1=b, __meta__=np.frombuffer(blob, dtype=np.uint8))
    state = checkpoint.load_state(str(tmp_path), 3, 0)
    assert same(state, {"step": 3, "params": {"w": w, "b": (b,)}})
    # And what is written now reads back through the same door.
    checkpoint.save_state(str(tmp_path), 4, 0, state)
    assert same(checkpoint.load_state(str(tmp_path), 4, 0), state)
