"""What a payload is: the one walk over its containers, and the rule built
on it.

A payload is an ndarray, a ``tuple``/``list``/``dict`` of payloads, or an
opaque leaf (scalar, ``None``, ``bytes``, any picklable object).  Everything
that has to reach *the arrays inside a payload* — freezing a send, the
private copy of a ``bcast``/``scatter`` result, lifting arrays into the
shared-memory arena or a checkpoint's ``npz``, byte counting, fault
corruption — goes through :func:`map_arrays`, so no two of them can
disagree about which containers are walked.  ``dict`` keys are never
payload; subclasses of the three containers come back as the plain type.

The rule (MPI's): a payload handed to the communicator is immutable from
then on, a received one is read-only, and a ``bcast``/``scatter`` result is
a private writable copy.  :func:`freeze` and :func:`private` are its two
moves; the communicator's copy-discipline table says who makes which, when.
"""

from __future__ import annotations

import pickle
from typing import Any, Callable

import numpy as np

#: When True (default), C-contiguous arrays are shared across the boundary
#: as read-only views instead of deep copies.
_zero_copy = True


def _walk(payload: Any, leaf: Callable[[Any], Any]) -> Any:
    """``payload`` rebuilt with every non-container leaf ``x`` replaced by
    ``leaf(x)`` — the only recursion over payload containers in ``src/``."""
    if isinstance(payload, tuple):
        return tuple(_walk(p, leaf) for p in payload)
    if isinstance(payload, list):
        return [_walk(p, leaf) for p in payload]
    if isinstance(payload, dict):
        return {k: _walk(v, leaf) for k, v in payload.items()}
    return leaf(payload)


def map_arrays(payload: Any, fn: Callable[[np.ndarray], Any]) -> Any:
    """``payload`` with every ndarray ``a`` replaced by ``fn(a)``, visited
    once each, depth first in container order; other leaves pass through."""
    if isinstance(payload, np.ndarray):  # most messages are one bare array
        return fn(payload)
    return _walk(payload, lambda x: fn(x) if isinstance(x, np.ndarray) else x)


class ArrayRef:
    """Where an array was lifted out of a payload: its index in the list
    that travels beside the skeleton (arena descriptors, ``npz`` members)."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index

    def __reduce__(self):
        return (ArrayRef, (self.index,))


def split(
    payload: Any, take: Callable[[np.ndarray], bool]
) -> tuple[Any, list[np.ndarray]]:
    """Lift the arrays ``take`` accepts out of ``payload``.

    Returns the skeleton — ``payload`` with each taken array replaced by an
    :class:`ArrayRef` — and the taken arrays in visit order.  ``take`` is
    called once per array, in that order, so it may do the moving itself
    (the arena's copies an array out and declines when it finds no room).
    """
    arrays: list[np.ndarray] = []

    def lift(arr: np.ndarray) -> Any:
        if not take(arr):
            return arr
        arrays.append(arr)
        return ArrayRef(len(arrays) - 1)

    return map_arrays(payload, lift), arrays


def join(skeleton: Any, arrays: list) -> Any:
    """Inverse of :func:`split`: each :class:`ArrayRef` becomes its array."""
    return _walk(
        skeleton, lambda x: arrays[x.index] if type(x) is ArrayRef else x
    )


# ---------------------------------------------------------------------------
# The frame: one message as bytes
# ---------------------------------------------------------------------------

#: Every inline array starts on a multiple of this many bytes from the start
#: of its frame — the strictest alignment a numpy scalar type asks for
#: (``longdouble``), and what a ``bytes`` object's data starts on — so a
#: received array is ``flags.aligned`` exactly as an unpickled one was.
FRAME_ALIGN = 16


def encode_frame(
    head: Any, payload: Any, place: Callable[[np.ndarray], int | None] | None = None
) -> bytes:
    """One message as ``bytes``: a pickled header and the raw bytes of its
    arrays, so no array is ever pickled.

    Layout: ``[u32 header length][header][pad][array 0][pad][array 1]…``.
    The header is ``pickle((head, skeleton, descriptors))``: ``skeleton`` is
    ``payload`` with every array lifted out by :func:`split` — containers,
    scalars, :class:`ArrayRef` placeholders, and the arrays a raw copy
    cannot carry (object dtype), which stay and are pickled — and descriptor
    ``i`` is ``(offset, nbytes, shape, dtype)`` of the array ``ArrayRef(i)``
    stands for, with one of two placements:

    * ``offset is None`` — **inline**: the array's C-order bytes ride this
      frame.  Inline arrays follow the header in descriptor order, each
      starting on the next :data:`FRAME_ALIGN` boundary; the copy is made
      here, so the caller may mutate the array as soon as this returns.
    * an integer — what ``place(arr)`` answered: the transport has already
      put the bytes somewhere both sides can reach (the forked world's
      shared-memory arena) and the receiver resolves the offset there.

    ``dtype`` travels as its ``str`` code, or as the ``np.dtype`` itself
    when it has fields the code would lose.
    """
    descs: list[tuple] = []
    raw: list[bytes] = []

    def lift(arr: np.ndarray) -> bool:
        dtype = arr.dtype
        if dtype.hasobject:
            return False
        offset = None if place is None else place(arr)
        nbytes = arr.nbytes
        if offset is None:
            raw.append(arr.tobytes())
            if nbytes % FRAME_ALIGN:
                raw.append(bytes(-nbytes % FRAME_ALIGN))
        descs.append(
            (offset, nbytes, arr.shape, dtype.str if dtype.names is None else dtype)
        )
        return True

    skeleton, _ = split(payload, lift)
    header = pickle.dumps((head, skeleton, descs), protocol=pickle.HIGHEST_PROTOCOL)
    hlen = len(header)
    return b"".join(
        (hlen.to_bytes(4, "little"), header, bytes(-(4 + hlen) % FRAME_ALIGN), *raw)
    )


def decode_frame(frame: bytes) -> tuple[Any, Any, list, int]:
    """Inverse of :func:`encode_frame`: ``(head, skeleton, arrays, placed)``.

    ``arrays[i]`` is the array ``ArrayRef(i)`` stands for when it rode
    inline — a read-only view of ``frame`` (``bytes`` are immutable), no
    copy — or its ``(offset, nbytes, shape, dtype)`` descriptor when the
    sender placed it elsewhere; ``placed`` counts the latter.  With
    ``placed == 0``, ``join(skeleton, arrays)`` is the payload.
    """
    hlen = int.from_bytes(frame[:4], "little")
    head, skeleton, arrays = pickle.loads(frame[4 : 4 + hlen])
    pos = 4 + hlen
    placed = 0
    for i, (offset, nbytes, shape, dtype) in enumerate(arrays):
        if offset is None:
            pos += -pos % FRAME_ALIGN
            arrays[i] = np.ndarray(shape, dtype, frame, pos)
            pos += nbytes
        else:
            placed += 1
    return head, skeleton, arrays, placed


def _leaves(payload: Any) -> list:
    out: list = []
    _walk(payload, out.append)
    return out


def payload_nbytes(payload: Any) -> int:
    """Approximate wire size of a payload: array and ``bytes`` lengths, plus
    a nominal 64-byte envelope per other leaf (small control messages)."""
    if isinstance(payload, np.ndarray):
        return payload.nbytes
    return sum(
        x.nbytes if isinstance(x, np.ndarray)
        else len(x) if isinstance(x, (bytes, bytearray))
        else 64
        for x in _leaves(payload)
    )


def array_nbytes(payload: Any) -> int:
    """Total ndarray bytes in ``payload``, object dtype excluded.

    The model-comparable part of a message: collective schedules ship bare
    array segments, so for them this equals the wire bytes the cost model
    prices — pickle framing and container skeletons are excluded, keeping
    the modeled == measured comparison exact.
    """
    return sum(
        x.nbytes
        for x in _leaves(payload)
        if isinstance(x, np.ndarray) and x.dtype != object
    )


# ---------------------------------------------------------------------------
# The immutability rule
# ---------------------------------------------------------------------------


def set_zero_copy(enabled: bool) -> bool:
    """Enable/disable the zero-copy send fast path; returns the old setting.

    Turning it off restores the historical copy-on-send semantics, which is
    useful as a bisection tool when debugging a suspected aliasing bug (a
    behavioral difference between the two modes indicates a sender mutating
    a buffer after handing it to the communicator).
    """
    global _zero_copy
    prev = _zero_copy
    _zero_copy = bool(enabled)
    return prev


def _frozen(arr: np.ndarray) -> np.ndarray:
    flags = arr.flags
    if _zero_copy and flags.c_contiguous:
        if not flags.writeable:
            return arr
        out = arr.view()
    else:
        out = arr.copy()
    out.flags.writeable = False
    return out


def freeze(payload: Any) -> Any:
    """Make a payload safe to hand across the communication boundary.

    C-contiguous ndarrays become read-only *views* (zero-copy): the receiver
    cannot write through them, and the sender promises not to mutate the
    buffer after the send — the MPI contract.  Other arrays are copied, and
    the copy is read-only too: what a receiver may do with an array does
    not depend on the layout it was sent in.
    """
    return map_arrays(payload, _frozen)


def private(payload: Any) -> Any:
    """A writable private copy of a (possibly frozen) payload."""
    return map_arrays(payload, np.ndarray.copy)
