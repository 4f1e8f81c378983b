"""Reusable assembly buffers for the halo exchange.

A region exchange assembles into an extended array per call (local shard +
halo cells); on the training hot path that would be two large allocations
per convolution per step.  A :class:`BufferPool` — one per windowed layer —
recycles those buffers across steps.

Only *assembly* buffers go through a pool: they never cross the
communication boundary (the transport copies whatever is sent), so one is
safe to recycle as soon as its caller is done reading it.
"""

from __future__ import annotations

import threading

import numpy as np

#: Free buffers kept per ``(shape, dtype)``.
_MAX_PER_KEY = 2


class BufferPool:
    """A small free-list of ndarrays keyed by (shape, dtype).

    ``take`` returns a matching buffer with *unspecified contents* (the
    caller must fill it); ``give`` returns a buffer for reuse.  Thread-safe;
    one pool per layer/rank is typical, but sharing is harmless.
    """

    def __init__(self) -> None:
        self._free: dict[tuple[tuple[int, ...], np.dtype], list[np.ndarray]] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def take(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        key = (tuple(int(s) for s in shape), np.dtype(dtype))
        with self._lock:
            stack = self._free.get(key)
            if stack:
                self.hits += 1
                return stack.pop()
            self.misses += 1
        return np.empty(key[0], dtype=key[1])

    def give(self, arr: np.ndarray | None) -> None:
        if arr is None or not isinstance(arr, np.ndarray):
            return
        if not (arr.flags.c_contiguous and arr.flags.writeable and arr.base is None):
            return  # only whole, owned, writable buffers are safe to recycle
        with self._lock:
            stack = self._free.setdefault((arr.shape, arr.dtype), [])
            if len(stack) < _MAX_PER_KEY:
                stack.append(arr)

    def stats(self) -> tuple[int, int]:
        """(hits, misses) — how often ``take`` recycled vs allocated."""
        return self.hits, self.misses
