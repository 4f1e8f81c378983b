"""A free list of ndarrays, kept only as a benchmark pin.

No engine code takes from a :class:`BufferPool` any more: every halo
gather stages into fresh buffers, a convolution only the small source
boxes of its boundary pieces (:mod:`repro.core.dist_conv`) and pooling its
small region, so nothing is held between steps.  The class stays because
the end-to-end benchmark's span tracer wraps :meth:`BufferPool.take` (its
``tensor.pool_hit_ratio``), and that wrapper must find it.
"""

from __future__ import annotations

import threading

import numpy as np

#: Free buffers kept per ``(shape, dtype)``.
_MAX_PER_KEY = 2


class BufferPool:
    """A small free-list of ndarrays keyed by (shape, dtype).

    ``take`` returns a matching buffer with *unspecified contents* (the
    caller must fill it); ``give`` returns a buffer for reuse.  Thread-safe.
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
