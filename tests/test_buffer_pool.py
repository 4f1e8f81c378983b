"""BufferPool's free list.  No engine code takes from a pool any more —
every gather stages into fresh buffers — and the class stays for the
benchmark's ``BufferPool.take`` wrapper, which these tests pin."""

import numpy as np

from repro.comm import BufferPool


class TestImmediateReuse:
    def test_take_give_roundtrip(self):
        pool = BufferPool()
        a = pool.take((4, 4), np.float64)
        pool.give(a)
        b = pool.take((4, 4), np.float64)
        assert b is a
        assert pool.stats() == (1, 1)

    def test_mismatched_shape_allocates(self):
        pool = BufferPool()
        pool.give(pool.take((4, 4), np.float64))
        c = pool.take((8, 2), np.float64)
        assert c.shape == (8, 2)
        assert pool.stats() == (0, 2)

    def test_views_and_readonly_rejected(self):
        pool = BufferPool()
        a = np.zeros((4, 4))
        pool.give(a[:2])  # view: base is not None
        ro = np.zeros((4, 4))
        ro.flags.writeable = False
        pool.give(ro)
        assert pool.take((2, 4), np.float64) is not None
        assert pool.stats() == (0, 1)

    def test_free_list_keeps_two_buffers_per_key(self):
        """A key's free-list is capped: a third buffer given back is
        dropped, and a fresh key starts its own list."""
        pool = BufferPool()
        bufs = [pool.take((4,), np.float64) for _ in range(3)]
        for buf in bufs:
            pool.give(buf)
        again = [pool.take((4,), np.float64) for _ in range(3)]
        assert [a is b for a, b in zip(again, bufs[1::-1])] == [True, True]
        assert all(again[2] is not b for b in bufs)
        pool.give(pool.take((4,), np.float32))
        assert pool.take((4,), np.float32).dtype == np.float32
        assert pool.stats() == (3, 5)
