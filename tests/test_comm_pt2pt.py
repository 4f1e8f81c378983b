"""Point-to-point semantics of the SPMD communicator."""

import numpy as np
import pytest

from repro.comm import run_spmd
from repro.comm.payload import map_arrays

#: How an array rides in a payload: bare, and inside each walked container.
PAYLOAD_SHAPES = (
    lambda a: a,
    lambda a: {"w": a},
    lambda a: (1, {"w": a, "l": [a]}, None),
)

#: A dtype whose ``str`` code (``|V8``) does not name its fields.
FIELDS = np.dtype([("a", "<f4"), ("b", "<i4")])

#: What rides in them: a plain vector, and a structured array on either side
#: of the forked world's 2 KiB arena threshold (the arena descriptor used to
#: carry ``dtype.str`` and deliver the large one as ``|V8``).
PAYLOAD_ARRAYS = {
    "float64": lambda: np.ones(8),
    "fields-64B": lambda: np.ones(8, dtype=FIELDS),
    "fields-8KiB": lambda: np.ones(1024, dtype=FIELDS),
}


class TestSendRecv:
    def test_two_rank_exchange(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send({"a": 7}, dest=1, tag=11)
                return None
            return comm.recv(source=0, tag=11)

        results = run_spmd(2, prog)
        assert results[1] == {"a": 7}

    def test_numpy_roundtrip(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.arange(1000, dtype=np.float64), dest=1)
                return None
            return comm.recv(source=0)

        results = run_spmd(2, prog)
        np.testing.assert_array_equal(results[1], np.arange(1000, dtype=np.float64))

    def test_send_hands_the_receiver_a_read_only_copy(self, backend):
        """A contiguous array arrives as a read-only array of its own,
        never a view of the sender's buffer, on every backend."""

        def prog(comm):
            data = np.full(8, float(comm.rank))
            comm.send(data, dest=1 - comm.rank)
            comm.send(data, dest=comm.rank)  # self-send
            got = [comm.recv(source=1 - comm.rank), comm.recv(source=comm.rank)]
            return [
                (a.tolist(), a.flags.writeable, np.shares_memory(a, data)) for a in got
            ]

        for rank, (peer, own) in enumerate(run_spmd(2, prog, backend=backend)):
            assert peer == ([float(1 - rank)] * 8, False, False)
            assert own == ([float(rank)] * 8, False, False)

    def test_send_copies_noncontiguous_payload(self):
        """Non-contiguous views are still copied at the boundary."""

        def prog(comm):
            if comm.rank == 0:
                data = np.arange(16, dtype=np.float64)[::2]
                comm.send(data, dest=1)
                data[:] = -1.0
                comm.barrier()
                return None
            comm.barrier()
            return comm.recv(source=0)

        results = run_spmd(2, prog)
        np.testing.assert_array_equal(results[1], np.arange(0, 16, 2, dtype=np.float64))

    @pytest.mark.parametrize("array", PAYLOAD_ARRAYS)
    def test_receiver_cannot_write_into_sent_payload(self, backend, array):
        """Whatever container carries them, received arrays keep their dtype
        and bits, are read-only, and a write attempt never reaches the
        sender (a dict used to cross the thread backend as a writable alias
        of the sender's array)."""
        original = PAYLOAD_ARRAYS[array]()

        def prog(comm):
            if comm.rank == 0:
                a = original.copy()
                for tag, wrap in enumerate(PAYLOAD_SHAPES):
                    comm.send(wrap(a), dest=1, tag=tag)
                comm.barrier()
                return a.tobytes()
            seen = []

            def poke(arr):
                seen.append(
                    (arr.flags.writeable, arr.dtype == original.dtype, arr.tobytes())
                )
                try:
                    arr[...] = 9.0
                except ValueError:
                    pass
                return arr

            for tag in range(len(PAYLOAD_SHAPES)):
                map_arrays(comm.recv(source=0, tag=tag), poke)
            comm.barrier()
            return seen

        sent, seen = run_spmd(2, prog, backend=backend)
        assert sent == original.tobytes()
        assert seen == [(False, True, sent)] * (1 + 1 + 2)

    def test_tag_matching_out_of_order(self):
        """A recv on tag 2 must not consume the tag-1 message."""

        def prog(comm):
            if comm.rank == 0:
                comm.send("first", dest=1, tag=1)
                comm.send("second", dest=1, tag=2)
                return None
            second = comm.recv(source=0, tag=2)
            first = comm.recv(source=0, tag=1)
            return (first, second)

        results = run_spmd(2, prog)
        assert results[1] == ("first", "second")

    def test_fifo_per_source_tag(self):
        def prog(comm):
            if comm.rank == 0:
                for i in range(5):
                    comm.send(i, dest=1)
                return None
            return [comm.recv(source=0) for _ in range(5)]

        results = run_spmd(2, prog)
        assert results[1] == [0, 1, 2, 3, 4]

    def test_self_send(self):
        def prog(comm):
            comm.send("loop", dest=comm.rank, tag=3)
            return comm.recv(source=comm.rank, tag=3)

        assert run_spmd(1, prog) == ["loop"]

    def test_ring_pass(self):
        """Every rank passes its rank value around a ring."""

        def prog(comm):
            comm.send(comm.rank, dest=(comm.rank + 1) % comm.size)
            return comm.recv(source=(comm.rank - 1) % comm.size)

        results = run_spmd(4, prog)
        assert results == [3, 0, 1, 2]

    def test_bidirectional_exchange_no_deadlock(self):
        """Eager sends mean a symmetric exchange cannot deadlock."""

        def prog(comm):
            partner = 1 - comm.rank
            comm.send(np.full(4, comm.rank), dest=partner)
            return float(comm.recv(source=partner)[0])

        assert run_spmd(2, prog) == [1.0, 0.0]


class TestErrors:
    def test_exception_propagates(self):
        def prog(comm):
            if comm.rank == 1:
                raise ValueError("boom on rank 1")
            comm.recv(source=1)  # would block forever without abort

        with pytest.raises(ValueError, match="boom on rank 1"):
            run_spmd(2, prog, timeout=10)

    def test_recv_from_out_of_range_rank(self):
        def prog(comm):
            comm.recv(source=5)

        with pytest.raises(ValueError, match="out of range"):
            run_spmd(2, prog, timeout=10)

    def test_single_rank_runs_inline(self):
        def prog(comm):
            assert comm.size == 1 and comm.rank == 0
            return "done"

        assert run_spmd(1, prog) == ["done"]


class TestStats:
    def test_bytes_accounting(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.zeros(100, dtype=np.float32), dest=1)
            else:
                comm.recv(source=0)
            return (comm.stats.bytes_sent, comm.stats.bytes_received)

        results = run_spmd(2, prog)
        assert results[0] == (400, 0)
        assert results[1] == (0, 400)

    def test_blocking_recv_is_booked_as_an_irecv(self, backend):
        """``recv`` is ``irecv(..., opname="recv").wait()``: one booking
        site, so a blocking receive counts its message and bytes once and
        reports its wait under ``"recv"``, exactly as the request would."""

        def prog(comm):
            if comm.rank == 0:
                comm.send(np.zeros(100), dest=1)
                comm.send(np.zeros(50), dest=1, tag=1)
                return None
            s = comm.stats
            comm.recv(source=0)
            blocking = s.recvs, s.bytes_received, set(s.wait_seconds), s.collectives
            comm.irecv(source=0, tag=1, opname="recv").wait()
            return blocking, (s.recvs, s.bytes_received, set(s.wait_seconds))

        blocking, both = run_spmd(2, prog, backend=backend)[1]
        assert blocking == (1, 800, {"recv"}, {})
        assert both == (2, 1200, {"recv"})
