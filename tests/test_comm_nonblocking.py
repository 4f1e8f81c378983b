"""Nonblocking communication semantics: irecv/iallreduce + Request.

Covers the MPI-style contract of the request handles: out-of-order
``wait()``, ``test()`` polling loops, many operations in flight per
communicator, abort propagation into pending requests, and the fresh
results the engine's overlapped gradient reducer relies on.

The whole suite runs on both the thread and the process backend (the
``backend`` fixture); the process backend uses a reduced rank matrix —
its semantics are identical, only the transport differs.
"""

import time

import numpy as np
import pytest

from conftest import reduce_for_process
from repro.comm import run_spmd


class TestIallreduce:
    @pytest.mark.parametrize("nranks", [2, 4, 8])
    def test_matches_blocking_allreduce(self, nranks, backend):
        reduce_for_process(backend, nranks > 4, "nranks <= 4")

        def prog(comm):
            value = np.full(16, float(comm.rank + 1))
            blocking = comm.allreduce(value)
            nonblocking = comm.iallreduce(value).wait()
            return blocking, nonblocking

        for blocking, nonblocking in run_spmd(nranks, prog, backend=backend):
            np.testing.assert_array_equal(blocking, nonblocking)

    def test_out_of_order_wait(self, backend):
        def prog(comm):
            r1 = comm.iallreduce(np.full(4, 1.0))
            r2 = comm.iallreduce(np.full(4, 10.0))
            # Drain in reverse launch order.
            second = r2.wait()
            first = r1.wait()
            return first[0], second[0]

        for first, second in run_spmd(4, prog, backend=backend):
            assert first == 4.0
            assert second == 40.0

    def test_many_inflight_per_communicator(self, backend):
        def prog(comm):
            requests = [comm.iallreduce(np.full(8, float(i))) for i in range(12)]
            results = [r.wait() for r in reversed(requests)]
            return [r[0] for r in reversed(results)]

        for totals in run_spmd(4, prog, backend=backend):
            assert totals == [4.0 * i for i in range(12)]

    def test_wait_is_idempotent(self, backend):
        def prog(comm):
            r = comm.iallreduce(1)
            return r.wait(), r.wait(), r.complete

        for a, b, done in run_spmd(2, prog, backend=backend):
            assert a == b == 2
            assert done

    def test_test_polling_loop(self, backend):
        def prog(comm):
            if comm.rank == comm.size - 1:
                time.sleep(0.05)  # straggler: others must poll meanwhile
            r = comm.iallreduce(comm.rank + 1)
            spins = 0
            while not r.test():
                spins += 1
                time.sleep(0.001)
            return r.wait(), spins

        results = run_spmd(4, prog, backend=backend)
        assert all(total == 10 for total, _ in results)
        # At least one non-straggler rank genuinely polled while incomplete.
        assert any(spins > 0 for _, spins in results[:-1])

    def test_scalar_and_op_variants(self, backend):
        def prog(comm):
            s = comm.iallreduce(comm.rank + 1, op="max").wait()
            p = comm.iallreduce(2.0, op="prod").wait()
            return s, p

        for mx, prod in run_spmd(3, prog, backend=backend):
            assert mx == 3
            assert prod == 8.0

    def test_deterministic_combination_order(self, backend):
        """Nonblocking must perform the same float additions as blocking."""

        def prog(comm):
            rng = np.random.default_rng(comm.rank)
            v = rng.standard_normal(64)
            return comm.allreduce(v), comm.iallreduce(v).wait()

        nranks = 8 if backend == "thread" else 4  # reduced process matrix
        for blocking, nonblocking in run_spmd(nranks, prog, backend=backend):
            np.testing.assert_array_equal(blocking, nonblocking)

    def test_fast_rank_does_not_wait_for_readers(self, backend):
        """wait() needs all *deposits*, never peer *reads* — rank 0 drains
        its request even though the other rank never waits on its own."""

        def prog(comm):
            r = comm.iallreduce(np.arange(4.0))
            if comm.rank == 0:
                out = r.wait()
                comm.barrier()
                return out
            comm.barrier()  # never calls r.wait()
            return None

        results = run_spmd(2, prog, backend=backend)
        np.testing.assert_array_equal(results[0], 2 * np.arange(4.0))

    def test_independent_subcommunicators(self, backend):
        def prog(comm):
            row = comm.split(color=comm.rank // 2)
            r = row.iallreduce(comm.rank)
            return r.wait()

        results = run_spmd(4, prog, backend=backend)
        assert results == [1, 1, 5, 5]


class TestIrecv:
    def test_ring_exchange(self, backend):
        def prog(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            comm.send(np.full(8, float(comm.rank)), dest=right)
            req = comm.irecv(source=left)
            got = req.wait()
            return float(got[0])

        results = run_spmd(4, prog, backend=backend)
        assert results == [3.0, 0.0, 1.0, 2.0]

    def test_irecv_test_polling(self, backend):
        def prog(comm):
            if comm.rank == 0:
                time.sleep(0.03)
                comm.send("payload", dest=1)
                return None
            req = comm.irecv(source=0)
            polls = 0
            while not req.test():
                polls += 1
                time.sleep(0.001)
            assert req.complete
            return req.wait(), polls

        results = run_spmd(2, prog, backend=backend)
        payload, polls = results[1]
        assert payload == "payload"
        assert polls > 0

    def test_irecv_of_arrived_message_is_born_complete(self, backend):
        """A receive posted after its message arrived completes on its
        first ``test()``, without a ``wait()``."""

        def prog(comm):
            if comm.rank == 0:
                comm.send(np.arange(4.0), dest=1)
                comm.barrier()
                return None
            comm.barrier()  # rank 0's send went out before its barrier frame
            req = comm.irecv(source=0)
            assert req.test() and req.complete
            return req.wait()

        np.testing.assert_array_equal(
            run_spmd(2, prog, backend=backend)[1], np.arange(4.0)
        )


class TestAbortPropagation:
    def test_abort_wakes_pending_wait(self, backend):
        """A rank dying before depositing must break peers out of wait()."""

        def prog(comm):
            if comm.rank == 0:
                raise RuntimeError("rank 0 died")
            req = comm.iallreduce(np.ones(4))
            return req.wait()  # must raise CommAborted, not hang

        with pytest.raises(RuntimeError, match="rank 0 died"):
            run_spmd(4, prog, timeout=10.0, backend=backend)

    def test_abort_surfaces_in_test_polling(self, backend):
        def prog(comm):
            if comm.rank == 0:
                time.sleep(0.02)
                raise RuntimeError("rank 0 died polling")
            req = comm.iallreduce(1)
            while not req.test():  # must raise CommAborted eventually
                time.sleep(0.001)
            return req.wait()

        with pytest.raises(RuntimeError, match="rank 0 died polling"):
            run_spmd(2, prog, timeout=10.0, backend=backend)

    def test_abort_wakes_pending_irecv(self, backend):
        def prog(comm):
            if comm.rank == 0:
                raise RuntimeError("sender died")
            return comm.irecv(source=0).wait()

        with pytest.raises(RuntimeError, match="sender died"):
            run_spmd(2, prog, timeout=10.0, backend=backend)


class TestZeroCopy:
    def test_iallreduce_contribution_is_not_copied(self, backend):
        """The caller's contribution is only read; results are fresh."""

        def prog(comm):
            v = np.full(8, float(comm.rank))
            out = comm.iallreduce(v).wait()
            # The reduced result is a new writable array (safe for SGD).
            assert out.flags.writeable
            assert not np.shares_memory(out, v)
            out += 1.0  # must not disturb anything
            comm.barrier()
            return float(out[0])

        assert run_spmd(4, prog, backend=backend) == [7.0] * 4

    def test_stats_record_wait_overlap_and_bytes(self, backend):
        def prog(comm):
            comm.stats.reset()
            req = comm.iallreduce(np.ones(1024))
            # Simulated overlapped compute window before draining.
            time.sleep(0.005)
            req.wait()
            s = comm.stats
            return (
                s.collectives.get("iallreduce"),
                s.collective_bytes.get("iallreduce"),
                s.wait_seconds.get("iallreduce", 0.0),
                s.overlap_seconds.get("iallreduce", 0.0),
            )

        for calls, nbytes, wait, overlap in run_spmd(2, prog, backend=backend):
            assert calls == 1
            assert nbytes == 1024 * 8
            assert wait >= 0.0
            assert overlap >= 0.004  # the sleep counts as hidden time
