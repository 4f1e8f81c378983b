"""Collective operations and sub-communicators."""

import numpy as np
import pytest

from repro.comm import run_spmd
from repro.comm.payload import map_arrays


class TestBasicCollectives:
    @pytest.mark.parametrize("nranks", [1, 2, 3, 4, 8])
    def test_barrier(self, nranks):
        def prog(comm):
            for _ in range(3):
                comm.barrier()
            return comm.rank

        assert run_spmd(nranks, prog) == list(range(nranks))

    @pytest.mark.parametrize("nranks", [2, 4, 5])
    def test_bcast(self, nranks):
        def prog(comm):
            payload = np.arange(10) if comm.rank == 1 else None
            return comm.bcast(payload, root=1)

        for got in run_spmd(nranks, prog):
            np.testing.assert_array_equal(got, np.arange(10))

    def test_bcast_results_are_private_copies(self, backend):
        """Bare, in a dict, or in a dict nested in a tuple: every array of a
        ``bcast`` result is writable and shares memory with neither the
        root's payload nor another rank's result."""

        def prog(comm):
            a = np.zeros(4)
            shapes = [a, {"w": a}, (1, {"w": a, "l": [a]}, None)]
            mine = []

            def bump(arr):
                arr += comm.rank + 1  # must not leak to the root or a peer
                mine.append(arr)
                return arr

            for shape in shapes:
                map_arrays(comm.bcast(shape if comm.rank == 0 else None), bump)
            comm.barrier()
            return a, mine

        results = run_spmd(3, prog, backend=backend)
        everything = [arr for a, mine in results for arr in (a, *mine)]
        for rank, (a, mine) in enumerate(results):
            np.testing.assert_array_equal(a, np.zeros(4))
            assert len(mine) == 1 + 1 + 2
            for arr in mine:
                np.testing.assert_array_equal(arr, np.full(4, rank + 1.0))
                assert sum(np.shares_memory(arr, other) for other in everything) == 1

    def test_bcast_root_out_of_range(self):
        def prog(comm):
            comm.bcast("x", root=comm.size)

        with pytest.raises(ValueError, match="root=2 out of range"):
            run_spmd(2, prog, timeout=10)

    @pytest.mark.parametrize("nranks", [2, 4, 7])
    def test_allgather(self, nranks):
        def prog(comm):
            return comm.allgather(comm.rank**2)

        for got in run_spmd(nranks, prog):
            assert got == [r**2 for r in range(nranks)]


class TestReductions:
    @pytest.mark.parametrize("nranks", [1, 2, 4, 6])
    def test_allreduce_sum_scalar(self, nranks):
        def prog(comm):
            return comm.allreduce(comm.rank + 1)

        expected = sum(range(1, nranks + 1))
        assert run_spmd(nranks, prog) == [expected] * nranks

    def test_allreduce_sum_array(self):
        def prog(comm):
            return comm.allreduce(np.full(5, float(comm.rank)))

        for got in run_spmd(4, prog):
            np.testing.assert_array_equal(got, np.full(5, 6.0))

    @pytest.mark.parametrize("op,expected", [("max", 3), ("min", 0), ("prod", 0)])
    def test_allreduce_ops(self, op, expected):
        def prog(comm):
            return comm.allreduce(comm.rank, op=op)

        assert run_spmd(4, prog) == [expected] * 4

    def test_allreduce_deterministic_order(self):
        """Summation happens in comm-rank order, so results are identical
        across ranks even for floating point."""

        def prog(comm):
            rng = np.random.default_rng(comm.rank)
            return comm.allreduce(rng.standard_normal(64))

        results = run_spmd(4, prog)
        for got in results[1:]:
            np.testing.assert_array_equal(got, results[0])

    def test_allreduce_unknown_op(self):
        def prog(comm):
            comm.allreduce(1, op="xor")

        with pytest.raises(ValueError, match="unknown reduction"):
            run_spmd(2, prog, timeout=10)


class TestSplit:
    def test_split_even_odd(self):
        def prog(comm):
            sub = comm.split(color=comm.rank % 2)
            total = sub.allreduce(comm.rank)
            return (sub.rank, sub.size, total)

        results = run_spmd(4, prog)
        # Evens {0,2} and odds {1,3}.
        assert results[0] == (0, 2, 2)
        assert results[2] == (1, 2, 2)
        assert results[1] == (0, 2, 4)
        assert results[3] == (1, 2, 4)

    def test_split_with_key_reorders(self):
        def prog(comm):
            sub = comm.split(color=0, key=-comm.rank)  # reverse order
            return sub.rank

        assert run_spmd(3, prog) == [2, 1, 0]

    def test_split_undefined_color(self):
        def prog(comm):
            sub = comm.split(color=None if comm.rank == 0 else 1)
            if comm.rank == 0:
                assert sub is None
                return -1
            return sub.size

        assert run_spmd(3, prog) == [-1, 2, 2]

    def test_nested_split_grid(self):
        """4 ranks as a 2x2 grid: row comms and column comms coexist."""

        def prog(comm):
            row, col = divmod(comm.rank, 2)
            row_comm = comm.split(color=row)
            col_comm = comm.split(color=col)
            row_sum = row_comm.allreduce(comm.rank)
            col_sum = col_comm.allreduce(comm.rank)
            return (row_sum, col_sum)

        results = run_spmd(4, prog)
        assert results == [(1, 2), (1, 4), (5, 2), (5, 4)]

    def test_traffic_isolated_between_split_comms(self):
        """Messages on a sub-communicator don't collide with the parent's."""

        def prog(comm):
            sub = comm.split(color=comm.rank // 2)
            partner = 1 - sub.rank
            sub.send(("sub", comm.rank), dest=partner)
            comm.send(("world", comm.rank), dest=(comm.rank + 1) % comm.size)
            got_sub = sub.recv(source=partner)
            got_world = comm.recv(source=(comm.rank - 1) % comm.size)
            return got_sub, got_world

        results = run_spmd(4, prog)
        assert results[0][0] == ("sub", 1)
        assert results[3][1] == ("world", 2)

    def test_same_color_split_is_independent(self):
        """A split every rank joins has the parent's members but its own
        tag space: the same (source, tag) on each never cross."""

        def prog(comm):
            twin = comm.split(color=0)
            assert twin.members == comm.members
            twin.send("on-twin", dest=comm.rank, tag=9)
            comm.send("on-world", dest=comm.rank, tag=9)
            got = comm.recv(source=comm.rank, tag=9), twin.recv(source=comm.rank, tag=9)
            return got, twin.allreduce(1)

        assert run_spmd(2, prog) == [(("on-world", "on-twin"), 2)] * 2


class TestWorldRankMapping:
    def test_translate(self):
        """A sub-communicator's ranks translate to world ranks through
        ``members``."""

        def prog(comm):
            sub = comm.split(color=comm.rank % 2)
            return list(sub.members)

        results = run_spmd(4, prog)
        assert results[0] == [0, 2]
        assert results[1] == [1, 3]
