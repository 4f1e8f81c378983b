"""Algorithmic collectives: schedule correctness, parity, wire accounting.

Covers the chunked point-to-point schedules of :mod:`repro.comm.algorithms`
(ring / Rabenseifner / recursive doubling allreduce, ring reduce-scatter,
binomial-tree bcast/reduce/gather/scatter) and their integration into the
communicator:

* **parity** — every algorithm x op x backend x p (uneven shapes, non-
  power-of-two groups falling back) is allclose to the bitwise-reference
  ``"direct"`` fold, exactly deterministic across repeated runs, and
  bitwise identical across ranks;
* **wire accounting** — the logical-vs-wire split in ``CommStats``: a ring
  allreduce records ``2n(p-1)/p`` bytes per rank where ``"direct"``
  records ``n(p-1)``, matching :func:`allreduce_wire_bytes`;
* **transport counters** — on the process backend the shared-memory
  transport moves no more than the ring bound plus slack (the O(p*n) ->
  2n(p-1)/p reduction, measured, not modeled);
* **engine** — gradient-reducer training runs are deterministic and
  allclose across ``"direct"`` vs ``"auto"`` on both backends.
"""

import numpy as np
import pytest

from conftest import reduce_for_process
from repro.comm import run_spmd
from repro.comm.algorithms import (
    REDUCTION_ALGORITHMS,
    chunk_offsets,
    compile_allreduce,
    compile_reduce_scatter,
    compile_tree,
)
from repro.comm.collective_models import (
    AllreduceAlgorithm,
    allreduce_wire_bytes,
    resolve_allreduce_algorithm,
)
from repro.core import DistNetwork, DistTrainer, LayerParallelism, ParallelStrategy
from repro.nn import NetworkSpec, SGD

OPS = ("sum", "prod", "max", "min")
SHAPES = ((17,), (3, 5), (2, 3, 4), (1,), (5, 1, 2))  # uneven, incl. n < p


def _payload(rank: int, shape, op: str) -> np.ndarray:
    rng = np.random.default_rng(1000 * rank + hash(shape) % 97)
    x = rng.standard_normal(shape)
    if op == "prod":
        # Keep products well-conditioned so allclose is meaningful.
        x = 1.0 + 0.01 * x
    return x


# ---------------------------------------------------------------------------
# Schedule compilation
# ---------------------------------------------------------------------------


class TestCompilation:
    def test_chunk_offsets_cover_everything(self):
        for n in (0, 1, 3, 7, 64):
            for p in (1, 2, 3, 5, 8):
                offs = chunk_offsets(n, p)
                assert len(offs) == p + 1
                assert offs[0] == 0 and offs[-1] == n
                sizes = [offs[i + 1] - offs[i] for i in range(p)]
                assert max(sizes) - min(sizes) <= 1

    @pytest.mark.parametrize("p", [2, 3, 4, 5, 8])
    @pytest.mark.parametrize("alg", REDUCTION_ALGORITHMS)
    def test_schedules_are_pairwise_matched(self, p, alg):
        """Every send has exactly one matching receive (same pair, same
        element count, same relative order) — the property that makes the
        FIFO (source, tag) matching sufficient."""
        scheds = compile_allreduce(p, alg)
        n = 64
        offs = chunk_offsets(n, p)
        sends: dict[tuple[int, int], list[int]] = {}
        recvs: dict[tuple[int, int], list[int]] = {}
        for r, steps in enumerate(scheds):
            for s in steps:
                nbytes = offs[s.hi] - offs[s.lo]
                if s.kind == "send":
                    sends.setdefault((r, s.peer), []).append(nbytes)
                else:
                    recvs.setdefault((s.peer, r), []).append(nbytes)
        assert sends == recvs

    def test_ring_moves_bandwidth_optimal_volume(self):
        p, n = 4, 64
        offs = chunk_offsets(n, p)
        for r, steps in enumerate(compile_allreduce(p, "ring")):
            sent = sum(
                offs[s.hi] - offs[s.lo] for s in steps if s.kind == "send"
            )
            assert sent == 2 * n * (p - 1) // p

    def test_rabenseifner_non_power_of_two_falls_back_to_ring(self):
        for p in (3, 5, 6, 7):
            assert compile_allreduce(p, "rabenseifner") == compile_allreduce(
                p, "ring"
            )
        assert compile_allreduce(4, "rabenseifner") != compile_allreduce(4, "ring")

    def test_reduce_scatter_destinations(self):
        """After the ring reduce-scatter schedule, the last recv_reduce of
        rank r lands on chunk r (its destination)."""
        for p in (2, 3, 4, 8):
            for r, steps in enumerate(compile_reduce_scatter(p)):
                last = [s for s in steps if s.kind == "recv_reduce"][-1]
                assert (last.lo, last.hi) == (r, r + 1)

    def test_tree_shape(self):
        for p in (2, 3, 4, 5, 8):
            for root in (0, p - 1):
                nodes = compile_tree(p, root)
                assert nodes[root].parent is None
                covered = {root}
                for node in nodes:
                    for child, subtree in node.children:
                        assert nodes[child].parent == node.rank
                        assert subtree[0] == child
                        # Bundles carry no rank labels: a child's own view
                        # of its subtree order must be its parent's.
                        assert nodes[child].subtree == subtree
                        covered.update(subtree)
                assert covered == set(range(p))
                assert sorted(nodes[root].subtree) == list(range(p))

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown schedule algorithm"):
            compile_allreduce(4, "nope")

    def test_resolver(self):
        assert resolve_allreduce_algorithm(None, 4, 10) == "recursive_doubling"
        assert resolve_allreduce_algorithm("auto", 4, 1 << 20) == "rabenseifner"
        assert resolve_allreduce_algorithm("auto", 6, 1 << 20) == "ring"
        assert resolve_allreduce_algorithm("direct", 4, 10) == "direct"
        assert (
            resolve_allreduce_algorithm(AllreduceAlgorithm.RING, 4, 10) == "ring"
        )
        with pytest.raises(ValueError):
            resolve_allreduce_algorithm("nope", 4, 10)


# ---------------------------------------------------------------------------
# Algorithm parity (allclose vs "direct", exact determinism, cross-rank)
# ---------------------------------------------------------------------------


def _parity_prog(comm):
    out = {}
    for alg in REDUCTION_ALGORITHMS:
        for op in OPS:
            for shape in SHAPES:
                x = _payload(comm.rank, shape, op)
                ref = comm.allreduce(x, op=op, algorithm="direct")
                got = comm.allreduce(x, op=op, algorithm=alg)
                rerun = comm.allreduce(x, op=op, algorithm=alg)
                out[(alg, op, shape)] = (ref, got, rerun)
    return out


class TestAllreduceParity:
    @pytest.mark.parametrize("nranks", [2, 3, 4, 8])
    def test_all_algorithms_match_direct(self, backend, nranks):
        reduce_for_process(
            backend, nranks not in (2, 4), "p in {2, 4} covers the fork cost"
        )
        results = run_spmd(nranks, _parity_prog, backend=backend)
        for key, (ref, got, rerun) in results[0].items():
            np.testing.assert_allclose(
                got, ref, rtol=1e-10, atol=1e-12, err_msg=str(key)
            )
            # Exact determinism: repeating the collective reproduces the
            # bits, and every rank holds the identical result.
            np.testing.assert_array_equal(got, rerun, err_msg=str(key))
            for other in results[1:]:
                np.testing.assert_array_equal(
                    got, other[key][1], err_msg=str(key)
                )

    def test_single_rank_passthrough(self):
        def prog(comm):
            return comm.allreduce(np.arange(5.0), algorithm="ring")

        np.testing.assert_array_equal(run_spmd(1, prog)[0], np.arange(5.0))

    def test_non_array_payloads_fall_back(self, backend):
        """Scalars and containers take the direct path (scheduled modes
        need a flat numeric buffer): identical results either way."""

        def prog(comm):
            scalar = comm.allreduce(comm.rank + 1, algorithm="ring")
            tup = comm.allreduce((comm.rank, np.ones(2)), algorithm="ring")
            tup_direct = comm.allreduce(
                (comm.rank, np.ones(2)), algorithm="direct"
            )
            return scalar, len(tup), len(tup_direct)

        for scalar, n_ring, n_direct in run_spmd(3, prog, backend=backend):
            assert scalar == 6
            assert n_ring == n_direct  # same (historical) fold semantics

    def test_payloads_only_direct_accepts(self, backend):
        """Python scalars, tuples, dicts, ``None``, empty and object
        arrays, uneven per-rank shards: whatever the mailbox can carry,
        the direct exchange routes, in comm-rank order, on every backend."""

        def prog(comm):
            r = comm.rank
            obj = np.empty(2, dtype=object)
            obj[:] = [r, "x" * r]
            return {
                "float": comm.allreduce(0.1 * (r + 1)),
                "max": comm.iallreduce(r, op="max").wait(),
                "tuple": comm.allreduce((r, 1)),  # tuple "+" concatenates
                "objarr": comm.allreduce(obj),
                "empty": comm.allreduce(np.empty(0)),
                "none": comm.allgather(None),
                "dict": comm.allgather({"rank": r, "w": np.full(r, 1.0)}),
                "shards": comm.allgather(np.arange(float(r))),  # rank 0: empty
                "alltoall": comm.alltoall([(r, j) if j else None for j in range(comm.size)]),
                "bcast": comm.bcast({"k": None} if r == 1 else None, root=1, algorithm="direct"),
                "gather": comm.gather("s" * r, root=2, algorithm="direct"),
                "reduce": comm.reduce(1.5 * r, root=1, algorithm="direct"),
                "rs": comm.reduce_scatter([r * 10 + j for j in range(comm.size)]),
            }

        p = 3
        for r, out in enumerate(run_spmd(p, prog, backend=backend)):
            assert out["float"] == (0.1 + 0.2) + 0.30000000000000004
            assert out["max"] == p - 1
            assert out["tuple"] == (0, 1, 1, 1, 2, 1)
            assert list(out["objarr"]) == [3, "xxx"]
            assert out["empty"].shape == (0,)
            assert out["none"] == [None] * p
            assert [d["rank"] for d in out["dict"]] == list(range(p))
            assert [d["w"].size for d in out["dict"]] == list(range(p))
            for j, shard in enumerate(out["shards"]):
                np.testing.assert_array_equal(shard, np.arange(float(j)))
            assert out["alltoall"] == [(i, r) if r else None for i in range(p)]
            assert out["bcast"] == {"k": None}
            assert out["gather"] == (["", "s", "ss"] if r == 2 else None)
            assert out["reduce"] == (4.5 if r == 1 else None)
            assert out["rs"] == 30 + 3 * r

    def test_blocking_direct_send_buffer_reusable_on_return(self, backend):
        """A blocking collective's contribution is the caller's again on
        return — even while a slow peer (recv-point delay) has yet to
        fold it, and even on the zero-copy thread transport."""

        def prog(comm):
            r, p = comm.rank, comm.size
            x = np.full(4, r + 1.0)
            out = []
            for _ in range(3):
                out.append((
                    comm.allreduce(x, algorithm="direct"),
                    comm.reduce(x, root=1, algorithm="direct"),
                    comm.bcast(x, root=0, algorithm="direct"),
                    comm.reduce_scatter([x] * p, algorithm="direct"),
                    comm.scatter([x] * p if r == 2 else None, root=2, algorithm="direct"),
                ))
                x += 10.0
            return out

        slow = "delay@rank1:point=recv:seconds=0.02:tag=#coll:recurring"
        for r, out in enumerate(run_spmd(3, prog, backend=backend, faults=slow)):
            for k, (allred, red, bc, rs, sc) in enumerate(out):
                np.testing.assert_array_equal(allred, np.full(4, 6.0 + 30 * k))
                if r == 1:
                    np.testing.assert_array_equal(red, allred)
                else:
                    assert red is None
                np.testing.assert_array_equal(bc, np.full(4, 1.0 + 10 * k))
                np.testing.assert_array_equal(rs, allred)
                np.testing.assert_array_equal(sc, np.full(4, 3.0 + 10 * k))

    def test_integer_payloads_exact(self):
        def prog(comm):
            x = np.arange(11, dtype=np.int64) * (comm.rank + 1)
            return [
                comm.allreduce(x, algorithm=alg)
                for alg in ("direct",) + REDUCTION_ALGORITHMS
            ]

        for res in run_spmd(4, prog):
            for got in res[1:]:
                np.testing.assert_array_equal(got, res[0])


class TestReduceScatter:
    @pytest.mark.parametrize("nranks", [2, 3, 4, 8])
    def test_ring_matches_direct(self, backend, nranks):
        reduce_for_process(backend, nranks not in (4,), "p=4 covers the fork cost")

        def prog(comm):
            rng = np.random.default_rng(comm.rank)
            # Uneven per-destination shapes (identical across ranks).
            parts = [
                rng.standard_normal((j + 1, 3)) for j in range(comm.size)
            ]
            ref = comm.reduce_scatter(parts, algorithm="direct")
            got = comm.reduce_scatter(parts, algorithm="ring")
            rerun = comm.reduce_scatter(parts, algorithm="ring")
            return ref, got, rerun

        for ref, got, rerun in run_spmd(nranks, prog, backend=backend):
            np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-12)
            np.testing.assert_array_equal(got, rerun)

    def test_mixed_payloads_fall_back(self):
        def prog(comm):
            parts = [np.array([(comm.rank + 1) * 10 + j]) for j in range(comm.size)]
            parts[0] = float(parts[0][0])  # non-array piece: direct fallback
            got = comm.reduce_scatter(parts)
            return float(np.asarray(got).ravel()[0])

        got = run_spmd(3, prog)
        assert got == [60.0 + 3 * j for j in range(3)]


class TestRootedCollectives:
    @pytest.mark.parametrize("nranks", [2, 3, 4, 8])
    def test_tree_reduce_matches_direct(self, backend, nranks):
        reduce_for_process(backend, nranks not in (4,), "p=4 covers the fork cost")

        def prog(comm):
            root = comm.size - 1
            x = _payload(comm.rank, (4, 7), "sum")
            ref = comm.reduce(x, root=root, algorithm="direct")
            got = comm.reduce(x, root=root, algorithm="binomial")
            rerun = comm.reduce(x, root=root, algorithm="binomial")
            stats_ops = set(comm.stats.collectives)
            return ref, got, rerun, stats_ops

        results = run_spmd(nranks, prog, backend=backend)
        root = nranks - 1
        for rank, (ref, got, rerun, stats_ops) in enumerate(results):
            assert "reduce" in stats_ops  # recorded under its own op name
            if rank == root:
                np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-12)
                np.testing.assert_array_equal(got, rerun)
            else:
                assert ref is None and got is None and rerun is None

    def test_reduce_no_longer_runs_allreduce_volume(self):
        """Non-roots send only their own payload (direct) or O(n log p)
        (tree) — never the allreduce's n(p-1)."""

        def prog(comm):
            n = 1000 * 8
            x = np.ones(1000)
            comm.stats.reset()
            comm.reduce(x, root=0, algorithm="direct")
            direct_sent = comm.stats.total_wire_sent("reduce")
            comm.stats.reset()
            comm.reduce(x, root=0, algorithm="binomial")
            tree_sent = comm.stats.total_wire_sent("reduce")
            allreduce_volume = n * (comm.size - 1)
            if comm.rank != 0:
                assert direct_sent == n
                assert 0 < tree_sent < allreduce_volume
            return True

        assert all(run_spmd(8, prog))

    def test_tree_bcast_gather_scatter_bitwise(self, backend):
        """Tree routing is pure forwarding: bitwise identical to direct,
        including non-array payloads."""

        def prog(comm):
            arr = np.arange(100.0) * 3 if comm.rank == 1 else None
            b_tree = comm.bcast(arr, root=1, algorithm="binomial")
            b_direct = comm.bcast(arr, root=1, algorithm="direct")
            obj = {"rank": comm.rank, "arr": np.full(3, comm.rank)}
            g_tree = comm.gather(obj, root=0, algorithm="binomial")
            g_direct = comm.gather(obj, root=0, algorithm="direct")
            pieces = (
                [("piece", i, np.full(2, i)) for i in range(comm.size)]
                if comm.rank == 0
                else None
            )
            s_tree = comm.scatter(pieces, root=0, algorithm="binomial")
            s_direct = comm.scatter(pieces, root=0, algorithm="direct")
            return b_tree, b_direct, g_tree, g_direct, s_tree, s_direct

        for rank, (bt, bd, gt, gd, st, sd) in enumerate(
            run_spmd(5, prog, backend=backend)
        ):
            np.testing.assert_array_equal(bt, bd)
            if rank == 0:
                assert len(gt) == len(gd) == 5
                for a, b in zip(gt, gd):
                    assert a["rank"] == b["rank"]
                    np.testing.assert_array_equal(a["arr"], b["arr"])
            else:
                assert gt is None and gd is None
            assert st[:2] == sd[:2] == ("piece", rank)
            np.testing.assert_array_equal(st[2], sd[2])

    def test_scatter_result_stays_private(self):
        def prog(comm):
            got = comm.scatter(
                [np.zeros(4) for _ in range(comm.size)] if comm.rank == 0 else None,
                root=0,
            )
            got += comm.rank  # must not leak to other ranks
            comm.barrier()
            return float(got[0])

        assert run_spmd(3, prog) == [0.0, 1.0, 2.0]


# ---------------------------------------------------------------------------
# Nonblocking schedules
# ---------------------------------------------------------------------------


class TestScheduledNonblocking:
    def test_out_of_order_wait(self, backend):
        def prog(comm):
            a = comm.iallreduce(np.full(5000, 1.0 + comm.rank), algorithm="ring")
            b = comm.iallreduce(
                np.arange(100.0) * comm.rank, algorithm="recursive_doubling"
            )
            c = comm.iallreduce(np.ones(10), algorithm="direct")
            vc = c.wait()
            vb = b.wait()  # waited before a: predecessors force-complete
            assert a.complete  # completed as b's predecessor
            va = a.wait()
            return float(va[0]), float(vb[1]), float(vc[0])

        p = 4
        for va, vb, vc in run_spmd(p, prog, backend=backend):
            assert va == sum(1.0 + r for r in range(p))
            assert vb == sum(float(r) for r in range(p))
            assert vc == p

    def test_test_completes_without_wait(self):
        from time import monotonic

        def prog(comm):
            req = comm.iallreduce(np.ones(100), algorithm="ring")
            comm.barrier()  # every rank has issued (and eagerly sent)
            deadline = monotonic() + 60.0
            while not req.test():  # progress purely via nonblocking probes
                assert monotonic() < deadline, "test() never completed"
            return float(req.wait()[0])

        assert run_spmd(4, prog) == [4.0] * 4

    def test_mixed_with_blocking_collectives(self, backend):
        def prog(comm):
            req = comm.iallreduce(np.full(3000, float(comm.rank)), algorithm="ring")
            total = comm.allreduce(comm.rank)  # deposit path, interleaved
            blocked = comm.allreduce(np.ones(2000), algorithm="rabenseifner")
            return float(req.wait()[0]), total, float(blocked[0])

        p = 4
        for v, total, b in run_spmd(p, prog, backend=backend):
            assert v == sum(range(p))
            assert total == sum(range(p))
            assert b == p


# ---------------------------------------------------------------------------
# Wire accounting and transport counters
# ---------------------------------------------------------------------------


class TestWireAccounting:
    @pytest.mark.parametrize(
        "alg", ["direct", "ring", "rabenseifner", "recursive_doubling"]
    )
    @pytest.mark.parametrize("nranks", [2, 4, 8])
    def test_allreduce_wire_matches_model(self, alg, nranks):
        n_elems = 1024 * nranks  # divisible: chunk arithmetic is exact
        nbytes = n_elems * 8

        def prog(comm):
            comm.stats.reset()
            comm.allreduce(np.ones(n_elems), algorithm=alg)
            return (
                comm.stats.total_wire_sent("allreduce"),
                comm.stats.total_wire_recv("allreduce"),
                comm.stats.collective_bytes["allreduce"],
            )

        for sent, recv, logical in run_spmd(nranks, prog):
            assert sent == allreduce_wire_bytes(nranks, nbytes, alg)
            assert recv == sent  # all three schedules are symmetric
            assert logical == nbytes  # logical volume is algorithm-independent

    def test_direct_rows_are_notional_volume_on_every_backend(self, backend):
        """``"direct"`` rows come from the exchange's per-peer tally and
        equal ``n(p-1)`` to the byte, blocking and nonblocking alike."""
        p, n_elems = 3, 1000

        def prog(comm):
            x = np.ones(n_elems)
            comm.stats.reset()
            comm.allreduce(x, algorithm="direct")
            comm.iallreduce(x, algorithm="direct").wait()
            s = comm.stats
            return [
                (s.total_wire_sent(op), s.total_wire_recv(op))
                for op in ("allreduce", "iallreduce")
            ]

        want = (n_elems * 8 * (p - 1),) * 2
        for rows in run_spmd(p, prog, backend=backend):
            assert rows == [want, want]

    def test_direct_inter_node_rows_blocking_equals_nonblocking(self):
        """Direct ``iallreduce`` used to drop the inter-node share the
        blocking call recorded; with one path the rows are the same."""
        n_elems = 512

        def prog(comm):
            x = np.ones(n_elems)
            comm.stats.reset()
            comm.allreduce(x, algorithm="direct")
            comm.iallreduce(x, algorithm="direct").wait()
            s = comm.stats
            return [
                (
                    s.total_wire_sent(op), s.total_wire_recv(op),
                    s.total_wire_sent_inter(op), s.total_wire_recv_inter(op),
                )
                for op in ("allreduce", "iallreduce")
            ]

        n = n_elems * 8
        for blocking, nonblocking in run_spmd(
            2, prog, backend="socket", hostmap="0:A 1:B"
        ):
            assert blocking == nonblocking == (n, n, n, n)

    def test_ring_beats_direct_on_the_wire(self):
        p, nbytes = 8, 4096 * 8
        ring = allreduce_wire_bytes(p, nbytes, "ring")
        direct = allreduce_wire_bytes(p, nbytes, "direct")
        assert ring == 2 * nbytes * (p - 1) / p
        assert direct == nbytes * (p - 1)
        assert ring < direct / 3  # 2/p vs 1: a 4x gap at p=8

    def test_gather_scatter_stats_account_true_volume(self, backend):
        """The satellite fix: the root's rows carry all pieces, and summed
        wire-out equals summed wire-in across ranks."""

        def prog(comm):
            comm.stats.reset()
            comm.gather(np.ones(100), root=0, algorithm="direct")
            comm.scatter(
                [np.ones(50) * j for j in range(comm.size)]
                if comm.rank == 0
                else None,
                root=0,
                algorithm="direct",
            )
            s = comm.stats
            return (
                s.collective_bytes["gather"],
                s.collective_bytes["scatter"],
                s.total_wire_sent(),
                s.total_wire_recv(),
            )

        p = 4
        results = run_spmd(p, prog, backend=backend)
        gather_logical = [r[0] for r in results]
        scatter_logical = [r[1] for r in results]
        assert gather_logical[0] == p * 100 * 8  # root counts all pieces
        assert all(g == 100 * 8 for g in gather_logical[1:])
        assert scatter_logical[0] == p * 50 * 8
        assert all(s == 50 * 8 for s in scatter_logical[1:])
        assert sum(r[2] for r in results) == sum(r[3] for r in results)

    def test_reduce_scatter_wire(self):
        def prog(comm):
            comm.stats.reset()
            parts = [np.ones(256) for _ in range(comm.size)]
            comm.reduce_scatter(parts, algorithm="ring")
            return comm.stats.total_wire_sent("reduce_scatter")

        p = 4
        for sent in run_spmd(p, prog):
            assert sent == (p - 1) * 256 * 8  # (p-1)/p of the total payload

    def test_shuffle_wire_recorded_under_shuffle(self):
        from repro.tensor.dist_tensor import DistTensor
        from repro.tensor.distribution import Distribution
        from repro.tensor.grid import ProcessGrid
        from repro.tensor.shuffle import shuffle

        def prog(comm):
            comm.stats.reset()
            src_grid = ProcessGrid(comm, (comm.size, 1))
            dst_grid = ProcessGrid(comm, (1, comm.size))
            dt = DistTensor.from_global(
                src_grid,
                Distribution.make((comm.size, 1)),
                np.arange(64.0).reshape(8, 8),
            )
            shuffle(dt, dst_grid, Distribution.make((1, comm.size)))
            return set(comm.stats.collective_wire_sent)

        for ops in run_spmd(4, prog):
            assert ops <= {"shuffle"}  # never under the generic "alltoall"


class TestTransportCounters:
    """The acceptance criterion: measured wire bytes on the process
    backend's shared-memory transport."""

    def test_ring_allreduce_meets_bandwidth_bound(self):
        n_elems = 262_144  # 2 MiB; chunks of 512 KiB >> the shm floor
        nbytes = n_elems * 8
        p = 4

        def prog(comm):
            x = np.full(n_elems, float(comm.rank + 1))
            comm.allreduce(x, algorithm="ring")  # warm the pools
            before = dict(comm._world.transport)
            comm.allreduce(x, algorithm="ring")
            after = comm._world.transport
            return (
                after["shm_bytes"] - before["shm_bytes"],
                after["inline_messages"] - before["inline_messages"],
            )

        slack = 64 * 1024  # headers/skeletons; segments all ride the arena
        bound = 2 * nbytes * (p - 1) / p
        for shm_delta, inline_delta in run_spmd(p, prog, backend="process"):
            assert 0 < shm_delta <= bound + slack
            assert shm_delta < nbytes * (p - 1)  # strictly beats direct
            assert inline_delta == 0  # every segment went through the arena

    def test_direct_allreduce_moves_full_volume(self):
        n_elems = 65_536
        nbytes = n_elems * 8
        p = 4

        def prog(comm):
            before = dict(comm._world.transport)
            comm.allreduce(np.ones(n_elems), algorithm="direct")
            after = comm._world.transport
            return after["shm_bytes"] - before["shm_bytes"]

        for shm_delta in run_spmd(p, prog, backend="process"):
            assert shm_delta == nbytes * (p - 1)


# ---------------------------------------------------------------------------
# Selection and the environment override
# ---------------------------------------------------------------------------


class TestSelection:
    def test_auto_follows_the_cost_model(self):
        def prog(comm):
            s = comm.stats
            s.reset()
            comm.allreduce(np.ones(8))  # 64 B: small -> recursive doubling
            small = s.total_wire_sent("allreduce")
            s.reset()
            comm.allreduce(np.ones(65_536))  # 512 KiB, p=4: Rabenseifner
            large = s.total_wire_sent("allreduce")
            return small, large

        p = 4
        small, large = run_spmd(p, prog)[0]
        assert small == allreduce_wire_bytes(p, 64, "recursive_doubling")
        assert large == allreduce_wire_bytes(p, 65_536 * 8, "rabenseifner")

    def test_env_override_forces_direct(self, monkeypatch):
        monkeypatch.setenv("REPRO_COLLECTIVE_ALG", "direct")

        def prog(comm):
            comm.stats.reset()
            comm.allreduce(np.ones(4096), algorithm="ring")  # env wins
            return comm.stats.total_wire_sent("allreduce")

        p = 4
        assert run_spmd(p, prog)[0] == 4096 * 8 * (p - 1)

    def test_env_override_forces_ring(self, monkeypatch):
        monkeypatch.setenv("REPRO_COLLECTIVE_ALG", "ring")

        def prog(comm):
            comm.stats.reset()
            comm.allreduce(np.ones(4096), algorithm="direct")
            return comm.stats.total_wire_sent("allreduce")

        p = 4
        assert run_spmd(p, prog)[0] == 2 * 4096 * 8 * (p - 1) // p

    def test_consecutive_splits_get_distinct_keys(self, backend):
        """The child key comes from the one sequence every collective
        bumps: two splits in a row never share a key, so their in-flight
        traffic cannot cross-match."""

        def prog(comm):
            a = comm.split(0)
            b = comm.split(0)
            ra = a.iallreduce(float(comm.rank + 1), algorithm="direct")
            rb = b.iallreduce(100.0 * (comm.rank + 1), algorithm="direct")
            vb = rb.wait()  # out of issue order: FIFO luck cannot hide a clash
            return ra.wait(), vb

        assert run_spmd(4, prog, backend=backend, timeout=30) == [(10.0, 1000.0)] * 4

    def test_env_typo_fails_loudly(self, monkeypatch):
        """A misspelled override must error, not silently disable itself."""
        monkeypatch.setenv("REPRO_COLLECTIVE_ALG", "Direct")

        def prog(comm):
            comm.allreduce(np.ones(4))

        with pytest.raises(ValueError, match="REPRO_COLLECTIVE_ALG"):
            run_spmd(2, prog, timeout=10)

    def test_env_tree_value_leaves_reductions_alone(self, monkeypatch):
        """'binomial' is meaningful for rooted ops only; allreduce keeps
        its own resolution."""
        monkeypatch.setenv("REPRO_COLLECTIVE_ALG", "binomial")

        def prog(comm):
            comm.stats.reset()
            comm.allreduce(np.ones(4096), algorithm="ring")
            return comm.stats.total_wire_sent("allreduce")

        p = 4
        assert run_spmd(p, prog)[0] == 2 * 4096 * 8 * (p - 1) // p

    def test_invalid_algorithm_rejected(self):
        def prog(comm):
            comm.allreduce(np.ones(4), algorithm="bogus")

        with pytest.raises(ValueError, match="unknown allreduce algorithm"):
            run_spmd(2, prog, timeout=10)


# ---------------------------------------------------------------------------
# Engine: the gradient hot path
# ---------------------------------------------------------------------------


def _tiny_net():
    net = NetworkSpec("alg-parity")
    net.add("input", "input", channels=2, height=8, width=8)
    net.add("c1", "conv", ["input"], filters=4, kernel=3, pad=1, bias=True)
    net.add("r1", "relu", ["c1"])
    net.add("c2", "conv", ["r1"], filters=4, kernel=3, pad=1)
    net.add("gap", "gap", ["c2"])
    net.add("fc", "fc", ["gap"], units=3)
    net.add("loss", "softmax_ce", ["fc"])
    return net


def _train(comm, algorithm, steps=3):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 2, 8, 8))
    t = rng.integers(0, 3, size=4)
    net = DistNetwork(
        _tiny_net(),
        comm,
        ParallelStrategy.uniform(LayerParallelism(sample=comm.size)),
        seed=0,
        collective_algorithm=algorithm,
    )
    trainer = DistTrainer(net, SGD(lr=0.05, momentum=0.9))
    losses = [trainer.step(x, t) for _ in range(steps)]
    params = {
        k: {p: a.copy() for p, a in v.items()} for k, v in net.params.items()
    }
    return losses, params


def _grad_parity_prog(comm):
    return _train(comm, "direct"), _train(comm, "auto"), _train(comm, "auto")


class TestGradReducerParity:
    def test_training_direct_vs_auto(self, backend):
        """Acceptance: grad_reducer runs are deterministic and allclose
        across "direct" vs "auto" on both backends."""
        results = run_spmd(4, _grad_parity_prog, backend=backend)
        (d_losses, d_params), (a_losses, a_params), (r_losses, r_params) = results[0]
        np.testing.assert_allclose(a_losses, d_losses, rtol=1e-8)
        for layer in d_params:
            for pname in d_params[layer]:
                np.testing.assert_allclose(
                    a_params[layer][pname],
                    d_params[layer][pname],
                    rtol=1e-7,
                    atol=1e-10,
                )
                # Determinism: repeated "auto" runs are bitwise equal.
                np.testing.assert_array_equal(
                    a_params[layer][pname], r_params[layer][pname]
                )
        assert a_losses == r_losses

    def test_auto_bitwise_identical_across_backends(self):
        thread = run_spmd(4, _grad_parity_prog, backend="thread")
        process = run_spmd(4, _grad_parity_prog, backend="process")
        (_, (t_losses, t_params), _) = thread[0]
        (_, (p_losses, p_params), _) = process[0]
        assert t_losses == p_losses
        for layer in t_params:
            for pname in t_params[layer]:
                np.testing.assert_array_equal(
                    t_params[layer][pname], p_params[layer][pname]
                )
