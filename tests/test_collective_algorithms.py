"""Algorithmic collectives: schedule correctness, parity, wire accounting.

Covers the chunked point-to-point schedules of :mod:`repro.comm.algorithms`
(ring / Rabenseifner / recursive doubling allreduce, and the ring
reduce-scatter half they open with) and their integration into the
communicator, plus ``bcast``'s one-hop star:

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

from conftest import FORKED_BACKENDS, reduce_for_process
from repro.comm import run_spmd
from repro.comm.algorithms import (
    REDUCTION_ALGORITHMS,
    ScheduleRunner,
    chunk_offsets,
    compile_allreduce,
    compile_hierarchical_allreduce,
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


def _ring_reduce_scatter(comm, parts):
    """Run the ring allreduce's reduce-scatter half alone over ``parts``
    (one piece per chunk, sized as ``chunk_offsets`` splits their total):
    rank ``r`` ends owning the fold of piece ``r + 1``.  Returns that piece
    and the runner (its wire tally)."""
    p = comm.size
    steps = compile_allreduce(p, "ring")[comm.rank][: 2 * (p - 1)]
    flat = np.concatenate([np.ravel(x) for x in parts])
    offsets = chunk_offsets(flat.size, p)
    assert [x.size for x in parts] == np.diff(offsets).tolist()
    runner = ScheduleRunner(
        comm, "reduce_scatter", steps, flat, np.add, comm._next_coll_seq()
    )
    out = runner.finish()
    own = (comm.rank + 1) % p
    return out[offsets[own] : offsets[own + 1]].reshape(parts[own].shape), runner


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
        """The ring reduce-scatter half (the ring allreduce's first
        ``p - 1`` exchanges, the hierarchical allreduce's intra-node phase)
        finishes one chunk per rank: the last recv_reduce of rank r lands
        on chunk r + 1 (window i + 1 of local rank i), the first finished
        fold."""
        for p in (2, 3, 4, 8):
            owned = []
            for r, steps in enumerate(compile_allreduce(p, "ring")):
                half = steps[: 2 * (p - 1)]
                folds = [s for s in half if s.kind == "recv_reduce"]
                last = folds[-1]
                assert (last.lo, last.hi) == ((r + 1) % p, (r + 1) % p + 1)
                assert last.done and not any(s.done for s in folds[:-1])
                owned.append(last.lo)
            assert sorted(owned) == list(range(p))
        nodes = ((0, 1, 2), (3, 4, 5))  # k = 3 local ranks, m = 2 nodes
        k, m = 3, 2
        for group in nodes:
            for i, r in enumerate(group):
                steps = compile_hierarchical_allreduce(nodes)[r][: 2 * (k - 1)]
                last = [s for s in steps if s.kind == "recv_reduce"][-1]
                w = (i + 1) % k
                assert (last.lo, last.hi) == (w * m, (w + 1) * m)

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
                "bcast": comm.bcast({"k": None} if r == 1 else None, root=1),
                "strings": comm.allgather("s" * r),
                "ints": comm.alltoall([r * 10 + j for j in range(comm.size)]),
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
            assert out["strings"] == ["", "s", "ss"]
            assert out["ints"] == [i * 10 + r for i in range(p)]

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
                    comm.allgather(x),
                    comm.bcast(x, root=0),
                    comm.alltoall([x] * p),
                ))
                x += 10.0
            return out

        slow = "delay@rank1:point=recv:seconds=0.02:tag=#coll:recurring"
        for r, out in enumerate(run_spmd(3, prog, backend=backend, faults=slow)):
            for k, (allred, ag, bc, a2a) in enumerate(out):
                np.testing.assert_array_equal(allred, np.full(4, 6.0 + 30 * k))
                np.testing.assert_array_equal(bc, np.full(4, 1.0 + 10 * k))
                for j in range(3):
                    if j != r:  # this rank's own piece never left the caller
                        want = np.full(4, j + 1.0 + 10 * k)
                        np.testing.assert_array_equal(ag[j], want)
                        np.testing.assert_array_equal(a2a[j], want)

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
    """The ring reduce-scatter half run on its own: each rank's finished
    chunk is the direct fold of everyone's piece of it."""

    @pytest.mark.parametrize("nranks", [2, 3, 4, 8])
    def test_ring_matches_direct(self, backend, nranks):
        reduce_for_process(backend, nranks not in (4,), "p=4 covers the fork cost")

        def prog(comm):
            rng = np.random.default_rng(comm.rank)
            p = comm.size
            # Uneven chunks: the first p // 2 carry one element more.
            sizes = np.diff(chunk_offsets(5 * p + p // 2, p))
            parts = [rng.standard_normal(size) for size in sizes]
            # The direct reference: everyone's piece r + 1 at rank r, folded
            # in ascending comm rank.
            pieces = comm.alltoall([parts[(j + 1) % p] for j in range(p)])
            ref = pieces[0]
            for x in pieces[1:]:
                ref = ref + x
            got, _ = _ring_reduce_scatter(comm, parts)
            rerun, _ = _ring_reduce_scatter(comm, parts)
            return ref, got, rerun

        for ref, got, rerun in run_spmd(nranks, prog, backend=backend):
            np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-12)
            np.testing.assert_array_equal(got, rerun)


def _assert_same(got, want):
    """Bitwise equal, same dtype and shape, down into dicts and tuples."""
    if isinstance(want, dict):
        assert got.keys() == want.keys()
        for k in want:
            _assert_same(got[k], want[k])
    elif isinstance(want, tuple):
        assert type(got) is tuple and len(got) == len(want)
        for a, b in zip(got, want):
            _assert_same(a, b)
    elif isinstance(want, (np.ndarray, np.generic)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    else:
        assert got == want


class TestStarBcast:
    """``bcast``, the one rooted collective: a one-hop star from the root."""

    @pytest.mark.parametrize("nranks", [1, 2, 3, 4, 5, 8])
    def test_every_root_bitwise(self, backend, nranks):
        """From every root, every member gets the root's bits — arrays of
        any layout and dtype, objects with arrays inside — whatever the
        others passed, and the root's own payload is left as it was."""
        reduce_for_process(backend, nranks > 4, "p <= 4 covers the fork cost")

        def payload(root):
            rng = np.random.default_rng(root)
            grid = rng.standard_normal((root + 2, 5))
            return [
                grid,
                grid[:, ::2],  # strided view
                np.arange(root + 3, dtype=np.int32),
                np.float64(root),  # 0-d
                np.empty((0, 3)),
                {"w": grid.T, "name": f"root{root}", "none": None},
                ("s" * root, 7),
            ]

        def prog(comm):
            out = []
            for root in range(comm.size):
                mine = payload(root)
                decoy = [np.full(2, -1.0)] * len(mine)
                for item, twin in zip(mine, payload(root)):
                    got = comm.bcast(item if comm.rank == root else decoy, root=root)
                    out.append((got, twin))
                    if comm.rank == root:  # the root's payload is untouched
                        _assert_same(item, twin)
            return out

        for out in run_spmd(nranks, prog, backend=backend):
            assert len(out) == 7 * nranks
            for got, want in out:
                _assert_same(got, want)


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
# The fused map: iallreduce(update=, out=) and owned_range
# ---------------------------------------------------------------------------

#: Payload sizes for the fused map: one element, fewer than p, uneven.
MAP_SIZES = (1, 3, 17, 1031)


def _fused_map_prog(comm, algorithm):
    """Per size: this rank's ``owned_range``, every ``(lo, hi)`` the fused
    map ran on, the mapped result and the plain allreduce's."""
    rows = []
    for n in MAP_SIZES:
        x = _payload(comm.rank, (n,), "sum")
        calls = []

        def double(lo, hi, reduced, dst):
            calls.append((lo, hi))
            np.multiply(reduced, 2.0, out=dst)

        plain = comm.allreduce(x, algorithm=algorithm)
        out = np.empty(n)
        mapped = comm.iallreduce(
            x, algorithm=algorithm, update=double, out=out
        ).wait()
        owned = comm.owned_range(n, x.dtype, algorithm=algorithm)
        rows.append((owned, calls, mapped, plain))
    return rows


def _check_fused_map(results):
    """Each rank maps exactly its ``owned_range`` — once, as one contiguous
    call, or not at all — and every rank ends with the map of the plain
    allreduce (doubling is exact).  Returns each size's owned ranges."""
    owners = []
    for i, n in enumerate(MAP_SIZES):
        ranges = []
        for rank_rows in results:
            owned, calls, mapped, plain = rank_rows[i]
            assert calls == ([owned] if owned else []), (n, owned, calls)
            if owned:
                lo, hi = owned
                assert 0 <= lo < hi <= n
            np.testing.assert_array_equal(mapped, 2.0 * plain)
            np.testing.assert_array_equal(mapped, results[0][i][2])
            ranges.append(owned)
        covered = np.zeros(n, dtype=int)
        for owned in filter(None, ranges):
            covered[owned[0] : owned[1]] += 1
        assert covered.min() >= 1, (n, ranges)  # every element is mapped
        owners.append(ranges)
    return owners


class TestFusedMap:
    """``iallreduce(update=, out=)`` runs the map where ``owned_range`` says
    — the one contiguous range whose fold finished on the rank — and the
    allgather half carries the mapped values to everyone."""

    @pytest.mark.parametrize("p", [2, 3, 4, 5, 6, 8])
    @pytest.mark.parametrize("alg", ("direct",) + REDUCTION_ALGORITHMS)
    def test_map_runs_once_on_the_owned_range(self, alg, p):
        owners = _check_fused_map(run_spmd(p, _fused_map_prog, alg))
        doubling = 1 << (p.bit_length() - 1)  # ranks recursive doubling keeps
        for n, ranges in zip(MAP_SIZES, owners):
            whole = [r for r in ranges if r == (0, n)]
            if alg == "direct":
                assert len(whole) == p
            elif alg == "recursive_doubling":
                assert len(whole) == doubling
                assert ranges.count(None) == p - doubling
            else:  # ring, Rabenseifner: each element on exactly one rank
                owned = sorted(filter(None, ranges))
                assert owned[0][0] == 0 and owned[-1][1] == n
                for (_, hi), (lo, _) in zip(owned, owned[1:]):
                    assert hi == lo, (n, owned)

    @pytest.mark.parametrize(
        "hostmap",
        [
            "0,1:A 2,3:B",
            "0,2:A 1,3:B",
            "0,1,2:A 3,4,5:B",
            "0,1:A 2,3:B 4,5:C",
            "0,1:A 2,3:B 4,5:C 6,7:D",
        ],
    )
    def test_hierarchical_map_runs_once_on_the_owned_range(self, hostmap):
        p = sum(len(group.split(":")[0].split(",")) for group in hostmap.split())
        _check_fused_map(
            run_spmd(p, _fused_map_prog, "hierarchical", hostmap=hostmap)
        )

    @pytest.mark.parametrize("alg", ("direct",) + REDUCTION_ALGORITHMS)
    @pytest.mark.parametrize("forked", FORKED_BACKENDS)
    def test_forked_map_runs_once_on_the_owned_range(self, forked, alg):
        hostmap = "0,1:A 2,3:B" if forked == "socket" else None
        _check_fused_map(
            run_spmd(
                4, _fused_map_prog, alg, backend=forked, hostmap=hostmap,
                timeout=120,
            )
        )


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
                comm.stats.collective_wire_recv.get("allreduce", 0),
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
                (s.total_wire_sent(op), s.collective_wire_recv.get(op, 0))
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
                    s.total_wire_sent(op), s.collective_wire_recv.get(op, 0),
                    s.collective_wire_sent_inter.get(op, 0), s.collective_wire_recv_inter.get(op, 0),
                )
                for op in ("allreduce", "iallreduce")
            ]

        n = n_elems * 8
        for blocking, nonblocking in run_spmd(
            2, prog, backend="socket", hostmap="0:A 1:B"
        ):
            assert blocking == nonblocking == (n, n, n, n)

    def test_reduce_scatter_wire(self):
        """The ring reduce-scatter half moves ``(p-1)/p`` of the payload
        per rank."""

        def prog(comm):
            parts = [np.ones(256) for _ in range(comm.size)]
            _, runner = _ring_reduce_scatter(comm, parts)
            return runner.wire_sent, runner.wire_recv

        p = 4
        for sent, recv in run_spmd(p, prog):
            assert sent == recv == (p - 1) * 256 * 8

    def test_bcast_stats_account_true_volume(self, backend):
        """The root's wire row carries one copy per peer, every other
        rank's one copy in and nothing out; the logical row is the payload
        on every rank, and summed wire-out equals summed wire-in."""
        p, n_elems, root = 4, 100, 1

        def prog(comm):
            comm.stats.reset()
            comm.bcast(np.ones(n_elems) if comm.rank == root else None, root=root)
            s = comm.stats
            return (
                s.collective_bytes["bcast"],
                s.total_wire_sent("bcast"),
                s.collective_wire_recv.get("bcast", 0),
                set(s.collectives) | set(s.collective_wire_sent)
                | set(s.collective_wire_recv),
            )

        n = n_elems * 8
        results = run_spmd(p, prog, backend=backend)
        for rank, (logical, sent, recv, ops) in enumerate(results):
            assert ops == {"bcast"}  # recorded under its own op name
            assert logical == n
            assert (sent, recv) == (((p - 1) * n, 0) if rank == root else (0, n))
        assert sum(r[1] for r in results) == sum(r[2] for r in results)

    def test_ring_beats_direct_on_the_wire(self):
        p, nbytes = 8, 4096 * 8
        ring = allreduce_wire_bytes(p, nbytes, "ring")
        direct = allreduce_wire_bytes(p, nbytes, "direct")
        assert ring == 2 * nbytes * (p - 1) / p
        assert direct == nbytes * (p - 1)
        assert ring < direct / 3  # 2/p vs 1: a 4x gap at p=8

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

    @pytest.mark.parametrize("alg", REDUCTION_ALGORITHMS)
    def test_wire_and_transport_match_model_exactly(self, alg):
        """Measured wire bytes and the shared-memory transport counter both
        equal the model to the byte."""
        p, nbytes = 4, 262_144

        def prog(comm):
            x = np.full(nbytes // 8, 1.0 + comm.rank)
            comm.allreduce(x, algorithm=alg)  # warm
            comm.stats.reset()
            transport = comm._world.transport
            before = transport["shm_bytes"]
            comm.allreduce(x, algorithm=alg)
            return (
                comm.stats.total_wire_sent("allreduce"),
                transport["shm_bytes"] - before,
            )

        modeled = allreduce_wire_bytes(p, nbytes, alg)
        for wire, shm in run_spmd(p, prog, backend="process", timeout=120):
            assert wire == shm == modeled


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

    @pytest.mark.parametrize("value", ["Direct", "binomial"])
    def test_env_typo_fails_loudly(self, monkeypatch, value):
        """An override that names no allreduce mode — misspelled, or a
        routing that no longer exists — must error, not silently disable
        itself."""
        monkeypatch.setenv("REPRO_COLLECTIVE_ALG", value)

        def prog(comm):
            comm.allreduce(np.ones(4))

        with pytest.raises(ValueError, match="REPRO_COLLECTIVE_ALG"):
            run_spmd(2, prog, timeout=10)

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
