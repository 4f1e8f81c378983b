"""Process-backend contract: registry, transport, parity, failure, teardown.

The process backend must be a drop-in world implementation: same
communicator semantics, bitwise-identical collective arithmetic, MPI-style
abort-the-job failure handling — plus the properties that only exist with
real processes: shared-memory transport for array payloads, rank/op/seq
timeout diagnostics, and complete reclamation of every SharedMemory
segment at world teardown.
"""

import os

import numpy as np
import pytest

from conftest import Counting
from repro.comm import (
    CommAborted,
    available_backends,
    resolve_backend,
    run_spmd,
)
from repro.comm.proc_backend import SHM_PREFIX
from repro.core import DistNetwork, DistTrainer, LayerParallelism
from repro.nn import NetworkSpec, SGD

SHM_DIR = "/dev/shm"


def _shm_segments() -> set[str]:
    if not os.path.isdir(SHM_DIR):  # pragma: no cover - non-Linux hosts
        pytest.skip("no /dev/shm on this platform")
    return {f for f in os.listdir(SHM_DIR) if f.startswith(SHM_PREFIX)}


class TestRegistry:
    def test_both_backends_registered(self):
        names = available_backends()
        assert "thread" in names and "process" in names

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown SPMD backend"):
            run_spmd(2, lambda comm: None, backend="smoke-signals")

    def test_env_var_selects_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "process")
        assert resolve_backend(None) == "process"
        assert run_spmd(2, lambda comm: comm.backend) == ["process"] * 2

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "process")
        assert run_spmd(2, lambda comm: comm.backend, backend="thread") == [
            "thread"
        ] * 2

    def test_single_rank_runs_inline(self):
        # nranks == 1 executes on the calling thread for any backend.
        assert run_spmd(1, lambda comm: comm.size, backend="process") == [1]

    def test_backend_contract_is_launch_mailbox_failure_detection(self):
        from repro.comm.backend import BaseWorld

        assert BaseWorld.__abstractmethods__ == {
            "aborted", "deliver", "collect", "try_collect", "rank_stats", "abort"
        }


class TestTransport:
    def test_large_arrays_ride_shared_memory(self):
        payload = np.arange(65536, dtype=np.float64)

        def prog(comm):
            if comm.rank == 0:
                comm.send(payload, dest=1, tag=3)
                comm.barrier()
                return comm._world.transport["shm_messages"]
            got = comm.recv(source=0, tag=3)
            comm.barrier()
            np.testing.assert_array_equal(got, payload)
            # Received arrays are immutable by contract, as on the thread
            # backend's zero-copy views.
            assert not got.flags.writeable
            return True

        sender_shm, ok = run_spmd(2, prog, backend="process")
        assert ok is True
        assert sender_shm >= 1

    def test_nested_container_payloads(self):
        big = np.full(4096, 7.5)
        small = np.arange(3.0)

        def prog(comm):
            msg = {"strips": [big, small], "meta": ("tag", 9, [small.copy()])}
            if comm.rank == 0:
                comm.send(msg, dest=1)
                return True
            got = comm.recv(source=0)
            np.testing.assert_array_equal(got["strips"][0], big)
            np.testing.assert_array_equal(got["strips"][1], small)
            assert got["meta"][0] == "tag" and got["meta"][1] == 9
            np.testing.assert_array_equal(got["meta"][2][0], small)
            return True

        assert all(run_spmd(2, prog, backend="process"))

    def test_arena_exhaustion_falls_back_to_pickle(self, monkeypatch):
        """A full arena must degrade to inline pickling, never block."""
        monkeypatch.setenv("REPRO_SHM_BYTES", str(64 << 10))  # 64 KiB arena
        payload = np.arange(32768, dtype=np.float64)  # 256 KiB > arena

        def prog(comm):
            if comm.rank == 0:
                comm.send(payload, dest=1, tag=1)
                comm.barrier()
                return comm._world.transport["arena_full_fallbacks"]
            got = comm.recv(source=1 - 1, tag=1)
            comm.barrier()
            np.testing.assert_array_equal(got, payload)
            return True

        fallbacks, ok = run_spmd(2, prog, backend="process")
        assert ok is True
        assert fallbacks >= 1

    @pytest.mark.parametrize("algorithm", ["ring", "rabenseifner"])
    def test_donated_iallreduce_copies_nothing_parameter_sized(
        self, algorithm, monkeypatch
    ):
        """A donated contribution is reduced in place and every receive is
        consumed straight out of the arena: neither rank allocates anything
        near the payload's size, and the result is the donated memory.  The
        same call without ``donate`` never writes the caller's array and
        copies it once — a strided one too (gathered, not gathered then
        copied)."""
        # The bound needs every 4 MB segment in the arena, not pickled inline.
        monkeypatch.delenv("REPRO_SHM_BYTES", raising=False)
        n = 1 << 20  # 8 MB of float64

        def prog(comm):
            import tracemalloc

            def peak_of(value, **kwargs):
                tracemalloc.start()
                out = comm.iallreduce(value, algorithm=algorithm, **kwargs).wait()
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                return peak, out

            mine = np.full(n, float(comm.rank + 1))
            kept = (np.arange(2 * n, dtype=np.float64) + comm.rank)[::2]
            before = kept.copy()
            comm.barrier()
            donated_peak, out = peak_of(mine, donate=True)
            plain_peak, plain = peak_of(kept)
            return (
                donated_peak,
                plain_peak,
                np.shares_memory(out, mine) and bool((out == 3.0).all()),
                kept.tobytes() == before.tobytes()
                and not np.shares_memory(plain, kept)
                and bool((plain == 2.0 * before + (1 - 2 * comm.rank)).all()),
                comm._world.transport["arena_full_fallbacks"],
            )

        for donated_peak, plain_peak, in_place, untouched, fallbacks in run_spmd(
            2, prog, backend="process"
        ):
            assert donated_peak < 0.25 * 8 * n, f"{donated_peak / 2**20:.1f} MiB"
            assert plain_peak < 1.25 * 8 * n, f"{plain_peak / 2**20:.1f} MiB"
            assert in_place and untouched and fallbacks == 0

    def test_late_receiver_never_costs_the_sender_the_arena(self, monkeypatch):
        """Messages are freed when matched, not when drained — so 40 MiB
        drained long before any receive would pin 40 of the arena's 64 MiB,
        were it not for the half-full rule: past 32 MiB in use, a drained
        message is copied out and freed at once.  The sender never falls
        back to inline pickling and nothing stays allocated."""
        monkeypatch.delenv("REPRO_SHM_BYTES", raising=False)  # 64 MiB arena
        count, words = 40, 1 << 17  # 40 x 1 MiB

        def prog(comm):
            world, arena = comm._world, comm._world._shared.arena
            if comm.rank == 0:
                for i in range(count):
                    comm.send(np.full(words, float(i)), dest=1, tag=i)
            comm.barrier()  # rank 1 drains all 40 messages here, matches none
            held = arena.used_blocks() * arena.block
            ok = comm.rank == 0 or all(
                np.array_equal(comm.recv(source=0, tag=i), np.full(words, float(i)))
                for i in reversed(range(count))
            )
            comm.barrier()
            return ok, held, arena.used_blocks(), world.transport["arena_full_fallbacks"]

        out = run_spmd(2, prog, backend="process")
        for ok, _held, used, fallbacks in out:
            assert ok and fallbacks == 0
            assert used <= 8
        # Rank 1 left in place what fit under the rule and copied the rest out.
        assert 16 << 20 < out[1][1] <= 33 << 20

    @pytest.mark.parametrize("backend", ["process", "socket"])
    def test_inbox_table_bounded_by_inflight_keys(self, backend):
        """Every collective has a unique tag, so the ``(source, tag)`` table
        must shed a key when its queue drains — its size follows what is in
        flight (here: nothing, after the closing barrier), not the number
        of collectives run."""

        def prog(comm):
            for i in range(500):
                comm.allreduce(np.float64(i))
            comm.barrier()
            return len(comm._world._inbox._buffered)

        assert run_spmd(2, prog, backend=backend) == [0, 0]


class TestFixedCostPerMessage:
    """What a tiny message costs, as counts (no clock): the patches below
    are made inside a forked rank and die with it.  What a frame costs on
    a link is ``tests/test_socket_backend.py::TestFixedCostPerFrame``,
    for a same-node socketpair and a TCP link alike."""

    def test_collective_resolves_its_plan_once(self, monkeypatch):
        """The second allreduce of a shape re-runs no selection, no offset
        table and no environment lookup; a new shape or knob misses once;
        ``split``/``dup`` children start empty with the parent's knobs."""
        monkeypatch.setenv("REPRO_SEGMENT_BYTES", "off")

        def prog(comm):
            from repro.comm import algorithms, collective_models, communicator

            counts = {}
            communicator.os = Counting(
                communicator.os, counts, "getenv"
            )
            communicator.os.environ = Counting(os.environ, counts, "get")
            collective_models.select_allreduce_algorithm = Counting(
                collective_models, counts, "select_allreduce_algorithm"
            ).select_allreduce_algorithm
            algorithms.chunk_offsets = Counting(
                algorithms, counts, "chunk_offsets"
            ).chunk_offsets
            # The world communicator parsed the environment before this ran:
            # changing it now changes nothing, here or in a child.
            os.environ["REPRO_COLLECTIVE_ALG"] = "direct"

            def cost(c, *args, **kwargs):
                counts.clear()
                c.stats.reset()
                out = c.allreduce(*args, **kwargs)
                assert float(out.reshape(-1)[0]) == c.size
                return dict(counts), c.stats.total_wire_sent("allreduce")

            x = np.ones((2, 64))
            miss = {"select_allreduce_algorithm": 1, "chunk_offsets": 1}
            log = [
                cost(comm, x),                          # first of its shape
                cost(comm, x),                          # memo hit
                cost(comm, np.ones(7)),                 # new shape
                cost(comm, x, algorithm="ring"),        # new knob, no selection
                cost(comm, x, algorithm="ring"),
                cost(comm, x, segment_bytes=256),       # env "off" wins
                cost(comm, x),
            ]
            child, twin = comm.split(0), comm.dup()
            assert child._plans == {} and twin._plans == {}
            assert child._knobs is comm._knobs is twin._knobs
            log += [cost(child, x), cost(child, x), cost(twin, x), cost(twin, x)]
            assert len(comm._plans) == 4 and len(child._plans) == 1
            return log, miss

        for log, miss in run_spmd(2, prog, backend="process", timeout=60):
            whole, ring = 1024, 2 * 512  # p = 2: one exchange / two half-steps
            assert log == [
                (miss, whole), ({}, whole),
                (miss, 56),
                ({"chunk_offsets": 1}, ring), ({}, ring),
                (miss, whole), ({}, whole),
                (miss, whole), ({}, whole), (miss, whole), ({}, whole),
            ]


class TestBitwiseParity:
    def test_collectives_match_thread_backend(self):
        def prog(comm):
            rng = np.random.default_rng(comm.rank)
            v = rng.standard_normal(33)
            gathered = comm.gather(v, root=1)
            scattered = comm.scatter(
                [v * j for j in range(comm.size)] if comm.rank == 1 else None,
                root=1,
            )
            return (
                comm.allreduce(v),
                comm.iallreduce(v).wait(),
                comm.bcast(v if comm.rank == 0 else None),
                comm.allgather(float(v[0])),
                comm.reduce_scatter([v + j for j in range(comm.size)]),
                comm.alltoall([v[: j + 1] for j in range(comm.size)]),
                gathered if gathered is not None else [],
                scattered,
            )

        thread = run_spmd(4, prog, backend="thread")
        process = run_spmd(4, prog, backend="process")
        for t_vals, p_vals in zip(thread, process):
            for t, p in zip(t_vals, p_vals):
                if isinstance(t, list):
                    for ti, pi in zip(t, p):
                        np.testing.assert_array_equal(ti, pi)
                else:
                    np.testing.assert_array_equal(t, p)

    def test_rooted_collectives_route_narrowly(self):
        """On the process backend a direct gather flows everyone->root and a
        direct bcast root->everyone — non-participating pairs ship nothing
        (the thread backend's shared slots make routing moot there).  The
        default binomial-tree routing is covered by
        tests/test_collective_algorithms.py."""
        big = np.arange(8192, dtype=np.float64)  # well above the shm floor

        def prog(comm):
            comm.gather(big * comm.rank, root=0, algorithm="direct")
            after_gather = comm._world.transport["shm_messages"]
            comm.bcast(
                big if comm.rank == 0 else None, root=0, algorithm="direct"
            )
            after_bcast = comm._world.transport["shm_messages"]
            comm.barrier()
            return after_gather, after_bcast - after_gather

        results = run_spmd(4, prog, backend="process")
        # gather: root ships nothing, every non-root ships exactly one copy.
        assert [g for g, _ in results] == [0, 1, 1, 1]
        # bcast: root ships size-1 copies, non-roots ship nothing.
        assert [b for _, b in results] == [3, 0, 0, 0]

    def test_alltoall_ships_per_destination_pieces(self):
        """alltoall/ialltoall route only piece j to rank j (MPI volume),
        not the full payload list to every peer."""
        def prog(comm):
            big = [np.full(8192, float(j)) for j in range(comm.size)]
            got = comm.alltoall(big)
            got_nb = comm.ialltoall(big).wait()
            for i in range(comm.size):
                assert got[i][0] == float(comm.rank)
                np.testing.assert_array_equal(got[i], got_nb[i])
            comm.barrier()
            return comm._world.transport["shm_messages"]

        # 3 peers x 2 collectives = 6 single-piece messages per rank; the
        # naive allgather form would ship 6 four-piece lists instead.
        assert run_spmd(4, prog, backend="process") == [6] * 4

    def test_training_trajectory_bitwise_equal_across_backends(self):
        """Full engine parity on 4 ranks: overlapped halos, shuffles, and
        bucketed gradient allreduces produce bitwise-identical loss
        trajectories and final parameters on threads and processes."""
        spec = NetworkSpec("backend-parity")
        spec.add("input", "input", channels=2, height=9, width=11)
        spec.add("c1", "conv", ["input"], filters=4, kernel=3, pad=1, bias=True)
        spec.add("r1", "relu", ["c1"])
        spec.add("p1", "pool", ["r1"], kernel=3, stride=2, pad=1, mode="max")
        spec.add("c2", "conv", ["p1"], filters=4, kernel=3, pad=1)
        spec.add("gap", "gap", ["c2"])
        spec.add("fc", "fc", ["gap"], units=3)
        spec.add("loss", "softmax_ce", ["fc"])
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 2, 9, 11))
        t = rng.integers(0, 3, size=4)

        def prog(comm):
            net = DistNetwork(
                spec, comm, LayerParallelism(sample=2, height=2), seed=0
            )
            trainer = DistTrainer(net, SGD(lr=0.05))
            for _ in range(3):
                trainer.step(x, t)
            params = {
                layer: {p: a.copy() for p, a in v.items()}
                for layer, v in net.params.items()
            }
            return trainer.stats.losses, params

        thread = run_spmd(4, prog, backend="thread")
        process = run_spmd(4, prog, backend="process")
        for (losses_t, params_t), (losses_p, params_p) in zip(thread, process):
            assert losses_t == losses_p
            for layer in params_t:
                for pname in params_t[layer]:
                    np.testing.assert_array_equal(
                        params_t[layer][pname], params_p[layer][pname]
                    )


class TestFailureHandling:
    def test_rank_error_propagates_with_type_and_message(self):
        def prog(comm):
            if comm.rank == 2:
                raise ValueError("rank 2 exploded")
            return comm.iallreduce(1).wait()  # must not hang

        with pytest.raises(ValueError, match="rank 2 exploded"):
            run_spmd(4, prog, timeout=15.0, backend="process")

    def test_collective_timeout_names_rank_op_and_seq(self):
        """A wedged nonblocking collective fails with a diagnostic naming
        the waiting rank, the operation, its sequence number and the peer
        whose contribution is missing — on both the direct exchange and the
        scheduled path."""

        def prog_direct(comm):
            if comm.rank == 0:
                return None  # never contributes
            return comm.iallreduce(np.ones(4), algorithm="direct").wait()

        with pytest.raises(
            CommAborted,
            match=r"iallreduce\[seq=0\]\(world rank 1 <- 0.*timed out",
        ):
            run_spmd(2, prog_direct, timeout=2.0, backend="process")

        def prog_sched(comm):
            if comm.rank == 0:
                return None  # never sends its schedule segments
            return comm.iallreduce(np.ones(4), algorithm="ring").wait()

        with pytest.raises(
            CommAborted,
            match=r"iallreduce\[seq=0, schedule step \d+\].*world rank 1 <- 0.*timed out",
        ):
            run_spmd(2, prog_sched, timeout=2.0, backend="process")

    def test_direct_bcast_timeout_names_rank_op_and_seq(self):
        """The one-hop star of the rooted direct collectives keeps the
        same diagnostic: op, sequence, waiting rank, missing peer."""

        def prog(comm):
            if comm.rank == 0:
                return None  # the root never sends
            return comm.bcast(None, root=0, algorithm="direct")

        with pytest.raises(
            CommAborted, match=r"bcast\[seq=0\]\(world rank 1 <- 0.*timed out"
        ):
            run_spmd(2, prog, timeout=2.0, backend="process")

    def test_recv_timeout_names_ranks_and_tag(self):
        def prog(comm):
            if comm.rank == 0:
                return None
            return comm.recv(source=0, tag=7)

        with pytest.raises(
            CommAborted, match=r"recv\(world rank 1 <- 0.*timed out"
        ):
            run_spmd(2, prog, timeout=2.0, backend="process")

    def test_timeout_aborts_whole_job(self):
        """One rank's timeout must break peers out of unrelated waits."""

        def prog(comm):
            if comm.rank == 0:
                return comm.recv(source=1, tag=1)  # never sent: times out
            return comm.recv(source=0, tag=2)  # also never sent

        with pytest.raises(CommAborted, match="timed out|world aborted"):
            run_spmd(2, prog, timeout=2.0, backend="process")


class TestTeardown:
    def test_no_segments_leaked_after_clean_run(self):
        before = _shm_segments()

        def prog(comm):
            # Exercise the arena, including eager sends nobody receives.
            comm.send(np.ones(8192), dest=(comm.rank + 1) % comm.size, tag=50)
            return comm.allreduce(np.ones(4096))[0]

        assert run_spmd(4, prog, backend="process") == [4.0] * 4
        assert _shm_segments() == before

    def test_no_segments_leaked_after_rank_failure(self):
        before = _shm_segments()

        def prog(comm):
            comm.send(np.ones(8192), dest=(comm.rank + 1) % comm.size, tag=51)
            if comm.rank == 1:
                raise RuntimeError("mid-send failure")
            return comm.recv(source=(comm.rank - 1) % comm.size, tag=51).sum()

        with pytest.raises(RuntimeError, match="mid-send failure"):
            run_spmd(3, prog, timeout=15.0, backend="process")
        assert _shm_segments() == before

    def test_arena_blocks_freed_within_run(self):
        """Receivers free arena blocks after copying out: a long exchange
        loop cannot run the fixed arena out of space."""

        def prog(comm):
            peer = 1 - comm.rank
            data = np.full(16384, float(comm.rank))
            for i in range(64):  # 64 x 128 KiB >> default arena if leaked
                comm.send(data, dest=peer, tag=i)
                got = comm.recv(source=peer, tag=i)
                assert got[0] == float(peer)
            comm.barrier()
            return comm._world._shared.arena.used_blocks()

        # Everything consumed: at most a handful of in-flight blocks remain.
        for used in run_spmd(2, prog, backend="process"):
            assert used <= 8


class TestFaultTeardown:
    """PR 6 regressions: cleanup must survive hard deaths and never
    swallow its own failures silently."""

    def test_shm_reclaimed_after_injected_crash_mid_collective(self):
        """A rank dying by ``os._exit`` mid-collective (no unwind, no
        atexit) must not leak its /dev/shm arena segment."""
        before = _shm_segments()

        def prog(comm):
            try:
                return comm.allreduce(np.full(8192, 1.0), algorithm="ring")
            except CommAborted as exc:
                return str(exc)

        out = run_spmd(
            4,
            prog,
            backend="process",
            faults="crash@rank2:tag=#alg",
            allow_failures=True,
            detect_interval=0.2,
            timeout=20.0,
        )
        assert isinstance(out[2], CommAborted)
        assert _shm_segments() == before

    def test_timeout_message_dumps_pending_inbox(self):
        """Satellite diagnostics: the timeout abort names what *was*
        waiting in the inbox so mismatched tags are obvious."""

        def prog(comm):
            if comm.rank == 0:
                comm.send(np.ones(4), dest=1, tag="unwanted")
                comm.barrier()
                return None
            try:
                comm.recv(source=0, tag="wanted")
            except CommAborted as exc:
                comm.barrier()
                return str(exc)

        out = run_spmd(
            2,
            prog,
            backend="process",
            op_timeouts={"recv": 1.0},
            timeout=20.0,
            allow_failures=True,
        )
        msg = out[1]
        assert "pending inbox" in msg
        assert "'unwanted'" in msg and "source=0" in msg

    def test_teardown_logs_warnings_instead_of_swallowing(self, caplog):
        """A link end, result pipe or arena unlink that fails to close
        produces a warning naming the resource, not silence."""
        import logging

        from repro.comm import proc_backend as pb

        class BadEnd:
            def close(self):
                raise OSError("handle already torn down")

        class BadArena:
            name = "repro_shm_testdead"

            def destroy(self):
                raise FileNotFoundError("segment vanished")

        state = object.__new__(pb._SharedJobState)
        state.links = [[None, BadEnd()], [BadEnd(), None]]
        state.readers = [BadEnd(), None]
        state.writers = [None, BadEnd()]
        state.arena = BadArena()

        with caplog.at_level(logging.WARNING, logger="repro.comm.proc_backend"):
            state.teardown()  # must not raise

        messages = [r.message for r in caplog.records]
        assert sum("failed to close link end" in m for m in messages) == 2
        assert sum("failed to close result pipe" in m for m in messages) == 2
        # Every end is marked closed all the same: a second pass is silent.
        assert state.links == [[None, None], [None, None]]
        assert state.readers == state.writers == [None, None]
        assert any(
            "failed to unlink arena" in m and "repro_shm_testdead" in m
            for m in messages
        )
