"""Hierarchical collectives: two-tier cost model, schedules, and counters.

Three layers are pinned here:

* **model** — :func:`select_allreduce_algorithm` consults the two-tier
  (intra/inter) bandwidth-latency model when a hierarchical topology is
  supplied: the composed schedule wins when the inter-node link is the
  bottleneck, degenerates to the flat Thakur rule for one-node layouts,
  and the modeled inter-node wire bytes are an exact formula;
* **schedules** — :func:`compile_hierarchical_allreduce` produces
  deterministic three-phase schedules (intra reduce-scatter → inter
  allreduce → intra allgather) that match ``"direct"`` numerically for
  every layout and inter algorithm, while moving strictly fewer
  inter-node bytes than the flat ring;
* **counters** — the schedule runner's ``wire_*_inter`` tallies and the
  socket backend's TCP payload counter both equal the model's predicted
  inter-node volume *exactly* (payload sizes divisible by ``p`` keep the
  chunk table uniform, so modeled == measured to the byte).
"""

import numpy as np
import pytest

from repro.comm import run_spmd
from repro.comm.algorithms import Step, compile_hierarchical_allreduce
from repro.comm.collective_models import (
    HIERARCHICAL_ALGORITHM,
    AllreduceAlgorithm,
    LinkParameters,
    TwoTierTopology,
    allreduce_time,
    allreduce_wire_bytes,
    hierarchical_allreduce_time,
    hierarchical_inter_wire_bytes,
    select_allreduce_algorithm,
    select_inter_algorithm,
)
from repro.perfmodel.machine import LASSEN

HOSTMAP_2X2 = "0,1:A 2,3:B"


# ---------------------------------------------------------------------------
# The two-tier cost model
# ---------------------------------------------------------------------------


class TestTwoTierModel:
    def test_hierarchical_wins_when_inter_is_the_bottleneck(self):
        slow_inter = TwoTierTopology(
            nnodes=2, ranks_per_node=2,
            inter=LinkParameters(alpha=50e-6, beta=1 / 1e9, gamma=1 / 500e9),
        )
        assert (
            select_allreduce_algorithm(4, 64 << 10, slow_inter)
            == HIERARCHICAL_ALGORITHM
        )
        # The default Lassen-like links (NVLink in, EDR out) already favor
        # it for bandwidth-bound payloads.
        assert (
            select_allreduce_algorithm(4, 1 << 20, TwoTierTopology(2, 2))
            == HIERARCHICAL_ALGORITHM
        )

    def test_latency_bound_payloads_stay_flat(self):
        # 64 B at p=4: one flat recursive-doubling round trip beats the
        # three-phase composition's extra latency terms.
        got = select_allreduce_algorithm(4, 64, TwoTierTopology(2, 2))
        assert got == AllreduceAlgorithm.RECURSIVE_DOUBLING

    @pytest.mark.parametrize(
        "topo",
        [
            TwoTierTopology(nnodes=1, ranks_per_node=4),  # one node
            TwoTierTopology(nnodes=4, ranks_per_node=1),  # one rank/node
        ],
    )
    def test_degenerate_topologies_collapse_to_flat(self, topo):
        assert not topo.hierarchical
        for nbytes in (64, 64 << 10, 4 << 20):
            assert select_allreduce_algorithm(4, nbytes, topo) == (
                select_allreduce_algorithm(4, nbytes)
            )
            # The degenerate time model equals the flat model on the
            # active link (intra for one node, inter for one rank/node).
            link = topo.intra if topo.nnodes == 1 else topo.inter
            assert hierarchical_allreduce_time(nbytes, topo) == pytest.approx(
                allreduce_time(4, nbytes, link)
            )

    def test_size_mismatch_falls_back_to_flat(self):
        # A communicator smaller than the topology (split groups) must not
        # be priced hierarchically.
        topo = TwoTierTopology(2, 2)
        assert select_allreduce_algorithm(2, 1 << 20, topo) == (
            select_allreduce_algorithm(2, 1 << 20)
        )

    def test_hierarchical_time_decomposition(self):
        topo = TwoTierTopology(2, 2)
        n = float(1 << 20)
        k, m = 2, 2
        frac = (k - 1) / k
        rs = (k - 1) * topo.intra.alpha + frac * n * (
            topo.intra.beta + topo.intra.gamma
        )
        ag = (k - 1) * topo.intra.alpha + frac * n * topo.intra.beta
        mid = allreduce_time(m, n / k, topo.inter)
        assert hierarchical_allreduce_time(n, topo) == pytest.approx(
            rs + mid + ag
        )

    def test_inter_wire_bytes_formula(self):
        topo = TwoTierTopology(2, 2)
        n = float(1 << 20)
        # Ring over m=2 on the n/k segment: 2*(n/k)*(m-1)/m = n/2.
        assert hierarchical_inter_wire_bytes(
            n, topo, AllreduceAlgorithm.RING
        ) == pytest.approx(n / 2)
        assert hierarchical_inter_wire_bytes(
            n, TwoTierTopology(1, 4)
        ) == 0.0

    def test_machine_spec_exposes_the_same_model(self):
        topo = LASSEN.two_tier(nnodes=8)
        assert topo.ranks_per_node == LASSEN.gpus_per_node
        assert topo.intra == LASSEN.intra_link
        n = 4 << 20
        assert LASSEN.hierarchical_allreduce_time(8, n) == pytest.approx(
            hierarchical_allreduce_time(n, topo)
        )

    def test_inter_algorithm_selection_is_flat_thakur(self):
        assert (
            select_inter_algorithm(2, 64)
            == AllreduceAlgorithm.RECURSIVE_DOUBLING
        )
        assert select_inter_algorithm(2, 1 << 20) in (
            AllreduceAlgorithm.RABENSEIFNER, AllreduceAlgorithm.RING,
        )


# ---------------------------------------------------------------------------
# The compiled schedules
# ---------------------------------------------------------------------------


class TestHierarchicalSchedules:
    @pytest.mark.parametrize(
        "nodes",
        [
            ((0, 1), (2, 3)),
            ((0, 2), (1, 3)),          # interleaved rank placement
            ((0, 1, 2), (3, 4, 5)),
            ((0, 1), (2, 3), (4, 5), (6, 7)),
        ],
    )
    @pytest.mark.parametrize(
        "inter", ["ring", "recursive_doubling", "rabenseifner"]
    )
    def test_matches_direct_numerically(self, nodes, inter):
        p = sum(len(g) for g in nodes)
        n = 257  # deliberately not divisible by p: ragged chunk table

        def prog(comm):
            from repro.comm.algorithms import ScheduleRunner

            rng = np.random.default_rng(99 + comm.rank)
            x = rng.standard_normal(n).astype(np.float64)
            ref = comm.allreduce(x, algorithm="direct")
            steps = compile_hierarchical_allreduce(nodes, inter)[comm.rank]
            runner = ScheduleRunner(
                comm, "allreduce", steps, x,
                lambda a, b: a + b, comm._next_coll_seq(),
            )
            got = runner.finish()
            assert np.allclose(got, ref, rtol=1e-10, atol=1e-10)
            return runner.wire_sent

        sent = run_spmd(p, prog)
        # Total volume stays bandwidth-optimal-ish: every rank moves data;
        # the exact per-rank figure depends on the ragged chunk table.
        assert all(s > 0 for s in sent)

    def test_total_volume_matches_flat_ring_when_divisible(self):
        nodes = ((0, 1), (2, 3))
        p, n = 4, 4096  # divisible: every chunk is exactly n/p elements

        def prog(comm):
            from repro.comm.algorithms import ScheduleRunner

            x = np.ones(n, dtype=np.float64)
            steps = compile_hierarchical_allreduce(nodes, "ring")[comm.rank]
            runner = ScheduleRunner(
                comm, "allreduce", steps, x,
                lambda a, b: a + b, comm._next_coll_seq(),
            )
            runner.finish()
            return runner.wire_sent

        nbytes = n * 8
        expect = allreduce_wire_bytes(p, nbytes, AllreduceAlgorithm.RING)
        assert run_spmd(p, prog) == [int(expect)] * p

    def test_validation(self):
        with pytest.raises(ValueError, match="uniform"):
            compile_hierarchical_allreduce(((0, 1), (2,)), "ring")
        with pytest.raises(ValueError, match="exactly once"):
            compile_hierarchical_allreduce(((0, 1), (1, 2)), "ring")
        with pytest.raises(ValueError, match="inter-node algorithm"):
            compile_hierarchical_allreduce(((0, 1), (2, 3)), "bogus")

    def test_deterministic_and_cached(self):
        a = compile_hierarchical_allreduce(((0, 1), (2, 3)), "ring")
        b = compile_hierarchical_allreduce(((0, 1), (2, 3)), "ring")
        assert a is b  # lru_cache: one compilation per layout
        assert all(isinstance(s, Step) for sched in a for s in sched)


# ---------------------------------------------------------------------------
# Modeled == measured inter-node bytes
# ---------------------------------------------------------------------------


def _measured_inter(backend, algorithm, n_elems):
    """Per-rank (inter_sent, total_sent) for one allreduce."""

    def prog(comm):
        x = np.ones(n_elems, dtype=np.float32)
        comm.stats.reset()
        comm.allreduce(x, algorithm=algorithm)
        return (
            comm.stats.total_wire_sent_inter("allreduce"),
            comm.stats.total_wire_sent("allreduce"),
        )

    return run_spmd(
        4, prog, backend=backend, hostmap=HOSTMAP_2X2, timeout=60
    )


class TestModeledEqualsMeasured:
    N = 16384  # divisible by p=4: uniform chunks, exact byte equality

    def test_hierarchical_inter_bytes_match_the_model_exactly(self):
        nbytes = self.N * 4
        topo = TwoTierTopology(2, 2)
        inter_alg = select_inter_algorithm(2, nbytes / 2)
        model = hierarchical_inter_wire_bytes(nbytes, topo, inter_alg)
        for inter_sent, total_sent in _measured_inter(
            "thread", "hierarchical", self.N
        ):
            assert inter_sent == int(model)
            assert total_sent == int(
                allreduce_wire_bytes(4, nbytes, AllreduceAlgorithm.RING)
            )

    def test_hierarchical_beats_flat_ring_on_the_inter_wire(self):
        hier = _measured_inter("thread", "hierarchical", self.N)
        ring = _measured_inter("thread", "ring", self.N)
        assert sum(h[0] for h in hier) < sum(r[0] for r in ring)
        assert max(h[0] for h in hier) < max(r[0] for r in ring)
        # ...at identical total volume (both are bandwidth-optimal).
        assert sum(h[1] for h in hier) == sum(r[1] for r in ring)

    def test_socket_transport_counter_agrees(self):
        # The TCP payload-byte counter is the *transport-level* measured
        # analogue of the CommStats inter tally: for a lone allreduce the
        # two must agree to the byte.
        def prog(comm):
            x = np.ones(self.N, dtype=np.float32)
            before = comm._world.transport["tcp_payload_bytes"]
            comm.stats.reset()
            comm.allreduce(x, algorithm="hierarchical")
            tcp = comm._world.transport["tcp_payload_bytes"] - before
            return tcp, comm.stats.total_wire_sent_inter("allreduce")

        for tcp, inter in run_spmd(
            4, prog, backend="socket", hostmap=HOSTMAP_2X2, timeout=60
        ):
            assert tcp == inter
            assert tcp == int(
                hierarchical_inter_wire_bytes(
                    self.N * 4, TwoTierTopology(2, 2),
                    select_inter_algorithm(2, self.N * 2),
                )
            )


# ---------------------------------------------------------------------------
# Communicator plumbing
# ---------------------------------------------------------------------------


class TestCommunicatorHierarchy:
    def test_hierarchy_detected_from_the_hostmap(self):
        def prog(comm):
            return comm.hierarchy()

        assert run_spmd(4, prog, hostmap=HOSTMAP_2X2) == [
            ((0, 1), (2, 3))
        ] * 4

    def test_no_hostmap_means_no_hierarchy(self, monkeypatch):
        # Shed any ambient REPRO_HOSTMAP (CI's multi-host job exports one).
        monkeypatch.delenv("REPRO_HOSTMAP", raising=False)

        def prog(comm):
            return comm.hierarchy()

        assert run_spmd(4, prog) == [None] * 4

    def test_non_uniform_layout_is_unusable(self):
        def prog(comm):
            return comm.hierarchy()

        assert run_spmd(4, prog, hostmap="0,1,2:A 3:B") == [None] * 4

    def test_split_communicator_regroups(self):
        # Splitting 8 ranks on "0,1:A 2,3:B" (folded) by parity: the even
        # group's world ranks {0,2,4,6} land on nodes A,B,A,B, so in
        # comm-rank space the sub-communicator sees the interleaved — but
        # still uniform 2x2 — layout ((0,2),(1,3)).
        def prog(comm):
            sub = comm.split(comm.rank % 2)
            return sub.hierarchy()

        out = run_spmd(8, prog, hostmap=HOSTMAP_2X2)
        assert all(h == ((0, 2), (1, 3)) for h in out)

    def test_forced_hierarchical_without_layout_falls_back(self, monkeypatch):
        monkeypatch.delenv("REPRO_HOSTMAP", raising=False)

        def prog(comm):
            x = np.ones(1024, dtype=np.float64)
            ref = comm.allreduce(x, algorithm="direct")
            got = comm.allreduce(x, algorithm="hierarchical")  # no hostmap
            assert np.allclose(got, ref)
            return True

        assert all(run_spmd(4, prog))

    def test_env_override_selects_hierarchical(self, monkeypatch):
        monkeypatch.setenv("REPRO_COLLECTIVE_ALG", "hierarchical")

        def prog(comm):
            x = np.ones(4096, dtype=np.float32)
            comm.stats.reset()
            comm.allreduce(x)
            return comm.stats.total_wire_sent_inter("allreduce")

        nbytes = 4096 * 4
        expect = int(
            hierarchical_inter_wire_bytes(
                nbytes, TwoTierTopology(2, 2),
                select_inter_algorithm(2, nbytes / 2),
            )
        )
        assert run_spmd(4, prog, hostmap=HOSTMAP_2X2) == [expect] * 4

    def test_auto_goes_hierarchical_for_large_payloads(self):
        def prog(comm):
            x = np.ones(1 << 18, dtype=np.float32)  # 1 MiB
            comm.stats.reset()
            comm.allreduce(x)  # auto
            return comm.stats.total_wire_sent_inter("allreduce") > 0

        def prog_small(comm):
            x = np.ones(8, dtype=np.float32)  # 32 B: flat rec-doubling
            comm.stats.reset()
            comm.allreduce(x)
            return comm.stats.total_wire_sent_inter("allreduce")

        assert all(run_spmd(4, prog, hostmap=HOSTMAP_2X2))
        # Small payloads stay flat — but still cross the node boundary.
        small = run_spmd(4, prog_small, hostmap=HOSTMAP_2X2)
        assert all(s > 0 for s in small)
