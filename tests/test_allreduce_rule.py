"""One allreduce rule: the cost model prices the algorithm the engine runs.

A real communicator's plan for an ``algorithm="auto"`` allreduce
(``Communicator._plan_reduction``) names an algorithm — and, for the
hierarchical composition, compiles an inter-node algorithm into its steps.
:meth:`MachineSpec.allreduce_time` must price exactly that: the flat
algorithm on the link the group sits on, or the composition with that
inter-node algorithm.  Checked on flat groups (one node, a machine with
``gpus_per_node = p``), on uniform two-tier layouts with a matching
``MachineSpec(gpus_per_node=k)``, and on whatever layout the session's
``REPRO_BACKEND`` / ``REPRO_HOSTMAP`` give (CI's multi-host job runs it on
a real two-host socket map).
"""

import numpy as np
import pytest

from repro.comm import run_spmd
from repro.comm.algorithms import REDUCTION_ALGORITHMS, compile_hierarchical_allreduce
from repro.comm.collective_models import (
    HIERARCHICAL_ALGORITHM,
    TwoTierTopology,
    allreduce_time,
    hierarchical_allreduce_time,
)
from repro.core import LayerParallelism, ParallelStrategy
from repro.nn.resnet import build_resnet_tiny
from repro.perfmodel import NetworkCostModel
from repro.perfmodel.machine import MachineSpec
from repro.tensor import ProcessGrid

#: float64 element counts on both sides of the 2 KiB small-message cutoff,
#: of the ~4 MB size where recursive doubling stops being the fastest flat
#: algorithm at p = 2 (2α/γ on NVLink), and of the size where the two-level
#: composition starts to win on two nodes.
ELEMS = (8, 255, 256, 257, 8192, 487_500, 512_500, 1 << 21)


def _engine_picks(comm):
    """``(algorithm, inter-node algorithm or None)`` per entry of ``ELEMS``,
    read off this rank's compiled plans."""
    picks = []
    for n in ELEMS:
        alg, steps = comm._plan_reduction("allreduce", "auto", n, np.dtype(np.float64))
        inter = None
        if alg == HIERARCHICAL_ALGORITHM:
            h = comm.hierarchy()
            (inter,) = [
                a for a in REDUCTION_ALGORITHMS
                if compile_hierarchical_allreduce(h, a)[comm.rank] == steps
            ]
        picks.append((alg, inter))
    return comm.size, comm.hierarchy(), picks


def _price(spec: MachineSpec, members, nbytes: float, alg: str, inter: str | None) -> float:
    """What an allreduce over world ranks ``members`` running ``alg``
    (``inter`` between nodes) costs on ``spec``."""
    p, nodes = len(members), len({r // spec.gpus_per_node for r in members})
    if alg == HIERARCHICAL_ALGORITHM:
        topo = TwoTierTopology(nodes, p // nodes, spec.intra_link, spec.inter_link)
        return hierarchical_allreduce_time(nbytes, topo, inter)
    link = spec.intra_link if nodes == 1 else spec.inter_link
    return allreduce_time(p, nbytes, link, alg)


def _assert_model_prices_engine(results, spec: MachineSpec, members=None) -> list[bool]:
    """Every rank's pick is the one ``spec.allreduce_time`` prices over
    ``members``, the world ranks of rank 0's group (default: the first p);
    returns, per size, whether that price differs from the fastest flat
    algorithm (the model's answer before it asked the engine's rule)."""
    (p, _, picks), *others = results
    assert all(picks == o[2] for o in others)  # one pick on every rank
    members = range(p) if members is None else members
    differs = []
    for n, (alg, inter) in zip(ELEMS, picks):
        nbytes = n * 8
        priced = spec.allreduce_time(members, nbytes)
        assert priced == _price(spec, members, nbytes, alg, inter), (p, nbytes, alg, inter)
        link = spec.intra_link if p <= spec.gpus_per_node else spec.inter_link
        fastest = min(allreduce_time(p, nbytes, link, a) for a in REDUCTION_ALGORITHMS)
        differs.append(priced != fastest)
    return differs


@pytest.mark.parametrize("p", [2, 3, 4, 8])
def test_flat_group(p, monkeypatch):
    monkeypatch.delenv("REPRO_HOSTMAP", raising=False)
    results = run_spmd(p, _engine_picks, backend="thread")
    assert results[0][1] is None
    differs = _assert_model_prices_engine(results, MachineSpec(gpus_per_node=p))
    if p == 2:
        # 64 KiB and 3.9 MB run Rabenseifner, which fastest-of-three
        # pricing would have priced as recursive doubling.
        assert differs[ELEMS.index(8192)] and differs[ELEMS.index(487_500)]


@pytest.mark.parametrize("k,m", [(2, 2), (2, 4), (4, 2)])
def test_two_tier_layout(k, m):
    hostmap = " ".join(
        ",".join(str(u * k + i) for i in range(k)) + f":N{u}" for u in range(m)
    )
    results = run_spmd(k * m, _engine_picks, backend="thread", hostmap=hostmap)
    assert results[0][1] == tuple(tuple(range(u * k, u * k + k)) for u in range(m))
    assert any(alg == HIERARCHICAL_ALGORITHM for alg, _ in results[0][2])
    assert any(alg != HIERARCHICAL_ALGORITHM for alg, _ in results[0][2])
    _assert_model_prices_engine(results, MachineSpec(gpus_per_node=k))


def test_session_layout():
    """Four ranks on the session's backend and host map: one node without
    a map, the map's uniform nodes with one."""
    results = run_spmd(4, _engine_picks, timeout=60)
    h = results[0][1]
    k = 4 if h is None else len(h[0])
    _assert_model_prices_engine(results, MachineSpec(gpus_per_node=k))


def _sample_group_picks(comm):
    """:func:`_engine_picks` of this rank's sample group on a ``(4, 1, 2, 1)``
    grid: world ranks ``[0, 2, 4, 6]`` for rank 0, strided over the nodes."""
    return _engine_picks(ProcessGrid(comm, (4, 1, 2, 1)).axes_comm((0,)))


def test_strided_group_is_priced_from_the_nodes_it_spans():
    """A sample group under an inner spatial split holds every other world
    rank: on 4-GPU nodes, 4 members two to a node — a 2 x 2 two-tier layout
    the engine runs as one, not a node on NVLink."""
    results = run_spmd(
        8, _sample_group_picks, backend="thread", hostmap="0,1,2,3:N0 4,5,6,7:N1"
    )
    assert results[0][:2] == (4, ((0, 1), (2, 3)))
    lassen = MachineSpec(gpus_per_node=4)
    _assert_model_prices_engine(results, lassen, members=(0, 2, 4, 6))

    # The cost model prices ResNet-tiny's loss allreduce over that group.
    par = LayerParallelism(sample=4, height=2)
    bd = NetworkCostModel(build_resnet_tiny(image_size=16), lassen).cost(
        8, ParallelStrategy.uniform(par)
    )
    (loss,) = [c for c in bd.schedule.collectives if ":loss:" in c.op_id]
    nbytes = loss.elems * lassen.dtype_bytes
    assert loss.axes == (0,) and loss.group == 4
    assert bd.comm_ops[loss.op_id] == lassen.allreduce_time((0, 2, 4, 6), nbytes)
    assert bd.comm_ops[loss.op_id] != lassen.allreduce_time(range(4), nbytes)
