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
from repro.perfmodel.machine import MachineSpec

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


def _price(spec: MachineSpec, p: int, nbytes: float, alg: str, inter: str | None) -> float:
    """What an allreduce running ``alg`` (``inter`` between nodes) costs
    on ``spec``."""
    k = spec.gpus_per_node
    if alg == HIERARCHICAL_ALGORITHM:
        topo = TwoTierTopology(p // k, k, spec.intra_link, spec.inter_link)
        return hierarchical_allreduce_time(nbytes, topo, inter)
    link = spec.intra_link if p <= k else spec.inter_link
    return allreduce_time(p, nbytes, link, alg)


def _assert_model_prices_engine(results, spec: MachineSpec) -> list[bool]:
    """Every rank's pick is the one ``spec.allreduce_time`` prices; returns,
    per size, whether that price differs from the fastest flat algorithm
    (the model's answer before it asked the engine's rule)."""
    (p, _, picks), *others = results
    assert all(picks == o[2] for o in others)  # one pick on every rank
    differs = []
    for n, (alg, inter) in zip(ELEMS, picks):
        nbytes = n * 8
        priced = spec.allreduce_time(p, nbytes)
        assert priced == _price(spec, p, nbytes, alg, inter), (p, nbytes, alg, inter)
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
