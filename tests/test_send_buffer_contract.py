"""The send-buffer contract, on every backend: a sent array is copied once,
by the transport, before the call returns.

So a caller may overwrite a buffer as soon as ``send``, a blocking
collective, the root's ``bcast`` or the start of a halo exchange or shuffle
returns, and no receiver sees the overwrite; and the own slot of a blocking
``allgather`` is a read-only copy, never the caller's buffer.

Rank 1 is a straggler — every receive it makes is delayed — so its peers
have returned and overwritten their buffers before it reads what they
sent: a transport that handed over views instead of copies would show the
overwrite.  Where the program order allows it, a barrier between the
overwrite and the receive makes that order certain.
"""

import numpy as np

from conftest import region_plan
from repro.comm import run_spmd
from repro.tensor import DistTensor, Distribution, ProcessGrid, start_region_exchange
from repro.tensor import shuffle_plan, start_shuffle

STRAGGLER = "delay@rank1:point=recv:seconds=0.02:recurring"

#: Four ranks, so CI's two-node map (``0,1:A 2,3:B``) puts some pairs on a
#: socketpair and others on TCP.
P = 4

#: The global tensor the halo exchange and the shuffle move: 8 x 8, so a
#: row split hands each rank a contiguous (2, 8) block and a column split
#: an (8, 2) one whose row blocks are contiguous too.
X = np.arange(64, dtype=np.float64).reshape(8, 8)


def _overwrite(arr: np.ndarray) -> None:
    arr[...] = -1.0


def _halo_rows(rank: int) -> tuple[int, int]:
    """The rows a rank gathers: its own two and one of each neighbour's."""
    return max(0, 2 * rank - 1), min(8, 2 * rank + 3)


def _contract_prog(comm):
    rank, p = comm.rank, comm.size
    out = {}

    buf = np.full(16, 1.0 + rank)
    comm.send(buf, dest=(rank + 1) % p, tag=7)
    comm.send(buf, dest=rank, tag=8)
    _overwrite(buf)
    comm.barrier()
    out["send"] = comm.recv(source=(rank - 1) % p, tag=7)
    out["self-send"] = comm.recv(source=rank, tag=8)

    for algorithm in ("direct", None):
        buf = np.full(16, 1.0 + rank)
        out[f"allreduce/{algorithm}"] = comm.allreduce(buf, algorithm=algorithm)
        _overwrite(buf)
        comm.barrier()

    buf = np.full(16, 1.0 + rank)
    out["allgather"] = comm.allgather(buf)
    _overwrite(buf)
    comm.barrier()

    buf = np.full(16, 5.0)
    out["bcast"] = comm.bcast(buf if rank == 0 else None, root=0)
    if rank == 0:
        _overwrite(buf)
    comm.barrier()

    rows = ProcessGrid(comm, (p, 1))
    # ``from_global`` may hand out a view of its argument: shard a copy.
    dt = DistTensor.from_global(rows, Distribution.make((p, 1)), X.copy())
    regions = [((lo, 0), (hi, 8)) for lo, hi in map(_halo_rows, range(p))]
    halo = start_region_exchange(dt, region_plan(dt, regions))
    _overwrite(dt.local)
    comm.barrier()
    (out["halo"],) = halo.finish()

    # Shuffle from column blocks to row blocks.
    cols = ProcessGrid(comm, (1, p))
    src = DistTensor.from_global(cols, Distribution.make((1, p)), X.copy())
    dst = Distribution.make((p, 1))
    ex = start_shuffle(src, rows, dst, shuffle_plan(comm.rank, src.dist, dst, X.shape))
    _overwrite(src.local)
    comm.barrier()
    out["shuffle"] = ex.finish().local
    return out


def test_overwrite_after_the_call_never_reaches_a_receiver(backend):
    results = run_spmd(P, _contract_prog, backend=backend, faults=STRAGGLER)
    for rank, out in enumerate(results):
        np.testing.assert_array_equal(out["send"], np.full(16, 1.0 + (rank - 1) % P))
        np.testing.assert_array_equal(out["self-send"], np.full(16, 1.0 + rank))
        for algorithm in ("direct", None):
            np.testing.assert_array_equal(out[f"allreduce/{algorithm}"], np.full(16, 10.0))
        for j, piece in enumerate(out["allgather"]):
            np.testing.assert_array_equal(piece, np.full(16, 1.0 + j))
        np.testing.assert_array_equal(out["bcast"], np.full(16, 5.0))
        lo, hi = _halo_rows(rank)
        np.testing.assert_array_equal(out["halo"], X[lo:hi])
        np.testing.assert_array_equal(out["shuffle"], X[2 * rank : 2 * rank + 2])


def _own_slot_prog(comm):
    mine = np.full(4, float(comm.rank))
    gathered = comm.allgather(mine)
    _overwrite(mine)
    return gathered, [a.flags.writeable for a in gathered]


def test_own_slot_is_a_read_only_copy(backend):
    for gathered, writeable in run_spmd(P, _own_slot_prog, backend=backend):
        for j in range(P):
            np.testing.assert_array_equal(gathered[j], np.full(4, float(j)))
        assert not any(writeable)
