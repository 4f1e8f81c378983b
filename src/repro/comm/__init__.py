"""MPI-like communication substrate with pluggable SPMD backends.

This package replaces the MPI + NCCL + Aluminum stack used by the paper's
LBANN implementation with a functionally equivalent runtime:

* :mod:`repro.comm.backend` — the SPMD harness (:func:`run_spmd`), the
  abstract world contract (launch + mailbox + failure detection), the
  backend registry, the one ``(source, tag)`` ``Mailbox`` with the only
  wait loop every world receives through, and the default **thread**
  backend (one Python thread per rank over shared mailboxes).
* :mod:`repro.comm.proc_backend` — the one **forked-rank world**: one OS
  process per rank, registered under two routing layouts.  ``"process"``
  puts every rank on one node — all bytes through the shared-memory arena
  (``run_spmd(..., backend="process")`` or ``REPRO_BACKEND=process``).
  ``"socket"`` follows a :class:`HostMap`
  (``run_spmd(..., hostmap="0,1:A 2,3:B")`` or ``REPRO_HOSTMAP``; one node
  per rank without one): same-node ranks use the shared-memory transport,
  cross-node ranks talk TCP.  The node layout also drives the
  communicator's *hierarchical* collectives (intra-node ring + inter-node
  exchange), selected by the two-tier cost model
  (:class:`TwoTierTopology`).
* :mod:`repro.comm.socket_backend` — the wire under the off-node pairs:
  CRC-checked length-prefixed frames, the per-pair TCP links (read by the
  waiting thread's drain, written on the calling thread), heartbeats and
  EOF-without-BYE peer-death detection.
* :mod:`repro.comm.communicator` — the :class:`Communicator` API the
  engine calls (``send``/``recv``/``irecv``/``barrier``/``bcast``/
  ``allgather``/``alltoall``/``allreduce``/``iallreduce``/``split``),
  mirroring mpi4py's lower-case object interface; backend-agnostic, and
  bitwise-reproducible across backends for a fixed rank count.
* :mod:`repro.comm.algorithms` — every collective's wire pattern: the
  ``"direct"`` exchange and the compiled ring / Rabenseifner /
  recursive-doubling / hierarchical allreduce schedules, each run whole
  over ``p`` chunks of the buffer.
* :mod:`repro.comm.payload` — what a payload is: the one walk over
  tuple/list/dict every copy, byte count and array lift goes through, and
  the immutability rule built on it (``freeze`` / ``private`` /
  :func:`set_zero_copy`).
* :mod:`repro.comm.stats` — per-rank communication statistics (bytes,
  message and collective counts) used by tests and benchmarks to verify the
  communication-volume formulas of the paper's Section V.
* :mod:`repro.comm.collective_models` — α-β cost models for point-to-point
  and collective operations (Thakur et al.), used by the performance model.

The communicator is *buffered and eager*: ``send`` never blocks, so the
halo-exchange and shuffle patterns used by the distributed tensor library
cannot deadlock regardless of ordering.  The nonblocking operations
(``irecv``/``iallreduce``) return :class:`Request` handles with
``wait()``/``test()``; on the thread backend contiguous array
payloads cross the boundary zero-copy as read-only views (see
:func:`set_zero_copy`).
"""

from repro.comm.backend import (
    DEFAULT_TIMEOUT,
    CommAborted,
    CommIntegrityError,
    available_backends,
    default_backend,
    register_backend,
    resolve_backend,
    run_spmd,
)
from repro.comm.faults import (
    FAULTS_ENV,
    INJECTED_CRASH_EXIT,
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    InjectedFault,
    JobConfig,
)
from repro.comm import proc_backend as _proc_backend  # registers "process", "socket"
from repro.comm.buffers import BufferPool
from repro.comm.hostmap import HOSTMAP_ENV, HostMap, resolve_hostmap
from repro.comm.communicator import COLLECTIVE_ALG_ENV, Communicator, Request
from repro.comm.payload import set_zero_copy
from repro.comm.stats import CommStats
from repro.comm.collective_models import (
    AllreduceAlgorithm,
    DIRECT_ALGORITHM,
    HIERARCHICAL_ALGORITHM,
    TwoTierTopology,
    allreduce_time,
    allreduce_wire_bytes,
    alltoall_time,
    pt2pt_time,
    hierarchical_allreduce_time,
    resolve_allreduce_algorithm,
    select_allreduce_algorithm,
    select_inter_algorithm,
)

__all__ = [
    "AllreduceAlgorithm",
    "BufferPool",
    "COLLECTIVE_ALG_ENV",
    "CommAborted",
    "CommIntegrityError",
    "CommStats",
    "Communicator",
    "DEFAULT_TIMEOUT",
    "DIRECT_ALGORITHM",
    "FAULTS_ENV",
    "FaultPlan",
    "FaultSpec",
    "HIERARCHICAL_ALGORITHM",
    "HOSTMAP_ENV",
    "HostMap",
    "INJECTED_CRASH_EXIT",
    "InjectedCrash",
    "InjectedFault",
    "JobConfig",
    "Request",
    "TwoTierTopology",
    "allreduce_wire_bytes",
    "hierarchical_allreduce_time",
    "resolve_allreduce_algorithm",
    "resolve_hostmap",
    "select_inter_algorithm",
    "available_backends",
    "default_backend",
    "register_backend",
    "resolve_backend",
    "allreduce_time",
    "alltoall_time",
    "pt2pt_time",
    "run_spmd",
    "select_allreduce_algorithm",
    "set_zero_copy",
]
