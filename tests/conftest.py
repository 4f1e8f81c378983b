"""Shared fixtures: SPMD backend parameterization.

Suites that exercise communication semantics (nonblocking collectives, the
overlapped halo exchange, the shuffle property sweep) run against every
SPMD backend — thread, process, and socket — so the world implementations
are held to the same contract.  The forked backends (process, socket)
launch one OS process per rank and are an order of magnitude slower to
start, so those suites run them on a reduced rank/size matrix — the
helpers here make that reduction explicit at the test site.

The socket backend sweep runs under whatever ``REPRO_HOSTMAP`` is set
(CI's multi-host job exports a 2-logical-host map), defaulting to
one-rank-per-node — all traffic over TCP — when unset.
"""

import faulthandler
import os

import pytest
from hypothesis import settings

from repro.core.grad_reducer import BucketedGradReducer

# Tier-1 runs every property test at hypothesis' defaults.  CI's coverage
# job re-runs the kernel sweeps with ``--hypothesis-profile=wide``; only
# tests that set no ``max_examples`` of their own follow it.
settings.register_profile("wide", max_examples=600, deadline=None)

#: A test that has not finished after this long is hung: dump every
#: thread's stack and kill the run (stdlib only — ``pytest-timeout`` is not
#: a dependency).  Tier-1 as a whole takes ~80 s.
HANG_AFTER_S = 300

_dump_fd = pytest.StashKey[int]()


def pytest_configure(config):
    # Output capture is suspended while plugins configure, so fd 2 is still
    # the terminal here; a dump written to a captured stderr would die with
    # the process it is about to kill.
    config.stash[_dump_fd] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[_dump_fd])


@pytest.fixture(autouse=True)
def _hang_is_a_failure_with_tracebacks(request):
    faulthandler.dump_traceback_later(
        HANG_AFTER_S, exit=True, file=request.config.stash[_dump_fd]
    )
    yield
    faulthandler.cancel_dump_traceback_later()


SPMD_BACKENDS = ("thread", "process", "socket")

#: Backends that fork one OS process per rank (slow launch; parity suites
#: run them on a reduced matrix).
FORKED_BACKENDS = ("process", "socket")

#: ``REPRO_FAULTS`` plans for the timing-independence tests: a recurring
#: delay at every receive of rank 1, or at every send of rank 2.  Either
#: reorders arrivals; neither may move a bit.
DELAY_S = 0.001
DELAY_PLANS = {
    "recv": f"delay@rank1:point=recv:seconds={DELAY_S}:recurring",
    "send": f"delay@rank2:point=send:seconds={DELAY_S}:recurring",
}


@pytest.fixture(params=SPMD_BACKENDS)
def backend(request):
    """SPMD world backend to run the test under."""
    return request.param


def reduce_for_process(backend: str, heavy: bool, reason: str) -> None:
    """Skip a heavyweight parameterization on the forked backends.

    The process and socket backends run the same suites on a reduced
    matrix (fork + socketpair/TCP transport make big rank counts slow in CI);
    the thread backend keeps full coverage.
    """
    if backend in FORKED_BACKENDS and heavy:
        pytest.skip(f"{backend} backend runs the reduced matrix: {reason}")


class Counting:
    """Stand-in for a module, a socket or ``os.environ`` inside one forked
    rank: attribute access falls through to the real thing (``_real``), the
    names in ``counted`` go through a call counter first (an ``EAGAIN``
    they raise is counted as ``BlockingIOError``)."""

    def __init__(self, real, counts, *counted):
        self._real, self._counts, self._counted = real, counts, counted

    def __getattr__(self, name):
        attr = getattr(self._real, name)
        if name not in self._counted:
            return attr

        def counting(*args, **kwargs):
            self._counts[name] = self._counts.get(name, 0) + 1
            try:
                return attr(*args, **kwargs)
            except BlockingIOError:
                self._counts["BlockingIOError"] = self._counts.get("BlockingIOError", 0) + 1
                raise

        return counting


class CopyingReducer(BucketedGradReducer):
    """Test double for ``repro.core.dist_network.BucketedGradReducer`` that
    copies every partial before ``add()``: nothing is ever reduced in place
    in a layer's own array, so a run that matches the real reducer's bit for
    bit proves donated buckets alias nothing the engine still reads."""

    def add(self, layer, partials, comm):
        return super().add(layer, {k: v.copy() for k, v in partials.items()}, comm)
