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
import resource

import numpy as np
import pytest
from hypothesis import settings

from repro.comm import HOSTMAP_ENV, CommAborted, resolve_hostmap
from repro.core import classify_failures
from repro.core.dist_layers import DistPool2d
from repro.core.grad_reducer import BucketedGradReducer
from repro.core.parallelism import activation_dist
from repro.core.window import transposed_window, window_geometry
from repro.tensor import DistTensor, start_region_exchange
from repro.tensor.dist_tensor import plan_regions
from repro.tensor.indexing import place_region

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


def pytest_terminal_summary(terminalreporter):
    """Report the run's CPU seconds — user + system, of this process and
    the children it waited for (forked ranks) — beside its wall time: on a
    shared host wall time reads the neighbours, CPU time the suite."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    user, system = me.ru_utime + kids.ru_utime, me.ru_stime + kids.ru_stime
    terminalreporter.write_line(
        f"CPU seconds: {user + system:.1f} (user {user:.1f}, sys {system:.1f}; "
        "process and children)"
    )


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


#: The cause a survivor may carry for a rank a fault plan crashed: on
#: ``socket`` a survivor off the dead rank's node may notice its lost TCP
#: link before the parent's exit-code watcher names the crash.
CRASH_KINDS = {
    "thread": {"injected-crash"},
    "process": {"injected-crash"},
    "socket": {"injected-crash", "peer-death"},
}


def assert_one_cause(out, culprit, kinds, hostmap=None):
    """A chaos-mode result list holds the job's one recorded failure.

    Every rank but ``culprit`` raised a ``CommAborted`` carrying the same
    cause: a ``kind`` among ``kinds``, ``failed_rank == culprit`` and the
    culprit's host in the job's host map (``hostmap``, else
    ``REPRO_HOSTMAP``; ``None`` without one).  And the elastic classifier
    distills the list to exactly the culprit.
    """
    hm = resolve_hostmap(hostmap, os.environ.get(HOSTMAP_ENV))
    host = hm.host_of(culprit) if hm is not None else None
    survivors = [e for r, e in enumerate(out) if r != culprit]
    assert all(isinstance(e, CommAborted) for e in survivors), out
    causes = {(e.kind, e.failed_rank, e.host) for e in survivors}
    assert len(causes) == 1, causes
    [(kind, failed_rank, got_host)] = causes
    assert kind in kinds and (failed_rank, got_host) == (culprit, host), causes
    assert [(f.rank, f.host) for f in classify_failures(out, hm)] == [(culprit, host)]


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


# -- region transfers and windowed layers outside a network ---------------------


def region_plan(dt, regions):
    """This rank's plan of the region gather from ``dt`` in which comm rank
    ``j`` gathers ``regions[j] = (lo, hi)``."""
    grid = dt.grid
    placed = [(grid.coords_of(j), region) for j, region in enumerate(regions)]
    return plan_regions(dt.dist, dt.global_shape, placed)[dt.comm.rank]


def region_of(global_array, lo, hi):
    """The numpy oracle of a region gather: ``global_array[lo:hi]``, with
    zeros wherever the region leaves the array."""
    out = np.zeros([h - b for b, h in zip(lo, hi)], dtype=global_array.dtype)
    src = [(max(b, 0), min(h, n)) for b, h, n in zip(lo, hi, global_array.shape)]
    if all(s1 > s0 for s0, s1 in src):
        out[tuple(slice(s0 - b, s1 - b) for (s0, s1), b in zip(src, lo))] = (
            global_array[tuple(slice(s0, s1) for s0, s1 in src)]
        )
    return out


def standalone_window(layer, x):
    """The forward window of windowed ``layer`` reading ``x`` in place: its
    output in the grid's activation placement, as ``lower()`` places it."""
    y_shape = layer.output_global_shape(x.global_shape)
    block = activation_dist(layer.grid.shape, y_shape), y_shape
    return (x.dist, x.global_shape), block, layer.kernel, layer.stride, layer.pad, False


def start_window(layer, source, window):
    """``(geometry, started gather or None)`` of ``window`` on this rank,
    started as ``DistNetwork`` starts it — staging the boundary pieces'
    source boxes — wherever a window reads off-shard."""
    g = window_geometry(layer.grid.coords, *window)
    if not g.exchanged:
        return g, None
    return g, start_region_exchange(source, g.plan, g.boundary_boxes)


class Driven:
    """A convolution or pooling layer driven on its own the way
    ``DistNetwork`` drives it: the window's gather started before the layer
    runs, Eq. 3's before the filter kernel, pooling's reverse halo
    scatter-added after the layer computed its extended-region gradient.

    ``forward(x, window=None)`` (default: :func:`standalone_window`) and
    ``backward(dy, need_dx=True)`` return what the network would: the
    output; ``(dx, dw, db)`` for a convolution, ``dx`` for pooling.  What
    the layer's forward saved is held in ``saved`` until the backward that
    consumes it, as the network's table holds it."""

    def __init__(self, layer):
        self.layer = layer
        self.window = None
        self.saved = None

    def __getattr__(self, name):
        return getattr(self.layer, name)

    def forward(self, x, window=None):
        self.window = window or standalone_window(self.layer, x)
        y, self.saved = self.layer.forward(x, *start_window(self.layer, x, self.window))
        return y

    def backward(self, dy, need_dx=True):
        layer, window, saved = self.layer, self.window, self.saved
        self.saved = None
        if not isinstance(layer, DistPool2d):
            if not need_dx:
                return layer.backward(dy, saved)
            return layer.backward(
                dy, saved, *start_window(layer, dy, transposed_window(window))
            )
        dx_ext = layer.backward(dy, saved)
        g = window_geometry(layer.grid.coords, *window)
        dist, shape = window[0]
        dx = DistTensor.zeros(layer.grid, dist, shape, dtype=dy.dtype)
        if g.exchanged:
            dx.start_scatter_region_add(dx_ext, g.lo, plan=g.plan).finish()
        else:
            place_region(
                dx.local, dx_ext, tuple(lo - b for lo, (b, _) in zip(g.lo, dx.bounds)),
                accumulate=True,
            )
        return dx
