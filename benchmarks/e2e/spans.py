"""Outside-in span tracing for the end-to-end benchmark.

The benchmark measures each ``src/repro`` layer without editing it:
:func:`install` replaces public callables (kernels in ``nn.functional``,
the halo/shuffle exchanges of ``tensor``, the collectives and request waits
of ``comm``, the forward/backward/step drivers of ``core``) with wrappers
that record one span per call, and the returned :class:`Installed` handle
restores every original.  Spans stay in memory on the rank that made them
(:class:`Recorder`, one per rank thread or forked rank process) and travel
back to the driver as the rank program's return value.

A span is ``(name, step, start, end, parent)``; the name carries its layer
as the prefix before the first dot.  A span's *self time* is its duration
minus the part of it that its child spans cover, so per-name self times of
one rank add up to that rank's step time exactly.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import logging
import sys
import threading
from time import perf_counter

import numpy as np

_tls = threading.local()

#: Root span: one per ``DistTrainer.step`` call.
STEP = "core.step"


class Recorder:
    """Spans and counts of one rank."""

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far (called after warm-up)."""
        self.step = -1
        #: ``[name id, step, start, end, parent row or -1]`` per span.
        self.rows: list[list] = []
        self.stack: list[int] = []
        self.conv_flops = 0.0
        self.pool_takes = 0
        self.pool_hits = 0
        self.failed = 0

    def export(self) -> dict:
        return {
            "rank": self.rank,
            "rows": np.asarray(self.rows, dtype=np.float64).reshape(-1, 5),
            "conv_flops": self.conv_flops,
            "pool_takes": self.pool_takes,
            "pool_hits": self.pool_hits,
            "failed": self.failed,
        }


class _FailureCounter(logging.Handler):
    """Counts warnings the comm layer logs (retries, timeouts, leaks) on the
    rank whose thread emitted them."""

    def emit(self, record: logging.LogRecord) -> None:
        rec = getattr(_tls, "recorder", None)
        if rec is not None:
            rec.failed += 1


class Installed:
    """Handle on the installed wrappers; :meth:`remove` restores originals."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._undo: list[tuple[object, str, object]] = []
        self._handler = _FailureCounter(level=logging.WARNING)

    def begin_rank(self, rank: int) -> Recorder:
        """Start recording on the calling thread (the rank's own thread)."""
        rec = Recorder(rank)
        _tls.recorder = rec
        return rec

    def end_rank(self) -> None:
        _tls.recorder = None

    def patched(self) -> list[tuple[object, str]]:
        return [(owner, attr) for owner, attr, _ in self._undo]

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        logging.getLogger("repro.comm").removeHandler(self._handler)

    # -- building wrappers ---------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _span(self, fn, name: str, after=None):
        """Wrap ``fn`` so each call records a span called ``name``.

        ``after(rec, args, kwargs, result)`` runs once the span is closed
        (work counts derived from shapes).  An exception leaving a ``comm``
        callable counts as a failed operation.
        """
        nid = self._name_id(name)
        is_step = name == STEP
        is_comm = name.startswith("comm.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = getattr(_tls, "recorder", None)
            if rec is None:
                return fn(*args, **kwargs)
            if is_step:
                rec.step += 1
            stack = rec.stack
            row = [nid, rec.step, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(rec.rows))
            rec.rows.append(row)
            row[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if is_comm:
                    rec.failed += 1
                raise
            finally:
                row[3] = perf_counter()
                stack.pop()
            if after is not None:
                after(rec, args, kwargs, result)
            return result

        return wrapper

    def _set(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _wrap_attr(self, owner, attr: str, name: str, after=None) -> None:
        self._set(owner, attr, self._span(vars(owner)[attr], name, after))

    def _wrap_function(self, module, attr: str, name: str, after=None) -> None:
        """Wrap a module-level function wherever ``repro`` bound it:
        ``from x import f`` leaves a second reference in the importer."""
        fn = vars(module)[attr]
        wrapper = self._span(fn, name, after)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, key, wrapper)


def _arg(args, kwargs, index: int, key: str):
    return args[index] if len(args) > index else kwargs[key]


def _fwd_flops(rec, args, kwargs, y) -> None:
    w = _arg(args, kwargs, 1, "w")
    rec.conv_flops += 2.0 * y.size * w[0].size


def _bwd_data_flops(rec, args, kwargs, dx) -> None:
    w = _arg(args, kwargs, 1, "w")
    rec.conv_flops += 2.0 * dx.size * w.shape[0] * w.shape[2] * w.shape[3]


def _bwd_filter_flops(rec, args, kwargs, dw) -> None:
    dy = _arg(args, kwargs, 1, "dy")
    rec.conv_flops += 2.0 * dw.size * dy.size / dy.shape[1]


def _subclasses(cls) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def install() -> Installed:
    """Wrap the public callables of every layer; returns the undo handle.

    Install in the driver before ``run_spmd``: thread ranks share the
    patched modules and forked ranks inherit them.  Nothing is recorded on
    a thread until it calls :meth:`Installed.begin_rank`.
    """
    from repro.comm import BufferPool, Communicator, Request
    from repro.core import DistNetwork, DistTrainer
    from repro.core.grad_reducer import BucketedGradReducer
    from repro.nn import SGD
    from repro.nn import functional as F
    from repro.tensor import DistTensor, RegionExchange, ShuffleExchange
    from repro.tensor import halo
    from repro.tensor.dist_tensor import ScatterAddExchange

    # ``repro.tensor.shuffle`` the attribute is the function, not the module.
    shuffle_mod = importlib.import_module("repro.tensor.shuffle")

    inst = Installed()
    try:
        convs = {
            "conv2d_forward": ("nn.conv_fwd", _fwd_flops),
            "conv2d_backward_data": ("nn.conv_bwd_data", _bwd_data_flops),
            "conv2d_backward_filter": ("nn.conv_bwd_filter", _bwd_filter_flops),
        }
        for attr, fn in list(vars(F).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != F.__name__:
                continue
            if attr == "conv2d_output_shape":  # shape arithmetic, not a kernel
                continue
            name, after = convs.get(attr, ("nn.other_kernel", None))
            inst._wrap_function(F, attr, name, after)
        inst._wrap_attr(SGD, "step", "nn.optimizer")

        inst._wrap_function(halo, "start_region_exchange", "tensor.halo_start")
        inst._wrap_attr(RegionExchange, "poll", "tensor.halo_finish")
        inst._wrap_attr(RegionExchange, "finish", "tensor.halo_finish")
        inst._wrap_function(shuffle_mod, "start_shuffle", "tensor.shuffle_start")
        inst._wrap_function(shuffle_mod, "shuffle", "tensor.shuffle_start")
        inst._wrap_attr(ShuffleExchange, "finish", "tensor.shuffle_finish")
        inst._wrap_attr(DistTensor, "scatter_region_add", "tensor.scatter_add")
        inst._wrap_attr(DistTensor, "start_scatter_region_add", "tensor.scatter_add")
        inst._wrap_attr(ScatterAddExchange, "finish", "tensor.scatter_add")

        inst._wrap_attr(Communicator, "allreduce", "comm.allreduce")
        inst._wrap_attr(Communicator, "iallreduce", "comm.iallreduce_issue")
        for cls in _subclasses(Request):
            for attr, name in (("wait", "comm.wait"), ("test", "comm.test")):
                if attr in vars(cls):
                    inst._wrap_attr(cls, attr, name)

        inst._wrap_attr(DistNetwork, "forward", "core.fwd")
        inst._wrap_attr(DistNetwork, "backward", "core.bwd")
        for attr in ("add", "poll", "drain"):
            inst._wrap_attr(BucketedGradReducer, attr, "core.grad_reduce")
        inst._wrap_attr(DistTrainer, "step", STEP)

        take = BufferPool.take

        def counted_take(pool, shape, dtype):
            rec = getattr(_tls, "recorder", None)
            if rec is None:
                return take(pool, shape, dtype)
            hits = pool.hits
            out = take(pool, shape, dtype)
            rec.pool_takes += 1
            rec.pool_hits += pool.hits - hits
            return out

        inst._set(BufferPool, "take", counted_take)
        logging.getLogger("repro.comm").addHandler(inst._handler)
    except BaseException:
        inst.remove()
        raise
    return inst


# -- analysis ----------------------------------------------------------------


def self_times(rows: np.ndarray) -> np.ndarray:
    """Self time of every span: duration minus the union of the intervals
    its direct children cover (clipped to the span, overlaps counted once)."""
    rows = np.asarray(rows, dtype=np.float64).reshape(-1, 5)
    out = rows[:, 3] - rows[:, 2]
    children: dict[int, list[tuple[float, float]]] = {}
    for _, _, start, end, parent in rows:
        if parent >= 0:
            children.setdefault(int(parent), []).append((start, end))
    for parent, spans in children.items():
        lo, hi = rows[parent, 2], rows[parent, 3]
        covered, edge = 0.0, lo
        for start, end in sorted(spans):
            start, end = max(start, edge), min(end, hi)
            if end > start:
                covered += end - start
                edge = end
        out[parent] -= covered
    return out


def summarize(export: dict, names: list[str], slowdown=None) -> dict:
    """Per-rank totals: self seconds, inclusive seconds and calls per span
    name, plus the per-step root durations.  ``slowdown`` (one factor per
    step) divides every span of that step, as the harness does for every
    time it reports."""
    rows = export["rows"]
    ids = rows[:, 0].astype(int)
    scale = 1.0
    if slowdown is not None:
        scale = 1.0 / np.asarray(slowdown)[rows[:, 1].astype(int)]
    own = self_times(rows) * scale
    total = (rows[:, 3] - rows[:, 2]) * scale
    per_name = {
        name: {
            "self_s": float(own[ids == i].sum()),
            "total_s": float(total[ids == i].sum()),
            "calls": int((ids == i).sum()),
        }
        for i, name in enumerate(names)
    }
    step_s = total[ids == names.index(STEP)] if STEP in names else np.zeros(0)
    return {"rank": export["rank"], "per_name": per_name, "step_s": step_s}
