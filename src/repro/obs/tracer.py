"""Per-rank structured span tracing with near-zero disabled overhead.

Every rank (thread, forked process, or socket child) owns a
:class:`_RankContext` holding an in-memory event buffer.  Spans are
recorded with :func:`span` as a context manager::

    with tracer.span("allreduce", cat="coll", bytes=nbytes, alg="ring"):
        ...

Timestamps come from ``time.perf_counter()`` (monotonic per rank) and are
aligned across ranks via the job's shared wall-clock *epoch* captured once
in the parent before launch: trace time zero is the epoch, and each rank
maps its perf-counter onto that axis at configure time.  Events are
buffered as plain dicts and flushed to ``{path}.rank{R}`` (JSON lines) at
rank teardown; :func:`repro.obs.export.merge_traces` later folds the
per-rank files into one Chrome trace-event JSON.

Cross-rank flows (send→recv arrows) are recorded with
:func:`flow_out` / :func:`flow_in`.  Because mailbox delivery is FIFO per
``(source, tag)``, a per-(peer, tag) sequence counter on each side is a
deterministic matching key — the merge pairs ``(src, dst, tag, seq)``
without any cross-rank coordination at runtime.

When tracing is disabled (the default), :func:`span` returns a cached
null object and every other entry point returns after a single module
flag check — the instrumentation sites stay in the hot paths at a cost of
roughly a dict lookup each.

The rank *identity* (rank, host) is tracked even when tracing is off; the
``repro`` logger uses it for its ``[rank R @ host]`` prefix.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass

#: Environment variable enabling tracing: the merged-trace output path.
TRACE_ENV = "REPRO_TRACE"


@dataclass(frozen=True)
class TraceConfig:
    """Fork-safe carrier for trace settings, shipped inside ``JobConfig``."""

    #: Merged-output path; per-rank files are written to ``{path}.rank{R}``.
    path: str
    #: Shared job epoch: ``time.time()`` in the parent at launch.  Trace
    #: timestamps are microseconds since this instant.
    epoch: float


def rank_file(path: str, rank: int) -> str:
    """Per-rank trace file for a merged-output ``path``."""
    return f"{path}.rank{rank}"


class _RankContext:
    __slots__ = (
        "rank",
        "host",
        "config",
        "base",
        "events",
        "open_spans",
        "send_seq",
        "recv_seq",
        "annotations",
        "tag_repr",
    )

    def __init__(self, rank: int, host: str, config: TraceConfig | None):
        self.rank = rank
        self.host = host
        self.config = config
        # Compact tuple records (expanded to dicts once, at flush):
        #   ("X", name, cat, t0, dur_us, args) | ("s"/"f", peer, tag, seq, t)
        self.events: list[tuple] = []
        self.open_spans = 0
        self.send_seq: dict = {}
        self.recv_seq: dict = {}
        self.annotations: dict = {}
        self.tag_repr: dict = {}
        # Map perf_counter onto the shared epoch axis: at any later moment,
        # trace-time = (wall_now_at_sync - epoch) + (perf_now - perf_at_sync)
        #            = perf_now + base.
        self.base = 0.0
        if config is not None:
            self.base = (time.time() - config.epoch) - time.perf_counter()


# Rank context: thread-local for the thread backend (N ranks share one
# process), with a process-global fallback so helper threads in forked
# children (heartbeats, TCP senders) attribute to their rank.
_tls = threading.local()
_global_ctx: _RankContext | None = None
_lock = threading.Lock()
# Fast disabled flag: number of live *traced* contexts in this process.
_tracing = 0


def _current() -> _RankContext | None:
    ctx = getattr(_tls, "ctx", None)
    return ctx if ctx is not None else _global_ctx


def is_on() -> bool:
    """True when at least one traced rank context is live in this process."""
    return _tracing > 0


def identity() -> tuple[int, str] | None:
    """(rank, host) of the calling thread's rank context, or None."""
    ctx = _current()
    return None if ctx is None else (ctx.rank, ctx.host)


def enter_rank(
    rank: int,
    host: str = "node0",
    trace: TraceConfig | None = None,
    thread_scope: bool = False,
) -> None:
    """Install the rank context for this thread (or process).

    ``thread_scope=True`` binds the context to the calling thread only —
    required for the thread backend where every rank shares one process.
    Forked backends use the process-global slot so *all* threads of the
    child attribute to the rank.
    """
    global _global_ctx, _tracing
    ctx = _RankContext(rank, host, trace)
    if thread_scope:
        _tls.ctx = ctx
    else:
        _global_ctx = ctx
    if trace is not None:
        with _lock:
            _tracing += 1


def exit_rank(thread_scope: bool = False) -> None:
    """Tear down the rank context, flushing its trace file if traced."""
    global _global_ctx, _tracing
    ctx = getattr(_tls, "ctx", None) if thread_scope else _global_ctx
    if ctx is None:
        return
    if ctx.config is not None:
        with _lock:
            _tracing -= 1
        _flush(ctx)
    if thread_scope:
        _tls.ctx = None
    else:
        _global_ctx = None


class _NullSpan:
    """Cached no-op span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def set(self, **kwargs):
        return self


_NULL = _NullSpan()


class _Span:
    __slots__ = ("_ctx", "_name", "_cat", "_args", "_t0")

    def __init__(self, ctx: _RankContext, name: str, cat: str, args: dict):
        self._ctx = ctx
        self._name = name
        self._cat = cat
        self._args = args
        self._t0 = 0.0

    def __enter__(self):
        self._ctx.open_spans += 1
        self._t0 = time.perf_counter()
        return self

    def set(self, **kwargs):
        """Attach args resolved mid-span (e.g. result bytes, chosen alg)."""
        self._args.update(kwargs)
        return self

    def __exit__(self, exc_type, exc, tb):
        ctx = self._ctx
        t1 = time.perf_counter()
        if exc_type is not None:
            self._args["error"] = exc_type.__name__
        ctx.events.append(("X", self._name, self._cat, self._t0, t1, self._args))
        ctx.open_spans -= 1
        return False


def span(name: str, cat: str = "task", **args):
    """Open a span; use as a context manager.  Null object when disabled."""
    if not _tracing:
        return _NULL
    ctx = _current()
    if ctx is None or ctx.config is None:
        return _NULL
    return _Span(ctx, name, cat, args)


def wait_span(op: str, waited: float, hidden: float, nbytes: int = 0) -> None:
    """Record a retroactive ``wait:{op}`` span covering the just-finished
    exposed-wait window of ``waited`` seconds; ``hidden`` is the portion of
    the op's latency that overlapped useful work (from ``CommStats``)."""
    if not _tracing:
        return
    ctx = _current()
    if ctx is None or ctx.config is None:
        return
    now = time.perf_counter()
    ctx.events.append(
        (
            "X",
            f"wait:{op}",
            "wait",
            now - waited,
            now,
            {"op": op, "bytes": nbytes, "hidden_us": hidden * 1e6},
        )
    )


def _tag_repr(ctx: _RankContext, tag) -> str:
    """Memoized ``repr(tag)`` — tags repeat heavily on hot paths."""
    try:
        r = ctx.tag_repr.get(tag)
        if r is None:
            r = repr(tag)
            ctx.tag_repr[tag] = r
        return r
    except TypeError:  # unhashable tag
        return repr(tag)


def flow_out(dest: int, tag) -> None:
    """Record the send side of a message to world rank ``dest``."""
    if not _tracing:
        return
    ctx = _current()
    if ctx is None or ctx.config is None:
        return
    tr = _tag_repr(ctx, tag)
    key = (dest, tr)
    seq = ctx.send_seq.get(key, 0)
    ctx.send_seq[key] = seq + 1
    ctx.events.append(("s", dest, tr, seq, time.perf_counter()))


def flow_in(source: int, tag) -> None:
    """Record the receive side of a message from world rank ``source``."""
    if not _tracing:
        return
    ctx = _current()
    if ctx is None or ctx.config is None:
        return
    tr = _tag_repr(ctx, tag)
    key = (source, tr)
    seq = ctx.recv_seq.get(key, 0)
    ctx.recv_seq[key] = seq + 1
    ctx.events.append(("f", source, tr, seq, time.perf_counter()))


def annotate(name: str, data) -> None:
    """Attach a JSON-serializable blob (e.g. a CommStats snapshot) to this
    rank's trace; surfaced under ``otherData.annotations`` after merge."""
    if not _tracing:
        return
    ctx = _current()
    if ctx is None or ctx.config is None:
        return
    ctx.annotations[name] = data


def _json_default(obj):
    try:
        return float(obj)
    except Exception:
        return str(obj)


def _flush(ctx: _RankContext) -> None:
    path = rank_file(ctx.config.path, ctx.rank)
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w") as fh:
        meta = {"k": "M", "rank": ctx.rank, "host": ctx.host, "pid": os.getpid()}
        fh.write(json.dumps(meta) + "\n")
        base = ctx.base
        for ev in ctx.events:
            kind = ev[0]
            if kind == "X":
                _, name, cat, t0, t1, args = ev
                rec = {
                    "k": "X",
                    "n": name,
                    "c": cat,
                    "ts": (t0 + base) * 1e6,
                    "d": (t1 - t0) * 1e6,
                    "a": args,
                }
            else:
                _, peer, tr, seq, t = ev
                rec = {"k": kind, "p": peer, "t": tr, "q": seq, "ts": (t + base) * 1e6}
            fh.write(json.dumps(rec, default=_json_default) + "\n")
        for name, data in ctx.annotations.items():
            fh.write(json.dumps({"k": "A", "n": name, "a": data}, default=_json_default) + "\n")
        fh.write(json.dumps({"k": "Z", "open": ctx.open_spans}) + "\n")
    ctx.events = []
    ctx.annotations = {}
