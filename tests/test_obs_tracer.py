"""The span tracer's core contract: free when off, lossless when on.

Disabled tracing must be a no-op — no files, no context, no allocation —
because the instrumentation is compiled into every hot path of the
engine.  Enabled tracing must close every span (also under
exceptions), stamp flow events with deterministic per-(peer, tag)
sequence numbers, and survive a round trip through the rank file.
"""

import io
import json
import logging
import os
import sys

import pytest

from repro.obs import tracer
from repro.obs.logging import configure, get_logger


@pytest.fixture(autouse=True)
def clean_tracer_state():
    yield
    # A test that failed mid-span must not leak its context into the next.
    tracer._tls.ctx = None
    tracer._global_ctx = None
    tracer._tracing = 0


class TestDisabled:
    def test_no_context_no_file(self, tmp_path):
        assert not tracer.is_on()
        assert tracer.identity() is None
        with tracer.span("op", cat="x", bytes=4) as sp:
            sp.set(more=1)
        tracer.flow_out(1, 7)
        tracer.flow_in(1, 7)
        tracer.wait_span("op", 0.001, 0.0)
        tracer.annotate("k", {"v": 1})
        assert os.listdir(tmp_path) == []

    def test_untraced_rank_context_tracks_identity_only(self, tmp_path):
        tracer.enter_rank(3, "nodeX", trace=None, thread_scope=True)
        try:
            assert tracer.identity() == (3, "nodeX")
            assert not tracer.is_on()
            with tracer.span("op"):
                pass
        finally:
            tracer.exit_rank(thread_scope=True)
        assert os.listdir(tmp_path) == []

    def test_disabled_span_allocates_nothing(self):
        """A disabled span() is a flag check + the cached null object: N
        entries leave no allocated block behind, where building an event
        per call would leave N — a count, not a clock."""
        n = 10_000
        null = tracer.span("warm")
        before = sys.getallocatedblocks()
        for _ in range(n):
            entered = tracer.span("bench", cat="bench", bytes=0)
            with entered:
                pass
            assert entered is null
        assert sys.getallocatedblocks() - before < 16  # loop temporaries

    def test_null_span_is_cached(self):
        assert tracer.span("a") is tracer.span("b")


def _traced_ctx(tmp_path, rank=0):
    cfg = tracer.TraceConfig(path=str(tmp_path / "t.trace"), epoch=0.0)
    tracer.enter_rank(rank, "nodeA", trace=cfg, thread_scope=True)
    return cfg


def _read_rank_file(cfg, rank=0):
    with open(tracer.rank_file(cfg.path, rank)) as fh:
        return [json.loads(line) for line in fh]


class TestEnabled:
    def test_spans_nest_and_flush(self, tmp_path):
        cfg = _traced_ctx(tmp_path)
        with tracer.span("outer", cat="a", k=1):
            with tracer.span("inner", cat="b") as sp:
                sp.set(bytes=42)
        tracer.exit_rank(thread_scope=True)

        records = _read_rank_file(cfg)
        assert records[0]["k"] == "M" and records[0]["rank"] == 0
        spans = {r["n"]: r for r in records if r.get("k") == "X"}
        assert set(spans) == {"outer", "inner"}
        assert spans["inner"]["a"]["bytes"] == 42
        # inner is contained in outer on the shared clock axis
        o, i = spans["outer"], spans["inner"]
        assert o["ts"] <= i["ts"]
        assert i["ts"] + i["d"] <= o["ts"] + o["d"] + 1.0
        assert records[-1] == {"k": "Z", "open": 0}

    def test_span_closes_under_exception(self, tmp_path):
        cfg = _traced_ctx(tmp_path)
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                with tracer.span("failing"):
                    raise ValueError("boom")
        tracer.exit_rank(thread_scope=True)

        records = _read_rank_file(cfg)
        spans = {r["n"]: r for r in records if r.get("k") == "X"}
        assert spans["failing"]["a"]["error"] == "ValueError"
        assert spans["outer"]["a"]["error"] == "ValueError"
        assert records[-1] == {"k": "Z", "open": 0}

    def test_flow_sequence_numbers(self, tmp_path):
        cfg = _traced_ctx(tmp_path)
        tracer.flow_out(1, "tagA")
        tracer.flow_out(1, "tagA")
        tracer.flow_out(2, "tagA")  # other peer: independent counter
        tracer.flow_out(1, "tagB")  # other tag: independent counter
        tracer.flow_in(1, "tagA")
        tracer.flow_in(1, "tagA")
        tracer.exit_rank(thread_scope=True)

        records = _read_rank_file(cfg)
        sends = [r for r in records if r.get("k") == "s"]
        recvs = [r for r in records if r.get("k") == "f"]
        assert [(s["p"], s["t"], s["q"]) for s in sends] == [
            (1, "'tagA'", 0),
            (1, "'tagA'", 1),
            (2, "'tagA'", 0),
            (1, "'tagB'", 0),
        ]
        assert [(r["p"], r["t"], r["q"]) for r in recvs] == [
            (1, "'tagA'", 0),
            (1, "'tagA'", 1),
        ]

    def test_wait_span_is_retroactive(self, tmp_path):
        cfg = _traced_ctx(tmp_path)
        with tracer.span("marker"):
            pass
        tracer.wait_span("iallreduce", waited=0.005, hidden=0.002, nbytes=128)
        tracer.exit_rank(thread_scope=True)

        records = _read_rank_file(cfg)
        wait = next(r for r in records if r.get("c") == "wait")
        assert wait["n"] == "wait:iallreduce"
        assert wait["d"] == pytest.approx(5000, rel=0.01)
        assert wait["a"]["hidden_us"] == pytest.approx(2000, rel=0.01)
        assert wait["a"]["bytes"] == 128

    def test_annotations_round_trip(self, tmp_path):
        cfg = _traced_ctx(tmp_path)
        tracer.annotate("comm_stats", {"collectives": {"allreduce": 3}})
        tracer.exit_rank(thread_scope=True)
        records = _read_rank_file(cfg)
        ann = next(r for r in records if r.get("k") == "A")
        assert ann["n"] == "comm_stats"
        assert ann["a"]["collectives"]["allreduce"] == 3


class TestLogging:
    def test_rank_prefix(self, tmp_path):
        stream = io.StringIO()
        configure(stream=stream, level=logging.INFO, force=True)
        get_logger("test").info("hello")
        tracer.enter_rank(2, "nodeB", trace=None, thread_scope=True)
        try:
            get_logger("test").info("from rank")
        finally:
            tracer.exit_rank(thread_scope=True)
        lines = stream.getvalue().splitlines()
        assert lines[0] == "[driver] hello"
        assert lines[1] == "[rank 2 @ nodeB] from rank"

    def test_configure_is_idempotent(self):
        a = configure(force=True)
        b = configure()
        assert a is b
        assert len(a.handlers) == 1
