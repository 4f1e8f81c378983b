"""The critical-path analyzer and the ``CommStats`` snapshot it reads.

A traced training run must analyze into (a) a non-empty critical path
walking flows and same-track gaps, (b) an exposed-vs-hidden wait table,
(c) per-layer forward/backward times, and (d) per-op comm rows that agree
*exactly* with the live ``CommStats`` counters — the rows are built from
the verbatim snapshots each rank annotates into its trace, so a mismatch
means the annotation plumbing dropped or double-counted something.
"""

import dataclasses
import functools
import json

import numpy as np
import pytest

from repro.comm import CommStats, run_spmd
from repro.core import DistNetwork, DistTrainer, LayerParallelism, ParallelStrategy
from repro.nn import NetworkSpec, SGD
from repro.obs import analyze
from repro.perfmodel.machine import MachineSpec


def small_net():
    net = NetworkSpec("obs-analyze")
    net.add("input", "input", channels=3, height=8, width=8)
    net.add("c1", "conv", ["input"], filters=4, kernel=3, stride=1, pad=1, bias=True)
    net.add("r1", "relu", ["c1"])
    net.add("gap", "gap", ["r1"])
    net.add("fc", "fc", ["gap"], units=3, bias=True)
    net.add("loss", "softmax_ce", ["fc"])
    return net


def _train_prog(comm):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 3, 8, 8))
    t = rng.integers(0, 3, size=4)
    net = DistNetwork(small_net(), comm, LayerParallelism(sample=comm.size), seed=0)
    trainer = DistTrainer(net, SGD(lr=0.1))
    trainer.fit([(x, t)], epochs=2)
    return comm.stats.snapshot()


def strided_net():
    """One-sided halos: a stride-2 conv and pool, whose forward gathers land
    on one side of a height split and whose scatter-add on the other."""
    net = NetworkSpec("obs-analyze-strided")
    net.add("input", "input", channels=3, height=8, width=8)
    net.add("c1", "conv", ["input"], filters=4, kernel=3, stride=2, pad=1)
    net.add("p1", "pool", ["c1"], mode="max", kernel=3, stride=2, pad=1)
    net.add("c2", "conv", ["p1"], filters=4, kernel=3, pad=1)
    net.add("gap", "gap", ["c2"])
    net.add("fc", "fc", ["gap"], units=3, bias=True)
    net.add("loss", "softmax_ce", ["fc"])
    return net


def _spatial_prog(comm, make_net):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 3, 8, 8))
    t = rng.integers(0, 3, size=4)
    net = DistNetwork(make_net(), comm, LayerParallelism(height=comm.size), seed=0)
    DistTrainer(net, SGD(lr=0.1)).fit([(x, t)], epochs=2)


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("trace") / "train.trace")
    snapshots = run_spmd(2, _train_prog, trace=path)
    return path, analyze.load_trace(path), snapshots


class TestAnalyzer:
    def test_critical_path(self, traced_run):
        _, doc, _ = traced_run
        path = analyze.critical_path(doc)
        assert path, "critical path is empty"
        # causally chained: a "seq" hop follows its predecessor on the same
        # track; a "flow" hop may jump tracks (and backwards in span-start
        # time, when the receiver opened a blocking span early and waited).
        assert all(e["link"] in ("flow", "seq", "start") for e in path)
        for prev, cur in zip(path, path[1:]):
            if cur["link"] == "seq":
                assert cur["pid"] == prev["pid"]
                assert prev["ts_us"] + prev["dur_us"] <= cur["ts_us"] + 2.0
            else:
                # the sender's span must overlap or precede the receiver's end
                assert prev["ts_us"] <= cur["ts_us"] + cur["dur_us"] + 2.0
        summary = analyze.path_summary(path)
        assert summary["hops"] == len(path)
        assert summary["by_name"]

    def test_exposed_hidden(self, traced_run):
        _, doc, _ = traced_run
        waits = analyze.exposed_hidden(doc)
        assert "iallreduce" in waits
        row = waits["iallreduce"]
        assert row["count"] > 0
        assert row["exposed_us"] >= 0.0
        assert row["hidden_us"] >= 0.0

    def test_layer_times(self, traced_run):
        _, doc, _ = traced_run
        layers = analyze.layer_times(doc)
        for name in ("c1", "r1", "gap", "fc", "loss"):
            assert name in layers, f"no span for layer {name}"
            assert layers[name]["fwd_us"] > 0.0

    def test_comm_rows_byte_exact(self, traced_run):
        """Analyzer rows == sum of the live CommStats each rank returned."""
        _, doc, snapshots = traced_run
        rows = analyze.comm_rows(doc)
        live = {}
        for snap in snapshots:
            for op, calls in snap["collectives"].items():
                live.setdefault(op, {"calls": 0, "bytes": 0})["calls"] += int(calls)
            for op, nbytes in snap["collective_bytes"].items():
                live.setdefault(op, {"calls": 0, "bytes": 0})["bytes"] += int(nbytes)
        assert rows == live

    def test_model_predictions_from_simulator(self):
        model = analyze.model_predictions(
            small_net(),
            MachineSpec(),
            4,
            ParallelStrategy.uniform(LayerParallelism(sample=2)),
        )
        assert model["source"] == "TrainingStepSimulator"
        assert model["minibatch_s"] > 0
        assert model["layers"]["c1"]["fwd_s"] > 0

    @pytest.mark.parametrize("ranks", [1, 2])
    def test_model_allreduce_bytes_are_the_gradient_buckets(self, ranks):
        """A layer's modeled allreduce bytes are its whole parameter payload
        — a biased layer's bias included — where a gradient group of more
        than one rank reduces it, and they sum to the schedule's buckets."""
        from repro.core.grad_reducer import DEFAULT_BUCKET_BYTES
        from repro.core.schedule import lower

        net, machine = small_net(), MachineSpec()
        strategy = ParallelStrategy.uniform(LayerParallelism(sample=ranks))
        model = analyze.model_predictions(net, machine, 4, strategy)
        ar = {name: row["ar_bytes"] for name, row in model["layers"].items()}
        db = machine.dtype_bytes
        buckets = lower(net, strategy, 4).grad_buckets(DEFAULT_BUCKET_BYTES, db)
        assert model["allreduce_bytes_per_rank"] == sum(b.nbytes for b in buckets)
        if ranks == 1:
            assert set(ar.values()) == {0}
            return
        assert ar["c1"] == (4 * 3 * 3 * 3 + 4) * db  # weights and bias
        assert ar["fc"] == (3 * 4 + 3) * db
        assert ar["r1"] == ar["gap"] == 0

    @pytest.mark.parametrize("make_net", [small_net, strided_net], ids=["symmetric", "strided"])
    def test_model_halo_bytes_are_the_measured_ones(self, tmp_path, make_net):
        """On a height-split net the modeled halo bytes per rank and step —
        what the plans of its halo ops send, on the mean rank — are what the
        ranks' ``region_data`` counters measured, also when the two ranks
        send different amounts, and the report prints the two side by
        side."""
        path = str(tmp_path / "spatial.trace")
        run_spmd(2, functools.partial(_spatial_prog, make_net=make_net), trace=path)
        doc = analyze.load_trace(path)
        strategy = ParallelStrategy.uniform(LayerParallelism(height=2))
        model = analyze.model_predictions(
            make_net(), MachineSpec(dtype_bytes=8), 4, strategy  # float64
        )
        steps = sum(
            ev["name"] == "step" for ev in doc["traceEvents"] if ev.get("ph") == "X"
        )
        assert steps == 2 * 2  # two ranks, two steps
        measured = analyze.comm_rows(doc)["region_data"]["bytes"]
        assert model["halo_bytes_per_rank"] == measured / steps > 0
        assert (
            f"measured {measured / steps:.0f} B vs modeled {model['halo_bytes_per_rank']:.0f} B"
            in analyze.render_report(doc, model=model)
        )

    def test_render_report_and_cli(self, traced_run, tmp_path, capsys):
        path, doc, _ = traced_run
        model = analyze.model_predictions(
            small_net(),
            MachineSpec(),
            4,
            ParallelStrategy.uniform(LayerParallelism(sample=2)),
        )
        text = analyze.render_report(doc, model=model)
        assert "critical path" in text
        assert "exposed" in text
        assert "measured vs modeled" in text
        assert "c1" in text

        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(model))
        rc = analyze.main([path, "--model", str(model_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "critical path" in out


class TestCommStatsSnapshot:
    def test_snapshot_matches_stats(self):
        def prog(comm):
            comm.allreduce(np.ones(4))
            snap = comm.stats.snapshot()
            assert snap["collectives"]["allreduce"] == 1
            assert snap["collective_bytes"]["allreduce"] == 32
            return True

        assert all(run_spmd(2, prog))

    def test_snapshot_carries_every_counter(self):
        """A field added to ``CommStats`` without a snapshot key would drop
        out of every trace silently (``bytes_sent``/``bytes_received`` did)."""
        stats = CommStats()
        for i, f in enumerate(dataclasses.fields(CommStats), start=1):
            value = getattr(stats, f.name)
            if isinstance(value, dict):
                value["op"] = i
            else:
                setattr(stats, f.name, i)
        snap = stats.snapshot()
        flat = sorted(v["op"] if isinstance(v, dict) else v for v in snap.values())
        assert flat == list(range(1, len(dataclasses.fields(CommStats)) + 1))
        json.dumps(snap)
        # The spellings ``repro.obs.analyze`` and merged traces read.
        assert {
            "collectives", "collective_bytes", "wire_out", "wire_in",
            "wire_out_inter", "wire_in_inter", "wait_s",
            "overlap_s", "sends", "recvs", "bytes_sent", "bytes_received",
        } <= set(snap)
        stats.reset()
        assert stats == CommStats()
