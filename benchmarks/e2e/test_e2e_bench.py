"""Tier-1 checks of the end-to-end benchmark's own machinery."""

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import harness  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
CONTRACT = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def test_percentile_rule():
    # The highest percentile with at least ten samples beyond it.
    assert harness.highest_percentile(50) == 50.0
    assert harness.highest_percentile(99) == 50.0
    assert harness.highest_percentile(100) == 90.0
    assert harness.highest_percentile(120) == 90.0
    assert harness.highest_percentile(200) == 95.0
    assert harness.highest_percentile(1000) == 99.0
    assert harness.highest_percentile(10000) == 99.9


def test_self_time_nested_and_overlapping():
    rows = np.array([
        # name, step, start, end, parent
        [0, 0, 0.0, 10.0, -1],  # root: children cover [1,6] and [8,12] -> clipped
        [1, 0, 1.0, 4.0, 0],
        [1, 0, 3.0, 6.0, 0],    # overlaps the previous child: counted once
        [2, 0, 3.5, 5.0, 2],    # grandchild: only its own parent loses it
        [1, 0, 8.0, 12.0, 0],   # runs past the parent: clipped at 10
    ])
    own = spans.self_times(rows)
    assert own.tolist() == [10.0 - 5.0 - 2.0, 3.0, 3.0 - 1.5, 1.5, 4.0]
    summary = spans.summarize(
        {"rank": 0, "rows": rows}, ["core.step", "nn.a", "nn.b"]
    )
    assert summary["per_name"]["nn.a"]["calls"] == 3
    assert summary["per_name"]["core.step"]["self_s"] == 3.0
    assert summary["step_s"].tolist() == [10.0]


def test_wrappers_are_removed():
    from repro.comm import BufferPool, Communicator, Request
    from repro.core import dist_conv
    from repro.nn import functional as F

    watched = [
        (F, "conv2d_forward"),
        (F, "relu_forward"),
        (dist_conv, "start_region_exchange"),  # a `from x import f` reference
        (Communicator, "allreduce"),
        (BufferPool, "take"),
    ] + [(cls, "wait") for cls in spans._subclasses(Request) if "wait" in vars(cls)]
    originals = [vars(owner)[attr] for owner, attr in watched]
    installed = spans.install()
    try:
        assert all(
            vars(owner)[attr] is not fn for (owner, attr), fn in zip(watched, originals)
        )
        assert set(watched) <= set(installed.patched())
        # No recorder on this thread: wrapped calls pass straight through.
        assert F.relu_forward(np.array([-1.0, 2.0]))[0].tolist() == [0.0, 2.0]
    finally:
        installed.remove()
    assert installed.patched() == []
    assert all(vars(owner)[attr] is fn for (owner, attr), fn in zip(watched, originals))


def test_contract_lists():
    assert [w["name"] for w in CONTRACT["workloads"]] == [w.name for w in WORKLOADS]
    assert len(CONTRACT["workloads"]) == 6
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in CONTRACT[key]]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])
    assert "setup_s" in {m["name"] for m in CONTRACT["end_to_end"]}
    assert CONTRACT["paths"] == ["benchmarks/e2e"]


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 100.3, 99.9]
    noisy = [100.0, 140.0, 80.0, 120.0, 90.0, 130.0, 70.0, 110.0, 100.0, 125.0]
    assert compare.verdict(steady, steady, "lower", 0.1)["verdict"] == "same"
    assert compare.verdict(steady, [v * 1.2 for v in steady], "lower", 0.1)["verdict"] == "worse"
    assert compare.verdict(steady, [v * 1.2 for v in steady], "higher", 0.1)["verdict"] == "better"
    assert compare.verdict(steady, noisy, "lower", 0.1)["verdict"] == "unresolved"
    row = compare.verdict(steady, [v * 1.2 for v in steady], "lower", 0.1)
    assert abs(row["ratio"] - 1.2) < 1e-9 and row["base"] == 100.05


def _smoke(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-1])
    assert set(record) == {"correct", "attempted", "failed", "metrics"}
    assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1
    listed = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in record["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    # Every metric is also printed by name with its unit.
    printed = {l.split()[0]: l.split()[2] for l in lines[1:-1] if len(l.split()) == 3}
    for name, metric in record["metrics"].items():
        assert NAME.fullmatch(name) and printed[name] == metric["unit"]
    assert any(l.startswith("steps_attempted ") for l in lines)
    return record["metrics"]


def test_smoke_timed_pass():
    metrics = _smoke("resnet_sample_p2", trace=0)
    assert all(m["value"] > 0 for m in metrics.values())


def test_smoke_traced_pass():
    metrics = _smoke("mesh_serial_p1", trace=1)
    # One rank: no messages, no halos, no shuffles; the kernels do the work.
    for name in ("comm.pt2pt_msgs", "tensor.halo_calls", "tensor.shuffle_calls",
                 "comm.ops_failed"):
        assert metrics[name]["value"] == 0
    assert metrics["nn.conv_calls"]["value"] > 0
    assert metrics["core.dispatch_ms"]["value"] >= 0


def test_no_process_outlives_run():
    # In a fresh interpreter: the shared-memory helper and a stray child are
    # both gone, and reaped, once stop_children() returns.
    script = (
        "import subprocess, sys\n"
        "from multiprocessing import resource_tracker, shared_memory\n"
        f"sys.path.insert(0, {str(HERE)!r})\n"
        "import run\n"
        "seg = shared_memory.SharedMemory(create=True, size=64)\n"
        "seg.close(); seg.unlink()\n"
        "tracker = resource_tracker._resource_tracker._pid\n"
        "stray = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])\n"
        "assert sorted(run._child_pids()) == sorted([tracker, stray.pid])\n"
        "assert run.stop_children() == [stray.pid]\n"
        "assert run._child_pids() == [] and run.stop_children() == []\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
