"""Wall-clock microbenchmark: blocking vs overlapped gradient allreduce.

Runs real forward+backward+update steps of the engine on 4 and 8 ranks and
times them with the bucketed reducer overlapped (the default: drained once
after backpropagation) and serial (``overlap_grad_reduce=False``: the same
reducer drained after every layer, one waited bucket per layer), on **both
world backends**: the thread backend (ranks time-share one interpreter, so
the overlap win is the removed synchronization) and the process backend
(one OS process per rank with shared-memory transport, where every wait is
a real message exchange — and, given cores, ranks compute in parallel).
Emits a table and ``benchmarks/results/BENCH_overlap.json`` (one config
row per backend x rank count) so the step-time trajectory is tracked from
PR to PR.

Run:  PYTHONPATH=src python benchmarks/bench_wallclock.py [--backend both]
"""

from __future__ import annotations

import json
import os
from time import perf_counter

import numpy as np

from repro.comm import run_spmd
from repro.core import DistNetwork, DistTrainer, LayerParallelism
from repro.nn import NetworkSpec, SGD

try:
    from benchmarks.common import (
        BENCH_BACKENDS, RESULTS_DIR, emit, multi_backend_main, render_table,
    )
except ImportError:
    from common import (
        BENCH_BACKENDS, RESULTS_DIR, emit, multi_backend_main, render_table,
    )

JSON_PATH = os.path.join(RESULTS_DIR, "BENCH_overlap.json")


#: Geometry chosen to be synchronization-bound: on the thread backend every
#: rank timeshares the host cores, so the overlapped reducer's win comes
#: from collapsing ~20 barrier-synchronized allreduces (w and b of each
#: layer) into a couple of nonblocking bucket drains, not from parallel
#: compute — a deep narrow stack maximizes exactly that ratio.
DEPTH = 10
FILTERS = 8
HW = 8
BATCH = 8


def bench_model() -> NetworkSpec:
    """A deep, narrow conv stack with many small parameter tensors."""
    net = NetworkSpec("bench")
    net.add("input", "input", channels=3, height=HW, width=HW)
    prev = "input"
    for i in range(DEPTH):
        net.add(f"c{i}", "conv", [prev], filters=FILTERS, kernel=3, pad=1, bias=True)
        net.add(f"r{i}", "relu", [f"c{i}"])
        prev = f"r{i}"
    net.add("gap", "gap", [prev])
    net.add("fc", "fc", ["gap"], units=10, bias=True)
    net.add("loss", "softmax_ce", ["fc"])
    return net


def _measure(
    nranks: int, overlap: bool, steps: int, batch: int, backend: str
) -> tuple[float, dict]:
    """Max-over-ranks seconds per step, plus rank-0 comm wait/overlap totals."""
    spec = bench_model()
    rng = np.random.default_rng(7)
    x = rng.standard_normal((batch, 3, HW, HW))
    t = rng.integers(0, 10, size=batch)

    def prog(comm):
        net = DistNetwork(
            spec,
            comm,
            LayerParallelism(sample=nranks),
            seed=0,
            overlap_grad_reduce=overlap,
        )
        trainer = DistTrainer(net, SGD(lr=0.05))
        trainer.step(x, t)  # warmup: builds sub-communicators and pools
        comm.stats.reset()
        comm.barrier()
        t0 = perf_counter()
        for _ in range(steps):
            trainer.step(x, t)
        elapsed = perf_counter() - t0
        return elapsed, comm.stats.total_wait_seconds(), comm.stats.total_overlap_seconds()

    results = run_spmd(nranks, prog, backend=backend)
    per_step = max(r[0] for r in results) / steps
    comm_detail = {
        "wait_s": results[0][1] / steps,
        "hidden_s": results[0][2] / steps,
    }
    return per_step, comm_detail


def generate_wallclock(
    steps: int = 6,
    batch: int = BATCH,
    repeats: int = 3,
    json_path: str | None = JSON_PATH,
    backends: tuple[str, ...] = BENCH_BACKENDS,
) -> tuple[str, dict]:
    """``json_path=None`` skips the JSON emission; smoke runs pass a scratch
    path so reduced-size numbers never overwrite the tracked trajectory."""
    rows = []
    configs = []
    for backend in backends:
        for nranks in (4, 8):
            blocking = min(
                _measure(nranks, overlap=False, steps=steps, batch=batch,
                         backend=backend)[0]
                for _ in range(repeats)
            )
            best_overlap = None
            detail = {}
            for _ in range(repeats):
                per_step, d = _measure(
                    nranks, overlap=True, steps=steps, batch=batch, backend=backend
                )
                if best_overlap is None or per_step < best_overlap:
                    best_overlap, detail = per_step, d
            speedup = blocking / best_overlap
            configs.append(
                {
                    "backend": backend,
                    "nranks": nranks,
                    "blocking_step_s": blocking,
                    "overlapped_step_s": best_overlap,
                    "speedup": speedup,
                    "allreduce_wait_s": detail["wait_s"],
                    "allreduce_hidden_s": detail["hidden_s"],
                }
            )
            rows.append(
                [
                    backend,
                    str(nranks),
                    f"{blocking * 1e3:8.2f}",
                    f"{best_overlap * 1e3:8.2f}",
                    f"{speedup:5.2f}x",
                    f"{detail['hidden_s'] * 1e3:7.2f}",
                    f"{detail['wait_s'] * 1e3:7.2f}",
                ]
            )
    text = render_table(
        "Wall clock — blocking vs overlapped+bucketed dL/dw allreduce "
        f"(measured ms/step, {steps} steps, batch {batch})",
        ["backend", "ranks", "blocking", "overlapped", "speedup", "hidden", "exposed"],
        rows,
    )
    payload = {"steps": steps, "batch": batch, "configs": configs}
    if json_path is not None:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        with open(json_path, "w") as f:
            json.dump(payload, f, indent=2)
    return text, payload


def test_wallclock_smoke():
    """The benchmark runs and reports a sane ratio."""
    text, payload = generate_wallclock(
        steps=2, repeats=1, json_path=None, backends=("thread",)
    )
    for cfg in payload["configs"]:
        assert cfg["overlapped_step_s"] > 0 and cfg["blocking_step_s"] > 0
        # Regression floor only: overlap must never be a big loss.  The
        # measured speedup itself is recorded in the JSON.
        assert cfg["speedup"] > 0.8, text


if __name__ == "__main__":
    multi_backend_main(__doc__, "bench_wallclock", generate_wallclock)
