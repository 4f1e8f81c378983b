"""Traced training: per-rank spans merged into one Perfetto-loadable timeline.

Runs a 2-epoch training job on 4 process-backend ranks with span tracing
enabled (``run_spmd(..., trace=...)``), then

1. validates the merged Chrome-trace JSON (every span closed, per-track
   monotonic, every send->recv flow resolved),
2. checks that the analyzer's per-op comm-byte rows agree *exactly* with
   the live ``CommStats`` counters each rank returned, and
3. prints the ``repro.obs.analyze`` report — critical path, exposed vs
   hidden wait time, and the measured-vs-modeled per-layer table backed by
   ``TrainingStepSimulator``.

Run:  python examples/traced_training.py [trace-output-path]

Load the produced trace file in https://ui.perfetto.dev to browse the
per-rank tracks and the flow arrows connecting matching sends/receives.
"""

import json
import os
import sys
import tempfile

import numpy as np

from repro.comm import run_spmd
from repro.core import DistNetwork, DistTrainer, LayerParallelism, ParallelStrategy
from repro.nn import NetworkSpec, SGD
from repro.obs import analyze
from repro.obs.export import validate_file
from repro.perfmodel.machine import MachineSpec

N_RANKS = 4
N_GLOBAL = 8
EPOCHS = 2


def conv_net() -> NetworkSpec:
    net = NetworkSpec("traced-smoke")
    net.add("input", "input", channels=3, height=16, width=16)
    net.add("c1", "conv", ["input"], filters=4, kernel=3, stride=1, pad=1, bias=True)
    net.add("b1", "bn", ["c1"])
    net.add("r1", "relu", ["b1"])
    net.add("p1", "pool", ["r1"], mode="max", kernel=2, stride=2)
    net.add("c2", "conv", ["p1"], filters=8, kernel=3, stride=1, pad=1)
    net.add("r2", "relu", ["c2"])
    net.add("gap", "gap", ["r2"])
    net.add("fc", "fc", ["gap"], units=5, bias=True)
    net.add("loss", "softmax_ce", ["fc"])
    return net


def prog(comm):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((N_GLOBAL, 3, 16, 16))
    t = rng.integers(0, 5, size=N_GLOBAL)
    net = DistNetwork(
        conv_net(), comm, LayerParallelism(sample=N_RANKS), seed=0
    )
    trainer = DistTrainer(net, SGD(lr=0.1, momentum=0.9))
    trainer.fit([(x, t)], epochs=EPOCHS)
    return comm.stats.snapshot()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    tmp = None
    if argv:
        trace_path = argv[0]
    else:
        tmp = tempfile.mkdtemp(prefix="repro-trace-")
        trace_path = os.path.join(tmp, "training.trace")

    snapshots = run_spmd(N_RANKS, prog, backend="process", trace=trace_path)

    problems = validate_file(trace_path)
    if problems:
        for p in problems:
            print(f"INVALID: {p}", file=sys.stderr)
        return 1
    print(f"trace written and validated: {trace_path}")

    # Analyzer comm rows must equal the live CommStats counters exactly.
    doc = analyze.load_trace(trace_path)
    rows = analyze.comm_rows(doc)
    live: dict = {}
    for snap in snapshots:
        for op, calls in snap["collectives"].items():
            live.setdefault(op, {"calls": 0, "bytes": 0})["calls"] += int(calls)
        for op, nbytes in snap["collective_bytes"].items():
            live.setdefault(op, {"calls": 0, "bytes": 0})["bytes"] += int(nbytes)
    assert rows == live, f"analyzer rows diverge from live stats:\n{rows}\n{live}"
    print(f"comm rows byte-exact with live CommStats across {len(rows)} ops")

    # Model the same step with the simulator and print the full report.
    model = analyze.model_predictions(
        conv_net(),
        MachineSpec(),
        N_GLOBAL,
        ParallelStrategy.uniform(LayerParallelism(sample=N_RANKS)),
    )
    model_path = trace_path + ".model.json"
    with open(model_path, "w") as fh:
        json.dump(model, fh, indent=2)

    return analyze.main([trace_path, "--model", model_path])


if __name__ == "__main__":
    raise SystemExit(main())
