"""Rounds, output checks and metric assembly for the end-to-end benchmark.

One *round* is one fresh ``run_spmd`` launch of a workload's training job:
build the network, warm up, agree on a step count, then run the timed
closed loop (the next step starts when the previous one returns).  The
timed pass pools five plain rounds plus one short round under
``tracemalloc``; the traced pass runs one plain round and one with the
wrappers of :mod:`spans` installed, and derives every per-layer metric from
that round's spans, the public ``comm.stats`` counters and a few isolated
micro-measurements on the same backend.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import threading
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import spans
from workloads import Workload

from repro.comm import run_spmd
from repro.core import DistNetwork, DistTrainer
from repro.nn import SGD, LocalNetwork
from repro.perfmodel import LASSEN, EmpiricalConvModel, NetworkCostModel
from repro.sim import TrainingStepSimulator
from repro.tensor import shuffle_plan_stats

HERE = Path(__file__).resolve().parent
RESULTS_DIR = HERE / "results"
BENCHMARK_JSON = HERE.parents[1] / "BENCHMARK.json"

LR = 0.01
MOMENTUM = 0.9
WARMUP_STEPS = 3
TIMED_ROUNDS = 5
MIN_STEPS = 5
#: Steps of every run compared against the single-process reference.
REFERENCE_STEPS = 8
REFERENCE_RTOL = 1e-9
#: Timed steps of the tracemalloc round (the peak repeats every step).
MEMORY_STEPS = 2

CONV_SPANS = ("nn.conv_fwd", "nn.conv_bwd_data", "nn.conv_bwd_filter")

#: CPU seconds the calibration kernel takes at nominal host speed.  Only a
#: unit: it makes normalised times read like milliseconds on a quiet host.
CAL_NOMINAL_S = 2.0e-3
_rng = np.random.default_rng(0)
_CAL_MATRIX = _rng.standard_normal((192, 192))
_CAL_VECTOR = _rng.standard_normal(4096)
_CAL_IMAGE = _rng.standard_normal((2, 8, 20, 20))
_CAL_FILTER = _rng.standard_normal((8, 8, 3, 3))
_CAL_BUFFERS = np.zeros((2, 1 << 18))


def host_slowdown() -> float:
    """How slow this thread's core is right now: thread CPU time of a fixed
    calibration kernel over its nominal time (1.0 = nominal, 2.0 = half speed).

    The benchmark's hosts are shared VMs whose cores swing between speeds on
    a scale of seconds (measured: 1.8x on a pure matmul loop, CPU time
    tracking wall time), which puts a 10-35% run-to-run spread on any raw
    step time.  Every time the benchmark reports is therefore divided by the
    slowdown measured around it, which cuts that spread to 2-6% (see
    README.md).  The kernel mixes what a training step mixes - BLAS,
    interpreter work, memory copies, small-array numpy calls and a strided
    window contraction - because a matmul alone tracked the engine's
    slowdown half as well (measured).  It uses numpy and the interpreter
    only, so no change to this repository can move it.  Thread CPU time, not
    wall time: on the thread backend a rank waiting for the interpreter lock
    must not read as a slow core.
    """
    t0 = time.thread_time()
    for _ in range(3):
        _CAL_MATRIX @ _CAL_MATRIX
    acc = 0
    for i in range(3000):
        acc += i * i % 7
    table = {}
    for i in range(600):
        table[i] = (i, str(i))
    np.copyto(_CAL_BUFFERS[1], _CAL_BUFFERS[0])
    np.copyto(_CAL_BUFFERS[0], _CAL_BUFFERS[1])
    for _ in range(20):
        np.maximum(_CAL_VECTOR, 0.0)
        (_CAL_VECTOR * _CAL_VECTOR).sum()
        _CAL_VECTOR.reshape(64, 64).transpose().copy()
    windows = np.lib.stride_tricks.sliding_window_view(_CAL_IMAGE, (3, 3), axis=(2, 3))
    out = np.tensordot(windows, _CAL_FILTER, axes=([1, 4, 5], [1, 2, 3]))
    np.ascontiguousarray(out.transpose(0, 3, 1, 2))
    return (time.thread_time() - t0) / CAL_NOMINAL_S


def load_contract() -> dict:
    with open(BENCHMARK_JSON) as f:
        return json.load(f)


def highest_percentile(n: int, beyond: int = 10) -> float:
    """The highest usual percentile with at least ``beyond`` samples past it
    (50 when even the 90th has fewer)."""
    best = 50.0
    for p in (90.0, 95.0, 99.0, 99.9):
        if round(n * (100.0 - p) / 100.0, 6) >= beyond:
            best = p
    return best


# -- one round ---------------------------------------------------------------


@dataclass(frozen=True)
class RoundPlan:
    #: Timed seconds; the ranks agree on a step count after warm-up.
    budget_s: float = 0.0
    #: Fixed step count (smoke and memory rounds); overrides ``budget_s``.
    steps: int | None = None
    traced: bool = False
    memory: bool = False


def _rank_program(comm, spec, strategy, batches, seed, plan, installed):
    if plan.memory:
        tracemalloc.start()
    rec = installed.begin_rank(comm.rank) if plan.traced else None
    cpu_clock = time.thread_time if comm.backend == "thread" else time.process_time
    try:
        t0 = perf_counter()
        net = DistNetwork(spec, comm, strategy, seed=seed)
        trainer = DistTrainer(net, SGD(lr=LR, momentum=MOMENTUM))
        build_s = perf_counter() - t0

        losses, warm_s = [], []
        for i in range(WARMUP_STEPS):
            t0 = perf_counter()
            losses.append(trainer.step(*batches[i % len(batches)]))
            warm_s.append(perf_counter() - t0)
        steps = plan.steps
        if steps is None:
            slowest = comm.allreduce(float(np.median(warm_s[1:])), op="max")
            steps = max(MIN_STEPS, int(plan.budget_s / slowest))

        comm.barrier()
        comm.stats.reset()
        plan_hits, plan_misses = shuffle_plan_stats(comm)
        if rec is not None:
            rec.reset()
        t_ready = perf_counter()
        slowdown, step_s, cpu_s = [], [], []
        for i in range(WARMUP_STEPS, WARMUP_STEPS + steps):
            slowdown.append(host_slowdown())
            cpu0 = cpu_clock()
            t0 = perf_counter()
            losses.append(trainer.step(*batches[i % len(batches)]))
            step_s.append(perf_counter() - t0)
            cpu_s.append(cpu_clock() - cpu0)
        slowdown.append(host_slowdown())

        stats = comm.stats
        hits, misses = shuffle_plan_stats(comm)
        out = {
            "rank": comm.rank,
            "build_s": build_s,
            "warm_s": warm_s,
            "t_ready": t_ready,
            "slowdown": slowdown,
            "step_s": step_s,
            "cpu_s": cpu_s,
            "losses": losses,
            "sends": stats.sends,
            "bytes_sent": stats.bytes_sent,
            "collective_bytes": dict(stats.collective_bytes),
            "wire_sent": stats.total_wire_sent(),
            "hidden_s": stats.total_overlap_seconds(),
            "plan_hits": hits - plan_hits,
            "plan_misses": misses - plan_misses,
        }
        if rec is not None:
            out["spans"] = rec.export()
        if plan.memory:
            out["peak_bytes"] = tracemalloc.get_traced_memory()[1]
        return out
    finally:
        if rec is not None:
            installed.end_rank()
        if plan.memory:
            tracemalloc.stop()


def _resources() -> dict:
    """What a finished job must not leave behind."""
    shm = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()
    sockets = 0
    for fd in os.listdir("/proc/self/fd") if os.path.isdir("/proc/self/fd") else ():
        try:
            sockets += os.readlink(f"/proc/self/fd/{fd}").startswith("socket:")
        except OSError:
            pass
    return {
        "shm": shm,
        "sockets": sockets,
        "children": len(multiprocessing.active_children()),
        "threads": threading.active_count(),
    }


def _leaks(before: dict) -> list[str]:
    after = _resources()
    found = [f"/dev/shm/{name}" for name in sorted(after["shm"] - before["shm"])]
    for key in ("sockets", "children", "threads"):
        if after[key] > before[key]:
            found.append(f"{after[key] - before[key]} leaked {key}")
    return found


def run_round(wl: Workload, job: dict, plan: RoundPlan, installed=None) -> dict:
    """Launch one round; returns the rank results plus the round's verdict."""
    before = _resources()
    t_launch = perf_counter()
    try:
        ranks = run_spmd(
            wl.nranks,
            _rank_program,
            job["spec"], job["strategy"], job["batches"], job["seed"], plan, installed,
            backend=wl.backend,
            hostmap=wl.hostmap,
        )
    except Exception as exc:  # a rank aborted: every step of the round failed
        steps = WARMUP_STEPS + (plan.steps or MIN_STEPS)
        return {
            "ranks": [], "attempted": steps, "failed": steps,
            "errors": [f"{type(exc).__name__}: {exc}"] + _leaks(before),
        }
    losses = [r["losses"] for r in ranks]
    nsteps = len(losses[0])
    bad = set()
    for i in range(nsteps):
        values = [l[i] for l in losses]
        if not math.isfinite(values[0]) or any(v != values[0] for v in values):
            bad.add(i)
    for i, ref in enumerate(job["reference"]["losses"][:nsteps]):
        if abs(losses[0][i] - ref) > REFERENCE_RTOL * abs(ref):
            bad.add(i)
    errors = [f"step {i}: losses {[l[i] for l in losses]}" for i in sorted(bad)][:8]
    leaks = _leaks(before)
    # The slowest rank sets the step (a step is done when every rank is),
    # and the slowest core sets the slowest rank.  A step's factor is the
    # mean of the calibrations that bracket it.
    raw_step_s = np.max([r["step_s"] for r in ranks], axis=0)
    calibration = np.max([r["slowdown"] for r in ranks], axis=0)
    slowdown = (calibration[:-1] + calibration[1:]) / 2
    return {
        "ranks": ranks,
        "attempted": nsteps,
        "failed": nsteps if leaks else len(bad),
        "errors": errors + leaks,
        "setup_s": max(r["t_ready"] for r in ranks) - t_launch,
        "slowdown": slowdown,
        "raw_step_s": raw_step_s,
        # Times at nominal host speed from here on.
        "step_s": raw_step_s / slowdown,
        "cpu_s": np.sum([r["cpu_s"] for r in ranks], axis=0) / slowdown,
    }


def reference_run(spec, batches, seed: int) -> dict:
    """The same job on one ``LocalNetwork`` over the global batch."""
    net = LocalNetwork(spec, seed=seed)
    opt = SGD(lr=LR, momentum=MOMENTUM)
    losses, step_s = [], []
    for i in range(REFERENCE_STEPS):
        slowdown = host_slowdown()
        t0 = perf_counter()
        loss, grads = net.loss_and_grad(*batches[i % len(batches)])
        opt.step(net.params, grads)
        step_s.append((perf_counter() - t0) / slowdown)
        losses.append(float(loss))
    return {"losses": losses, "step_ms": float(np.median(step_s[1:])) * 1e3}


def prepare(wl: Workload, seed: int) -> dict:
    t0 = perf_counter()
    batches = wl.data(seed, wl.batch)
    batch_gen_s = perf_counter() - t0
    spec = wl.build()
    return {
        "spec": spec,
        "strategy": wl.strategy(spec),
        "batches": batches,
        "seed": seed,
        "batch_gen_s": batch_gen_s,
        "reference": reference_run(spec, batches, seed),
    }


# -- timed pass: the end-to-end metrics --------------------------------------


def timed_pass(wl: Workload, job: dict, seconds: float, smoke: bool) -> dict:
    if smoke:
        plans = [RoundPlan(steps=3)]
    else:
        plans = [RoundPlan(budget_s=seconds / TIMED_ROUNDS)] * TIMED_ROUNDS
    rounds = [run_round(wl, job, plan) for plan in plans]
    memory = run_round(wl, job, RoundPlan(steps=MEMORY_STEPS, memory=True))
    everything = rounds + [memory]
    out = {
        "attempted": sum(r["attempted"] for r in everything),
        "failed": sum(r["failed"] for r in everything),
        "errors": [e for r in everything for e in r["errors"]],
        "metrics": {},
    }
    good = [r for r in rounds if r["ranks"]]
    if not good or not memory["ranks"]:
        return out
    step_s = np.concatenate([r["step_s"] for r in good])
    steps = len(step_s)
    medians = [float(np.median(r["step_s"])) for r in good]
    out["samples"] = steps
    out["supported_percentile"] = highest_percentile(steps)
    out["round_spread"] = (max(medians) - min(medians)) / float(np.median(medians))
    out["rounds"] = [
        {
            "steps": len(r["step_s"]),
            "step_ms_p50": float(np.median(r["step_s"])) * 1e3,
            "raw_step_ms_p50": float(np.median(r["raw_step_s"])) * 1e3,
            "raw_setup_s": r["setup_s"],
            "host_slowdown_p50": float(np.median(r["slowdown"])),
        }
        for r in good
    ]
    out["metrics"] = {
        "step_ms_p50": (float(np.percentile(step_s, 50)) * 1e3, "ms"),
        "step_ms_p90": (float(np.percentile(step_s, 90)) * 1e3, "ms"),
        # Closed loop: the loop's wall time is the sum of its steps.
        "samples_per_s": (wl.batch * steps / float(step_s.sum()), "samples/s"),
        "cpu_ms_per_step": (sum(float(r["cpu_s"].sum()) for r in good) / steps * 1e3, "ms"),
        "setup_s": (
            float(np.median([r["setup_s"] / np.median(r["slowdown"]) for r in good])), "s"
        ),
        "peak_rank_mem_mb": (max(r["peak_bytes"] for r in memory["ranks"]) / 1e6, "MB"),
    }
    return out


# -- traced pass: the per-layer metrics --------------------------------------


def _micro_program(comm):
    """Isolated transport costs on the workload's backend and rank count:
    one-way ping-pong latency at 1 KiB and 1 MiB between ranks 0 and 1 (a
    self-send on one rank) and a 1 MiB allreduce over every rank."""

    def pingpong(nbytes: int, reps: int) -> float:
        buf = np.zeros(nbytes // 8)
        times = []
        for _ in range(reps):
            comm.barrier()
            t0 = perf_counter()
            if comm.size == 1:
                comm.send(buf, 0)
                comm.recv(0)
                times.append(perf_counter() - t0)
            elif comm.rank == 0:
                comm.send(buf, 1)
                comm.recv(1)
                times.append((perf_counter() - t0) / 2)
            elif comm.rank == 1:
                comm.send(comm.recv(0), 0)
        return float(np.median(times[2:])) * 1e6 if times else 0.0

    def allreduce(nbytes: int, reps: int) -> float:
        buf = np.ones(nbytes // 8)
        times = []
        for _ in range(reps):
            comm.barrier()
            t0 = perf_counter()
            comm.allreduce(buf)
            times.append(perf_counter() - t0)
        return float(np.median(times[2:])) * 1e6

    return {
        "pingpong_us_1k": pingpong(1 << 10, 42),
        "pingpong_us_1m": pingpong(1 << 20, 12),
        "allreduce_us_1m": allreduce(1 << 20, 12),
    }


def _noop_program(comm):
    return None


def _transport_micro(wl: Workload) -> dict:
    launches = []
    for _ in range(3):
        t0 = perf_counter()
        run_spmd(wl.nranks, _noop_program, backend=wl.backend, hostmap=wl.hostmap)
        launches.append(perf_counter() - t0)
    micro = run_spmd(wl.nranks, _micro_program, backend=wl.backend, hostmap=wl.hostmap)[0]
    micro["launch_s"] = float(np.median(launches))
    return micro


def _model_times(wl: Workload, job: dict) -> tuple[float, float]:
    """Modeled and simulated step seconds at the default machine spec, with
    this host's measured kernel times (the paper's section VI method)."""
    conv = EmpiricalConvModel(warmup=1, runs=2)
    spec, strategy = job["spec"], job["strategy"]
    modeled = NetworkCostModel(spec, LASSEN, conv_model=conv).minibatch_time(
        wl.batch, strategy
    )
    simulated = TrainingStepSimulator(spec, LASSEN, conv_model=conv).simulate(
        wl.batch, strategy
    ).minibatch_time
    return modeled, simulated


def _write_trace(wl: Workload, seed: int, names: list[str], traced: dict) -> str:
    """Persist the traced round's spans: one row per span, raw times in
    seconds on the host's monotonic clock (shared by every rank)."""
    ranks = traced["ranks"]
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"trace_{wl.name}.json"
    rows = [
        [names[int(nid)], r["rank"], int(step), start, end, int(parent)]
        for r in ranks
        for nid, step, start, end, parent in r["spans"]["rows"]
    ]
    doc = {
        "workload": wl.name,
        "seed": seed,
        "columns": ["name", "rank", "step", "start", "end", "parent"],
        "note": "layer = name up to the first dot; parent indexes the rank's own rows",
        "host_slowdown_per_step": traced["slowdown"].tolist(),
        "spans": rows,
    }
    with open(path, "w") as f:
        json.dump(doc, f)
    return str(path.relative_to(HERE.parents[1]))


def traced_pass(wl: Workload, job: dict, seconds: float, smoke: bool) -> dict:
    length = {"steps": 3} if smoke else {"budget_s": seconds / 2}
    plain = run_round(wl, job, RoundPlan(**length))
    installed = spans.install()
    try:
        traced = run_round(wl, job, RoundPlan(traced=True, **length), installed)
    finally:
        installed.remove()
    out = {
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "errors": plain["errors"] + traced["errors"],
        "metrics": {},
    }
    if not plain["ranks"] or not traced["ranks"]:
        return out

    names = installed.names
    summaries = [
        spans.summarize(r["spans"], names, traced["slowdown"]) for r in traced["ranks"]
    ]
    slow = max(summaries, key=lambda s: float(s["step_s"].sum()))
    rank = traced["ranks"][slow["rank"]]  # run_spmd returns results in rank order
    steps = len(slow["step_s"])
    traced_step_s = float(slow["step_s"].sum())
    per = slow["per_name"]

    def self_ms(*span_names: str) -> float:
        return sum(per[n]["self_s"] for n in span_names) / steps * 1e3

    def total_ms(*span_names: str) -> float:
        return sum(per[n]["total_s"] for n in span_names) / steps * 1e3

    def calls(*span_names: str) -> float:
        return sum(per[n]["calls"] for n in span_names) / steps

    def ratio(hits: float, lookups: float) -> float:
        return hits / lookups if lookups else 1.0  # nothing looked up, nothing missed

    busy = [
        float(s["step_s"].sum()) - s["per_name"]["comm.wait"]["self_s"]
        for s in summaries
    ]
    plain_p50_ms = float(np.median(plain["step_s"])) * 1e3
    traced_p50_ms = float(np.median(traced["step_s"])) * 1e3
    warm = max(r["warm_s"][0] for r in plain["ranks"])
    modeled_s, simulated_s = _model_times(wl, job)
    micro = _transport_micro(wl)
    reference_ms = job["reference"]["step_ms"]
    counts = rank["spans"]
    conv_s = sum(per[n]["self_s"] for n in CONV_SPANS)
    layer_self_ms = {
        layer: self_ms(*[n for n in names if n.startswith(layer + ".")])
        for layer in ("nn", "tensor", "comm", "core")
    }

    m = {
        "nn.conv_fwd_ms": (self_ms("nn.conv_fwd"), "ms"),
        "nn.conv_bwd_data_ms": (self_ms("nn.conv_bwd_data"), "ms"),
        "nn.conv_bwd_filter_ms": (self_ms("nn.conv_bwd_filter"), "ms"),
        "nn.conv_calls": (calls(*CONV_SPANS), "count"),
        "nn.conv_gflop_per_s": (counts["conv_flops"] / conv_s / 1e9, "GFLOP/s"),
        "nn.other_kernel_ms": (self_ms("nn.other_kernel"), "ms"),
        "nn.optimizer_ms": (self_ms("nn.optimizer"), "ms"),
        "nn.reference_step_ms": (reference_ms, "ms"),
        "tensor.halo_start_ms": (self_ms("tensor.halo_start"), "ms"),
        "tensor.halo_finish_ms": (self_ms("tensor.halo_finish"), "ms"),
        "tensor.halo_calls": (calls("tensor.halo_start"), "count"),
        "tensor.halo_bytes": (rank["collective_bytes"].get("region_data", 0) / steps, "B"),
        "tensor.shuffle_start_ms": (self_ms("tensor.shuffle_start"), "ms"),
        "tensor.shuffle_finish_ms": (self_ms("tensor.shuffle_finish"), "ms"),
        "tensor.shuffle_calls": (calls("tensor.shuffle_start"), "count"),
        "tensor.shuffle_bytes": (rank["collective_bytes"].get("shuffle", 0) / steps, "B"),
        "tensor.scatter_add_ms": (self_ms("tensor.scatter_add"), "ms"),
        "tensor.plan_hit_ratio": (
            ratio(rank["plan_hits"], rank["plan_hits"] + rank["plan_misses"]), "ratio"
        ),
        "tensor.pool_hit_ratio": (ratio(counts["pool_hits"], counts["pool_takes"]), "ratio"),
        "comm.allreduce_ms": (self_ms("comm.allreduce"), "ms"),
        "comm.allreduce_calls": (calls("comm.allreduce"), "count"),
        "comm.iallreduce_issue_ms": (self_ms("comm.iallreduce_issue"), "ms"),
        "comm.iallreduce_calls": (calls("comm.iallreduce_issue"), "count"),
        "comm.wait_ms": (self_ms("comm.wait"), "ms"),
        "comm.test_ms": (self_ms("comm.test"), "ms"),
        "comm.hidden_ms": (
            rank["hidden_s"] / float(np.median(traced["slowdown"])) / steps * 1e3, "ms"
        ),
        "comm.exposed_frac": (per["comm.wait"]["self_s"] / traced_step_s, "ratio"),
        "comm.pt2pt_msgs": (rank["sends"] / steps, "count"),
        "comm.pt2pt_bytes": (rank["bytes_sent"] / steps, "B"),
        "comm.wire_bytes": (rank["wire_sent"] / steps, "B"),
        "comm.ops_failed": (sum(r["spans"]["failed"] for r in traced["ranks"]), "count"),
        "comm.launch_s": (micro["launch_s"], "s"),
        "comm.pingpong_us_1k": (micro["pingpong_us_1k"], "us"),
        "comm.pingpong_us_1m": (micro["pingpong_us_1m"], "us"),
        "comm.allreduce_us_1m": (micro["allreduce_us_1m"], "us"),
        "core.fwd_ms": (total_ms("core.fwd"), "ms"),
        "core.bwd_ms": (total_ms("core.bwd"), "ms"),
        "core.grad_reduce_ms": (total_ms("core.grad_reduce"), "ms"),
        "core.dispatch_ms": (layer_self_ms["core"], "ms"),
        "core.build_s": (max(r["build_s"] for r in plain["ranks"]), "s"),
        "core.warmup_s": (warm - plain_p50_ms / 1e3, "s"),
        "core.rank_imbalance": ((max(busy) - min(busy)) / max(busy), "ratio"),
        "core.strong_eff": (reference_ms / (wl.nranks * plain_p50_ms), "ratio"),
        "perfmodel.model_err": (abs(modeled_s * 1e3 - plain_p50_ms) / plain_p50_ms, "ratio"),
        "sim.sim_err": (abs(simulated_s * 1e3 - plain_p50_ms) / plain_p50_ms, "ratio"),
        "data.batch_gen_s": (job["batch_gen_s"], "s"),
        "obs.bench_trace_overhead_frac": (traced_p50_ms / plain_p50_ms - 1.0, "ratio"),
    }
    out["metrics"] = m
    out["samples"] = steps
    out["plain_step_ms_p50"] = plain_p50_ms
    out["traced_step_ms"] = traced_step_s / steps * 1e3
    out["layer_self_ms"] = layer_self_ms
    # Every span is a child of a step span, so the four layers' self times
    # must add up to the traced step; the residual is the accounting error.
    out["accounting_residual_frac"] = abs(
        sum(layer_self_ms.values()) - out["traced_step_ms"]
    ) / out["traced_step_ms"]
    out["trace_file"] = _write_trace(wl, job["seed"], names, traced)
    return out
