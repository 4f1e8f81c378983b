"""End-to-end training benchmark: one command, six workloads.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace 0|1] [--smoke] [--out FILE]

With ``--workload`` it runs one pass of one workload and prints every metric
by name with its unit, then — as the last line — one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0`` (timed pass, nothing instrumented), the per-layer metrics
with ``--trace 1`` (traced pass).  Without ``--workload`` it runs both passes
of every workload, each in a fresh interpreter.  ``--out FILE`` appends one
JSON line per pass for ``compare.py``.  The exit code is non-zero when any
step failed its output check.

It is a closed loop with one client: one training job, fixed global batch,
the next step starts when the previous one returns.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: Stolen share of CPU time above which a run is stamped noise-bound
#: (60 quiet runs on the reference host measured 0.000-0.007; a bad episode 0.5-0.77).
MAX_STEAL_FRAC = 0.10


def hermetic_env() -> dict:
    """Pin BLAS to one thread and drop every ``REPRO_*`` override.

    Must run before numpy is imported: OpenBLAS reads its thread count once,
    and with its default (one thread per core) two rank processes on two
    cores run four BLAS threads and the step time measures the scheduler.
    """
    pinned = "numpy" not in sys.modules
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    scrubbed = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for key in scrubbed:
        del os.environ[key]
    return {"blas_pinned": pinned, "scrubbed_env": scrubbed}


def _openblas_version(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):  # numpy < 1.25 prints instead of returning
        return "unknown"


def _cpu_jiffies() -> tuple[int, int]:
    """(busy, stolen) CPU time of the whole host so far, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
        return fields[0] + fields[1] + fields[2], fields[7]
    except (OSError, IndexError, ValueError):
        return 0, 0


def _child_pids() -> list[int]:
    """Live or unreaped direct children of this process (from /proc)."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else ():
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                # "pid (comm) state ppid ..."; comm may hold spaces and ')'.
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == me:
            found.append(int(entry))
    return found


def _reap(pid: int, patience_s: float) -> bool:
    """Wait up to ``patience_s`` for child ``pid`` to end, then kill it and
    wait again; returns whether it had to be killed."""
    import signal
    import time

    deadline = time.monotonic() + patience_s
    try:
        while os.waitpid(pid, os.WNOHANG) == (0, 0):  # still running
            if time.monotonic() >= deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return True
            time.sleep(0.01)
    except (ChildProcessError, ProcessLookupError):
        pass  # already reaped by its owner
    return False


def stop_children() -> list[int]:
    """Stop every process this interpreter started and wait until each has
    ended; returns the pids that had to be killed.

    ``multiprocessing.shared_memory`` (the process and socket backends'
    arena) starts a ``resource_tracker`` helper that only exits once its
    parent has closed their pipe, which otherwise happens when the parent is
    already gone - measured: it outlived ``run.py`` by about a second.  Here
    the pipe is closed and the helper reaped before ``run.py`` returns; any
    other child still alive (none, after a clean ``run_spmd``) is killed.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    fd, tracker_pid = getattr(tracker, "_fd", None), getattr(tracker, "_pid", None)
    killed = [pid for pid in _child_pids() if pid != tracker_pid and _reap(pid, 0.0)]
    if fd is not None:
        try:
            os.close(fd)  # end of file on the pipe is the helper's stop signal
        except OSError:
            pass
        tracker._fd = None
    if tracker_pid is not None:
        if _reap(tracker_pid, 10.0):
            killed.append(tracker_pid)
        tracker._pid = None
    return killed


def run_pass(args, wl, env: dict) -> int:
    import numpy as np

    import harness

    contract = harness.load_contract()
    load_at_start = os.getloadavg()[0]
    busy0, stolen0 = _cpu_jiffies()
    job = harness.prepare(wl, args.seed)
    run = harness.traced_pass if args.trace else harness.timed_pass
    result = run(wl, job, args.seconds, args.smoke)
    killed = stop_children()
    if killed:  # a process outlived its job: nothing this pass measured counts
        result["errors"].append(f"{len(killed)} processes still running, killed: {killed}")
        result["failed"] = result["attempted"]

    listed = contract["per_layer" if args.trace else "end_to_end"]
    metrics = result["metrics"]
    if metrics and set(metrics) != {m["name"] for m in listed}:
        raise SystemExit(
            "metrics differ from BENCHMARK.json: "
            f"{sorted(set(metrics) ^ {m['name'] for m in listed})}"
        )

    busy1, stolen1 = _cpu_jiffies()
    # Share of the CPU time this VM asked for that the hypervisor gave to
    # another guest instead.  No normalisation survives a large share (see
    # README.md), so it only marks the run as noise-bound.
    steal_frac = (stolen1 - stolen0) / max(1, busy1 - busy0 + stolen1 - stolen0)
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    cores = os.cpu_count() or 1
    stamp = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "samples": result.get("samples", 0),
        "host_cpu_count": cores,
        "loadavg_start": load_at_start,
        "host_steal_frac": steal_frac,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _openblas_version(np),
        **env,
        # Wall-clock numbers cannot be trusted when forked ranks outnumber
        # cores, BLAS was not pinned, the hypervisor took more than a tenth
        # of the CPU time, or the rounds disagree by more than the
        # step-time bound.
        "noise_bound": bool(
            (wl.backend != "thread" and cores < wl.nranks)
            or not env["blas_pinned"]
            or steal_frac > MAX_STEAL_FRAC
            or result.get("round_spread", 0.0) > bounds["step_ms_p50"]
        ),
    }
    for key in (
        "supported_percentile", "round_spread", "rounds", "plain_step_ms_p50", "traced_step_ms",
        "layer_self_ms", "accounting_residual_frac", "trace_file",
    ):
        if key in result:
            stamp[key] = result[key]

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"steps_attempted {result['attempted']}")
    print(f"steps_failed {result['failed']}")
    for error in result["errors"]:
        print(f"error {error}")
    print("stamp " + json.dumps(stamp))

    record = {
        "correct": result["failed"] == 0 and bool(metrics),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps({**record, "stamp": stamp}) + "\n")
    print(json.dumps(record), flush=True)
    return 0 if record["correct"] else 1


def run_all(args, names) -> int:
    """Both passes of every workload, each in a fresh interpreter (the state
    a later workload sees never depends on an earlier one)."""
    status = 0
    for name in names:
        for trace in (0, 1) if args.trace is None else (args.trace,):
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace),
            ]
            cmd += ["--smoke"] if args.smoke else []
            cmd += ["--out", args.out] if args.out else []
            status |= subprocess.run(cmd).returncode
    return status


def main(argv=None) -> int:
    env = hermetic_env()
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    from workloads import BY_NAME

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME),
                        help="run one pass of this workload only")
    parser.add_argument("--seed", type=int, default=0, help="data and init seed")
    parser.add_argument("--seconds", type=float, default=14.0,
                        help="seconds of timed steps per pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: timed pass, end-to-end metrics; 1: traced pass, "
                             "per-layer metrics (default: 0, or both without --workload)")
    parser.add_argument("--smoke", action="store_true",
                        help="one round of 3 steps (checks the plumbing, not speed)")
    parser.add_argument("--out", help="append one JSON line per pass to this file")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args, list(BY_NAME))
    args.trace = args.trace or 0
    try:
        return run_pass(args, BY_NAME[args.workload], env)
    finally:
        stop_children()  # on every path out, an exception included


if __name__ == "__main__":
    sys.exit(main())
