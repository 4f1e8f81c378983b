"""Walk a merged trace: critical path, exposed vs hidden waits, and a
measured-vs-modeled table against the paper's performance model.

Usage::

    python -m repro.obs.analyze trace.json [--model model.json] [--top N]

``--model`` points at a JSON produced by :func:`model_predictions`, which
runs the step evaluator (:meth:`repro.perfmodel.NetworkCostModel.simulate`,
exported as ``repro.sim.TrainingStepSimulator``) for the same
network/strategy so the analyzer can put measured per-layer times and comm
bytes next to the §V model's predictions.  Comm-byte rows come from the ``comm_stats``
annotations each rank embeds in its trace — a verbatim ``CommStats``
snapshot, so those rows agree with the live counters exactly.
"""

from __future__ import annotations

import argparse
import bisect
import json
from collections import defaultdict

#: Slack (µs) when binding flow endpoints / sequencing spans on a track.
_EPS_US = 1.5


def load_trace(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _spans_by_track(doc: dict) -> dict:
    tracks: dict = defaultdict(list)
    for ev in doc.get("traceEvents", ()):
        if ev.get("ph") == "X":
            tracks[ev["pid"]].append(ev)
    for spans in tracks.values():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
    return dict(tracks)


def _top_level(spans: list[dict]) -> list[dict]:
    """Spans not contained in any other span on the same track."""
    tops = []
    open_end = -1.0
    for ev in spans:  # sorted by (ts, -dur): parents precede children
        if ev["ts"] >= open_end - _EPS_US:
            tops.append(ev)
            open_end = ev["ts"] + ev["dur"]
    return tops


def _flow_pairs(doc: dict) -> list[tuple]:
    """(src_pid, send_ts, dst_pid, recv_ts) for every resolved flow."""
    sides: dict = defaultdict(dict)
    for ev in doc.get("traceEvents", ()):
        if ev.get("ph") in ("s", "f"):
            sides[ev["id"]][ev["ph"]] = ev
    pairs = []
    for ends in sides.values():
        if "s" in ends and "f" in ends:
            pairs.append((ends["s"]["pid"], ends["s"]["ts"], ends["f"]["pid"], ends["f"]["ts"]))
    return pairs


def critical_path(doc: dict, max_hops: int = 100000) -> list[dict]:
    """Backward walk from the latest-ending span, jumping across resolved
    send→recv flows to the sender's track (the op that gated this one) and
    otherwise to the previous span on the same track.  Returns the path in
    time order; ``gap_us`` on an entry is idle time between it and its
    predecessor on the path."""
    tracks = {pid: _top_level(spans) for pid, spans in _spans_by_track(doc).items()}
    if not tracks:
        return []
    starts = {pid: [s["ts"] for s in tops] for pid, tops in tracks.items()}
    incoming: dict = defaultdict(list)
    for src_pid, s_ts, dst_pid, f_ts in _flow_pairs(doc):
        incoming[dst_pid].append((f_ts, src_pid, s_ts))
    for lst in incoming.values():
        lst.sort()

    def span_at(pid, ts):
        tops = tracks.get(pid)
        if not tops:
            return None
        idx = bisect.bisect_right(starts[pid], ts + _EPS_US) - 1
        return tops[idx] if idx >= 0 else None

    cur_pid, cur = max(
        ((pid, tops[-1]) for pid, tops in tracks.items() if tops),
        key=lambda item: item[1]["ts"] + item[1]["dur"],
    )
    path = []
    visited = set()
    for _ in range(max_hops):
        key = (cur_pid, cur["ts"], cur["name"])
        if key in visited:
            break
        visited.add(key)
        entry = {
            "pid": cur_pid,
            "name": cur["name"],
            "cat": cur.get("cat", ""),
            "ts_us": cur["ts"],
            "dur_us": cur["dur"],
            "link": "seq",
            "gap_us": 0.0,
        }
        path.append(entry)
        end = cur["ts"] + cur["dur"]
        # Flows landing inside this span: the latest send gated it.
        cands = [
            (s_ts, src_pid)
            for f_ts, src_pid, s_ts in incoming.get(cur_pid, ())
            if cur["ts"] - _EPS_US <= f_ts <= end + _EPS_US
        ]
        pred = pred_pid = None
        if cands:
            s_ts, src_pid = max(cands)
            hop = span_at(src_pid, s_ts)
            if hop is not None and (src_pid, hop["ts"], hop["name"]) not in visited:
                pred, pred_pid = hop, src_pid
                entry["link"] = "flow"
        if pred is None:
            tops = tracks[cur_pid]
            idx = tops.index(cur)
            if idx > 0:
                pred, pred_pid = tops[idx - 1], cur_pid
                entry["gap_us"] = max(0.0, cur["ts"] - (pred["ts"] + pred["dur"]))
        if pred is None:
            break
        cur, cur_pid = pred, pred_pid
    path.reverse()
    return path


def path_summary(path: list[dict]) -> dict:
    by_name: dict = defaultdict(lambda: {"count": 0, "dur_us": 0.0})
    idle = 0.0
    for entry in path:
        slot = by_name[entry["name"]]
        slot["count"] += 1
        slot["dur_us"] += entry["dur_us"]
        idle += entry["gap_us"]
    return {"by_name": dict(by_name), "idle_us": idle, "hops": len(path)}


def exposed_hidden(doc: dict) -> dict:
    """Per-op exposed wait (``wait:*`` span time) vs hidden latency (the
    overlapped portion recorded by ``CommStats``), in µs."""
    out: dict = defaultdict(lambda: {"count": 0, "exposed_us": 0.0, "hidden_us": 0.0})
    for spans in _spans_by_track(doc).values():
        for ev in spans:
            if ev.get("cat") != "wait":
                continue
            args = ev.get("args", {})
            op = args.get("op") or ev["name"].removeprefix("wait:")
            slot = out[op]
            slot["count"] += 1
            slot["exposed_us"] += ev["dur"]
            slot["hidden_us"] += args.get("hidden_us", 0.0)
    return dict(out)


def layer_times(doc: dict) -> dict:
    """Measured per-layer forward/backward time per step (mean across all
    occurrences on all ranks), from the ``fwd:*``/``bwd:*`` layer spans."""
    sums: dict = defaultdict(lambda: {"fwd_us": 0.0, "fwd_n": 0, "bwd_us": 0.0, "bwd_n": 0})
    for spans in _spans_by_track(doc).values():
        for ev in spans:
            if ev.get("cat") != "layer":
                continue
            kind, _, layer = ev["name"].partition(":")
            if kind == "fwd":
                sums[layer]["fwd_us"] += ev["dur"]
                sums[layer]["fwd_n"] += 1
            elif kind == "bwd":
                sums[layer]["bwd_us"] += ev["dur"]
                sums[layer]["bwd_n"] += 1
    out = {}
    for layer, s in sums.items():
        out[layer] = {
            "fwd_us": s["fwd_us"] / s["fwd_n"] if s["fwd_n"] else 0.0,
            "bwd_us": s["bwd_us"] / s["bwd_n"] if s["bwd_n"] else 0.0,
        }
    return out


def comm_rows(doc: dict) -> dict:
    """Per-op calls/bytes summed over every rank's embedded ``CommStats``
    snapshot — byte-exact with the live counters by construction."""
    rows: dict = defaultdict(lambda: {"calls": 0, "bytes": 0})
    annotations = doc.get("otherData", {}).get("annotations", {})
    for per_rank in annotations.values():
        snap = per_rank.get("comm_stats")
        if not snap:
            continue
        for op, calls in snap.get("collectives", {}).items():
            rows[op]["calls"] += int(calls)
        for op, nbytes in snap.get("collective_bytes", {}).items():
            rows[op]["bytes"] += int(nbytes)
    return dict(rows)


def model_predictions(spec, machine, n_global: int, strategy, **sim_kwargs) -> dict:
    """Simulate the step for the given net/strategy and distil
    per-layer predictions the analyzer can set against measured spans.

    Joined on op id: a layer's modeled time is the window (last finish −
    first start) of the simulated tasks of its ``fwd:{layer}`` /
    ``bwd:{layer}`` op — the ids the runtime's layer spans carry; a layer's
    allreduce bytes are its parameters in the step's gradient buckets, and
    the step's halo bytes what the plans of its halo ops send, on the mean
    rank (the ``region_data`` counter summed over ranks, over their number).
    """
    from repro.sim import TrainingStepSimulator

    sim = TrainingStepSimulator(spec, machine, **sim_kwargs)
    res = sim.simulate(n_global, strategy)
    sched = sim.cost(n_global, strategy).schedule

    windows: dict = {}
    for task in res.engine.tasks():
        lo, hi = windows.get(task.op, (task.start, task.finish))
        windows[task.op] = (min(lo, task.start), max(hi, task.finish))

    def seconds(op_id: str) -> float:
        lo, hi = windows.get(op_id, (0.0, 0.0))
        return hi - lo

    layers = {}
    ar_bytes_total = 0
    for op in sched.layers:
        name = op.name
        ar_bytes = op.param_count * machine.dtype_bytes if op.grad_group else 0
        ar_bytes_total += ar_bytes
        layers[name] = {
            "fwd_s": seconds(f"fwd:{name}"),
            "bwd_s": seconds(f"bwd:{name}"),
            "ar_bytes": ar_bytes,
        }
    halo_bytes = sum(
        sum(plan.sent_cells for plan in h.plans.values()) / len(h.plans)
        for h in sched.halos
    ) * machine.dtype_bytes
    return {
        "source": "TrainingStepSimulator",
        "n_global": n_global,
        "minibatch_s": res.minibatch_time,
        "compute_busy_s": res.compute_busy,
        "comm_busy_s": res.comm_busy,
        "allreduce_bytes_per_rank": ar_bytes_total,
        "halo_bytes_per_rank": halo_bytes,
        "layers": layers,
    }


# ----------------------------------------------------------------------
# Report rendering


def _fmt_ms(us: float) -> str:
    return f"{us / 1e3:.3f}"


def render_report(doc: dict, model: dict | None = None, top: int = 12) -> str:
    lines = []
    other = doc.get("otherData", {})
    tracks = _spans_by_track(doc)
    nspans = sum(len(s) for s in tracks.values())
    lines.append(
        f"trace: {other.get('nranks', len(tracks))} ranks, {nspans} spans, "
        f"{other.get('flows', 0)} flows"
    )

    path = critical_path(doc)
    summary = path_summary(path)
    if path:
        total = path[-1]["ts_us"] + path[-1]["dur_us"] - path[0]["ts_us"]
        lines.append("")
        lines.append(
            f"critical path: {summary['hops']} hops over {_fmt_ms(total)} ms "
            f"({_fmt_ms(summary['idle_us'])} ms idle)"
        )
        lines.append(f"  {'span':<24} {'hops':>5} {'total ms':>10}")
        ranked = sorted(summary["by_name"].items(), key=lambda kv: -kv[1]["dur_us"])
        for name, slot in ranked[:top]:
            lines.append(f"  {name:<24} {slot['count']:>5} {_fmt_ms(slot['dur_us']):>10}")

    waits = exposed_hidden(doc)
    if waits:
        lines.append("")
        lines.append("exposed vs hidden wait:")
        lines.append(f"  {'op':<18} {'waits':>6} {'exposed ms':>11} {'hidden ms':>10}")
        for op in sorted(waits):
            slot = waits[op]
            lines.append(
                f"  {op:<18} {slot['count']:>6} {_fmt_ms(slot['exposed_us']):>11} "
                f"{_fmt_ms(slot['hidden_us']):>10}"
            )

    step_spans = [
        ev for spans in tracks.values() for ev in spans if ev["name"] == "step"
    ]
    comm = comm_rows(doc)
    if comm:
        lines.append("")
        lines.append("comm ops (from CommStats snapshots, all ranks):")
        lines.append(f"  {'op':<18} {'calls':>7} {'bytes':>14}")
        for op in sorted(comm):
            lines.append(f"  {op:<18} {comm[op]['calls']:>7} {comm[op]['bytes']:>14}")
            if op == "region_data" and model is not None and step_spans:
                lines.append(
                    f"    per rank and step: measured "
                    f"{comm[op]['bytes'] / len(step_spans):.0f} B vs modeled "
                    f"{model.get('halo_bytes_per_rank', 0):.0f} B"
                )

    if model is not None:
        measured = layer_times(doc)
        lines.append("")
        lines.append(f"measured vs modeled (model: {model.get('source', '?')}):")
        lines.append(
            f"  {'layer':<12} {'meas fwd ms':>12} {'model fwd ms':>13} "
            f"{'meas bwd ms':>12} {'model bwd ms':>13} {'model ar B':>11}"
        )
        for layer, pred in model.get("layers", {}).items():
            meas = measured.get(layer, {"fwd_us": 0.0, "bwd_us": 0.0})
            lines.append(
                f"  {layer:<12} {_fmt_ms(meas['fwd_us']):>12} "
                f"{pred['fwd_s'] * 1e3:>13.3f} {_fmt_ms(meas['bwd_us']):>12} "
                f"{pred['bwd_s'] * 1e3:>13.3f} {pred['ar_bytes']:>11}"
            )
        if step_spans:
            meas_step = sum(ev["dur"] for ev in step_spans) / len(step_spans)
            lines.append(
                f"  step time: measured {_fmt_ms(meas_step)} ms/step vs modeled "
                f"{model.get('minibatch_s', 0.0) * 1e3:.3f} ms"
            )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.analyze",
        description="Analyze a merged repro trace (critical path, waits, model check).",
    )
    parser.add_argument("trace", help="merged Chrome-trace JSON from a traced run")
    parser.add_argument("--model", help="model JSON from repro.obs.analyze.model_predictions")
    parser.add_argument("--top", type=int, default=12, help="rows in the critical-path table")
    parser.add_argument(
        "--salvage",
        action="store_true",
        help="merge leftover {trace}.rank* files from a crashed job first "
        "(missing ranks are annotated), then analyze the salvaged trace",
    )
    parser.add_argument(
        "--nranks",
        type=int,
        default=None,
        help="with --salvage: the world size the job ran at (default: "
        "inferred from the highest surviving rank file)",
    )
    args = parser.parse_args(argv)

    if args.salvage:
        from repro.obs.export import salvage_traces

        _, found, missing = salvage_traces(args.trace, args.nranks)
        print(
            f"salvaged {len(found)} rank file(s) into {args.trace} "
            f"(ranks {', '.join(map(str, found))})"
        )
        if missing:
            print(
                "missing ranks (crashed before writing, or files lost): "
                + ", ".join(map(str, missing))
            )
    doc = load_trace(args.trace)
    model = None
    if args.model:
        with open(args.model) as fh:
            model = json.load(fh)
    print(render_report(doc, model, top=args.top))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
