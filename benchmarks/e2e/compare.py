"""Compare two sets of end-to-end benchmark runs.

    python3 benchmarks/e2e/compare.py A.jsonl B.jsonl

Each file holds the JSON lines ``run.py --out`` appended (several runs per
workload, ideally ten with different seeds).  Prints one row per workload x
end-to-end metric: both medians, the ratio B/A with its base (A's median),
the wider of the two run-to-run spreads (interquartile distance over the
median) and a verdict from the bounds in ``BENCHMARK.json``:

* ``unresolved`` - the spread is wider than the bound, so the runs cannot
  tell a regression from noise;
* ``worse`` / ``better`` - B's median moved past the bound;
* ``same`` - it did not.

Exits non-zero on any ``worse`` or when B failed a larger share of its steps.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_runs(path: str) -> dict[str, list[dict]]:
    """Timed-pass records of one file, grouped by workload."""
    runs: dict[str, list[dict]] = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            record = json.loads(line)
            if record["stamp"]["trace"] == 0:
                runs.setdefault(record["stamp"]["workload"], []).append(record)
    return runs


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (the whole range
    when there are too few runs for quartiles)."""
    median = statistics.median(values)
    if len(values) < 4:
        return (max(values) - min(values)) / median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def verdict(a: list[float], b: list[float], better: str, bound: float) -> dict:
    base, other = statistics.median(a), statistics.median(b)
    worse_by = (other - base) / base if better == "lower" else (base - other) / base
    noise = max(spread(a), spread(b))
    if noise > bound:
        word = "unresolved"
    elif worse_by > bound:
        word = "worse"
    elif worse_by < -bound:
        word = "better"
    else:
        word = "same"
    return {"base": base, "other": other, "ratio": other / base,
            "spread": noise, "verdict": word}


def failed_share(runs: list[dict]) -> float:
    return sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(BENCHMARK_JSON) as f:
        contract = json.load(f)
    a_runs, b_runs = load_runs(argv[0]), load_runs(argv[1])
    status = 0
    print(f"{'workload':26s} {'metric':18s} {'A median':>12s} {'B median':>12s} "
          f"{'B/A':>7s} {'base (A)':>16s} {'spread':>7s} {'bound':>6s}  verdict")
    for wl in (w["name"] for w in contract["workloads"]):
        if wl not in a_runs or wl not in b_runs:
            print(f"{wl:26s} missing from {'A' if wl not in a_runs else 'B'}")
            status = 1
            continue
        for metric in contract["end_to_end"]:
            name = metric["name"]
            row = verdict(
                [r["metrics"][name]["value"] for r in a_runs[wl]],
                [r["metrics"][name]["value"] for r in b_runs[wl]],
                metric["better"], metric["bound"],
            )
            base = f"{row['base']:.5g} {metric['unit']}"
            print(f"{wl:26s} {name:18s} {row['base']:12.5g} {row['other']:12.5g} "
                  f"{row['ratio']:7.3f} {base:>16s} {row['spread']:7.3f} "
                  f"{metric['bound']:6.2f}  {row['verdict']}")
            status |= row["verdict"] == "worse"
        fa, fb = failed_share(a_runs[wl]), failed_share(b_runs[wl])
        print(f"{wl:26s} {'failed share':18s} {fa:12.5g} {fb:12.5g}"
              f"  (n = {len(a_runs[wl])} vs {len(b_runs[wl])} runs)")
        status |= fb > fa
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
