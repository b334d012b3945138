#!/usr/bin/env python3
"""Run every workload over ten seeds and summarise the results.

    python3 bench/baseline.py --out bench/baseline/<name>.json

For each workload in ``BENCHMARK.json``: untraced runs of ``run_seconds``,
one per seed, reporting each end-to-end metric's median, quartiles
(``statistics.quantiles(values, n=4)``) and the distance between the
quartiles as a share of the median; then two traced runs at the first
seed, whose count metrics (calls, points, function evaluations, blocks,
batch rows, computed bytes and the ratios made of them) must be
identical. Each traced run also checks on its own that tracing changes no
output. Every run's result line and record are kept. Exits non-zero on a
failed run, a wrong output or a count that differs.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = tuple(range(1, 11))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.perf_counter()
    cp = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    wall = time.perf_counter() - t0
    lines = cp.stdout.splitlines()
    if cp.returncode != 0 or len(lines) < 2:
        return {"seed": seed, "exit": cp.returncode, "stderr": cp.stderr[-4000:],
                "wall_s": wall}
    record = json.loads(lines[-2][len("record: "):])
    return {"seed": seed, "exit": 0, "wall_s": wall,
            "result": json.loads(lines[-1]), **record}


def run_ok(run: dict) -> bool:
    return run["exit"] == 0 and run["result"]["correct"]


def summarise(runs: list[dict]) -> dict:
    values: dict[str, list[float]] = {}
    for run in runs:
        for name, m in run.get("result", {}).get("metrics", {}).items():
            values.setdefault(name, []).append(m["value"])
    out = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        entry = {"median": med, "runs": len(vals)}
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            entry.update(q1=q1, q3=q3, iqr_share=(q3 - q1) / med)
        out[name] = entry
    return out


def differing_counts(first: dict, second: dict) -> list[str]:
    a, b = first["result"]["metrics"], second["result"]["metrics"]
    return [k for k in a if tracer.is_count(k) and a[k]["value"] != b[k]["value"]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    doc = {"seeds": list(SEEDS), "seconds": seconds, "workloads": {}}
    ok = True
    for name in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            runs.append(one_run(name, seed, seconds, 0))
            r = runs[-1]
            ok = ok and run_ok(r)
            print(name, seed, "exit", r["exit"],
                  json.dumps({k: round(v["value"], 5) for k, v in
                              r.get("result", {}).get("metrics", {}).items()}),
                  flush=True)
        entry = {"untraced": {"summary": summarise(runs), "runs": runs}}
        for metric, s in entry["untraced"]["summary"].items():
            print(f"  {metric:18s} median {s['median']:.5g} "
                  f"iqr_share {s.get('iqr_share', float('nan')):.4f}")
        traced = [one_run(name, SEEDS[0], seconds, 1) for _ in range(2)]
        if all(run_ok(t) for t in traced):
            diff = differing_counts(*traced)
            overhead = [t["result"]["metrics"]["trace.overhead_share"]["value"]
                        for t in traced]
            print(f"  traced: counts {'DIFFER: ' + ', '.join(diff) if diff else 'identical'}"
                  f"; tracing overhead {overhead[0]:+.1%} and {overhead[1]:+.1%}",
                  flush=True)
            ok = ok and not diff
        else:
            print("  traced: run failed or output wrong", flush=True)
            ok = False
        entry["traced"] = traced[0]
        doc["workloads"][name] = entry
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
