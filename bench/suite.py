#!/usr/bin/env python3
"""Run every workload over several seeds, each run in its own fresh process.

    python3 bench/suite.py [--seeds 1-10] [--trace] [--out FILE]

Every run measures ``run_seconds`` from ``BENCHMARK.json``. Runs go seed
by seed, and within a seed one workload after another, so ``peak_rss_mb``
and ``setup_s`` belong to one workload and slow phases of the machine hit
every workload alike. For each workload and end-to-end metric it prints the
median, the quartiles (``statistics.quantiles(n=4)``) and their distance as
a share of the median, next to the bound fixed in ``BENCHMARK.json``; it
exits 1 if any spread exceeds its bound or any op failed. ``error_rate`` is
failed over attempted ops, summed over all runs. With ``--trace`` it adds
one traced run per workload (first seed) and prints its per-layer table.
``--out`` writes everything as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import environment

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    lo, hi = text.split("-")
    return list(range(int(lo), int(hi) + 1))


def run_one(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, list[str]]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def summarize(runs: list[dict]) -> dict:
    out = {}
    for metric in SPEC["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        out[metric["name"]] = {
            "unit": metric["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median,
            "bound": metric["bound"],
            "n": len(values),
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    seconds = SPEC["run_seconds"]
    workloads = [w["name"] for w in SPEC["workloads"]]

    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    notes: dict[str, list[list[str]]] = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            result, lines = run_one(w, seed, seconds, 0)
            runs[w].append({"seed": seed, **result})
            notes[w].append([ln for ln in lines if ln.startswith(("input", "output", "samples", "reps"))])
            print(f"{w} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)

    report = {"env": environment(), "seconds": seconds, "seeds": seeds, "workloads": {}}
    ok = True
    for w in workloads:
        summary = summarize(runs[w])
        attempted = sum(r["attempted"] for r in runs[w])
        failed = sum(r["failed"] for r in runs[w])
        print(f"\n== {w}: {len(runs[w])} runs, error_rate {failed / attempted:.6g} ratio "
              f"({failed}/{attempted} ops)")
        print("   " + next(ln for ln in notes[w][0] if ln.startswith("samples")))
        for name, s in summary.items():
            flag = "ok" if s["spread"] <= s["bound"] / 3 else "WIDE" if s["spread"] > s["bound"] else "near"
            ok &= s["spread"] <= s["bound"]
            print(f"   {name:12} median {s['median']:>12.6g} {s['unit']:5} q1 {s['q1']:>12.6g} "
                  f"q3 {s['q3']:>12.6g} spread {s['spread']:7.2%} bound {s['bound']:.0%} {flag}")
        entry = {"summary": summary, "error_rate": failed / attempted, "attempted": attempted,
                 "failed": failed, "runs": runs[w], "notes": notes[w]}
        if args.trace:
            traced, lines = run_one(w, seeds[0], seconds, 1)
            entry["traced"] = {"seed": seeds[0], **traced, "table": lines}
            print("\n".join("   " + ln for ln in lines if not ln.startswith(("env", "input"))))
        report["workloads"][w] = entry
        ok &= failed == 0

    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
