#!/usr/bin/env python3
"""regsync benchmark: one workload, one process.

    python3 bench/run.py --workload {mc,sim,replay} --seed N --seconds S --trace {0,1}

Run from anywhere; the program is imported from ``src/`` next to this
directory, and generated inputs and span dumps go to ``.bench_build/``.
Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, measured with tracing off and
scaled to the nominal speed of ``reference.probe`` (see ``reference.py``).
``--trace 1`` alternates untraced and traced reps and reports the per-layer
metrics of the traced rep with the median root span, plus the tracing
overhead (the median over slots of the traced rep's wall time minus the
untraced rep's of the same slot).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import reference
import tracer as tr
from workloads import WORKLOADS, load_regsync

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build" / "regsync"
SETUPS_PER_SLOT = 5
# Nominal seconds of one slot (its set-ups, probes and reps) on the 2-vCPU Xeon
# VM of the recorded baseline, untraced and traced. A run makes
# round(--seconds / slot) slots, so the number of samples depends on
# --seconds alone and not on how fast the program runs.
SLOT_S = {"mc": 2.0, "sim": 2.6, "replay": 4.0}
TRACED_SLOT_S = {"mc": 4.5, "sim": 5.5, "replay": 8.0}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "op/s",
    "op_p50_us": "us",
    "op_p99_us": "us",
    "peak_rss_mb": "MiB",
}

SYNC_REASONS = ("AssetNotFound", "InvalidTransition", "Locked")


def _per_layer_units() -> dict[str, str]:
    units = {"trace.root_s": "s", "trace.bench_self_s": "s", "trace.overhead_s": "s",
             "trace.spans": "count"}
    for name, _ in tr.TIMED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name, _ in tr.COUNTED:
        units[f"{name}.calls"] = "count"
    units.update({
        "modelcheck.states_explored": "count",
        "modelcheck.syncs_checked": "count",
        "modelcheck.violations": "count",
        "modelcheck.revisit_ratio": "ratio",
        "engine.sync.ok_ratio": "ratio",
        **{f"engine.sync.fail.{r}": "count" for r in SYNC_REASONS},
        "engine.canonical_dumps.bytes": "bytes",
        "priority.keys_per_candidate": "ratio",
        "liveness.epochs": "count",
        "liveness.processed_ratio": "ratio",
        "liveness.byz_lock_acquires": "count",
        "liveness.lock_expiries": "count",
    })
    return units


PER_LAYER = _per_layer_units()


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def nearest_rank(sorted_values, q: float):
    """The q-quantile by nearest rank, and how many samples lie beyond it."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def count_failures(reps) -> tuple[int, int]:
    """Attempted and failed ops; a rep whose output digest differs from the
    first rep's counts as wholly failed."""
    attempted = sum(r.ops for r in reps)
    failed = sum(r.ops if r.digest != reps[0].digest else r.failed for r in reps)
    return attempted, failed


def normalised(rep) -> list[float]:
    """A rep's op latencies in ns at the probe's nominal speed: op j is
    scaled by the mean of the probes just before and just after its chunk of
    ``ops_per_probe`` ops."""
    p, k = rep.probes_ns, rep.ops_per_probe
    return [t * reference.scale((p[j // k] + p[j // k + 1]) / 2) for j, t in enumerate(rep.lat_ns)]


def end_to_end(reps, setups, peak_rss_mb) -> tuple[dict, list[str]]:
    """The end-to-end metrics of one untraced run.

    Every rep does the same work, op for op, and a run makes a fixed number
    of them. Other tenants of a shared machine slow it by up to ~2x in
    phases from under a second to minutes, so every op is first scaled to
    the probe's nominal speed (``normalised``; ``setups`` are scaled
    already). A rep's time is the sum of its scaled ops. ``wall_s`` is the
    median rep, ``ops_per_s`` the ops of a rep over it, ``op_p50_us`` and
    ``op_p99_us`` percentiles of the scaled ops of all reps together, and
    ``setup_s`` the median set-up.
    """
    walls, p50s, p99s, pooled = [], [], [], []
    for rep in reps:
        lat = sorted(normalised(rep))
        pooled.extend(lat)
        walls.append(sum(lat))
        p50s.append(nearest_rank(lat, 0.50)[0])
        p99s.append(nearest_rank(lat, 0.99)[0])
    pooled.sort()
    p99, beyond = nearest_rank(pooled, 0.99)
    wall = statistics.median(walls)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": wall / 1e9,
        "ops_per_s": reps[0].ops / (wall / 1e9),
        "op_p50_us": nearest_rank(pooled, 0.50)[0] / 1e3,
        "op_p99_us": p99 / 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    probes = sorted(p for r in reps for p in r.probes_ns)
    notes = [
        f"samples: medians of {len(setups)} set-ups and {len(reps)} reps; percentiles over "
        f"{len(pooled)} ops ({len(reps)} reps x {len(reps[0].lat_ns)}), {beyond} beyond p99",
        f"probe: {len(probes)} probes, median {statistics.median(probes) / 1e6:.3f} ms, "
        f"range {probes[0] / 1e6:.3f}-{probes[-1] / 1e6:.3f} ms, nominal "
        f"{reference.NOMINAL_NS / 1e6:.3f} ms",
        "reps: wall_s " + " ".join(f"{w / 1e9:.4f}" for w in walls),
        "reps: raw wall_s " + " ".join(f"{r.wall_ns / 1e9:.4f}" for r in reps),
        "reps: p50_us " + " ".join(f"{v / 1e3:.2f}" for v in p50s),
        "reps: p99_us " + " ".join(f"{v / 1e3:.1f}" for v in p99s),
        "reps: setup_s " + " ".join(f"{t:.4f}" for t in setups),
    ]
    return values, notes


def per_layer(workload, reps, traced) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced rep with the median root span."""
    # Paired by slot: the machine's speed drifts less within a slot than
    # across the run, and the traced reps are not scaled by the probe.
    overhead_ns = statistics.median(t[1].wall_ns - r.wall_ns for r, t in zip(reps, traced))
    traced = sorted(traced, key=lambda t: t[0])
    root_ns, rep, tracer, stats = traced[(len(traced) - 1) // 2]
    self_ns, calls = tr.self_times(tracer.spans())
    if sum(self_ns.values()) != root_ns:
        raise AssertionError(f"self times sum to {sum(self_ns.values())} ns, root is {root_ns} ns")
    d = rep.detail
    ok_syncs = stats["engine.sync.ok"]
    m = {
        "trace.root_s": root_ns / 1e9,
        "trace.bench_self_s": self_ns.get(tr.ROOT, 0) / 1e9,
        "trace.overhead_s": overhead_ns / 1e9,
        "trace.spans": sum(calls.values()),
    }
    for name, _ in tr.TIMED:
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.self_s"] = self_ns.get(name, 0) / 1e9
    for name, _ in tr.COUNTED:
        m[f"{name}.calls"] = tracer.counts[name]
    sync_calls = m["engine.sync.calls"]
    revisited = 0.0
    if workload.name == "mc" and ok_syncs:
        revisited = 1 - (d["states_explored"] - d["initial_states"]) / ok_syncs
    m.update({
        "modelcheck.states_explored": d.get("states_explored", 0),
        "modelcheck.syncs_checked": d.get("syncs_checked", 0),
        "modelcheck.violations": d.get("violations", 0),
        "modelcheck.revisit_ratio": revisited,
        "engine.sync.ok_ratio": ok_syncs / sync_calls if sync_calls else 0.0,
        **{f"engine.sync.fail.{r}": stats[f"engine.sync.fail.{r}"] for r in SYNC_REASONS},
        "engine.canonical_dumps.bytes": stats["engine.canonical_dumps.bytes"],
        "priority.keys_per_candidate": (
            tracer.counts["priority.priority_key"] / stats["priority.candidates"]
            if stats["priority.candidates"] else 0.0
        ),
        "liveness.epochs": d.get("epochs", 0),
        "liveness.processed_ratio": d["processed"] / d["epochs"] if d.get("epochs") else 0.0,
        "liveness.byz_lock_acquires": d.get("byz_lock_acquires", 0),
        "liveness.lock_expiries": d.get("lock_expiries", 0),
    })
    assert set(m) == set(PER_LAYER), set(m) ^ set(PER_LAYER)
    span_file = WORKDIR / f"trace-{workload.name}.tsv"
    tracer.write(span_file)

    lines = [
        f"traced reps: {len(traced)}, untraced reps: {len(reps)}; "
        f"spans written to {span_file.relative_to(ROOT)}"
    ]
    lines.append(f"{'layer':32} {'calls':>10} {'self_s':>10} {'share':>7}")
    for name in sorted(self_ns, key=self_ns.get, reverse=True):
        label = "bench.rep self (no layer)" if name == tr.ROOT else name
        lines.append(
            f"{label:32} {calls[name]:>10} {self_ns[name] / 1e9:>10.4f} "
            f"{self_ns[name] / root_ns:>7.1%}"
        )
    lines.append(f"{'root (sum of self times)':32} {'':>10} {root_ns / 1e9:>10.4f}")
    return m, lines


def run(args) -> int:
    if not (SRC / "regsync" / "__init__.py").is_file():
        print(f"error: no regsync package under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    summary = workload.prepare(args.seed, WORKDIR)
    print(f"env: {json.dumps(environment(), sort_keys=True)}")
    print(f"input: {args.workload} seed {args.seed}: {json.dumps(summary, sort_keys=True)}")

    slot_s = TRACED_SLOT_S if args.trace else SLOT_S
    slots = max(3, round(args.seconds / slot_s[workload.name]))
    # The traced run reports raw per-layer times, so its reps are not probed.
    probe = None if args.trace else reference.probe
    setups, reps, traced = [], [], []
    for _ in range(slots):
        # Each set-up and rep starts from a collected heap, as in a fresh
        # process, rather than paying for the garbage of the one before.
        for _ in range(SETUPS_PER_SLOT):
            gc.collect()
            before = reference.probe()
            t0 = time.perf_counter()
            mods = load_regsync(SRC)
            ctx = workload.load(mods)
            t = time.perf_counter() - t0
            setups.append(t * reference.scale((before + reference.probe()) / 2))
        gc.collect()
        reps.append(workload.rep(ctx, probe=probe))
        gc.collect()
        if args.trace:
            tracer, stats = tr.Tracer(), Counter()
            with tr.install(mods, tracer, stats):
                with tracer.span(tr.ROOT):
                    rep = workload.rep(workload.load(mods))
            traced.append((tracer.end[0] - tracer.start[0], rep, tracer, stats))
        if len(reps) == 1:
            # The workload's own peak, before the samples of later reps pile up.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if args.trace:
        metrics, lines = per_layer(workload, reps, traced)
        all_reps = reps + [t[1] for t in traced]
        units = PER_LAYER
    else:
        metrics, lines = end_to_end(reps, setups, peak_rss_mb)
        all_reps = reps
        units = END_TO_END

    attempted, failed = count_failures(all_reps)
    first = all_reps[0]
    print(f"output: {first.digest}")
    if "expected" in first.detail:
        print(f"expected: {first.detail['expected']}")
    for line in lines:
        print(line)
    for name, value in metrics.items():
        print(f"{name:36} {value:>14.6g} {units[name]}")
    print(f"{'error_rate':36} {failed / attempted:>14.6g} ratio ({failed}/{attempted} ops)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
