#!/usr/bin/env python3
"""Perf-regression gate for the simulator self-benchmark.

Usage:
  scripts/check_perf.py CURRENT.json [--baseline BENCH_PERF.json]
                        [--tolerance 0.20] [--update] [--allocs-only]

CURRENT.json is a fresh `bench_selfperf --json=...` run (schema
fgdsm-selfperf-v1), gated against the committed baseline at the repo root
(BENCH_PERF.json, schema fgdsm-perf-baseline-v1), which records the
reference numbers of every workload: the five 8-node rows and the
jacobi@N/spmv@N weak-scaling rows.

Every workload of CURRENT.json must be in the baseline and vice versa: a
workload on one side only fails the gate, naming it.

What is compared, per workload:
  - normalized_events_per_mop: events/sec divided by the host's calibrated
    integer-op throughput (splitmix64 Mops/s). Normalization makes the gate
    meaningful across hosts of different speeds; it is NOT perfect (cache
    sizes and memory latency differ too), which is why the band is wide.
    Fails if current < baseline * (1 - tolerance).
  - allocs_per_event: heap allocations per simulated event, a host-
    independent structural metric. Fails if current exceeds the baseline by
    more than the tolerance (plus a small absolute slack for tiny counts).
  - events and windows: the simulated-event count and the engine's window
    count are deterministic for a given workload build, so a mismatch means
    the *simulation* (or its window sequence) changed, not the machine —
    the normalized comparison would be meaningless. Intentional behavior
    changes must refresh the baseline (--update) in the same commit.

--allocs-only demotes the throughput comparison to an informational trend
(printed, never failing) while allocs/event and the event count stay hard
gates — for runners whose scheduling variance trips even the normalized
band. The JSON artifact still carries the throughput numbers. Setting
FGDSM_NOISY_RUNNER=1 in the environment implies --allocs-only, so a noisy
CI runner can be marked once in the workflow instead of threading the flag
through every invocation.

--update rewrites the baseline's gate section from CURRENT.json (preserving
the history block if present). Exits 0 on pass, 1 on regression/mismatch.
"""
import argparse
import json
import os
import sys


RUN_SCHEMA = "fgdsm-selfperf-v1"
BASELINE_SCHEMA = "fgdsm-perf-baseline-v1"


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"check_perf: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("current")
    ap.add_argument("--baseline", default="BENCH_PERF.json")
    ap.add_argument("--tolerance", type=float, default=0.20)
    ap.add_argument("--update", action="store_true",
                    help="rewrite the baseline gate section from CURRENT")
    ap.add_argument("--allocs-only", action="store_true",
                    help="gate allocs/event only; report throughput as a "
                         "non-failing trend")
    args = ap.parse_args()
    if os.environ.get("FGDSM_NOISY_RUNNER") == "1" and not args.allocs_only:
        print("check_perf: FGDSM_NOISY_RUNNER=1 — gating allocs/event only, "
              "throughput reported as a trend")
        args.allocs_only = True

    cur = load(args.current)
    if cur.get("schema") != RUN_SCHEMA:
        print(f"check_perf: {args.current}: unexpected schema "
              f"{cur.get('schema')!r} (expected {RUN_SCHEMA!r})",
              file=sys.stderr)
        return 1

    if args.update:
        try:
            base = load(args.baseline)
        except SystemExit:
            base = {}  # first --update may create the baseline from scratch
        base["schema"] = BASELINE_SCHEMA
        base["host"] = cur["host"]
        base["config"] = cur["config"]
        base["baseline"] = cur["workloads"]
        with open(args.baseline, "w") as f:
            json.dump(base, f, indent=2, sort_keys=False)
            f.write("\n")
        print(f"check_perf: baseline {args.baseline} updated from "
              f"{args.current}")
        return 0

    base = load(args.baseline)
    if base.get("schema") != BASELINE_SCHEMA:
        print(f"check_perf: {args.baseline}: unexpected schema "
              f"{base.get('schema')!r} (expected {BASELINE_SCHEMA!r})",
              file=sys.stderr)
        return 1

    tol = args.tolerance
    failures = []
    for name, b in base["baseline"].items():
        c = cur["workloads"].get(name)
        if c is None:
            failures.append(f"{name}: missing from current run")
            continue
        changed = [k for k in ("events", "windows")
                   if c.get(k) != b.get(k)]
        if changed:
            failures.extend(
                f"{name}: {k} count changed {b.get(k)} -> {c.get(k)}; the "
                f"workload itself changed — refresh the baseline with "
                f"--update if intentional" for k in changed)
            continue
        floor = b["normalized_events_per_mop"] * (1.0 - tol)
        ratio = c["normalized_events_per_mop"] / b["normalized_events_per_mop"]
        status = "ok"
        if c["normalized_events_per_mop"] < floor:
            if args.allocs_only:
                print(f"check_perf: {name}: throughput {ratio:.2f}x of "
                      f"baseline (below {1.0 - tol:.2f}x floor; trend only, "
                      f"not gated)")
            else:
                failures.append(
                    f"{name}: normalized throughput regressed to {ratio:.2f}x "
                    f"of baseline (floor {1.0 - tol:.2f}x): "
                    f"{c['normalized_events_per_mop']:.6f} ev/Mop vs baseline "
                    f"{b['normalized_events_per_mop']:.6f}")
                status = "FAIL"
        alloc_cap = b["allocs_per_event"] * (1.0 + tol) + 0.01
        if c["allocs_per_event"] > alloc_cap:
            failures.append(
                f"{name}: allocs/event grew {b['allocs_per_event']:.4g} -> "
                f"{c['allocs_per_event']:.4g} (cap {alloc_cap:.4g})")
            status = "FAIL"
        print(f"check_perf: {name}: {ratio:.2f}x normalized throughput, "
              f"{c['allocs_per_event']:.4g} allocs/event "
              f"(baseline {b['allocs_per_event']:.4g}, cap {alloc_cap:.4g}) "
              f"[{status}]")
    # A workload the baseline lacks would otherwise pass ungated until the
    # baseline is re-recorded.
    for name in cur["workloads"]:
        if name not in base["baseline"]:
            failures.append(
                f"{name}: not in the baseline {args.baseline}, so nothing "
                f"gates it; record it with --update")

    if failures:
        for f in failures:
            print(f"check_perf: FAIL: {f}", file=sys.stderr)
        return 1
    print(f"check_perf: all workloads within {tol:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
