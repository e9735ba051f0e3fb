#!/usr/bin/env python3
"""Cases for the perf gate, scripts/check_perf.py, against BENCH_PERF.json.

    python3 tests/check_perf_test.py <case>

Each case builds a bench_selfperf run JSON from the committed baseline
itself, doctors one workload, runs the gate and checks its exit status, and
that every failure it prints names that workload. Every case runs on the
8-node row `paper` and on the weak-scaling row `jacobi@1024`, so the one
baseline is shown to gate both kinds of row. Exits 0 when the case holds.
"""
import copy
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GATE = os.path.join(ROOT, "scripts", "check_perf.py")
BASELINE = os.path.join(ROOT, "BENCH_PERF.json")
ROWS = ("paper", "jacobi@1024")
TOLERANCE = 0.20


def load_baseline():
    with open(BASELINE) as f:
        return json.load(f)


def run_from(base):
    """A run that reproduces every baseline row exactly."""
    return {"schema": "fgdsm-selfperf-v1", "host": base["host"],
            "config": base["config"],
            "workloads": copy.deepcopy(base["baseline"])}


def gate(run, base, *flags, env_extra=None):
    """Runs check_perf.py on `run` against `base` (the committed file itself
    unless doctored); returns (exit status, output)."""
    env = {k: v for k, v in os.environ.items() if k != "FGDSM_NOISY_RUNNER"}
    env.update(env_extra or {})
    with tempfile.TemporaryDirectory() as d:
        run_path = os.path.join(d, "run.json")
        with open(run_path, "w") as f:
            json.dump(run, f)
        base_path = BASELINE
        if base != load_baseline():
            base_path = os.path.join(d, "baseline.json")
            with open(base_path, "w") as f:
                json.dump(base, f)
        p = subprocess.run(
            [sys.executable, GATE, run_path, "--baseline", base_path,
             "--tolerance", str(TOLERANCE), *flags],
            capture_output=True, text=True, env=env)
    return p.returncode, p.stdout + p.stderr


def alloc_cap(row):
    return row["allocs_per_event"] * (1.0 + TOLERANCE) + 0.01


def throughput_floor(row):
    return row["normalized_events_per_mop"] * (1.0 - TOLERANCE)


# Each doctoring function changes workload `name` of (run, base) in place
# and returns the text the gate's failure for it must contain.
def events_changed(run, base, name):
    run["workloads"][name]["events"] += 1
    return "events count changed"


def windows_changed(run, base, name):
    run["workloads"][name]["windows"] -= 1
    return "windows count changed"


def allocs_above_cap(run, base, name):
    run["workloads"][name]["allocs_per_event"] = (
        alloc_cap(base["baseline"][name]) * 1.001)
    return "allocs/event grew"


def throughput_below_floor(run, base, name):
    run["workloads"][name]["normalized_events_per_mop"] = (
        throughput_floor(base["baseline"][name]) * 0.999)
    return "normalized throughput regressed"


def missing_from_run(run, base, name):
    del run["workloads"][name]
    return "missing from current run"


def missing_from_baseline(run, base, name):
    del base["baseline"][name]
    return "not in the baseline"


def expect(status, out, want_status, name=None, reason=None):
    """Checks the exit status and that every FAIL line names `name`."""
    problems = []
    if status != want_status:
        problems.append(f"exit {status}, expected {want_status}")
    fails = [l for l in out.splitlines() if l.startswith("check_perf: FAIL:")]
    if name is None and fails:
        problems.append("unexpected failures")
    if name is not None:
        if not any(reason in l for l in fails):
            problems.append(f"no failure says {reason!r}")
        if any(not l.startswith(f"check_perf: FAIL: {name}: ") for l in fails):
            problems.append(f"a failure names a workload other than {name}")
    return problems


def case_unchanged():
    base = load_baseline()
    return {"all rows": expect(*gate(run_from(base), base), 0)}


def failing_case(doctor):
    def case():
        results = {}
        for name in ROWS:
            base = load_baseline()
            run = run_from(base)
            reason = doctor(run, base, name)
            results[name] = expect(*gate(run, base), 1, name, reason)
        return results
    return case


def case_allocs_only():
    """--allocs-only (and FGDSM_NOISY_RUNNER=1) pass a run whose only fault
    is throughput, and still fail one whose allocs/event is above its cap."""
    results = {}
    for name in ROWS:
        base = load_baseline()
        run = run_from(base)
        throughput_below_floor(run, base, name)
        problems = expect(*gate(run, base, "--allocs-only"), 0)
        problems += expect(*gate(run, base,
                                 env_extra={"FGDSM_NOISY_RUNNER": "1"}), 0)
        run = run_from(base)
        reason = allocs_above_cap(run, base, name)
        problems += expect(*gate(run, base, "--allocs-only"), 1, name, reason)
        results[name] = problems
    return results


CASES = {
    "UnchangedRunPasses": case_unchanged,
    "EventsChangedFails": failing_case(events_changed),
    "WindowsChangedFails": failing_case(windows_changed),
    "AllocsAboveCapFails": failing_case(allocs_above_cap),
    "ThroughputBelowFloorFails": failing_case(throughput_below_floor),
    "RowMissingFromRunFails": failing_case(missing_from_run),
    "RowMissingFromBaselineFails": failing_case(missing_from_baseline),
    "AllocsOnlyPassesThroughputOnlyFailure": case_allocs_only,
}


def main():
    if len(sys.argv) != 2 or sys.argv[1] not in CASES:
        print(f"usage: {sys.argv[0]} <{'|'.join(CASES)}>", file=sys.stderr)
        return 2
    failed = False
    for row, problems in CASES[sys.argv[1]]().items():
        print(f"{sys.argv[1]} [{row}]: " + ("; ".join(problems) or "ok"))
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
