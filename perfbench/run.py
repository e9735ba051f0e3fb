#!/usr/bin/env python3
"""Build and run the fgdsm host-cost benchmark for one workload.

    python3 perfbench/run.py --workload <paper8|scale256|chaos8_st4> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds
perfbench/ (which compiles the simulator from src/) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the variable is
unset; later calls only check the build. The benchmark binary then measures
the workload in its own process and writes its reports and traces to
<build dir>/results.

Everything the binary prints goes to stdout. Its last line is the result
object {"correct", "attempted", "failed", "metrics"}; it is printed only
after checking that the metric names and units are exactly those
BENCHMARK.json lists for the mode (end_to_end with --trace 0, per_layer
with --trace 1). The exit status is the binary's: 0 when every simulated
result checked out, 1 when one did not or the run could not be made.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper8", "scale256", "chaos8_st4")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "fgdsm_perfbench",
         "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "fgdsm_perfbench")


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys are %s" % sorted(result))
    got = {(name, m["unit"]) for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        raise ValueError("metrics differ from BENCHMARK.json: missing %s, "
                         "extra %s" % (sorted(want - got), sorted(got - want)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("the simulator sources (src/) are not next to perfbench/")
        return 1
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(os.path.join(ROOT, target)),
                             "perfbench")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log("build failed: %s" % e)
        return 1
    out_dir = os.path.join(build_dir, "results")
    os.makedirs(out_dir, exist_ok=True)

    cmd = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
           "--out-dir=" + out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write("".join(l + "\n" for l in lines[:-1]))
    try:
        check_result(lines[-1], args.trace)
    except (ValueError, KeyError, TypeError) as e:
        log("no valid result line (exit %d): %s" % (proc.returncode, e))
        return 1
    print(lines[-1], flush=True)
    return 0 if proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
