#!/usr/bin/env bash
# Local CI entry point — the same jobs the GitHub Actions workflow runs:
#   scripts/ci.sh            tier-1 verify: configure, build, ctest, then a
#                            bench smoke run with --json + --check-coherence
#                            whose output is schema-validated
#   scripts/ci.sh sanitize   ASan+UBSan build + ctest (the batch runner
#                            introduces host threads; sanitizers gate races
#                            and UB in the concurrent path). Task fibers
#                            announce their stack switches to ASan, so
#                            use-after-return detection is on everywhere
#                            but the rollback tests
#   scripts/ci.sh chaos      fault-injection gauntlet: the full app suite
#                            under --faults at two seeds with the coherence
#                            checker on; results must be bit-identical to
#                            the fault-free baseline, and a 100%-drop run
#                            must terminate via the stall watchdog (exit 86)
#   scripts/ci.sh crash      crash gauntlet: fail-stop crashes with
#                            checkpoint/rollback recovery across bench_paper
#                            and bench_irreg at 8 and 256 nodes, two seeds
#                            each (plus one 256-node binomial-collectives
#                            leg); recovered results must be bit-identical
#                            to the fault-free baseline and byte-identical
#                            across --sim-threads={1,4} and --jobs={1,4};
#                            a crash with --checkpoint-every=0 must exit 87
#                            naming the crashed node
#   scripts/ci.sh perf       perf-regression gate: bench_selfperf vs the
#                            committed BENCH_PERF.json baseline, normalized
#                            by host calibration, 20% tolerance band
#                            (PERF_ALLOCS_ONLY=1 gates allocs/event only and
#                            demotes throughput to an artifact trend — for
#                            runners whose variance trips the 20% band)
#   scripts/ci.sh scale      weak-scaling gate: a 64-node jacobi+spmv smoke
#                            run (hierarchical collectives, schema-checked
#                            JSON), then bench_scale's host-side numbers vs
#                            the committed BENCH_SCALE.json baseline through
#                            the same check_perf.py band (PERF_ALLOCS_ONLY=1
#                            applies here too)
#   scripts/ci.sh simthreads bit-identity matrix for the windowed PDES mode:
#                            determinism suite + PDES unit tests, then
#                            bench_table3 fault-free and under chaos at
#                            --sim-threads={1,4}, plus a 256-node chaos +
#                            crash leg (lazy per-link state) — JSON results
#                            must be byte-identical across thread counts
#   scripts/ci.sh tsan       TSan build; the fiber suites (tasks,
#                            determinism, PDES partitions, scale, crash
#                            recovery) run on 4 real engine workers. Task
#                            fibers announce every stack switch to TSan
#   scripts/ci.sh fixedpoint the simulated-behaviour fixed point: regenerate
#                            results/bench_paper.txt, bench_fig4.txt and
#                            bench_irreg.txt at --scale=0.5 with the default
#                            build type; each must match the committed copy
#                            byte for byte
#   scripts/ci.sh perfbench  the repository benchmark (perfbench/) builds
#                            and runs: its two self-checks, then every
#                            workload once in both trace modes, each of
#                            which must exit 0
# Extra cmake args may follow the job name.
set -euo pipefail
cd "$(dirname "$0")/.."

job="${1:-verify}"
[[ $# -gt 0 ]] && shift

jobs="$(nproc)"

case "$job" in
  verify)
    cmake -B build -S . "$@"
    cmake --build build -j "$jobs"
    ctest --test-dir build --output-on-failure -j "$jobs"
    # Observability smoke: one real bench run exercising the coherence
    # checker and the machine-readable results path end to end.
    mkdir -p results
    build/bench/bench_table3 --app=jacobi --scale=0.05 --jobs="$jobs" \
      --check-coherence --json=results/smoke_table3.json
    # Irregular path smoke: the inspector–executor schedule for the sparse
    # matvec, same coherence + schema gates.
    build/bench/bench_irreg --pattern=band --scale=0.05 --jobs="$jobs" \
      --check-coherence --json=results/smoke_irreg.json
    python3 scripts/check_results_json.py results/smoke_table3.json \
      results/smoke_irreg.json
    ;;
  sanitize)
    cmake -B build-asan -S . \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all" \
      -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined" \
      "$@"
    cmake --build build-asan -j "$jobs"
    # Rollback tests run without use-after-return detection: it moves frames
    # with addressable locals to ASan's heap-side fake stack, outside the
    # fiber-stack bytes a checkpoint copies, so a restored fiber would point
    # at recycled fake frames. Everything else runs with it on.
    rollback='^(CrashRecovery|TaskRollback)\.'
    ASAN_OPTIONS="detect_stack_use_after_return=1" \
      ctest --test-dir build-asan --output-on-failure -j "$jobs" -E "$rollback"
    ASAN_OPTIONS="detect_stack_use_after_return=0" \
      ctest --test-dir build-asan --output-on-failure -j "$jobs" -R "$rollback"
    ;;
  chaos)
    cmake -B build -S . "$@"
    cmake --build build -j "$jobs" --target bench_table3 bench_irreg
    mkdir -p results
    # Fault-free baseline, then the same sweep under chaos at two seeds.
    build/bench/bench_table3 --scale=0.05 --jobs="$jobs" --check-coherence \
      --json=results/chaos_baseline.json
    for seed in 1 2; do
      build/bench/bench_table3 --scale=0.05 --jobs="$jobs" --check-coherence \
        --faults="drop=0.01,dup=0.002,delay=0.05,reorder=0.01,seed=$seed" \
        --json="results/chaos_seed$seed.json"
    done
    python3 scripts/check_results_json.py results/chaos_baseline.json \
      results/chaos_seed1.json results/chaos_seed2.json
    python3 scripts/check_chaos.py results/chaos_baseline.json \
      results/chaos_seed1.json results/chaos_seed2.json
    # Irregular gauntlet: the inspector's needs exchange and the scheduled
    # gathers must survive the same lossy wire — results bit-identical to
    # the fault-free baseline at both seeds.
    build/bench/bench_irreg --pattern=band --scale=0.05 --jobs="$jobs" \
      --check-coherence --json=results/chaos_irreg_baseline.json
    for seed in 1 2; do
      build/bench/bench_irreg --pattern=band --scale=0.05 --jobs="$jobs" \
        --check-coherence --faults="drop=0.02,seed=$seed" \
        --json="results/chaos_irreg_seed$seed.json"
    done
    python3 scripts/check_results_json.py results/chaos_irreg_baseline.json \
      results/chaos_irreg_seed1.json results/chaos_irreg_seed2.json
    python3 scripts/check_chaos.py results/chaos_irreg_baseline.json \
      results/chaos_irreg_seed1.json results/chaos_irreg_seed2.json
    # Liveness failure path: a fully dead network must terminate with the
    # documented stall exit code and name the dead link — never hang.
    rc=0
    build/bench/bench_table3 --app=jacobi --scale=0.05 --check-coherence \
      --faults="drop=1.0,retries=0,seed=1" >/dev/null 2>results/chaos_stall.log \
      || rc=$?
    if [[ "$rc" -ne 86 ]]; then
      echo "chaos: expected stall exit code 86 from dead network, got $rc" >&2
      exit 1
    fi
    grep -q "retry budget exhausted on link" results/chaos_stall.log || {
      echo "chaos: stall diagnostic missing dead-link description:" >&2
      cat results/chaos_stall.log >&2
      exit 1
    }
    echo "chaos: dead-network run correctly exited 86 with link diagnostic"
    ;;
  crash)
    # Crash gauntlet: fail-stop node crashes repaired by checkpoint/rollback
    # recovery. Every faulted run must replay to bit-identical application
    # results (check_chaos.py --crash also rejects vacuous runs where no
    # crash actually fired), and recovery must not perturb the deterministic
    # simulation: the same crash schedule at --sim-threads={1,4} and
    # --jobs={1,4} must produce byte-identical JSON.
    cmake -B build -S . "$@"
    cmake --build build -j "$jobs" --target bench_table3 bench_irreg
    mkdir -p results
    # Full table-3 suite at 8 nodes: fault-free baseline, then probabilistic
    # crashes at two seeds with checkpoints every 4 barriers.
    build/bench/bench_table3 --scale=0.05 --jobs="$jobs" --check-coherence \
      --json=results/crash_baseline.json
    for seed in 1 2; do
      build/bench/bench_table3 --scale=0.05 --jobs="$jobs" --check-coherence \
        --faults="crashp=0.002,seed=$seed" --checkpoint-every=4 \
        --json="results/crash_seed$seed.json"
    done
    python3 scripts/check_results_json.py results/crash_baseline.json \
      results/crash_seed1.json results/crash_seed2.json
    python3 scripts/check_chaos.py --crash results/crash_baseline.json \
      results/crash_seed1.json results/crash_seed2.json
    # 256 nodes: a coordinated rollback restarts every node from the last
    # checkpoint, so recovery correctness must hold at scale too.
    build/bench/bench_table3 --nodes=256 --app=jacobi --scale=0.02 \
      --jobs="$jobs" --check-coherence --json=results/crash_baseline_n256.json
    # One explicit crash lands inside every config's run (shortest is
    # ~31ms simulated); crashp adds seed-varying extras on top.
    for seed in 1 2; do
      build/bench/bench_table3 --nodes=256 --app=jacobi --scale=0.02 \
        --jobs="$jobs" --check-coherence \
        --faults="crash=7@15000000,crashp=0.0002,seed=$seed" \
        --checkpoint-every=4 --json="results/crash_n256_seed$seed.json"
    done
    python3 scripts/check_results_json.py results/crash_baseline_n256.json \
      results/crash_n256_seed1.json results/crash_n256_seed2.json
    python3 scripts/check_chaos.py --crash results/crash_baseline_n256.json \
      results/crash_n256_seed1.json results/crash_n256_seed2.json
    # The same crash under binomial collectives, whose root is node 0's own
    # vertex; under flat it is the coordinator vertex, which takes no part.
    build/bench/bench_table3 --nodes=256 --app=jacobi --scale=0.02 \
      --collectives=binomial --jobs="$jobs" --check-coherence \
      --json=results/crash_baseline_n256_binomial.json
    build/bench/bench_table3 --nodes=256 --app=jacobi --scale=0.02 \
      --collectives=binomial --jobs="$jobs" --check-coherence \
      --faults="crash=7@15000000,crashp=0.0002,seed=1" --checkpoint-every=4 \
      --json=results/crash_n256_binomial_seed1.json
    python3 scripts/check_results_json.py \
      results/crash_baseline_n256_binomial.json \
      results/crash_n256_binomial_seed1.json
    python3 scripts/check_chaos.py --crash \
      results/crash_baseline_n256_binomial.json \
      results/crash_n256_binomial_seed1.json
    # Irregular inspector-executor path: the rebuilt communication schedule
    # after a rollback must gather exactly the same remote rows.
    build/bench/bench_irreg --pattern=band --scale=0.05 --jobs="$jobs" \
      --check-coherence --json=results/crash_irreg_baseline.json
    for seed in 1 2; do
      build/bench/bench_irreg --pattern=band --scale=0.05 --jobs="$jobs" \
        --check-coherence --faults="crashp=0.05,seed=$seed" \
        --checkpoint-every=4 --json="results/crash_irreg_seed$seed.json"
    done
    python3 scripts/check_results_json.py results/crash_irreg_baseline.json \
      results/crash_irreg_seed1.json results/crash_irreg_seed2.json
    python3 scripts/check_chaos.py --crash results/crash_irreg_baseline.json \
      results/crash_irreg_seed1.json results/crash_irreg_seed2.json
    # Determinism matrix: the identical crash schedule replayed under the
    # windowed PDES (--sim-threads) and the batch runner (--jobs) must be
    # byte-identical — crash draws are counter-mode, never wall-clock.
    for st in 1 4; do
      FGDSM_HOST_CORES=4 build/bench/bench_table3 --app=jacobi --scale=0.05 \
        --sim-threads="$st" --check-coherence \
        --faults="crashp=0.002,seed=1" --checkpoint-every=4 \
        --json="results/crash_st$st.json"
    done
    cmp results/crash_st1.json results/crash_st4.json || {
      echo "crash: recovered results differ across --sim-threads" >&2
      exit 1
    }
    for j in 1 4; do
      build/bench/bench_table3 --app=jacobi --scale=0.05 --jobs="$j" \
        --check-coherence --faults="crashp=0.002,seed=1" \
        --checkpoint-every=4 --json="results/crash_j$j.json"
    done
    cmp results/crash_j1.json results/crash_j4.json || {
      echo "crash: recovered results differ across --jobs" >&2
      exit 1
    }
    echo "crash: recovered results byte-identical at --sim-threads={1,4}" \
      "and --jobs={1,4}"
    # Unrecoverable-crash path: with checkpointing disabled a crash must
    # terminate with the documented exit code and name the crashed node —
    # never hang, never print a result.
    rc=0
    build/bench/bench_table3 --app=jacobi --scale=0.05 \
      --faults="crash=1@2000000,seed=1" >/dev/null \
      2>results/crash_norecover.log || rc=$?
    if [[ "$rc" -ne 87 ]]; then
      echo "crash: expected exit code 87 from unrecoverable crash, got $rc" >&2
      exit 1
    fi
    grep -q "node 1 crashed with no checkpoint" results/crash_norecover.log || {
      echo "crash: diagnostic missing crashed-node description:" >&2
      cat results/crash_norecover.log >&2
      exit 1
    }
    echo "crash: unrecoverable run correctly exited 87 naming node 1"
    ;;
  perf)
    # Perf-regression gate: run the simulator self-benchmark and compare
    # against the committed baseline (BENCH_PERF.json) with a tolerance
    # band. Normalization against the host's calibrated integer throughput
    # makes the comparison tolerant of slower/faster CI machines; the wide
    # band absorbs the rest of the host variance. On runners where even the
    # normalized throughput is too noisy for the band, set
    # PERF_ALLOCS_ONLY=1: allocs/event (host-independent) stays a hard gate
    # and throughput is reported as a trend in the selfperf.json artifact.
    cmake -B build -S . -DCMAKE_BUILD_TYPE=Release "$@"
    cmake --build build -j "$jobs" --target bench_selfperf
    mkdir -p results
    build/bench/bench_selfperf --reps=3 --json=results/selfperf.json
    allocs_flag=""
    [[ "${PERF_ALLOCS_ONLY:-0}" == "1" ]] && allocs_flag="--allocs-only"
    python3 scripts/check_perf.py results/selfperf.json \
      --baseline BENCH_PERF.json --tolerance 0.20 $allocs_flag
    ;;
  scale)
    # Weak-scaling gate. First a correctness smoke at 64 nodes: jacobi +
    # spmv with fixed work per node under the binomial collectives, JSON
    # schema-validated like every other bench artifact. Then the host-side
    # regression band: simulated event counts are exact, allocs/event is a
    # hard cap (resident simulator state must keep growing with active
    # links/touched pages, not nodes^2), normalized throughput gets the
    # same 20% band as the perf job (or trend-only with PERF_ALLOCS_ONLY=1).
    cmake -B build -S . -DCMAKE_BUILD_TYPE=Release "$@"
    cmake --build build -j "$jobs" --target bench_scale
    mkdir -p results
    build/bench/bench_scale --nodes-list=64 --check-coherence \
      --json=results/scale_smoke.json
    python3 scripts/check_results_json.py results/scale_smoke.json
    build/bench/bench_scale --reps=3 --perf-json=results/scale_perf.json
    allocs_flag=""
    [[ "${PERF_ALLOCS_ONLY:-0}" == "1" ]] && allocs_flag="--allocs-only"
    python3 scripts/check_perf.py results/scale_perf.json \
      --baseline BENCH_SCALE.json --tolerance 0.20 $allocs_flag
    ;;
  simthreads)
    # Bit-identity matrix for conservative synchronous-window PDES: the same
    # simulation at --sim-threads=1 and --sim-threads=4 must produce byte-
    # identical machine-readable results, fault-free and under chaos.
    # FGDSM_HOST_CORES pins the worker budget so the matrix is meaningful
    # even on small runners (thread counts change wall time only).
    cmake -B build -S . "$@"
    cmake --build build -j "$jobs"
    ctest --test-dir build --output-on-failure -j "$jobs" \
      -R "Determinism|PartitionMerge|SimThreads"
    mkdir -p results
    for st in 1 4; do
      FGDSM_HOST_CORES=4 build/bench/bench_table3 --scale=0.05 \
        --sim-threads="$st" --check-coherence \
        --json="results/simthreads_st$st.json"
      FGDSM_HOST_CORES=4 build/bench/bench_table3 --scale=0.05 \
        --sim-threads="$st" --check-coherence \
        --faults="drop=0.01,dup=0.002,delay=0.05,reorder=0.01,seed=1" \
        --json="results/simthreads_chaos_st$st.json"
    done
    cmp results/simthreads_st1.json results/simthreads_st4.json || {
      echo "simthreads: fault-free results differ across --sim-threads" >&2
      exit 1
    }
    cmp results/simthreads_chaos_st1.json results/simthreads_chaos_st4.json || {
      echo "simthreads: chaos results differ across --sim-threads" >&2
      exit 1
    }
    python3 scripts/check_chaos.py results/simthreads_st1.json \
      results/simthreads_chaos_st1.json results/simthreads_chaos_st4.json
    # 256 nodes: the fault injector and channel keep lazy per-link state,
    # written from every partition's worker. A chaos + crash run must still
    # replay byte-identically.
    for st in 1 4; do
      FGDSM_HOST_CORES=4 build/bench/bench_table3 --nodes=256 --app=jacobi \
        --scale=0.02 --sim-threads="$st" --check-coherence \
        --faults="drop=0.01,dup=0.002,delay=0.05,crash=7@15000000,seed=1" \
        --checkpoint-every=4 --json="results/simthreads_n256_st$st.json"
    done
    cmp results/simthreads_n256_st1.json results/simthreads_n256_st4.json || {
      echo "simthreads: 256-node chaos + crash results differ across" \
        "--sim-threads" >&2
      exit 1
    }
    echo "simthreads: results byte-identical at --sim-threads={1,4}"
    ;;
  tsan)
    # ThreadSanitizer over the worker crew, the outbox merge and the task
    # fibers (src/sim/task.cc announces every stack switch), with 4 engine
    # workers granted whatever the runner's core count. Any report fails
    # the run (TSan exits non-zero).
    cmake -B build-tsan -S . \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-sanitize-recover=all" \
      -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" \
      "$@"
    cmake --build build-tsan -j "$jobs"
    for t in sim_task determinism pdes_partition scale crash_recovery \
        plan_table; do
      FGDSM_HOST_CORES=4 "build-tsan/tests/${t}_test"
    done
    ;;
  fixedpoint)
    # Simulated behaviour is the repo's fixed point: a change that keeps it
    # must reproduce the committed reference tables exactly. They were
    # generated with the default build type, so configure with it even if
    # this build tree was last configured for Release (perf, scale).
    cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo "$@"
    cmake --build build -j "$jobs" --target bench_paper bench_fig4 bench_irreg
    mkdir -p build/fixedpoint
    for h in bench_paper bench_fig4 bench_irreg; do
      build/bench/$h --scale=0.5 --jobs="$jobs" >"build/fixedpoint/$h.txt"
      cmp "results/$h.txt" "build/fixedpoint/$h.txt" || {
        echo "fixedpoint: $h --scale=0.5 differs from results/$h.txt" >&2
        diff "results/$h.txt" "build/fixedpoint/$h.txt" | head -40 >&2
        exit 1
      }
    done
    echo "fixedpoint: bench_paper, bench_fig4 and bench_irreg at" \
      "--scale=0.5 match results/*.txt byte for byte"
    ;;
  perfbench)
    # perfbench/ builds the simulator from src/ and calls into its layers
    # directly (BodyCtx, Bindings, chunk_footprint, ref_section,
    # irreg::scan, Node::ensure_chunk). No other job builds it, so an API
    # change that breaks it would otherwise first show when the benchmark
    # runs. run.py configures and builds it on first use.
    for w in paper8 scale256 chaos8_st4; do
      for tr in 0 1; do
        python3 perfbench/run.py --workload "$w" --seed 1 --seconds 0 \
          --trace "$tr"
      done
    done
    ctest --test-dir "${CARGO_TARGET_DIR:-.bench_build}/perfbench" \
      --output-on-failure
    ;;
  *)
    echo "unknown job '$job' (expected: verify | sanitize | chaos | crash |" \
      "perf | scale | simthreads | tsan | fixedpoint | perfbench)" >&2
    exit 2
    ;;
esac
