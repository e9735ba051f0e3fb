// Weak-scaling harness: fixed work per node while the cluster grows
// (default 8 -> 64 -> 256 nodes; --nodes-list picks any set up to
// tempest::kMaxNodes). Two workloads per point:
//
//   jacobi   n x n five-point relaxation with n ~ base * sqrt(nodes), so the
//            per-node tile stays constant — the regular stencil exercises the
//            shared-memory protocol and the barrier at every sweep;
//   spmv     ELL sparse matvec with n ~ base * nodes rows — the irregular
//            inspector-executor path plus an allreduce per iteration.
//
// Under perfect weak scaling the simulated elapsed time per point would be
// flat; the growth that remains is the collective depth (the scaling ablation
// --collectives selects; default binomial here, since a flat coordinator at
// 1024 nodes serializes the barrier) plus protocol contention.
//
// Like bench_selfperf this binary also measures the *simulator's* host-side
// cost at each point — events/sec, allocs/event, and throughput normalized by
// a fixed splitmix64 calibration loop (bench/hostperf.h) — because the
// tentpole claim of this harness is structural: simulator memory and
// allocation cost must grow with active links and touched pages, not with
// nodes^2. Runs execute one at a time (the allocation hook counts
// process-wide), --reps keeps the best wall time, and the simulated results
// in --json stay byte-identical across --sim-threads and repetition counts.
//
//   --json=<file>       fgdsm-bench-v1 (simulated results only, see
//                       bench/common.h; gate with scripts/check_results_json.py)
//   --perf-json=<file>  fgdsm-scale-v1 (host-side numbers per workload point;
//                       gate against BENCH_SCALE.json with
//                       scripts/check_perf.py --baseline BENCH_SCALE.json)
#include <cstdio>
#include <deque>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "bench/hostperf.h"
#include "src/apps/apps.h"
#include "src/core/options.h"
#include "src/exec/executor.h"
#include "src/util/json.h"
#include "src/util/options.h"
#include "src/util/table.h"

namespace fgdsm {
namespace {

using bench::Clock;
using bench::seconds_since;

struct Point {
  std::string app;   // "jacobi" or "spmv"
  int nodes = 0;
  std::int64_t n = 0;  // linear problem dimension actually used
  exec::RunResult result;
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  double seconds = 0.0;
  std::uint64_t allocs = 0;

  std::string key() const { return app + "@" + std::to_string(nodes); }
  double events_per_sec() const {
    return seconds > 0 ? static_cast<double>(events) / seconds : 0.0;
  }
  double ns_per_event() const {
    return events > 0 ? seconds * 1e9 / static_cast<double>(events) : 0.0;
  }
  double allocs_per_event() const {
    return events > 0
               ? static_cast<double>(allocs) / static_cast<double>(events)
               : 0.0;
  }
};

// Run one spec `reps` times (sequentially; the alloc hook is process-wide),
// keeping the best wall time. Simulated results are identical every rep.
void measure(Point& p, const exec::ExperimentSpec& spec, int reps) {
  for (int r = 0; r < reps; ++r) {
    const std::uint64_t a0 = bench::allocation_count();
    const auto t0 = Clock::now();
    exec::RunResult res = bench::run_spec(spec);
    const double s = seconds_since(t0);
    const std::uint64_t a = bench::allocation_count() - a0;
    if (r == 0 || s < p.seconds) {
      p.seconds = s;
      p.allocs = a;
    }
    p.events = res.engine_events;
    p.windows = res.engine_windows;
    p.result = std::move(res);
  }
}

int scale_main(int argc, char** argv) {
  bench::BenchConfig cfg = bench::BenchConfig::from_args(
      argc, argv, {"jacobi", "spmv"},
      {"nodes-list", "perf-json", "reps", "sweeps", "iters"});
  util::Options o(argc, argv);  // re-parse for the harness-specific flags
  const std::string nodes_list = o.get("nodes-list", "8,64,256");
  const std::string perf_json = o.get("perf-json", "");
  const int reps = static_cast<int>(o.get_int("reps", 1));
  // Per-node work knobs: sweeps/iterations stay fixed while the grid grows.
  const std::int64_t sweeps = o.get_int("sweeps", 8);
  const std::int64_t iters = o.get_int("iters", 4);
  if (reps < 1) {
    std::fprintf(stderr, "fgdsm: --reps must be >= 1\n");
    return 2;
  }
  // Weak scaling at a flat coordinator serializes the barrier by design;
  // default to the binomial tree unless the user picked a topology (passing
  // --collectives=flat explicitly measures exactly that serialization).
  if (!o.has("collectives")) {
    cfg.collectives = tempest::Collectives::kBinomial;
    bench::g_collectives = tempest::Collectives::kBinomial;
  }

  const std::vector<int> node_counts = bench::parse_int_list(
      nodes_list, "--nodes-list", 1, tempest::kMaxNodes);
  cfg.nodes = node_counts.back();  // JSON config block: the largest point

  // Per-node work, controlled by --scale: at scale 1 each node owns a
  // 64x64 jacobi tile and 512 spmv rows. sqrt/linear growth keeps that
  // constant as the cluster grows.
  const std::int64_t jacobi_tile = std::max<std::int64_t>(
      8, static_cast<std::int64_t>(64 * std::max(0.05, cfg.scale) * 4));
  const std::int64_t spmv_rows = std::max<std::int64_t>(
      64, static_cast<std::int64_t>(512 * std::max(0.05, cfg.scale) * 4));

  std::printf(
      "Weak scaling (fixed work per node), collectives=%s, block=%zuB, "
      "best of %d\n",
      tempest::to_string(cfg.collectives), cfg.block, reps);
  const double calib = bench::calibrate_mops();
  std::printf("calibration: %.0f Mops/s (splitmix64)\n", calib);

  std::deque<hpf::Program> progs;  // stable addresses; specs hold pointers
  std::vector<Point> points;

  for (const int nodes : node_counts) {
    if (cfg.selected("jacobi")) {
      // n^2 total elements proportional to nodes: n = tile * sqrt(nodes).
      const std::int64_t n = std::max<std::int64_t>(
          nodes, jacobi_tile * bench::isqrt(static_cast<std::int64_t>(nodes)));
      progs.push_back(apps::jacobi(n, sweeps));
      Point p;
      p.app = "jacobi";
      p.nodes = nodes;
      p.n = n;
      const exec::ExperimentSpec spec = bench::make_spec(
          progs.back(), core::shmem_opt_full(), nodes, /*dual_cpu=*/true,
          cfg.block);
      std::fprintf(stderr, "[jacobi @%d] n=%lld x %d reps...\n", nodes,
                   static_cast<long long>(n), reps);
      measure(p, spec, reps);
      points.push_back(std::move(p));
    }
    if (cfg.selected("spmv")) {
      const std::int64_t n = spmv_rows * nodes;
      progs.push_back(apps::spmv(n, 8, iters, /*pattern=*/0));
      Point p;
      p.app = "spmv";
      p.nodes = nodes;
      p.n = n;
      const exec::ExperimentSpec spec = bench::make_spec(
          progs.back(), core::shmem_opt_full(), nodes, /*dual_cpu=*/true,
          cfg.block);
      std::fprintf(stderr, "[spmv @%d] n=%lld x %d reps...\n", nodes,
                   static_cast<long long>(n), reps);
      measure(p, spec, reps);
      points.push_back(std::move(p));
    }
  }

  util::Table t({"app", "nodes", "n", "sim elapsed", "events", "wall s",
                 "events/s", "allocs/event", "norm (ev/Mop)"});
  for (const Point& p : points)
    t.add_row({p.app, std::to_string(p.nodes), std::to_string(p.n),
               util::format_ns(p.result.stats.elapsed_ns),
               util::format_count(p.events), util::Table::cell(p.seconds, 2),
               util::format_count(
                   static_cast<std::uint64_t>(p.events_per_sec())),
               util::Table::cell(p.allocs_per_event(), 2),
               util::Table::cell(p.events_per_sec() / (calib * 1e6), 4)});
  t.print(std::cout);

  // Weak-scaling efficiency relative to the first point of each app: the
  // simulated elapsed-time ratio (1.0 = perfect weak scaling).
  bench::JsonReport jr("scale", cfg);
  for (const Point& p : points) {
    jr.add_run(p.app, std::to_string(p.nodes) + "n", p.result);
    for (const Point& base : points) {
      if (base.app != p.app) continue;
      if (&base != &p)
        jr.add_metric(
            p.key() + "_elapsed_vs_" + std::to_string(base.nodes),
            static_cast<double>(p.result.stats.elapsed_ns) /
                static_cast<double>(base.result.stats.elapsed_ns));
      break;  // only the first point of this app is the reference
    }
  }
  jr.write();

  if (!perf_json.empty()) {
    std::ofstream f(perf_json);
    if (!f) {
      std::fprintf(stderr, "fgdsm: cannot open json file '%s'\n",
                   perf_json.c_str());
      return 1;
    }
    util::JsonWriter w(f);
    w.begin_object();
    w.kv("schema", "fgdsm-scale-v1");
    w.key("host");
    w.begin_object();
    w.kv("nproc",
         static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
    w.kv("calibration_mops", calib);
    w.end_object();
    w.key("config");
    w.begin_object();
    w.kv("scale", cfg.scale);
    w.kv("nodes_list", nodes_list);
    w.kv("block", static_cast<std::uint64_t>(cfg.block));
    w.kv("collectives", tempest::to_string(cfg.collectives));
    w.kv("reps", static_cast<std::uint64_t>(reps));
    w.end_object();
    w.key("workloads");
    w.begin_object();
    for (const Point& p : points) {
      w.key(p.key());
      w.begin_object();
      w.kv("events", p.events);
      w.kv("windows", p.windows);
      w.kv("seconds", p.seconds);
      w.kv("events_per_sec", p.events_per_sec());
      w.kv("ns_per_event", p.ns_per_event());
      w.kv("allocs_per_event", p.allocs_per_event());
      w.kv("normalized_events_per_mop", p.events_per_sec() / (calib * 1e6));
      w.end_object();
    }
    w.end_object();
    w.end_object();
    f << '\n';
    std::fprintf(stderr, "fgdsm: wrote %s\n", perf_json.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace fgdsm

int main(int argc, char** argv) { return fgdsm::scale_main(argc, argv); }
