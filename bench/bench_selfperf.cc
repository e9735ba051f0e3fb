// Host-side (wall-clock) performance of the simulator itself — the perf
// regression gate, and the one harness that times the simulator. Unlike
// every other harness, it measures how fast the *simulator* runs, not what
// it simulates:
//
//   events/sec        engine events processed per host second
//   ns/event          inverse, in host nanoseconds
//   allocs/event      heap allocations per event (this file replaces the
//                     global operator new with a counting one, so every
//                     allocation the process makes while a workload runs
//                     is counted)
//
// Five workloads run at --nodes (default 8, the paper's cluster): the full
// bench_paper default matrix ("paper"), the same matrix with the engine's
// windowed parallel mode at four workers ("paper_st4" — the intra-run
// scaling axis; compare its events/s against "paper"), the jacobi
// six-configuration slice ("jacobi"), the irregular spmv sweep ("spmv"), and
// jacobi under chaos-mode fault injection ("chaos"). Then, for each N in
// kScaleNodes (8, 64, 256 and 1024), "jacobi@N" and "spmv@N": bench_scale's
// weak-scaled programs at its default sizes, sm-opt dual-cpu under binomial
// collectives, where simulator cost must grow with active links and touched
// pages, not with nodes^2. --sim-threads=N applies N engine workers to every
// workload but paper_st4 (default 1).
//
// Raw events/sec is machine-dependent, so the harness also times a fixed
// pure-CPU calibration loop (splitmix64) and reports each workload's
// throughput normalized by it; scripts/check_perf.py gates CI on the
// normalized number against BENCH_PERF.json (see EXPERIMENTS.md for the
// methodology and caveats).
//
// Workloads execute one simulation at a time, since the allocation count is
// process-wide (--jobs has no analogue here); --reps=N keeps the best wall
// time of N repetitions, and --workload=W runs workload W alone.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <iostream>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "src/apps/apps.h"
#include "src/core/options.h"
#include "src/exec/batch.h"
#include "src/exec/executor.h"
#include "src/sim/fault.h"
#include "src/util/json.h"
#include "src/util/options.h"
#include "src/util/table.h"

// Counting allocator: every operator new in the process bumps the counter.
// Only this executable replaces the global allocator; the library never
// does.
namespace {
// Atomic: the engine's --sim-threads worker crew allocates concurrently.
// Relaxed is enough — the count is read only between runs, after joins.
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t align = static_cast<std::size_t>(a);
  if (void* p = std::aligned_alloc(align, (n + align - 1) / align * align))
    return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return ::operator new(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace fgdsm {
namespace {

using Clock = std::chrono::steady_clock;

// Cluster sizes of the weak-scaling rows; BENCH_PERF.json gates each of them.
constexpr int kScaleNodes[] = {8, 64, 256, 1024};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Fixed-work splitmix64 loop: a host-speed yardstick with no allocation and
// no branches, in Mops/s, so workload throughput can be normalized across
// machines.
double calibrate_mops() {
  constexpr std::uint64_t kOps = 200'000'000;
  std::uint64_t x = 0x9e3779b97f4a7c15ull, acc = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < kOps; ++i) {
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    acc ^= z ^ (z >> 31);
  }
  const double s = seconds_since(t0);
  // Defeat dead-code elimination without affecting output determinism.
  if (acc == 0x12345678) std::fprintf(stderr, "calib sentinel\n");
  return static_cast<double>(kOps) / 1e6 / s;
}

struct Measurement {
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  double seconds = 0.0;
  std::uint64_t allocs = 0;

  double events_per_sec() const {
    return seconds > 0 ? static_cast<double>(events) / seconds : 0.0;
  }
  double ns_per_event() const {
    return events > 0 ? seconds * 1e9 / static_cast<double>(events) : 0.0;
  }
  double allocs_per_event() const {
    return events > 0 ? static_cast<double>(allocs) /
                            static_cast<double>(events)
                      : 0.0;
  }
};

// One measured workload: a list of specs executed sequentially, best-of-reps.
Measurement measure(const std::vector<exec::ExperimentSpec>& specs,
                    int reps) {
  Measurement best;
  for (int r = 0; r < reps; ++r) {
    Measurement m;
    const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
    const auto t0 = Clock::now();
    for (const exec::ExperimentSpec& s : specs) {
      const exec::RunResult res = bench::run_spec(s);
      m.events += res.engine_events;
      m.windows += res.engine_windows;
    }
    m.seconds = seconds_since(t0);
    m.allocs = g_allocs.load(std::memory_order_relaxed) - a0;
    if (r == 0 || m.seconds < best.seconds) best = m;
  }
  return best;
}

// The bench_paper six-configuration slice for one program.
void add_paper_configs(bench::BenchConfig& cfg,
                       std::vector<exec::ExperimentSpec>& out,
                       const hpf::Program& prog) {
  const auto add = [&](const core::Options& opt, int nodes, bool dual_cpu) {
    out.push_back(bench::make_spec(cfg, prog, opt, nodes, dual_cpu,
                                   cfg.block));
  };
  add(core::serial(), 1, true);
  add(core::shmem_unopt(), cfg.nodes, true);
  add(core::shmem_opt_full(), cfg.nodes, true);
  add(core::shmem_unopt(), cfg.nodes, false);
  add(core::shmem_opt_full(), cfg.nodes, false);
  add(core::msg_passing(), cfg.nodes, true);
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t b = colon + 1;
        while (b < line.size() && line[b] == ' ') ++b;
        return line.substr(b);
      }
    }
  }
  return "unknown";
}

int selfperf_main(int argc, char** argv) {
  util::Options o(argc, argv);
  o.check_known({"scale", "nodes", "block", "reps", "workload", "json",
                 "sim-threads"});
  // One BenchConfig builds every spec; the shared harness flags this binary
  // does not take keep their defaults (no faults, no checker, flat
  // collectives).
  bench::BenchConfig cfg;
  cfg.scale = o.get_double("scale", 0.15);
  cfg.nodes = bench::nodes_flag(o);
  cfg.block = static_cast<std::size_t>(o.get_int("block", 128));
  cfg.sim_threads = bench::sim_threads_flag(o);
  const int reps = static_cast<int>(o.get_int("reps", 1));
  const std::string only = o.get("workload", "");
  const std::string json_path = o.get("json", "");
  if (reps < 1) {
    std::fprintf(stderr, "fgdsm: --reps must be >= 1\n");
    return 2;
  }

  // Programs must outlive the spec lists; deque keeps references stable as
  // it grows (specs hold pointers into it).
  std::deque<hpf::Program> progs;

  struct Workload {
    std::string name;
    std::vector<exec::ExperimentSpec> specs;
  };
  std::vector<Workload> workloads;

  {
    // Full bench_paper default matrix — the headline workload.
    Workload w{"paper", {}};
    for (const auto& app : apps::registry()) {
      progs.push_back(app.scaled(cfg.scale));
      add_paper_configs(cfg, w.specs, progs.back());
    }
    // Intra-run scaling axis: the same matrix with four engine workers
    // (conservative synchronous-window PDES). Bit-identical simulated
    // results; the tracked artifact is the events/s ratio vs "paper".
    Workload st4{"paper_st4", w.specs};
    for (exec::ExperimentSpec& s : st4.specs)
      s.config.cluster.sim_threads = 4;
    workloads.push_back(std::move(w));
    workloads.push_back(std::move(st4));
  }
  {
    // Jacobi alone: the stencil steady state, dominated by protocol events.
    Workload w{"jacobi", {}};
    for (const auto& app : apps::registry()) {
      if (app.name != "jacobi") continue;
      progs.push_back(app.scaled(cfg.scale));
      add_paper_configs(cfg, w.specs, progs.back());
    }
    workloads.push_back(std::move(w));
  }
  {
    // Irregular gather path (inspector–executor), as in bench_irreg.
    const std::int64_t n = std::max<std::int64_t>(
        512, static_cast<std::int64_t>(4096 * cfg.scale));
    progs.push_back(apps::spmv(n, 8, std::max<std::int64_t>(
                                         4, static_cast<std::int64_t>(
                                                20 * cfg.scale)),
                               /*pattern=*/0));
    Workload w{"spmv", {}};
    w.specs.push_back(bench::make_spec(cfg, progs.back(), core::serial(), 1,
                                       true, cfg.block));
    for (const core::Options& opt : {core::shmem_unopt(),
                                     core::shmem_opt_full(),
                                     core::msg_passing()})
      w.specs.push_back(bench::make_spec(cfg, progs.back(), opt, cfg.nodes,
                                         true, cfg.block));
    workloads.push_back(std::move(w));
  }
  {
    // Chaos mode: the reliable channel + fault injector on the hot path.
    Workload w{"chaos", {}};
    for (const auto& app : apps::registry()) {
      if (app.name != "jacobi") continue;
      progs.push_back(app.scaled(cfg.scale));
      std::string err;
      const sim::FaultConfig fc = sim::FaultConfig::parse(
          "drop=0.01,dup=0.002,delay=0.05,reorder=0.01,seed=1", &err);
      for (const core::Options& opt :
           {core::shmem_opt_full(), core::msg_passing()}) {
        exec::ExperimentSpec s = bench::make_spec(cfg, progs.back(), opt,
                                                  cfg.nodes, true, cfg.block);
        s.config.cluster.faults = fc;
        s.config.cluster.watchdog_ns = 2'000'000'000;
        w.specs.push_back(std::move(s));
      }
    }
    workloads.push_back(std::move(w));
  }
  // Weak scaling: a flat coordinator at 1024 nodes would serialize every
  // barrier, so these rows run under the binomial tree, as bench_scale does.
  for (const int nodes : kScaleNodes) {
    for (const std::string app : {"jacobi", "spmv"}) {
      progs.push_back(bench::weak_scaled(app, cfg.scale, nodes).prog);
      exec::ExperimentSpec s =
          bench::make_spec(cfg, progs.back(), core::shmem_opt_full(), nodes,
                           /*dual_cpu=*/true, cfg.block);
      s.config.cluster.collectives = tempest::Collectives::kBinomial;
      workloads.push_back({app + "@" + std::to_string(nodes), {s}});
    }
  }

  if (!only.empty()) {
    std::vector<std::string> names;
    for (const Workload& w : workloads) names.push_back(w.name);
    bench::require_one_of("workload", only, names);
  }

  std::printf("Simulator self-performance (scale=%.2f, %d nodes, %zuB "
              "blocks, best of %d)\n",
              cfg.scale, cfg.nodes, cfg.block, reps);
  const double calib = calibrate_mops();
  std::printf("calibration: %.0f Mops/s (splitmix64)\n", calib);

  util::Table t({"workload", "events", "seconds", "events/s", "ns/event",
                 "allocs/event", "norm (ev/Mop)"});
  struct Row {
    std::string name;
    Measurement m;
  };
  std::vector<Row> rows;
  for (Workload& w : workloads) {
    if (!only.empty() && only != w.name) continue;
    std::fprintf(stderr, "[%s] %zu runs x %d reps...\n", w.name.c_str(),
                 w.specs.size(), reps);
    const Measurement m = measure(w.specs, reps);
    rows.push_back({w.name, m});
    t.add_row({w.name, util::format_count(m.events),
               util::Table::cell(m.seconds, 2),
               util::format_count(
                   static_cast<std::uint64_t>(m.events_per_sec())),
               util::Table::cell(m.ns_per_event(), 1),
               util::Table::cell(m.allocs_per_event(), 2),
               util::Table::cell(m.events_per_sec() / (calib * 1e6), 4)});
  }
  t.print(std::cout);

  if (!json_path.empty()) {
    std::ofstream f(json_path);
    if (!f) {
      std::fprintf(stderr, "fgdsm: cannot open json file '%s'\n",
                   json_path.c_str());
      return 1;
    }
    util::JsonWriter w(f);
    w.begin_object();
    w.kv("schema", "fgdsm-selfperf-v1");
    w.key("host");
    w.begin_object();
    w.kv("cpu", cpu_model());
    w.kv("nproc",
         static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
    w.kv("calibration_mops", calib);
    w.end_object();
    w.key("config");
    w.begin_object();
    w.kv("scale", cfg.scale);
    w.kv("nodes", cfg.nodes);
    w.kv("block", static_cast<std::uint64_t>(cfg.block));
    w.kv("reps", static_cast<std::uint64_t>(reps));
    w.end_object();
    w.key("workloads");
    w.begin_object();
    for (const Row& r : rows) {
      w.key(r.name);
      w.begin_object();
      w.kv("events", r.m.events);
      w.kv("windows", r.m.windows);
      w.kv("seconds", r.m.seconds);
      w.kv("events_per_sec", r.m.events_per_sec());
      w.kv("ns_per_event", r.m.ns_per_event());
      w.kv("allocs_per_event", r.m.allocs_per_event());
      w.kv("normalized_events_per_mop",
           r.m.events_per_sec() / (calib * 1e6));
      w.end_object();
    }
    w.end_object();
    w.end_object();
    f << '\n';
    std::fprintf(stderr, "fgdsm: wrote %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace fgdsm

int main(int argc, char** argv) { return fgdsm::selfperf_main(argc, argv); }
