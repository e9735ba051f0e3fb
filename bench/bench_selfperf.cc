// Host-side (wall-clock) performance of the simulator itself — the perf
// regression gate. Unlike every other harness, this one measures how fast
// the *simulator* runs, not what it simulates:
//
//   events/sec        engine events processed per host second
//   ns/event          inverse, in host nanoseconds
//   allocs/event      heap allocations per event (the operator new hook in
//                     bench/hostperf.cc counts every allocation the
//                     process makes while the workload runs)
//
// over five workloads: the full bench_paper default matrix ("paper"), the
// same matrix with the engine's windowed parallel mode at four workers
// ("paper_st4" — the intra-run scaling axis; compare its events/s against
// "paper"), the jacobi six-configuration slice ("jacobi"), the irregular
// spmv sweep ("spmv"), and jacobi under chaos-mode fault injection
// ("chaos"). --sim-threads=N additionally applies N engine workers to the
// four base workloads (default 1).
//
// Raw events/sec is machine-dependent, so the harness also times a fixed
// pure-CPU calibration loop (splitmix64) and reports each workload's
// throughput normalized by it; scripts/check_perf.py gates CI on the
// normalized number (see EXPERIMENTS.md for the methodology and caveats).
//
// Workloads execute one simulation at a time (--jobs has no analogue here);
// --reps=N keeps the best wall time of N repetitions.
#include <cstdio>
#include <deque>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/hostperf.h"
#include "src/apps/apps.h"
#include "src/core/options.h"
#include "src/exec/batch.h"
#include "src/exec/executor.h"
#include "src/sim/engine.h"
#include "src/sim/fault.h"
#include "src/util/json.h"
#include "src/util/options.h"
#include "src/util/table.h"

namespace fgdsm {
namespace {

using bench::Clock;
using bench::seconds_since;

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
    const std::uint64_t a0 = bench::allocation_count();
    const auto t0 = Clock::now();
    for (const exec::ExperimentSpec& s : specs) {
      const exec::RunResult res = exec::run(*s.program, s.config);
      m.events += res.engine_events;
      m.windows += res.engine_windows;
    }
    m.seconds = seconds_since(t0);
    m.allocs = bench::allocation_count() - a0;
    if (r == 0 || m.seconds < best.seconds) best = m;
  }
  return best;
}

// --sim-threads applied to every spec built by spec_for (the dedicated
// paper_st4 workload overrides it to 4 explicitly).
int g_sim_threads_default = 1;

exec::ExperimentSpec spec_for(const hpf::Program& prog,
                              const core::Options& opt, int nodes,
                              bool dual_cpu, std::size_t block) {
  exec::ExperimentSpec s;
  s.program = &prog;
  s.config.cluster.nnodes = nodes;
  s.config.cluster.block_size = block;
  s.config.cluster.dual_cpu = dual_cpu;
  s.config.cluster.sim_threads = g_sim_threads_default;
  s.config.opt = opt;
  s.config.gather_arrays = false;
  return s;
}

// The bench_paper six-configuration slice for one program.
void add_paper_configs(std::vector<exec::ExperimentSpec>& out,
                       const hpf::Program& prog, int nodes,
                       std::size_t block) {
  out.push_back(spec_for(prog, core::serial(), 1, true, block));
  out.push_back(spec_for(prog, core::shmem_unopt(), nodes, true, block));
  out.push_back(spec_for(prog, core::shmem_opt_full(), nodes, true, block));
  out.push_back(spec_for(prog, core::shmem_unopt(), nodes, false, block));
  out.push_back(spec_for(prog, core::shmem_opt_full(), nodes, false, block));
  out.push_back(spec_for(prog, core::msg_passing(), nodes, true, block));
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
  o.check_known(
      {"scale", "nodes", "block", "reps", "workload", "json", "sim-threads"});
  const double scale = o.get_double("scale", 0.15);
  const int nodes = static_cast<int>(o.get_int("nodes", 8));
  const std::size_t block = static_cast<std::size_t>(o.get_int("block", 128));
  const int reps = static_cast<int>(o.get_int("reps", 1));
  const std::string only = o.get("workload", "");
  const std::string json_path = o.get("json", "");
  const int sim_threads = static_cast<int>(o.get_int("sim-threads", 1));
  if (reps < 1) {
    std::fprintf(stderr, "fgdsm: --reps must be >= 1\n");
    return 2;
  }
  if (sim_threads < 1) {
    std::fprintf(stderr, "fgdsm: --sim-threads must be >= 1\n");
    return 2;
  }

  std::printf("Simulator self-performance (scale=%.2f, %d nodes, %zuB "
              "blocks, best of %d)\n",
              scale, nodes, block, reps);
  const double calib = bench::calibrate_mops();
  std::printf("calibration: %.0f Mops/s (splitmix64)\n", calib);

  // Programs must outlive the spec lists; deque keeps references stable as
  // it grows (specs hold pointers into it).
  std::deque<hpf::Program> progs;

  struct Workload {
    std::string name;
    std::vector<exec::ExperimentSpec> specs;
  };
  std::vector<Workload> workloads;

  g_sim_threads_default = sim_threads;
  {
    // Full bench_paper default matrix — the headline workload.
    Workload w{"paper", {}};
    for (const auto& app : apps::registry()) {
      progs.push_back(app.scaled(scale));
      add_paper_configs(w.specs, progs.back(), nodes, block);
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
      progs.push_back(app.scaled(scale));
      add_paper_configs(w.specs, progs.back(), nodes, block);
    }
    workloads.push_back(std::move(w));
  }
  {
    // Irregular gather path (inspector–executor), as in bench_irreg.
    const std::int64_t n = std::max<std::int64_t>(
        512, static_cast<std::int64_t>(4096 * scale));
    progs.push_back(apps::spmv(n, 8, std::max<std::int64_t>(
                                         4, static_cast<std::int64_t>(
                                                20 * scale)),
                               /*pattern=*/0));
    Workload w{"spmv", {}};
    w.specs.push_back(spec_for(progs.back(), core::serial(), 1, true, block));
    w.specs.push_back(
        spec_for(progs.back(), core::shmem_unopt(), nodes, true, block));
    w.specs.push_back(
        spec_for(progs.back(), core::shmem_opt_full(), nodes, true, block));
    w.specs.push_back(
        spec_for(progs.back(), core::msg_passing(), nodes, true, block));
    workloads.push_back(std::move(w));
  }
  {
    // Chaos mode: the reliable channel + fault injector on the hot path.
    Workload w{"chaos", {}};
    for (const auto& app : apps::registry()) {
      if (app.name != "jacobi") continue;
      progs.push_back(app.scaled(scale));
      std::string err;
      sim::FaultConfig fc = sim::FaultConfig::parse(
          "drop=0.01,dup=0.002,delay=0.05,reorder=0.01,seed=1", &err);
      exec::ExperimentSpec s = spec_for(progs.back(), core::shmem_opt_full(),
                                        nodes, true, block);
      s.config.cluster.faults = fc;
      s.config.cluster.watchdog_ns = 2'000'000'000;
      w.specs.push_back(s);
      exec::ExperimentSpec mp = spec_for(progs.back(), core::msg_passing(),
                                         nodes, true, block);
      mp.config.cluster.faults = fc;
      mp.config.cluster.watchdog_ns = 2'000'000'000;
      w.specs.push_back(mp);
    }
    workloads.push_back(std::move(w));
  }

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
    w.kv("scale", scale);
    w.kv("nodes", nodes);
    w.kv("block", static_cast<std::uint64_t>(block));
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
