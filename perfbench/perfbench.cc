// The repository benchmark: host cost and simulated fidelity of the fgdsm
// simulator, one workload per process.
//
//   fgdsm_perfbench --workload=<paper8|scale256|chaos8_st4> --seed=<n>
//                   --seconds=<s> --trace=<0|1> [--out-dir=<dir>]
//
// Workloads (closed loop: one simulation at a time, each spec run to
// completion before the next starts):
//   paper8      the bench_paper matrix at 8 nodes, serial engine: 6 apps x
//               {serial, sm-unopt, sm-opt} x {2-cpu, 1-cpu} plus message
//               passing (bench_selfperf --workload=paper). Fiber switch,
//               event engine and Stache handlers dominate.
//   scale256    jacobi and banded spmv weak-scaled to 256 nodes, sm-opt,
//               binomial collectives, serial engine (bench_scale
//               --nodes-list=256), plus the serial references. The compiler
//               layers (analysis, planning, inspector) dominate.
//   chaos8_st4  jacobi and spmv at 8 nodes with 4 engine workers, each run
//               fault-free, under drop/dup/delay/reorder faults, and with
//               one scheduled crash under --checkpoint-every: the windowed
//               engine, reliable channel, fault injector and checkpoints.
// paper8 and scale256 do not depend on --seed. chaos8_st4 derives its fault
// seed, crash node and crash time from it.
//
// --trace=0 measures the end-to-end metrics with tracing off: repeated passes
// over the workload's specs for about --seconds, each timing the median over
// passes. --trace=1 measures the per-layer metrics: isolated calls into each
// layer's public functions, then alternating untraced and traced passes
// (spans around every call the benchmark makes into a layer, plus the
// simulator's own trace of one spec) whose wall-time difference is the
// tracing overhead.
//
// Every pass checks correctness: each parallel run's checksum scalars must be
// bit-identical (memcmp) to its reference run at the same node count (the
// transparent shared-memory run of the program, or a chaos/crash leg's
// fault-free twin), that reference must match the serial run to rounding,
// and every pass must reproduce the first pass's simulated results exactly.
// Stalls (exit 86), unrecoverable crashes
// (exit 87) and mismatches count as failed simulations and are named on
// stderr. --corrupt-checksum flips one checksum bit to prove the check bites.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status: 0 when correct, 1 when a check failed, 2 on bad arguments.
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/layers.h"
#include "perfbench/measure.h"
#include "src/apps/apps.h"
#include "src/core/options.h"
#include "src/exec/batch.h"
#include "src/exec/executor.h"
#include "src/sim/engine.h"
#include "src/sim/fault.h"
#include "src/tempest/config.h"
#include "src/util/json.h"
#include "src/util/options.h"

namespace fgdsm::perfbench {
namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Host-speed yardstick (identical to bench_selfperf's): recorded as a host
// fact only, never used to normalize a metric.
double calibrate_mops() {
  constexpr std::uint64_t kOps = 200'000'000;
  std::uint64_t x = 0x9e3779b97f4a7c15ull, acc = 0;
  const Clock::time_point t0 = Clock::now();
  for (std::uint64_t i = 0; i < kOps; ++i) {
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    acc ^= z ^ (z >> 31);
  }
  const double s = seconds_since(t0);
  if (acc == 0x12345678) std::fprintf(stderr, "calib sentinel\n");
  return static_cast<double>(kOps) / 1e6 / s;
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    const std::size_t b = line.find_first_not_of(' ', colon + 1);
    return b == std::string::npos ? "" : line.substr(b);
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

// Configuration and app names reported per exec::run (fixed sets, so every
// workload reports the same per-layer metric names; absent ones read 0).
const char* const kConfigs[] = {"serial",      "sm-unopt-2cpu", "sm-opt-2cpu",
                                "sm-unopt-1cpu", "sm-opt-1cpu", "mp",
                                "sm-opt-faults", "sm-opt-crash"};
const char* const kApps[] = {"jacobi", "pde", "shallow", "grav",
                             "lu",     "cg",  "spmv"};

struct Spec {
  std::string app;
  std::string config;  // one of kConfigs
  const hpf::Program* prog = nullptr;
  exec::RunConfig cfg;
  int ref = -1;          // spec whose checksums this run must equal exactly
  int near_ref = -1;     // serial spec whose checksums this run must match
                         // to kNearTolerance (a reduction over one partial
                         // rounds differently than over N)
  bool seeded = false;   // simulated timing depends on --seed
  int crash_node = -1;   // crash leg: node that fails ...
  double crash_frac = 0; // ... at this share of the twin's elapsed time
  std::string key() const { return app + "." + config; }
  bool serial() const { return cfg.opt.mode == core::Mode::kSerial; }
};

struct Workload {
  std::string name;
  int nodes = 8;
  std::size_t block = 128;
  std::deque<hpf::Program> progs;  // stable addresses: specs point here
  std::vector<Spec> specs;
  std::string seed_use;            // how the workload uses --seed

  int add(const hpf::Program& prog, const std::string& app,
          const std::string& config, const core::Options& opt, int nnodes,
          bool dual_cpu, int ref, int near_ref = -1) {
    Spec s;
    s.app = app;
    s.config = config;
    s.prog = &prog;
    s.cfg.cluster.nnodes = nnodes;
    s.cfg.cluster.block_size = block;
    s.cfg.cluster.dual_cpu = dual_cpu;
    s.cfg.opt = opt;
    s.cfg.gather_arrays = false;
    s.ref = ref;
    s.near_ref = near_ref;
    specs.push_back(std::move(s));
    return static_cast<int>(specs.size()) - 1;
  }
};

// Problem-size factor of every workload: bench_selfperf's and bench_scale's
// default, so their numbers are directly comparable.
constexpr double kScale = 0.15;

std::unique_ptr<Workload> build_paper8() {
  auto w = std::make_unique<Workload>();
  w->name = "paper8";
  w->seed_use = "inputs do not depend on --seed (the paper's fixed suite)";
  for (const apps::AppInfo& app : apps::registry()) {
    w->progs.push_back(app.scaled(kScale));
    const hpf::Program& p = w->progs.back();
    // Parallel runs must match the transparent shared-memory run bit for
    // bit (same node count, same reduction grouping) and it the serial run
    // to rounding; cg feeds reductions back into its iteration, so its
    // serial run drifts further (as tests/apps_test.cc notes) and is not
    // compared.
    const int s = w->add(p, app.name, "serial", core::serial(), 1, true, -1);
    const int u = w->add(p, app.name, "sm-unopt-2cpu", core::shmem_unopt(), 8,
                         true, -1, app.name == "cg" ? -1 : s);
    w->add(p, app.name, "sm-opt-2cpu", core::shmem_opt_full(), 8, true, u);
    w->add(p, app.name, "sm-unopt-1cpu", core::shmem_unopt(), 8, false, u);
    w->add(p, app.name, "sm-opt-1cpu", core::shmem_opt_full(), 8, false, u);
    w->add(p, app.name, "mp", core::msg_passing(), 8, true, u);
  }
  return w;
}

std::unique_ptr<Workload> build_scale256() {
  auto w = std::make_unique<Workload>();
  w->name = "scale256";
  w->nodes = 256;
  w->seed_use = "inputs do not depend on --seed (bench_scale's fixed sizes)";
  const std::int64_t tile = static_cast<std::int64_t>(64 * kScale * 4);
  const std::int64_t rows = static_cast<std::int64_t>(512 * kScale * 4);
  // n = tile * sqrt(nodes) keeps the per-node jacobi tile fixed.
  w->progs.push_back(apps::jacobi(std::max<std::int64_t>(256, tile * 16), 8));
  w->progs.push_back(apps::spmv(rows * 256, 8, 4, /*pattern=*/0));
  for (const hpf::Program& p : w->progs) {
    const int ref = w->add(p, p.name, "serial", core::serial(), 1, true, -1);
    const int run = w->add(p, p.name, "sm-opt-2cpu", core::shmem_opt_full(),
                           256, true, -1, ref);
    w->specs[static_cast<std::size_t>(run)].cfg.cluster.collectives =
        tempest::Collectives::kBinomial;
  }
  return w;
}

std::unique_ptr<Workload> build_chaos8(std::uint64_t seed) {
  auto w = std::make_unique<Workload>();
  w->name = "chaos8_st4";
  w->seed_use =
      "fault seed, crash node and crash time derive from --seed; checksums "
      "must not";
  const std::uint64_t fault_seed = splitmix64(seed) >> 1;
  const int crash_node = 1 + static_cast<int>(splitmix64(seed + 1) % 7);
  const double crash_frac =
      0.3 + 0.4 * static_cast<double>(splitmix64(seed + 2) >> 11) * 0x1.0p-53;
  std::string err;
  const sim::FaultConfig faults = sim::FaultConfig::parse(
      "drop=0.01,dup=0.002,delay=0.05,reorder=0.01,seed=" +
          std::to_string(fault_seed),
      &err);
  FGDSM_ASSERT_MSG(err.empty(), err);
  const sim::Time watchdog =
      tempest::default_watchdog_ns(8, tempest::Collectives::kFlat);

  for (const apps::AppInfo& app : apps::registry())
    if (app.name == "jacobi") w->progs.push_back(app.scaled(2 * kScale));
  w->progs.push_back(apps::spmv(static_cast<std::int64_t>(131072 * kScale), 8,
                                static_cast<std::int64_t>(80 * kScale),
                                /*pattern=*/0));
  for (const hpf::Program& p : w->progs) {
    const int ref = w->add(p, p.name, "serial", core::serial(), 1, true, -1);
    const int twin = w->add(p, p.name, "sm-opt-2cpu", core::shmem_opt_full(),
                            8, true, -1, ref);
    const int chaos = w->add(p, p.name, "sm-opt-faults",
                             core::shmem_opt_full(), 8, true, twin);
    const int crash = w->add(p, p.name, "sm-opt-crash",
                             core::shmem_opt_full(), 8, true, twin);
    for (const int i : {twin, chaos, crash})
      w->specs[static_cast<std::size_t>(i)].cfg.cluster.sim_threads = 4;
    Spec& c = w->specs[static_cast<std::size_t>(chaos)];
    c.seeded = true;
    c.cfg.cluster.faults = faults;
    c.cfg.cluster.watchdog_ns = watchdog;
    // A checkpoint at every barrier keeps the work lost to the crash, and so
    // its seed-to-seed variation, small.
    Spec& k = w->specs[static_cast<std::size_t>(crash)];
    k.seeded = true;
    k.crash_node = crash_node;
    k.crash_frac = crash_frac;
    k.cfg.cluster.faults.enabled = true;
    k.cfg.cluster.checkpoint_every = 1;
    k.cfg.cluster.watchdog_ns = watchdog;
  }
  return w;
}

std::unique_ptr<Workload> build_workload(const std::string& name,
                                         std::uint64_t seed) {
  if (name == "paper8") return build_paper8();
  if (name == "scale256") return build_scale256();
  if (name == "chaos8_st4") return build_chaos8(seed);
  return nullptr;
}

// ---------------------------------------------------------------------------
// Running and checking
// ---------------------------------------------------------------------------

struct RunRecord {
  bool ok = false;
  std::string error;
  exec::RunResult result;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t allocs = 0;
};

std::string first_line(const char* what) {
  const std::string s(what);
  return s.substr(0, s.find('\n'));
}

RunRecord run_spec(const Spec& s, const std::string& trace_path,
                   SpanLog& log) {
  exec::RunConfig cfg = s.cfg;
  cfg.trace_path = trace_path;
  RunRecord rec;
  SpanLog::Scope span(log, "exec", "run " + s.key());
  const std::uint64_t a0 = allocation_count();
  const double c0 = process_cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  try {
    rec.result = exec::run(*s.prog, cfg);
    rec.ok = true;
  } catch (const sim::StallError& e) {
    rec.error = "stalled (exit 86): " + first_line(e.what());
  } catch (const sim::CrashError& e) {
    rec.error = "unrecoverable crash (exit 87): " + first_line(e.what());
  } catch (const std::exception& e) {
    rec.error = "error: " + first_line(e.what());
  }
  rec.wall_s = seconds_since(t0);
  rec.cpu_s = process_cpu_seconds() - c0;
  rec.allocs = allocation_count() - a0;
  return rec;
}

// Tolerance between a parallel run's checksums and the serial run's (the
// apps tests' bound): the same sums grouped differently.
constexpr double kNearTolerance = 1e-6;

// Same checksum names and values; tolerance 0 is the bench_crash gate (bit
// for bit, memcmp), otherwise a relative bound.
bool scalars_match(const std::map<std::string, double>& a,
                   const std::map<std::string, double>& b,
                   double tolerance = 0.0) {
  if (a.size() != b.size()) return false;
  auto ib = b.begin();
  for (const auto& [k, v] : a) {
    const double u = ib->second;
    const bool same =
        tolerance == 0.0
            ? std::memcmp(&u, &v, sizeof(double)) == 0
            : std::abs(u - v) <= tolerance * (1.0 + std::abs(u));
    if (ib->first != k || !same) return false;
    ++ib;
  }
  return true;
}

std::string describe(const std::map<std::string, double>& scalars) {
  std::string s;
  for (const auto& [k, v] : scalars) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s%s=%.17g", s.empty() ? "" : ",",
                  k.c_str(), v);
    s += buf;
  }
  return "{" + s + "}";
}

// Everything simulated that must repeat exactly from pass to pass.
bool same_simulation(const exec::RunResult& a, const exec::RunResult& b) {
  const util::NodeStats ta = a.stats.totals(), tb = b.stats.totals();
  return scalars_match(a.scalars, b.scalars) &&
         a.stats.elapsed_ns == b.stats.elapsed_ns &&
         a.engine_events == b.engine_events &&
         ta.messages_sent == tb.messages_sent &&
         ta.bytes_sent == tb.bytes_sent &&
         ta.read_misses == tb.read_misses &&
         ta.write_misses == tb.write_misses;
}

struct Pass {
  std::vector<RunRecord> runs;  // index-aligned with Workload::specs
  double wall_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t allocs = 0;
  // Process peak RSS when the pass ended. Only the first pass's counts:
  // the allocator keeps growing the heap over later passes of large runs,
  // so a later reading would depend on how many passes fit the time.
  double peak_rss_mib = 0.0;
};

class Runner {
 public:
  Runner(Workload& w, SpanLog& log, bool corrupt)
      : w_(w), log_(log), corrupt_(corrupt) {}

  // One pass over every spec. `trace_spec` (or -1) also records the
  // simulator's own trace to `trace_path`.
  Pass run_pass(int trace_spec = -1, const std::string& trace_path = "") {
    Pass p;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < w_.specs.size(); ++i) {
      Spec& s = w_.specs[i];
      if (s.crash_node >= 0 && s.cfg.cluster.faults.crashes.empty()) {
        const RunRecord& twin = p.runs[static_cast<std::size_t>(s.ref)];
        const sim::Time elapsed = twin.ok ? twin.result.stats.elapsed_ns : 1;
        s.cfg.cluster.faults.crashes.emplace_back(
            s.crash_node,
            std::max<sim::Time>(
                1, static_cast<sim::Time>(s.crash_frac *
                                          static_cast<double>(elapsed))));
      }
      p.runs.push_back(run_spec(
          s, static_cast<int>(i) == trace_spec ? trace_path : "", log_));
      RunRecord& r = p.runs.back();
      if (r.ok) {
        p.events += r.result.engine_events;
        if (corrupt_ && s.ref >= 0 && !r.result.scalars.empty()) {
          double& v = r.result.scalars.begin()->second;
          std::uint64_t bits;
          std::memcpy(&bits, &v, sizeof bits);
          bits ^= 1;
          std::memcpy(&v, &bits, sizeof bits);
          corrupt_ = false;
        }
      }
      p.allocs += r.allocs;
    }
    p.wall_s = seconds_since(t0);
    p.peak_rss_mib = peak_rss_mib();
    check(p);
    return p;
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  void check(const Pass& p) {
    const bool is_first = attempted_ == 0;
    for (std::size_t i = 0; i < p.runs.size(); ++i) {
      const Spec& s = w_.specs[i];
      const RunRecord& r = p.runs[i];
      // Checksums against a reference run of this pass: empty when they
      // match, otherwise what differs.
      const auto differs = [&](int ref, double tolerance) -> std::string {
        if (ref < 0) return "";
        const RunRecord& other = p.runs[static_cast<std::size_t>(ref)];
        const std::string vs = w_.specs[static_cast<std::size_t>(ref)].key();
        if (!other.ok) return "reference " + vs + " failed";
        if (scalars_match(r.result.scalars, other.result.scalars, tolerance))
          return "";
        return "checksums " + describe(r.result.scalars) + " differ from " +
               vs + "'s " + describe(other.result.scalars) +
               (tolerance > 0 ? " beyond rounding" : "");
      };
      std::string why = r.error;
      if (why.empty()) why = differs(s.ref, 0.0);
      if (why.empty()) why = differs(s.near_ref, kNearTolerance);
      if (why.empty() && s.crash_node >= 0 &&
          r.result.stats.totals().recoveries == 0)
        why = "the scheduled crash never rolled back";
      if (why.empty() && !is_first && first_.runs[i].ok &&
          !same_simulation(r.result, first_.runs[i].result))
        why = "simulated results differ from the first pass";
      ++attempted_;
      if (!why.empty()) {
        ++failed_;
        failures_.push_back(s.key() + ": " + why);
        std::fprintf(stderr, "perfbench: FAILED %s: %s\n", s.key().c_str(),
                     why.c_str());
      }
    }
    if (is_first) first_ = p;
  }

  Workload& w_;
  SpanLog& log_;
  bool corrupt_;
  Pass first_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  Summary spread;  // n == 0: a count or a derived value, not a sample set
};

// Per-spec medians of wall and CPU seconds over a set of passes.
struct SpecTimes {
  std::vector<Summary> wall, cpu;
};
SpecTimes spec_times(const std::vector<Pass>& passes, std::size_t nspecs) {
  SpecTimes t;
  for (std::size_t i = 0; i < nspecs; ++i) {
    std::vector<double> w, c;
    for (const Pass& p : passes) {
      w.push_back(p.runs[i].wall_s);
      c.push_back(p.runs[i].cpu_s);
    }
    t.wall.push_back(summarize(w));
    t.cpu.push_back(summarize(c));
  }
  return t;
}

std::vector<double> pass_walls(const std::vector<Pass>& passes) {
  std::vector<double> v;
  for (const Pass& p : passes) v.push_back(p.wall_s);
  return v;
}

// Simulated totals of one pass, over specs selected by `use`.
template <typename Pred>
util::NodeStats totals(const Workload& w, const Pass& p, Pred use) {
  util::NodeStats t;
  for (std::size_t i = 0; i < w.specs.size(); ++i)
    if (use(w.specs[i]) && p.runs[i].ok) t += p.runs[i].result.stats.totals();
  return t;
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

std::vector<Metric> end_to_end(const Workload& w,
                               const std::vector<Pass>& passes,
                               const Summary& setup) {
  const Pass& first = passes.front();
  const SpecTimes t = spec_times(passes, w.specs.size());
  double wall = 0.0, cpu = 0.0;
  for (std::size_t i = 0; i < w.specs.size(); ++i) {
    wall += t.wall[i].median;
    cpu += t.cpu[i].median;
  }
  std::vector<double> alloc_rate;
  for (const Pass& p : passes)
    alloc_rate.push_back(ratio(p.allocs, p.events));

  // The simulated metrics cover the runs that do not depend on --seed, so
  // they repeat exactly across seeds; the fault and crash legs show up in
  // the per-layer counters instead.
  const auto fixed = [](const Spec& s) { return !s.seeded; };
  const util::NodeStats sim = totals(w, first, fixed);
  double sim_ms = 0.0;
  for (std::size_t i = 0; i < w.specs.size(); ++i)
    if (!w.specs[i].seeded && !w.specs[i].serial() && first.runs[i].ok)
      sim_ms +=
          static_cast<double>(first.runs[i].result.stats.elapsed_ns) / 1e6;

  const Summary walls = summarize(pass_walls(passes));
  return {
      {"wall_s", wall, "s", walls},
      {"events_per_s",
       wall > 0 ? static_cast<double>(first.events) / wall : 0.0, "events/s",
       {}},
      {"cpu_s", cpu, "s", {}},
      {"peak_rss_mib", first.peak_rss_mib, "MiB", {}},
      {"allocs_per_event", summarize(alloc_rate).median, "allocs/event",
       summarize(alloc_rate)},
      {"setup_s", setup.median, "s", setup},
      {"sim_time_ms", sim_ms, "sim_ms", {}},
      {"sim_msgs", static_cast<double>(sim.messages_sent), "count", {}},
      {"sim_misses", static_cast<double>(sim.total_misses()), "count", {}},
  };
}

struct HostFacts {
  unsigned nproc = std::thread::hardware_concurrency();
  std::string cpu = cpu_model();
  std::string compiler = PERFBENCH_COMPILER;
  std::string build_type = PERFBENCH_BUILD_TYPE;
  double calibration_mops = 0.0;
};

struct LayerTimes {
  Summary event_ns, fiber_ns, channel_ns, miss_ns, chunk_ns, scan_us,
      ckpt_ns_per_mib;
  CompilerTimes compiler;
};

std::vector<Metric> per_layer(const Workload& w, const LayerTimes& lt,
                              const std::vector<Pass>& untraced,
                              const std::vector<Pass>& traced,
                              const Runner& runner, const HostFacts& host,
                              std::size_t spans) {
  const Pass& first = untraced.front();
  const auto all = [](const Spec&) { return true; };
  const util::NodeStats tot = totals(w, first, all);
  const util::NodeStats mp = totals(w, first, [](const Spec& s) {
    return s.cfg.opt.mode == core::Mode::kMsgPassing;
  });
  // Like the end-to-end sim_* metrics: the runs whose inputs are fixed.
  std::uint64_t fixed_events = 0;
  for (std::size_t i = 0; i < w.specs.size(); ++i)
    if (!w.specs[i].seeded && first.runs[i].ok)
      fixed_events += first.runs[i].result.engine_events;

  const std::uint64_t plan_lookups =
      tot.plan_cache_hits + tot.plan_cache_misses;
  const std::uint64_t sched_lookups =
      tot.sched_cache_hits + tot.sched_cache_misses;
  const Summary untraced_wall = summarize(pass_walls(untraced));
  const Summary traced_wall = summarize(pass_walls(traced));
  const auto ms = [](std::int64_t ns) { return static_cast<double>(ns) / 1e6; };
  const auto count = [](std::uint64_t n) { return static_cast<double>(n); };

  std::vector<Metric> m = {
      {"sim.events", count(fixed_events), "count", {}},
      {"sim.event_ns", lt.event_ns.median, "ns", lt.event_ns},
      {"sim.fiber_switch_ns", lt.fiber_ns.median, "ns", lt.fiber_ns},
      {"sim.channel_send_ack_ns", lt.channel_ns.median, "ns", lt.channel_ns},
      {"sim.retransmits", count(tot.retransmits), "count", {}},
      {"sim.channel_acks", count(tot.channel_acks), "count", {}},
      {"sim.faults_dropped", count(tot.faults_dropped), "count", {}},
      {"tempest.ensure_chunk_ns", lt.chunk_ns.median, "ns", lt.chunk_ns},
      {"tempest.checkpoint_ns_per_mib", lt.ckpt_ns_per_mib.median, "ns/MiB",
       lt.ckpt_ns_per_mib},
      {"tempest.checkpoint_bytes", count(tot.checkpoint_bytes), "B", {}},
      {"tempest.messages", count(tot.messages_sent), "count", {}},
      {"tempest.bytes", count(tot.bytes_sent), "B", {}},
      {"proto.read_miss_host_ns", lt.miss_ns.median, "ns", lt.miss_ns},
      {"proto.read_misses", count(tot.read_misses), "count", {}},
      {"proto.write_misses", count(tot.write_misses), "count", {}},
      {"proto.invalidations", count(tot.invalidations_received), "count", {}},
      {"hpf.analyze_transfers_us", lt.compiler.analyze_transfers_us.median,
       "us", lt.compiler.analyze_transfers_us},
      {"hpf.chunk_footprint_ns", lt.compiler.chunk_footprint_ns.median, "ns",
       lt.compiler.chunk_footprint_ns},
      {"core.plan_us", lt.compiler.plan_us.median, "us", lt.compiler.plan_us},
      {"core.plan_cache_hit_ratio", ratio(tot.plan_cache_hits, plan_lookups),
       "ratio", {}},
      {"core.plan_lookups", count(plan_lookups), "count", {}},
      {"irreg.scan_us", lt.scan_us.median, "us", lt.scan_us},
      {"irreg.inspections", count(tot.irreg_inspections), "count", {}},
      {"irreg.sched_hit_ratio", ratio(tot.sched_cache_hits, sched_lookups),
       "ratio", {}},
  };
  // Host seconds per exec::run, summed by configuration and by app.
  const SpecTimes t = spec_times(untraced, w.specs.size());
  for (const char* c : kConfigs) {
    double s = 0.0;
    for (std::size_t i = 0; i < w.specs.size(); ++i)
      if (w.specs[i].config == c) s += t.wall[i].median;
    m.push_back({std::string("exec.run_s.") + c, s, "s", {}});
  }
  for (const char* a : kApps) {
    double s = 0.0;
    for (std::size_t i = 0; i < w.specs.size(); ++i)
      if (w.specs[i].app == a) s += t.wall[i].median;
    m.push_back({std::string("exec.run_s.") + a, s, "s", {}});
  }
  const std::vector<Metric> tail = {
      {"exec.compute_ms", ms(tot.compute_ns), "sim_ms", {}},
      {"exec.miss_ms", ms(tot.miss_ns), "sim_ms", {}},
      {"exec.ccc_ms", ms(tot.ccc_ns), "sim_ms", {}},
      {"exec.sync_ms", ms(tot.sync_ns), "sim_ms", {}},
      {"exec.ccc_messages", count(tot.ccc_messages_sent), "count", {}},
      {"exec.ccc_calls_elided", count(tot.ccc_calls_elided), "count", {}},
      {"mp.messages", count(mp.messages_sent), "count", {}},
      {"trace.untraced_wall_s", untraced_wall.median, "s", untraced_wall},
      {"trace.traced_wall_s", traced_wall.median, "s", traced_wall},
      {"trace.overhead_frac",
       untraced_wall.median > 0
           ? traced_wall.median / untraced_wall.median - 1.0
           : 0.0,
       "ratio", {}},
      {"trace.spans", count(spans), "count", {}},
      {"failed_frac", ratio(runner.failed(), runner.attempted()), "ratio", {}},
      {"host.calibration_mops", host.calibration_mops, "Mops/s", {}},
      {"host.nproc", count(host.nproc), "count", {}},
  };
  m.insert(m.end(), tail.begin(), tail.end());
  return m;
}

// ---------------------------------------------------------------------------
// Layer timings that need the workload's own runs
// ---------------------------------------------------------------------------

// Host cost of Cluster::capture_checkpoint, which is not public: the same
// spec with and without a checkpoint at every barrier, the wall-time
// difference divided by the checkpointed volume. Runs alternate so drift
// hits both sides alike.
Summary checkpoint_ns_per_mib(const Spec& base, int reps, SpanLog& log) {
  Spec ckpt = base;
  ckpt.cfg.cluster.checkpoint_every = 1;
  std::vector<double> per_mib;
  for (int r = 0; r < reps; ++r) {
    const RunRecord plain = run_spec(base, "", log);
    const RunRecord with = run_spec(ckpt, "", log);
    if (!plain.ok || !with.ok) continue;
    const double mib =
        static_cast<double>(with.result.stats.totals().checkpoint_bytes) /
        (1024.0 * 1024.0);
    if (mib > 0) per_mib.push_back((with.wall_s - plain.wall_s) * 1e9 / mib);
  }
  return summarize(std::move(per_mib));
}

// Every per-layer host timing of a workload, on its own programs and node
// count.
LayerTimes time_layers(const Workload& w, SpanLog& log) {
  std::vector<const hpf::Program*> progs;
  for (const hpf::Program& p : w.progs) progs.push_back(&p);
  // The inspector scans the workload's own spmv, or for paper8 (whose
  // suite has no irregular loop) bench_selfperf's spmv.
  const hpf::Program* spmv = nullptr;
  for (const hpf::Program& p : w.progs)
    if (p.name == "spmv") spmv = &p;
  hpf::Program selfperf_spmv;
  if (spmv == nullptr) {
    selfperf_spmv = apps::spmv(static_cast<std::int64_t>(4096 * kScale), 8, 4,
                               /*pattern=*/0);
    spmv = &selfperf_spmv;
  }

  LayerTimes lt;
  lt.event_ns = sim_event_ns(log);
  lt.fiber_ns = sim_fiber_switch_ns(log);
  lt.channel_ns = sim_channel_send_ack_ns(log);
  lt.miss_ns = proto_read_miss_host_ns(log);
  lt.compiler = compiler_layers(progs, w.nodes, w.block, log);
  lt.chunk_ns = tempest_ensure_chunk_ns(progs, w.nodes, w.block, log);
  lt.scan_us = irreg_scan_us(*spmv, w.nodes, w.block, log);
  // Checkpoint capture on the first fixed-input shared-memory run.
  for (const Spec& s : w.specs)
    if (!s.seeded && !s.serial() &&
        s.cfg.opt.mode != core::Mode::kMsgPassing) {
      lt.ckpt_ns_per_mib = checkpoint_ns_per_mib(s, 3, log);
      break;
    }
  return lt;
}

// The fixed-input parallel run with the fewest events: the one whose
// simulated timeline a traced pass records (-1 if none succeeded).
int smallest_parallel_run(const Workload& w, const Pass& p) {
  int best = -1;
  for (std::size_t i = 0; i < w.specs.size(); ++i) {
    const RunRecord& r = p.runs[i];
    if (w.specs[i].seeded || w.specs[i].serial() || !r.ok) continue;
    if (best < 0 || r.result.engine_events <
                        p.runs[static_cast<std::size_t>(best)]
                            .result.engine_events)
      best = static_cast<int>(i);
  }
  return best;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_metrics(const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::printf("  %-34s %16.6g %-7s", m.name.c_str(), m.value, m.unit.c_str());
    if (m.spread.n > 0)
      std::printf("  median of %zu: q1 %.6g, q3 %.6g", m.spread.n,
                  m.spread.q1, m.spread.q3);
    std::printf("\n");
  }
}

std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const std::vector<Metric>& ms) {
  std::string s = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(attempted) +
                  ", \"failed\": " + std::to_string(failed) +
                  ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"" + ms[i].name + "\": {\"value\": " + fmt(ms[i].value) +
         ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return s + "}}";
}

void write_report(const std::string& path, const Workload& w,
                  std::uint64_t seed, const HostFacts& host,
                  const std::vector<Metric>& ms,
                  const std::vector<Pass>& passes, const Runner& runner) {
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  util::JsonWriter j(f);
  j.begin_object();
  j.kv("workload", w.name);
  j.kv("seed", seed);
  j.kv("seed_use", w.seed_use);
  j.key("host");
  j.begin_object();
  j.kv("nproc", static_cast<std::uint64_t>(host.nproc));
  j.kv("cpu", host.cpu);
  j.kv("compiler", host.compiler);
  j.kv("build_type", host.build_type);
  j.kv("calibration_mops", host.calibration_mops);
  j.end_object();
  j.key("metrics");
  j.begin_object();
  for (const Metric& m : ms) {
    j.key(m.name);
    j.begin_object();
    j.kv("value", m.value);
    j.kv("unit", m.unit);
    if (m.spread.n > 0) {
      j.kv("q1", m.spread.q1);
      j.kv("q3", m.spread.q3);
      j.kv("n", static_cast<std::uint64_t>(m.spread.n));
    }
    j.end_object();
  }
  j.end_object();
  j.key("runs");
  j.begin_array();
  const SpecTimes t = spec_times(passes, w.specs.size());
  for (std::size_t i = 0; i < w.specs.size(); ++i) {
    const RunRecord& r = passes.front().runs[i];
    j.begin_object();
    j.kv("run", w.specs[i].key());
    j.kv("wall_s", t.wall[i].median);
    j.kv("wall_s_q1", t.wall[i].q1);
    j.kv("wall_s_q3", t.wall[i].q3);
    j.kv("n", static_cast<std::uint64_t>(t.wall[i].n));
    j.kv("cpu_s", t.cpu[i].median);
    j.kv("sim_elapsed_ns", r.result.stats.elapsed_ns);
    j.kv("events", r.result.engine_events);
    j.end_object();
  }
  j.end_array();
  j.key("failures");
  j.begin_array();
  for (const std::string& s : runner.failures()) j.value(s);
  j.end_array();
  j.end_object();
  f << '\n';
}

// Set-up: program and spec construction. It takes microseconds, so one
// sample is noise; each call times kSetupReps builds and returns the last.
constexpr int kSetupReps = 101;

std::unique_ptr<Workload> time_setup(const std::string& name,
                                     std::uint64_t seed, SpanLog& log,
                                     std::vector<double>* samples) {
  std::unique_ptr<Workload> w;
  for (int r = 0; r < kSetupReps; ++r) {
    SpanLog::Scope span(log, "apps", "build " + name);
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<Workload> built = build_workload(name, seed);
    samples->push_back(seconds_since(t0));
    if (!built) return nullptr;
    w = std::move(built);  // the previous build is freed outside the timing
  }
  return w;
}

int perfbench_main(int argc, char** argv) {
  util::Options o(argc, argv);
  o.check_known({"workload", "seed", "seconds", "trace", "out-dir",
                 "corrupt-checksum"});
  const std::string name = o.get("workload", "");
  const std::uint64_t seed = static_cast<std::uint64_t>(o.get_int("seed", 1));
  const double seconds = o.get_double("seconds", 10.0);
  const bool trace = o.get_int("trace", 0) != 0;
  const std::string out_dir = o.get("out-dir", "");
  if (seconds < 0) {
    std::fprintf(stderr, "perfbench: --seconds must be >= 0\n");
    return 2;
  }

  HostFacts host;
  host.calibration_mops = calibrate_mops();
  SpanLog log(trace);

  std::vector<double> setup_samples;
  const std::unique_ptr<Workload> w =
      time_setup(name, seed, log, &setup_samples);
  if (!w) {
    std::fprintf(stderr,
                 "perfbench: unknown --workload '%s' (paper8, scale256, "
                 "chaos8_st4)\n",
                 name.c_str());
    return 2;
  }
  std::printf("perfbench %s seed=%" PRIu64 " trace=%d: %zu simulations per "
              "pass, %d nodes; %s\n",
              w->name.c_str(), seed, trace ? 1 : 0, w->specs.size(), w->nodes,
              w->seed_use.c_str());
  std::printf("host: nproc=%u cpu=\"%s\" compiler=\"%s\" build=%s "
              "calibration=%.0f Mops/s (splitmix64)\n",
              host.nproc, host.cpu.c_str(), host.compiler.c_str(),
              host.build_type.c_str(), host.calibration_mops);

  Runner runner(*w, log, o.get_bool("corrupt-checksum"));
  const Clock::time_point start = Clock::now();
  std::vector<Metric> metrics;
  std::vector<Pass> passes;  // untraced passes

  if (!trace) {
    log.set_enabled(false);
    do {
      passes.push_back(runner.run_pass());
      // More set-up samples, spread over the run like the passes.
      time_setup(name, seed, log, &setup_samples);
    } while (seconds_since(start) +
                 summarize(pass_walls(passes)).median <=
             seconds);
    metrics = end_to_end(*w, passes, summarize(setup_samples));
  } else {
    const LayerTimes lt = time_layers(*w, log);

    // Untraced and traced passes alternate; the first untraced pass also
    // picks the spec whose simulated timeline is traced.
    std::vector<Pass> traced;
    int trace_spec = -1;
    const std::string sim_trace =
        out_dir.empty() ? "" : out_dir + "/" + w->name + ".sim-trace.json";
    const Clock::time_point passes_start = Clock::now();
    do {
      log.set_enabled(false);
      passes.push_back(runner.run_pass());
      if (trace_spec < 0) trace_spec = smallest_parallel_run(*w, passes[0]);
      log.set_enabled(true);
      traced.push_back(runner.run_pass(trace_spec, sim_trace));
    } while (seconds_since(start) +
                 (seconds_since(passes_start) /
                  static_cast<double>(passes.size())) <=
             seconds);

    metrics = per_layer(*w, lt, passes, traced, runner, host, log.size());
    if (trace_spec >= 0)
      std::printf("simulated trace: %s (a traced run uses one engine "
                  "worker)\n",
                  w->specs[static_cast<std::size_t>(trace_spec)].key().c_str());
  }

  std::printf("per-run host seconds (median over passes):\n");
  const SpecTimes t = spec_times(passes, w->specs.size());
  for (std::size_t i = 0; i < w->specs.size(); ++i)
    std::printf("  exec.run_s.%-28s %10.4f s\n", w->specs[i].key().c_str(),
                t.wall[i].median);
  std::printf("metrics:\n");
  print_metrics(metrics);

  if (!out_dir.empty()) {
    const std::string stem = out_dir + "/" + w->name;
    write_report(stem + (trace ? ".trace-report.json" : ".report.json"), *w,
                 seed, host, metrics, passes, runner);
    if (trace && !log.write_chrome(stem + ".host-trace.json"))
      std::fprintf(stderr, "perfbench: cannot write %s.host-trace.json\n",
                   stem.c_str());
  }

  const bool correct = runner.failed() == 0;
  std::printf("simulations: %" PRIu64 " attempted, %" PRIu64 " failed\n",
              runner.attempted(), runner.failed());
  std::printf("%s\n", result_line(correct, runner.attempted(),
                                  runner.failed(), metrics)
                          .c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace fgdsm::perfbench

int main(int argc, char** argv) {
  return fgdsm::perfbench::perfbench_main(argc, argv);
}
