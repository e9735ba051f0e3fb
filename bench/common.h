// Shared infrastructure for the experiment harnesses (one binary per paper
// table/figure). Each binary accepts:
//   --scale=<s>     problem-size scale factor (1.0 = the paper's Table 2
//                   sizes; default 0.15 keeps a bare run quick; EXPERIMENTS.md records --scale=0.5 and --full runs)
//   --nodes=<n>     cluster size (default 8, as in the paper; values
//                   outside [1, tempest::kMaxNodes] are rejected)
//   --collectives=<flat|binary|binomial|twolevel[:G]>  barrier/reduction
//                   topology (default flat — the paper's centralized
//                   coordinator; the tree shapes are the scaling ablation,
//                   twolevel takes an optional group size G, 0 = auto)
//   --block=<b>     coherence block size in bytes (default 128)
//   --app=<name>    restrict to one of the applications the harness runs
//                   (any other name exits 2 with a suggestion; harnesses
//                   whose experiments are fixed reject --app)
//   --jobs=<n>      host threads for independent runs (default 1; results
//                   are byte-identical at any job count)
//   --full          shorthand for --scale=1.0
//   --json=<file>   also write machine-readable results (schema
//                   fgdsm-bench-v1; byte-identical at any --jobs count)
//   --trace=<file>  Chrome trace_event JSON of the first spec built by
//                   make_spec — combine with --app=<name> (and a
//                   single-config harness) to pick the traced run
//   --per-loop      print the per-parallel-loop breakdown after each table
//   --check-coherence  run the protocol invariant checker at every barrier
//   --faults=<spec> chaos mode: deterministic fault injection + reliable
//                   transport (drop=P,dup=P,delay=P,reorder=P,delay-ns=N,
//                   rto-ns=N,retries=K,seed=S, plus fail-stop crashes:
//                   crash=<node>@<ns> repeatable, crashp=P per barrier);
//                   see src/sim/fault.h
//   --checkpoint-every=<k>  capture a rollback checkpoint at every k-th
//                   barrier completion (default 0 = off). Crashed runs
//                   recover bit-identically to fault-free results; a crash
//                   with no checkpoint exits with code 87
//   --watchdog-ns=<n>  virtual-time stall watchdog (default 2e9 with
//                   --faults, otherwise off); stalls exit with code 86
//   --sim-threads=<n>  worker threads INSIDE each simulation (conservative
//                   synchronous-window PDES; default 1). Results are
//                   bit-identical at any value; the effective count shares
//                   the host-core budget with --jobs (sim::HostBudget)
//

// Unrecognized --flags are fatal (exit 2) with a closest-match suggestion.
//
// Harnesses build their whole (app x configuration) sweep as a matrix of
// ExperimentSpecs and execute it through run_matrix, which fans the
// independent simulations out over exec::BatchRunner's thread pool.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/apps.h"
#include "src/core/options.h"
#include "src/exec/batch.h"
#include "src/exec/executor.h"
#include "src/sim/engine.h"
#include "src/sim/fault.h"
#include "src/util/json.h"
#include "src/util/options.h"
#include "src/util/stats.h"

namespace fgdsm::bench {

// Exits 2 unless `value` is one of `choices`, naming --`flag` and the closest
// choice (or every choice, when none is a plausible typo).
inline void require_one_of(const char* flag, const std::string& value,
                           const std::vector<std::string>& choices) {
  if (std::find(choices.begin(), choices.end(), value) != choices.end())
    return;
  const std::string hint = util::Options::closest_match(value, choices);
  std::fprintf(stderr, "fgdsm: unknown --%s=%s", flag, value.c_str());
  if (!hint.empty()) {
    std::fprintf(stderr, " (did you mean --%s=%s?)", flag, hint.c_str());
  } else {
    std::fprintf(stderr, " (expected one of:");
    for (const auto& name : choices) std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, ")");
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

// The names of every app in apps::registry(): the suite the paper harnesses
// run.
inline std::vector<std::string> registry_names() {
  std::vector<std::string> names;
  for (const auto& a : apps::registry()) names.push_back(a.name);
  return names;
}

// --nodes (default 8) and --sim-threads (default 1), read alike by
// BenchConfig::from_args and bench_selfperf: a value out of range exits 2
// naming the flag.
inline int nodes_flag(const util::Options& o) {
  const std::int64_t nodes = o.get_int("nodes", 8);
  if (nodes < 1 || nodes > tempest::kMaxNodes) {
    std::fprintf(stderr,
                 "fgdsm: --nodes=%lld is outside the supported range [1, %d] "
                 "(index/bitmask arithmetic is only validated up to this "
                 "size)\n",
                 static_cast<long long>(nodes), tempest::kMaxNodes);
    std::exit(2);
  }
  return static_cast<int>(nodes);
}
inline int sim_threads_flag(const util::Options& o) {
  const std::int64_t threads = o.get_int("sim-threads", 1);
  if (threads < 1) {
    std::fprintf(stderr, "fgdsm: --sim-threads must be >= 1\n");
    std::exit(2);
  }
  return static_cast<int>(threads);
}

struct BenchConfig {
  double scale = 0.15;
  int nodes = 8;
  std::size_t block = 128;
  int jobs = 1;
  std::optional<std::string> only_app;
  bool per_loop = false;       // print per-parallel-loop breakdowns
  std::string json_path;       // --json=<file>; empty = off
  std::string trace_path;      // --trace=<file>; the first make_spec takes it
  bool check_coherence = false;
  sim::FaultConfig faults;     // --faults=<spec>; disabled by default
  sim::Time watchdog_ns = 0;   // --watchdog-ns=<n>; 0 = off
  int checkpoint_every = 0;    // --checkpoint-every=<k>; 0 = off
  int sim_threads = 1;         // --sim-threads=<n>; workers per simulation
  tempest::Collectives collectives = tempest::Collectives::kFlat;
  int collective_group = 0;    // twolevel fan-out; 0 = auto

  // `apps` names the applications the harness runs, one of which --app may
  // select; any other name exits 2 with a suggestion. A harness whose
  // experiments are fixed passes {} and rejects --app as an unknown flag.
  // `extra_known` declares harness-specific flags beyond the shared set
  // (strict mode rejects everything else).
  static BenchConfig from_args(int argc, const char* const* argv,
                               const std::vector<std::string>& apps,
                               const std::vector<std::string>& extra_known =
                                   {}) {
    util::Options o(argc, argv);
    std::vector<std::string> known = {
        "scale", "nodes", "block", "app", "jobs", "full", "json", "trace",
        "per-loop", "check-coherence", "faults", "watchdog-ns",
        "sim-threads", "collectives", "checkpoint-every"};
    if (apps.empty()) std::erase(known, "app");
    known.insert(known.end(), extra_known.begin(), extra_known.end());
    o.check_known(known);
    BenchConfig c;
    c.scale = o.get_double("scale", o.get_bool("full") ? 1.0 : 0.15);
    c.nodes = nodes_flag(o);
    c.block = static_cast<std::size_t>(o.get_int("block", 128));
    c.jobs = static_cast<int>(o.get_int("jobs", 1));
    if (o.has("app")) {
      c.only_app = o.get("app");
      require_one_of("app", *c.only_app, apps);
    }
    c.per_loop = o.get_bool("per-loop");
    if (o.has("json")) c.json_path = o.get("json");
    if (o.has("trace")) c.trace_path = o.get("trace");
    c.check_coherence = o.get_bool("check-coherence");
    if (o.has("faults")) {
      std::string err;
      c.faults = sim::FaultConfig::parse(o.get("faults"), &err);
      if (!err.empty()) {
        std::fprintf(stderr, "fgdsm: bad --faults spec: %s\n", err.c_str());
        std::exit(2);
      }
    }
    if (o.has("collectives")) {
      if (!tempest::parse_collectives(o.get("collectives"), &c.collectives,
                                      &c.collective_group)) {
        std::fprintf(stderr,
                     "fgdsm: bad --collectives value '%s' (expected "
                     "flat|binary|binomial|twolevel[:G])\n",
                     o.get("collectives").c_str());
        std::exit(2);
      }
    }
    // A fault run that wedges should diagnose itself, not hang CI: the
    // watchdog defaults on whenever faults are enabled. The budget scales
    // with node count and collective depth (2e9 virtual ns at the paper's
    // 8 nodes — see tempest::default_watchdog_ns) so healthy large-cluster
    // chaos runs don't false-trip exit 86.
    c.watchdog_ns = static_cast<sim::Time>(o.get_int(
        "watchdog-ns",
        c.faults.enabled ? tempest::default_watchdog_ns(c.nodes, c.collectives)
                         : 0));
    c.sim_threads = sim_threads_flag(o);
    c.checkpoint_every = static_cast<int>(o.get_int("checkpoint-every", 0));
    if (c.checkpoint_every < 0) {
      std::fprintf(stderr, "fgdsm: --checkpoint-every must be >= 0\n");
      std::exit(2);
    }
    return c;
  }

  bool selected(const std::string& app) const {
    return !only_app || *only_app == app;
  }
};

// Spec for one run of `prog` under `opt` and the run-wide settings of `cfg`;
// gather_arrays stays off (programs verify themselves through checksum
// scalars). The first spec built takes cfg.trace_path, so --trace records
// one run: combine it with --app (and a harness whose first registered
// configuration is the one wanted) to choose which.
inline exec::ExperimentSpec make_spec(BenchConfig& cfg,
                                      const hpf::Program& prog,
                                      const core::Options& opt, int nodes,
                                      bool dual_cpu, std::size_t block) {
  exec::ExperimentSpec s;
  s.program = &prog;
  s.config.cluster.nnodes = nodes;
  s.config.cluster.block_size = block;
  s.config.cluster.dual_cpu = dual_cpu;
  s.config.opt = opt;
  s.config.gather_arrays = false;
  s.config.cluster.check_coherence = cfg.check_coherence;
  s.config.cluster.faults = cfg.faults;
  s.config.cluster.watchdog_ns = cfg.watchdog_ns;
  s.config.cluster.checkpoint_every = cfg.checkpoint_every;
  s.config.cluster.sim_threads = cfg.sim_threads;
  s.config.cluster.collectives = cfg.collectives;
  s.config.cluster.collective_group = cfg.collective_group;
  s.config.trace_path = std::exchange(cfg.trace_path, {});
  s.label = opt.label();
  return s;
}

// Machine-readable results (--json). One schema for every harness:
//   {"schema":"fgdsm-bench-v1","bench":<name>,
//    "config":{scale,nodes,block,check_coherence},
//    "metrics":{<name>:<value>,...},
//    "runs":[{app,config,elapsed_ns,scalars,totals,per_node,per_loop},...]}
// The file depends only on simulated results — never on host timing or the
// --jobs count — so it is byte-identical across job counts.
class JsonReport {
 public:
  JsonReport(std::string bench, const BenchConfig& cfg)
      : bench_(std::move(bench)), cfg_(cfg) {}

  bool enabled() const { return !cfg_.json_path.empty(); }

  void add_run(const std::string& app, const std::string& config,
               const exec::RunResult& r) {
    if (enabled()) runs_.push_back(Run{app, config, r});
  }
  // Harness-specific summary values (e.g. round-trip latency, speedups).
  void add_metric(const std::string& name, double v) {
    if (enabled()) metrics_[name] = v;
  }

  // Write the file (no-op without --json). Logs to stderr, never stdout —
  // the human-readable output must stay byte-identical with and without it.
  void write() const {
    if (!enabled()) return;
    std::ofstream f(cfg_.json_path);
    if (!f) {
      std::fprintf(stderr, "fgdsm: cannot open json file '%s'\n",
                   cfg_.json_path.c_str());
      return;
    }
    util::JsonWriter w(f);
    w.begin_object();
    w.kv("schema", "fgdsm-bench-v1");
    w.kv("bench", bench_);
    w.key("config");
    w.begin_object();
    w.kv("scale", cfg_.scale);
    w.kv("nodes", cfg_.nodes);
    w.kv("block", static_cast<std::uint64_t>(cfg_.block));
    w.kv("check_coherence", cfg_.check_coherence);
    w.end_object();
    w.key("metrics");
    w.begin_object();
    for (const auto& [k, v] : metrics_) w.kv(k, v);
    w.end_object();
    w.key("runs");
    w.begin_array();
    for (const Run& r : runs_) {
      w.begin_object();
      w.kv("app", r.app);
      w.kv("config", r.config);
      w.kv("elapsed_ns", static_cast<std::int64_t>(r.result.stats.elapsed_ns));
      w.key("scalars");
      w.begin_object();
      for (const auto& [k, v] : r.result.scalars) w.kv(k, v);
      w.end_object();
      w.key("totals");
      emit_stats(w, r.result.stats.totals());
      w.key("per_node");
      w.begin_array();
      for (const auto& ns : r.result.stats.node) emit_stats(w, ns);
      w.end_array();
      w.key("per_loop");
      w.begin_object();
      for (const auto& [loop, ns] : r.result.stats.per_loop) {
        w.key(loop);
        emit_stats(w, ns);
      }
      w.end_object();
      w.end_object();
    }
    w.end_array();
    w.end_object();
    f << '\n';
    std::fprintf(stderr, "fgdsm: wrote %s\n", cfg_.json_path.c_str());
  }

 private:
  static void emit_stats(util::JsonWriter& w, const util::NodeStats& s) {
    w.begin_object();
    util::NodeStats::visit_fields(
        s, [&w](const char* name, auto v) { w.kv(name, v); });
    w.kv("comm_ns", s.comm_ns());
    w.end_object();
  }

  struct Run {
    std::string app;
    std::string config;
    exec::RunResult result;
  };
  std::string bench_;
  BenchConfig cfg_;
  std::map<std::string, double> metrics_;  // ordered: deterministic output
  std::vector<Run> runs_;
};

// --per-loop: one line per parallel loop of a run, printed under the
// harness's own table (opt-in so the default output stays byte-stable).
inline void print_per_loop(const std::string& title,
                           const exec::RunResult& r) {
  std::printf("  per-loop breakdown — %s\n", title.c_str());
  std::printf("    %-16s %9s %9s %12s %12s %12s %12s\n", "loop", "rd miss",
              "wr miss", "compute", "miss", "ccc", "sync");
  for (const auto& [name, s] : r.stats.per_loop)
    std::printf("    %-16s %9llu %9llu %12s %12s %12s %12s\n", name.c_str(),
                static_cast<unsigned long long>(s.read_misses),
                static_cast<unsigned long long>(s.write_misses),
                util::format_ns(s.compute_ns).c_str(),
                util::format_ns(s.miss_ns).c_str(),
                util::format_ns(s.ccc_ns).c_str(),
                util::format_ns(s.sync_ns).c_str());
}

// A sweep matrix: named specs accumulated by the harness, executed in one
// batch, results addressed back by (row, column) label.
class RunMatrix {
 public:
  explicit RunMatrix(BenchConfig& cfg) : cfg_(cfg) {}

  // Register one cell; `row` is typically the app name and `col` the
  // configuration label. Programs must outlive run().
  void add(const std::string& row, const std::string& col,
           exec::ExperimentSpec spec) {
    keys_.push_back(row + "/" + col);
    spec.label = keys_.back();
    specs_.push_back(std::move(spec));
  }

  // Convenience: build the spec inline.
  void add(const std::string& row, const std::string& col,
           const hpf::Program& prog, const core::Options& opt, int nodes,
           bool dual_cpu, std::size_t block) {
    add(row, col, make_spec(cfg_, prog, opt, nodes, dual_cpu, block));
  }

  // Execute every cell on --jobs host threads. Results are byte-identical
  // for any job count (see exec::BatchRunner). A stalled simulation (the
  // watchdog fired or a channel retry budget ran out) terminates the whole
  // harness with the structured diagnostic and exit code 86.
  void run() {
    try {
      const std::vector<exec::RunResult> out =
          exec::BatchRunner(cfg_.jobs).run_all(specs_);
      for (std::size_t i = 0; i < out.size(); ++i)
        results_[keys_[i]] = out[i];
    } catch (const sim::CrashError& e) {
      sim::exit_crash(e);  // unrecoverable fail-stop: exit 87
    } catch (const sim::StallError& e) {
      sim::exit_stall(e);
    }
  }

  const exec::RunResult& at(const std::string& row,
                            const std::string& col) const {
    auto it = results_.find(row + "/" + col);
    FGDSM_ASSERT_MSG(it != results_.end(),
                     "no matrix cell " << row << "/" << col);
    return it->second;
  }

  std::size_t size() const { return specs_.size(); }

  // Feed every cell into a JsonReport in registration order, splitting the
  // "row/col" key back into (app, config).
  void export_to(JsonReport& jr) const {
    for (const std::string& key : keys_) {
      auto it = results_.find(key);
      if (it == results_.end()) continue;
      const std::size_t slash = key.find('/');
      jr.add_run(key.substr(0, slash),
                 slash == std::string::npos ? "" : key.substr(slash + 1),
                 it->second);
    }
  }

 private:
  BenchConfig& cfg_;
  std::vector<exec::ExperimentSpec> specs_;
  std::vector<std::string> keys_;
  std::map<std::string, exec::RunResult> results_;
};

// One run outside a RunMatrix, for harnesses that measure cells one at a
// time. Failures exit as RunMatrix::run does: 87 for an unrecoverable
// crash, 86 for a stall.
inline exec::RunResult run_spec(const exec::ExperimentSpec& s) {
  try {
    return exec::run(*s.program, s.config);
  } catch (const sim::CrashError& e) {
    sim::exit_crash(e);
  } catch (const sim::StallError& e) {
    sim::exit_stall(e);
  }
}

// Largest m with m*m <= v. Weak-scaled problem sizes use it instead of
// std::sqrt, so libm rounding cannot choose the problem size.
inline std::int64_t isqrt(std::int64_t v) {
  std::int64_t m = 0;
  while ((m + 1) * (m + 1) <= v) ++m;
  return m;
}

// A weak-scaled program, as bench_scale, bench_crash and bench_selfperf run
// it: at --scale s (at least 0.05) each node owns a jacobi tile of side
// 256·s (at least 8) or 2048·s spmv rows (at least 64), so the work per
// node stays fixed as the cluster grows. jacobi relaxes an n x n grid, n = tile·isqrt(nodes), for
// `sweeps` sweeps; spmv multiplies n = rows·nodes banded rows, k = 8, for
// `iters` iterations. The defaults are bench_scale's.
struct WeakScaled {
  std::int64_t n = 0;  // linear problem size
  hpf::Program prog;
};
inline WeakScaled weak_scaled(const std::string& app, double scale, int nodes,
                              std::int64_t sweeps = 8,
                              std::int64_t iters = 4) {
  const double s = std::max(0.05, scale);
  if (app == "jacobi") {
    const std::int64_t tile =
        std::max<std::int64_t>(8, static_cast<std::int64_t>(64 * s * 4));
    const std::int64_t n =
        std::max<std::int64_t>(nodes, tile * isqrt(nodes));
    return {n, apps::jacobi(n, sweeps)};
  }
  FGDSM_ASSERT_MSG(app == "spmv", "no weak-scaled program " << app);
  const std::int64_t rows =
      std::max<std::int64_t>(64, static_cast<std::int64_t>(512 * s * 4));
  return {rows * nodes, apps::spmv(rows * nodes, 8, iters, /*pattern=*/0)};
}

// A comma-separated list of integers in [lo, hi], e.g. --nodes-list=8,256.
// An entry that is not an integer or lies outside the range, or an empty
// list, exits 2 naming the flag.
inline std::vector<int> parse_int_list(const std::string& s, const char* flag,
                                       int lo, int hi) {
  std::vector<int> out;
  std::string item;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i < s.size() && s[i] != ',') {
      item += s[i];
      continue;
    }
    if (item.empty()) continue;
    char* end = nullptr;
    const long long v = std::strtoll(item.c_str(), &end, 10);
    if (end != item.c_str() + item.size()) {
      std::fprintf(stderr, "fgdsm: invalid integer value '%s' for %s\n",
                   item.c_str(), flag);
      std::exit(2);
    }
    if (v < lo || v > hi) {
      std::fprintf(stderr, "fgdsm: %s entry '%s' is outside [%d, %d]\n", flag,
                   item.c_str(), lo, hi);
      std::exit(2);
    }
    out.push_back(static_cast<int>(v));
    item.clear();
  }
  if (out.empty()) {
    std::fprintf(stderr, "fgdsm: %s is empty\n", flag);
    std::exit(2);
  }
  return out;
}

inline double speedup(const exec::RunResult& serial,
                      const exec::RunResult& parallel) {
  return static_cast<double>(serial.stats.elapsed_ns) /
         static_cast<double>(parallel.stats.elapsed_ns);
}

}  // namespace fgdsm::bench
