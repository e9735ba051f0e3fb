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
#include <cstdio>
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

// --check-coherence: every spec built by make_spec runs the protocol's
// invariant checker at each barrier (debug aid; no virtual-time cost).
inline bool g_check_coherence = false;
// --trace=<file>: the FIRST spec built by make_spec records an event trace
// to this path. One file, one run — combine with --app (and a harness with
// one configuration per app) to choose which.
inline std::string g_trace_path;
inline bool g_trace_assigned = false;
// --faults=<spec>: every spec built by make_spec runs under deterministic
// chaos (fault injector + reliable channel). Disabled by default.
inline sim::FaultConfig g_faults;
// --watchdog-ns=<n>: virtual-time stall threshold for every spec (0 = off).
inline sim::Time g_watchdog_ns = 0;
// --checkpoint-every=<k>: barrier-interval checkpointing for every spec
// built by make_spec (0 = off).
inline int g_checkpoint_every = 0;
// --sim-threads=<n>: engine worker threads per simulation for every spec
// built by make_spec (bit-identical results at any value).
inline int g_sim_threads = 1;
// --collectives=<topo>: barrier/reduction topology for every spec built by
// make_spec (default flat, the paper's centralized coordinator).
inline tempest::Collectives g_collectives = tempest::Collectives::kFlat;
inline int g_collective_group = 0;

// The names of every app in apps::registry(): the suite the paper harnesses
// run.
inline std::vector<std::string> registry_names() {
  std::vector<std::string> names;
  for (const auto& a : apps::registry()) names.push_back(a.name);
  return names;
}

struct BenchConfig {
  double scale = 0.15;
  int nodes = 8;
  std::size_t block = 128;
  int jobs = 1;
  std::optional<std::string> only_app;
  bool per_loop = false;       // print per-parallel-loop breakdowns
  std::string json_path;       // --json=<file>; empty = off
  std::string trace_path;      // --trace=<file>; empty = off
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
    c.nodes = static_cast<int>(o.get_int("nodes", 8));
    if (c.nodes < 1 || c.nodes > tempest::kMaxNodes) {
      std::fprintf(stderr,
                   "fgdsm: --nodes=%d is outside the supported range [1, %d] "
                   "(index/bitmask arithmetic is only validated up to this "
                   "size)\n",
                   c.nodes, tempest::kMaxNodes);
      std::exit(2);
    }
    c.block = static_cast<std::size_t>(o.get_int("block", 128));
    c.jobs = static_cast<int>(o.get_int("jobs", 1));
    if (o.has("app")) {
      c.only_app = o.get("app");
      if (std::find(apps.begin(), apps.end(), *c.only_app) == apps.end()) {
        const std::string hint =
            util::Options::closest_match(*c.only_app, apps);
        std::fprintf(stderr, "fgdsm: unknown --app=%s", c.only_app->c_str());
        if (!hint.empty()) {
          std::fprintf(stderr, " (did you mean --app=%s?)", hint.c_str());
        } else {
          std::fprintf(stderr, " (expected one of:");
          for (const auto& name : apps)
            std::fprintf(stderr, " %s", name.c_str());
          std::fprintf(stderr, ")");
        }
        std::fprintf(stderr, "\n");
        std::exit(2);
      }
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
    c.sim_threads = static_cast<int>(o.get_int("sim-threads", 1));
    if (c.sim_threads < 1) {
      std::fprintf(stderr, "fgdsm: --sim-threads must be >= 1\n");
      std::exit(2);
    }
    c.checkpoint_every = static_cast<int>(o.get_int("checkpoint-every", 0));
    if (c.checkpoint_every < 0) {
      std::fprintf(stderr, "fgdsm: --checkpoint-every must be >= 0\n");
      std::exit(2);
    }
    g_check_coherence = c.check_coherence;
    g_faults = c.faults;
    g_watchdog_ns = c.watchdog_ns;
    g_checkpoint_every = c.checkpoint_every;
    g_sim_threads = c.sim_threads;
    g_collectives = c.collectives;
    g_collective_group = c.collective_group;
    g_trace_path = c.trace_path;
    g_trace_assigned = false;
    return c;
  }

  bool selected(const std::string& app) const {
    return !only_app || *only_app == app;
  }
};

// Spec for one run of `prog` under the given options; gather_arrays stays
// off (programs verify themselves through checksum scalars).
inline exec::ExperimentSpec make_spec(const hpf::Program& prog,
                                      const core::Options& opt, int nodes,
                                      bool dual_cpu, std::size_t block,
                                      std::string label = "") {
  exec::ExperimentSpec s;
  s.program = &prog;
  s.config.cluster.nnodes = nodes;
  s.config.cluster.block_size = block;
  s.config.cluster.dual_cpu = dual_cpu;
  s.config.opt = opt;
  s.config.gather_arrays = false;
  s.config.cluster.check_coherence = g_check_coherence;
  s.config.cluster.faults = g_faults;
  s.config.cluster.watchdog_ns = g_watchdog_ns;
  s.config.cluster.checkpoint_every = g_checkpoint_every;
  s.config.cluster.sim_threads = g_sim_threads;
  s.config.cluster.collectives = g_collectives;
  s.config.cluster.collective_group = g_collective_group;
  if (!g_trace_path.empty() && !g_trace_assigned) {
    s.config.trace_path = g_trace_path;
    g_trace_assigned = true;
  }
  s.label = label.empty() ? opt.label() : std::move(label);
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
    add(row, col, make_spec(prog, opt, nodes, dual_cpu, block));
  }

  // Execute every cell on `jobs` host threads. Results are byte-identical
  // for any job count (see exec::BatchRunner). A stalled simulation (the
  // watchdog fired or a channel retry budget ran out) terminates the whole
  // harness with the structured diagnostic and exit code 86.
  void run(int jobs) {
    try {
      const std::vector<exec::RunResult> out =
          exec::BatchRunner(jobs).run_all(specs_);
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
  std::vector<exec::ExperimentSpec> specs_;
  std::vector<std::string> keys_;
  std::map<std::string, exec::RunResult> results_;
};

// Single-run convenience used by harnesses that measure one-off cells.
inline exec::RunResult run_app(const hpf::Program& prog,
                               const core::Options& opt, int nodes,
                               bool dual_cpu, std::size_t block) {
  const exec::ExperimentSpec s = make_spec(prog, opt, nodes, dual_cpu, block);
  try {
    return exec::run(*s.program, s.config);
  } catch (const sim::CrashError& e) {
    sim::exit_crash(e);  // unrecoverable fail-stop: exit 87
  } catch (const sim::StallError& e) {
    sim::exit_stall(e);
  }
}

inline double speedup(const exec::RunResult& serial,
                      const exec::RunResult& parallel) {
  return static_cast<double>(serial.stats.elapsed_ns) /
         static_cast<double>(parallel.stats.elapsed_ns);
}

}  // namespace fgdsm::bench
