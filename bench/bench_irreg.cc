// Irregular-workload harness for the inspector–executor runtime: runs the
// spmv app (ELL-style sparse matvec, indirection pattern selectable with
// --pattern=band|hash) under
//
//   serial          the speedup denominator
//   sm-unopt        default protocol only — every gather faults
//   sm-opt          inspector–executor schedule over compiler-directed
//                   coherence (schedule cached across iterations)
//   sm-opt-nocache  same, but re-inspecting on every loop visit — the
//                   schedule-reuse sweep's "no amortization" endpoint
//   msg-passing     inspector–executor over the MP backend (exact bytes)
//
// and prints elapsed time, speedup, protocol message totals and the
// schedule-cache counters. The headline metric is msg_reduction_pct:
// how much of the default protocol's message traffic the materialized
// schedule eliminates.
#include <algorithm>
#include <cstdio>
#include <iostream>

#include "bench/common.h"
#include "src/util/stats.h"
#include "src/util/table.h"

int main(int argc, char** argv) {
  using namespace fgdsm;
  const bench::BenchConfig bc =
      bench::BenchConfig::from_args(argc, argv, {"spmv"}, {"pattern"});
  const util::Options o(argc, argv);
  const std::string pattern_name = o.get("pattern", "band");
  std::int64_t pattern = 0;
  if (pattern_name == "hash") {
    pattern = 1;
  } else if (pattern_name != "band") {
    std::fprintf(stderr, "fgdsm: bad --pattern '%s' (band|hash)\n",
                 pattern_name.c_str());
    return 2;
  }

  const std::int64_t n = std::max<std::int64_t>(
      512, static_cast<std::int64_t>(4096 * bc.scale));
  const std::int64_t k = 8;
  const std::int64_t iters = std::max<std::int64_t>(
      4, static_cast<std::int64_t>(20 * bc.scale));
  const hpf::Program prog = apps::spmv(n, k, iters, pattern);

  std::printf(
      "Inspector-executor irregular gather (spmv: n=%lld k=%lld iters=%lld "
      "pattern=%s, %d nodes, %zuB blocks)\n",
      static_cast<long long>(n), static_cast<long long>(k),
      static_cast<long long>(iters), pattern_name.c_str(), bc.nodes,
      bc.block);

  bench::RunMatrix m;
  m.add("spmv", "serial", prog, core::serial(), 1, true, bc.block);
  m.add("spmv", "sm-unopt", prog, core::shmem_unopt(), bc.nodes, true,
        bc.block);
  m.add("spmv", "sm-opt", prog, core::shmem_opt_full(), bc.nodes, true,
        bc.block);
  {
    // Schedule-reuse sweep endpoint: inspect on every visit.
    exec::ExperimentSpec s = bench::make_spec(
        prog, core::shmem_opt_full(), bc.nodes, true, bc.block);
    s.config.opt.reuse_schedule = false;
    m.add("spmv", "sm-opt-nocache", std::move(s));
  }
  m.add("spmv", "msg-passing", prog, core::msg_passing(), bc.nodes, true,
        bc.block);
  m.run(bc.jobs);

  const auto& serial = m.at("spmv", "serial");
  util::Table t({"config", "elapsed", "speedup", "messages", "sched h/m",
                 "inspections"});
  for (const char* cfg :
       {"serial", "sm-unopt", "sm-opt", "sm-opt-nocache", "msg-passing"}) {
    const auto& r = m.at("spmv", cfg);
    const util::NodeStats tot = r.stats.totals();
    t.add_row({cfg, util::format_ns(r.stats.elapsed_ns),
               util::Table::cell(bench::speedup(serial, r)),
               util::Table::cell(tot.messages_sent),
               util::Table::cell(tot.sched_cache_hits) + "/" +
                   util::Table::cell(tot.sched_cache_misses),
               util::Table::cell(tot.irreg_inspections)});
  }
  t.print(std::cout);

  const auto& unopt = m.at("spmv", "sm-unopt");
  const auto& opt = m.at("spmv", "sm-opt");
  const auto& nocache = m.at("spmv", "sm-opt-nocache");
  const double msg_red = util::percent_reduction(
      static_cast<double>(unopt.stats.totals().messages_sent),
      static_cast<double>(opt.stats.totals().messages_sent));
  const double reuse_gain = util::percent_reduction(
      static_cast<double>(nocache.stats.elapsed_ns),
      static_cast<double>(opt.stats.elapsed_ns));
  std::printf("message reduction (sm-opt vs sm-unopt):      %5.1f%%\n",
              msg_red);
  std::printf("schedule-reuse elapsed gain (vs re-inspect): %5.1f%%\n",
              reuse_gain);
  if (bc.per_loop) {
    bench::print_per_loop("spmv sm-unopt", unopt);
    bench::print_per_loop("spmv sm-opt", opt);
  }

  bench::JsonReport jr("irreg", bc);
  m.export_to(jr);
  jr.add_metric("msg_reduction_pct", msg_red);
  jr.add_metric("schedule_reuse_gain_pct", reuse_gain);
  jr.write();
  return 0;
}
