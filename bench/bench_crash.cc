// Crash-recovery harness (bench_crash): checkpoint overhead and mean time
// to repair (MTTR) under fail-stop node crashes, at paper scale and beyond.
//
// Per cluster size (default --nodes-list=8,256, weak-scaled jacobi):
//
//   1. Fault-free baseline — reference elapsed time and checksum scalars.
//   2. Checkpoint-overhead sweep — the same run with --checkpoint-every=K
//      for each K in --intervals (default 1,4,16): elapsed-vs-baseline
//      ratio, checkpoints taken, bytes serialized. No crashes: this is the
//      pure insurance premium.
//   3. Crash + recovery — one explicit fail-stop mid-run (node nodes/2 at
//      a third of the baseline's elapsed time), plus optional per-barrier
//      probabilistic crashes (--crashp, normalized by cluster size so the
//      expected cluster-wide crash count stays constant as nodes grow),
//      under --checkpoint-every=<--crash-interval> (default 4). The run
//      must finish with scalars BIT-IDENTICAL to the fault-free baseline —
//      the recovery-correctness gate — and reports crashes, recoveries,
//      and MTTR (rollback_ns per recovery: lost work + detection latency +
//      restart coordination).
//
// All simulated results are byte-identical at any --jobs/--sim-threads.
// --json emits the standard fgdsm-bench-v1 schema with per-cell runs plus
// overhead/mttr/checksum metrics.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/apps/apps.h"
#include "src/core/options.h"
#include "src/exec/executor.h"
#include "src/tempest/config.h"
#include "src/util/options.h"
#include "src/util/table.h"

namespace fgdsm {
namespace {

// Largest m with m*m <= v (integer sqrt, as in bench_scale: libm rounding
// must not choose the problem size).
std::int64_t isqrt(std::int64_t v) {
  std::int64_t m = 0;
  while ((m + 1) * (m + 1) <= v) ++m;
  return m;
}

std::vector<int> parse_int_list(const std::string& s, const char* flag,
                                int lo, int hi) {
  std::vector<int> out;
  std::string item;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i < s.size() && s[i] != ',') {
      item += s[i];
      continue;
    }
    if (item.empty()) continue;
    const int v = std::atoi(item.c_str());
    if (v < lo || v > hi) {
      std::fprintf(stderr, "fgdsm: %s entry '%s' is outside [%d, %d]\n", flag,
                   item.c_str(), lo, hi);
      std::exit(2);
    }
    out.push_back(v);
    item.clear();
  }
  if (out.empty()) {
    std::fprintf(stderr, "fgdsm: %s is empty\n", flag);
    std::exit(2);
  }
  return out;
}

exec::RunResult run_spec(const exec::ExperimentSpec& s) {
  try {
    return exec::run(*s.program, s.config);
  } catch (const sim::CrashError& e) {
    sim::exit_crash(e);  // unrecoverable fail-stop: exit 87
  } catch (const sim::StallError& e) {
    sim::exit_stall(e);
  }
}

// The bit-identity gate: every checksum scalar of the recovered run must
// equal the fault-free baseline's exactly (not approximately).
bool scalars_identical(const std::map<std::string, double>& a,
                       const std::map<std::string, double>& b) {
  if (a.size() != b.size()) return false;
  auto ib = b.begin();
  for (const auto& [k, v] : a) {
    if (ib->first != k ||
        std::memcmp(&ib->second, &v, sizeof(double)) != 0)
      return false;
    ++ib;
  }
  return true;
}

int crash_main(int argc, char** argv) {
  bench::BenchConfig cfg = bench::BenchConfig::from_args(
      argc, argv, {"jacobi"},
      {"nodes-list", "intervals", "crash-interval", "crashp", "sweeps"});
  util::Options o(argc, argv);  // re-parse for the harness-specific flags
  const std::vector<int> node_counts = parse_int_list(
      o.get("nodes-list", "8,256"), "--nodes-list", 2, tempest::kMaxNodes);
  const std::vector<int> intervals =
      parse_int_list(o.get("intervals", "1,4,16"), "--intervals", 1, 1 << 20);
  const int crash_interval =
      static_cast<int>(o.get_int("crash-interval", 4));
  const double crashp = o.get_double("crashp", 0.0);
  const std::int64_t sweeps = o.get_int("sweeps", 12);
  if (crash_interval < 1 || crashp < 0.0 || crashp > 1.0 || sweeps < 1) {
    std::fprintf(stderr,
                 "fgdsm: bad --crash-interval/--crashp/--sweeps value\n");
    return 2;
  }
  cfg.nodes = node_counts.back();  // JSON config block: the largest point

  // Weak-scaled jacobi, as in bench_scale: per-node tile fixed by --scale.
  const std::int64_t tile = std::max<std::int64_t>(
      8, static_cast<std::int64_t>(64 * std::max(0.05, cfg.scale) * 4));

  std::printf(
      "Crash recovery: checkpoint overhead + MTTR (jacobi, %lld sweeps), "
      "block=%zuB, collectives=%s\n",
      static_cast<long long>(sweeps), cfg.block,
      tempest::to_string(cfg.collectives));

  bench::JsonReport jr("crash", cfg);
  util::Table t({"nodes", "config", "sim elapsed", "vs base", "ckpts",
                 "ckpt bytes", "crashes", "recov", "MTTR", "checksum"});
  std::deque<hpf::Program> progs;  // stable addresses; specs hold pointers

  for (const int nodes : node_counts) {
    const std::int64_t n = std::max<std::int64_t>(
        nodes, tile * isqrt(static_cast<std::int64_t>(nodes)));
    progs.push_back(apps::jacobi(n, sweeps));
    const hpf::Program& prog = progs.back();

    const auto spec_for = [&](const sim::FaultConfig& faults,
                              int checkpoint_every) {
      exec::ExperimentSpec s = bench::make_spec(
          prog, core::shmem_opt_full(), nodes, /*dual_cpu=*/true, cfg.block);
      s.config.cluster.faults = faults;
      s.config.cluster.checkpoint_every = checkpoint_every;
      s.config.cluster.watchdog_ns =
          faults.enabled
              ? tempest::default_watchdog_ns(nodes, cfg.collectives)
              : cfg.watchdog_ns;
      return s;
    };

    // 1. Fault-free baseline.
    std::fprintf(stderr, "[%d nodes] baseline n=%lld...\n", nodes,
                 static_cast<long long>(n));
    const exec::RunResult base =
        run_spec(spec_for(sim::FaultConfig{}, /*checkpoint_every=*/0));
    const double base_ns = static_cast<double>(base.stats.elapsed_ns);
    t.add_row({std::to_string(nodes), "baseline",
               util::format_ns(base.stats.elapsed_ns), "1.000", "0", "0", "0",
               "0", "-", "-"});
    jr.add_run("jacobi@" + std::to_string(nodes), "baseline", base);

    // 2. Checkpoint-overhead sweep (fault-free).
    for (const int k : intervals) {
      std::fprintf(stderr, "[%d nodes] checkpoint-every=%d...\n", nodes, k);
      const exec::RunResult r = run_spec(spec_for(sim::FaultConfig{}, k));
      const util::NodeStats tot = r.stats.totals();
      const double ratio = static_cast<double>(r.stats.elapsed_ns) / base_ns;
      t.add_row({std::to_string(nodes), "ckpt K=" + std::to_string(k),
                 util::format_ns(r.stats.elapsed_ns),
                 util::Table::cell(ratio, 3),
                 util::format_count(tot.checkpoints),
                 util::format_count(tot.checkpoint_bytes), "0", "0", "-",
                 scalars_identical(base.scalars, r.scalars) ? "ok"
                                                            : "MISMATCH"});
      jr.add_run("jacobi@" + std::to_string(nodes),
                 "ckpt_k" + std::to_string(k), r);
      jr.add_metric("overhead_k" + std::to_string(k) + "@" +
                        std::to_string(nodes),
                    ratio);
    }

    // 3. Crash + recovery, gated bit-identical to the baseline. One
    // deterministic mid-run fail-stop, plus optional per-barrier draws
    // normalized so the expected cluster-wide crash count is independent of
    // the cluster size.
    sim::FaultConfig crash_faults;
    crash_faults.enabled = true;
    crash_faults.crashes.emplace_back(
        nodes / 2, std::max<sim::Time>(1, base.stats.elapsed_ns / 3));
    crash_faults.crashp = crashp > 0.0 ? crashp * 8.0 / nodes : 0.0;
    std::fprintf(stderr, "[%d nodes] crash run (node %d @ %lld ns)...\n",
                 nodes, nodes / 2,
                 static_cast<long long>(base.stats.elapsed_ns / 3));
    const exec::RunResult r = run_spec(spec_for(crash_faults, crash_interval));
    const util::NodeStats tot = r.stats.totals();
    // recoveries/rollback_ns are counted on every node per rollback, so
    // their ratio is already the per-rollback mean.
    const double mttr = tot.recoveries > 0
                            ? static_cast<double>(tot.rollback_ns) /
                                  static_cast<double>(tot.recoveries)
                            : 0.0;
    const bool identical = scalars_identical(base.scalars, r.scalars);
    t.add_row({std::to_string(nodes),
               "crash K=" + std::to_string(crash_interval),
               util::format_ns(r.stats.elapsed_ns),
               util::Table::cell(static_cast<double>(r.stats.elapsed_ns) /
                                     base_ns,
                                 3),
               util::format_count(tot.checkpoints),
               util::format_count(tot.checkpoint_bytes),
               util::format_count(tot.crashes),
               util::format_count(tot.recoveries / r.stats.node.size()),
               util::format_ns(static_cast<sim::Time>(mttr)),
               identical ? "ok" : "MISMATCH"});
    jr.add_run("jacobi@" + std::to_string(nodes), "crash", r);
    jr.add_metric("mttr_ns@" + std::to_string(nodes), mttr);
    jr.add_metric("checksum_identical@" + std::to_string(nodes),
                  identical ? 1.0 : 0.0);
    if (!identical) {
      t.print(std::cout);
      std::fprintf(stderr,
                   "fgdsm: recovered run diverged from the fault-free "
                   "baseline at %d nodes\n",
                   nodes);
      return 1;
    }
  }

  t.print(std::cout);
  jr.write();
  return 0;
}

}  // namespace
}  // namespace fgdsm

int main(int argc, char** argv) { return fgdsm::crash_main(argc, argv); }
