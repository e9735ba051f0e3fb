// Partitioned event queues + conservative synchronous-window PDES
// (--sim-threads): the bit-identity contract of src/sim/engine.h.
//
// The load-bearing properties:
//   - cross-partition events merged at a window barrier execute in the fixed
//     global order (dst, time, source seq, source partition), even when an
//     adversarial schedule lands equal timestamps from several sources on
//     one destination — and the order is identical at any worker count;
//   - per-partition sequence counters survive crossing the former 32-bit
//     space without truncation anywhere in the CrossEvent path;
//   - --sim-threads above the partition count clamps harmlessly;
//   - a recovery hook finds the cross events of its window merged;
//   - a chaos-mode (fault-injected) application run at --sim-threads=4 is
//     bit-identical to the same run at --sim-threads=1, and so is a crash
//     with checkpoint/rollback recovery;
//   - every such run executes the same engine events in the same windows.
//
// Worker threads are real here even on a 1-core host: the tests size the
// process-wide HostBudget explicitly (grants change wall time only).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/apps.h"
#include "src/exec/executor.h"
#include "src/sim/engine.h"
#include "src/sim/fault.h"
#include "src/sim/host_budget.h"
#include "src/tempest/config.h"

namespace fgdsm {
namespace {

// Restores the real host budget when a test that resizes it exits.
struct BudgetOverride {
  explicit BudgetOverride(int cores) {
    sim::HostBudget::instance().set_total_for_test(cores);
  }
  ~BudgetOverride() { sim::HostBudget::instance().set_total_for_test(saved); }
  int saved = sim::HostBudget::instance().total();
};

// ---------------------------------------------------------------------------
// Engine-level merge determinism.

// One executed event: (partition it ran in, virtual time, payload tag).
using Log = std::vector<std::vector<std::pair<sim::Time, int>>>;

// An adversarial cross-partition storm: every partition runs a lockstep
// driver that, each round, lands one tagged event on EVERY partition at the
// SAME future timestamp. Each (dst, time) slot thus collects one local event
// plus one cross event per other source — equal times colliding from all
// directions — so only the (source seq, source partition) merge key orders
// them. The log records execution order per partition.
Log run_storm(int nparts, int sim_threads, std::uint64_t seq_base,
              int rounds) {
  sim::Engine e;
  e.set_partitions(nparts);
  e.set_window_lookahead(10);
  e.set_sim_threads(sim_threads);
  if (seq_base != 0) e.set_seq_base(seq_base);
  Log log(static_cast<std::size_t>(nparts));
  std::function<void(int, int)> driver = [&](int src, int round) {
    const sim::Time t = e.now() + 10;
    for (int d = 0; d < nparts; ++d) {
      const int dst = (src + d) % nparts;
      const int tag = src * 1000 + round;
      e.schedule_node(dst, t, [&log, dst, t, tag] {
        log[static_cast<std::size_t>(dst)].emplace_back(t, tag);
      });
    }
    if (round + 1 < rounds)
      e.schedule_node(src, t,
                      [&driver, src, round] { driver(src, round + 1); });
  };
  for (int p = 0; p < nparts; ++p)
    e.schedule_node(p, 0, [&driver, p] { driver(p, 0); });
  e.run();
  return log;
}

TEST(PartitionMerge, EqualTimestampCrossEventsOrderDeterministically) {
  const Log a = run_storm(4, 1, 0, 5);
  const Log b = run_storm(4, 1, 0, 5);
  EXPECT_EQ(a, b);
  // Every partition saw every round's fan-in.
  for (const auto& part : a) EXPECT_EQ(part.size(), 20u);
}

TEST(PartitionMerge, WorkerCountNeverChangesTheOrder) {
  BudgetOverride cores(8);
  const Log serial = run_storm(4, 1, 0, 6);
  for (int threads : {2, 3, 4}) {
    const Log par = run_storm(4, threads, 0, 6);
    EXPECT_EQ(serial, par) << "sim_threads=" << threads;
  }
}

TEST(PartitionMerge, SeqCountersSurviveThe32BitBoundary) {
  // Start every partition's counter just below 2^32: the storm's seqs cross
  // the boundary mid-run, and any 32-bit truncation in the cross-event path
  // would fold post-boundary seqs below pre-boundary ones and reorder the
  // equal-timestamp merges.
  BudgetOverride cores(8);
  const std::uint64_t base = (1ull << 32) - 4;
  const Log low = run_storm(4, 1, 0, 5);
  const Log high = run_storm(4, 1, base, 5);
  EXPECT_EQ(low, high);  // seq values differ; the ORDER must not
  EXPECT_EQ(high, run_storm(4, 4, base, 5));
}

// A stall's recovery hook acts on the queues, so it must find the cross
// events of the stalled window already merged: it sees them pending, and a
// fresh event it schedules at the same time runs after them.
TEST(PartitionMerge, RecoveryHookSeesTheWindowsCrossEventsMerged) {
  BudgetOverride cores(8);
  for (int threads : {1, 4}) {
    SCOPED_TRACE("sim_threads=" + std::to_string(threads));
    sim::Engine e;
    e.set_partitions(4);
    e.set_window_lookahead(10);
    e.set_sim_threads(threads);
    std::vector<int> order;
    int hook_calls = 0;
    sim::Time pending = -1;
    e.set_recovery_hook([&] {
      ++hook_calls;
      pending = e.next_event_time();
      e.schedule_node(3, 15, [&order] { order.push_back(2); });
      return true;
    });
    e.schedule_node(0, 5, [&] {
      e.schedule_node(3, 15, [&order] { order.push_back(1); });
      e.fail_stall("stalled on purpose");
    });
    e.run();
    EXPECT_EQ(hook_calls, 1);
    EXPECT_EQ(pending, 15);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
  }
}

// ---------------------------------------------------------------------------
// Application-level identity.

exec::RunConfig app_cfg(int nodes, int sim_threads,
                        const std::string& faults = "") {
  exec::RunConfig c;
  c.cluster.nnodes = nodes;
  c.cluster.sim_threads = sim_threads;
  c.opt = core::shmem_opt_full();
  c.gather_arrays = true;
  if (!faults.empty()) {
    std::string err;
    c.cluster.faults = sim::FaultConfig::parse(faults, &err);
    EXPECT_TRUE(err.empty()) << err;
  }
  return c;
}

void expect_identical(const exec::RunResult& a, const exec::RunResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.stats.elapsed_ns, b.stats.elapsed_ns) << label;
  // The window sequence is part of the schedule: the same windows at any
  // worker count.
  EXPECT_GT(a.engine_windows, 0u) << label;
  EXPECT_EQ(a.engine_windows, b.engine_windows) << label;
  EXPECT_EQ(a.engine_events, b.engine_events) << label;
  EXPECT_EQ(a.scalars, b.scalars) << label;
  EXPECT_EQ(a.arrays, b.arrays) << label;
  ASSERT_EQ(a.stats.node.size(), b.stats.node.size()) << label;
  for (std::size_t i = 0; i < a.stats.node.size(); ++i) {
    EXPECT_EQ(a.stats.node[i].total_misses(), b.stats.node[i].total_misses())
        << label << " node " << i;
    EXPECT_EQ(a.stats.node[i].messages_sent, b.stats.node[i].messages_sent)
        << label << " node " << i;
    EXPECT_EQ(a.stats.node[i].bytes_sent, b.stats.node[i].bytes_sent)
        << label << " node " << i;
    EXPECT_EQ(a.stats.node[i].recoveries, b.stats.node[i].recoveries)
        << label << " node " << i;
    EXPECT_EQ(a.stats.node[i].checkpoints, b.stats.node[i].checkpoints)
        << label << " node " << i;
  }
}

TEST(SimThreads, MoreThreadsThanNodesClampsHarmlessly) {
  BudgetOverride cores(16);
  const auto prog = apps::jacobi(96, 4);
  const exec::RunResult one = exec::run(prog, app_cfg(4, 1));
  const exec::RunResult many = exec::run(prog, app_cfg(4, 64));
  expect_identical(one, many, "sim_threads=64 on 4 nodes");
}

TEST(SimThreads, ChaosRunIsBitIdenticalAtFourThreads) {
  BudgetOverride cores(8);
  const std::string faults =
      "drop=0.05,dup=0.02,delay=0.1,reorder=0.05,seed=13";
  const auto prog = apps::jacobi(96, 4);
  const exec::RunResult st1 = exec::run(prog, app_cfg(4, 1, faults));
  const exec::RunResult st4 = exec::run(prog, app_cfg(4, 4, faults));
  expect_identical(st1, st4, "chaos sim_threads=4");
  // And the channel still hides every fault: identical to the clean run.
  const exec::RunResult clean = exec::run(prog, app_cfg(4, 1));
  EXPECT_EQ(clean.scalars, st4.scalars);
  EXPECT_EQ(clean.arrays, st4.arrays);
}

TEST(SimThreads, SharedNeedListsAreBitIdenticalAtFourThreads) {
  // The irregular needs exchange sends one shared payload to every other
  // node; on four workers the receivers hold and drop it in other
  // partitions while the plan table reads it in place, and the channel's
  // retained copies share it too.
  BudgetOverride cores(8);
  const std::string faults = "drop=0.02,dup=0.02,delay=0.05,seed=5";
  const auto prog = apps::spmv(512, 8, 3, /*pattern=*/0);
  const exec::RunResult st1 = exec::run(prog, app_cfg(8, 1, faults));
  const exec::RunResult st4 = exec::run(prog, app_cfg(8, 4, faults));
  expect_identical(st1, st4, "spmv chaos sim_threads=4");
  EXPECT_GT(st4.stats.totals().irreg_inspections, 0u);
}

TEST(SimThreads, CrashRecoveryIsBitIdenticalAtFourThreads) {
  // The shape of the benchmark's crash leg: 8 nodes, a checkpoint at every
  // barrier, one scheduled crash. Checkpoint capture runs in the window
  // hook while cross events of the window are still unmerged; the rollback
  // runs in the recovery hook, after the coordinator merged them, and
  // schedules fresh resumes into those queues.
  BudgetOverride cores(8);
  const std::vector<hpf::Program> progs = {
      apps::jacobi(96, 6), apps::spmv(512, 8, 4, /*pattern=*/0)};
  for (const hpf::Program& prog : progs) {
    SCOPED_TRACE(prog.name);
    const exec::RunResult clean = exec::run(prog, app_cfg(8, 1));
    const std::string crash =
        "crash=3@" + std::to_string(clean.stats.elapsed_ns * 2 / 5);
    const auto crash_cfg = [&](int sim_threads) {
      exec::RunConfig c = app_cfg(8, sim_threads, crash);
      c.cluster.checkpoint_every = 1;
      c.cluster.watchdog_ns =
          tempest::default_watchdog_ns(8, tempest::Collectives::kFlat);
      return c;
    };
    const exec::RunResult st1 = exec::run(prog, crash_cfg(1));
    const exec::RunResult st4 = exec::run(prog, crash_cfg(4));
    expect_identical(st1, st4, prog.name + " crash sim_threads=4");
    const util::NodeStats t = st4.stats.totals();
    EXPECT_EQ(t.crashes, 1u);
    EXPECT_GT(t.recoveries, 0u);
    EXPECT_GT(t.checkpoints, 0u);
    // Recovery hides the crash from the program.
    EXPECT_EQ(clean.scalars, st4.scalars);
    EXPECT_EQ(clean.arrays, st4.arrays);
  }
}

}  // namespace
}  // namespace fgdsm
