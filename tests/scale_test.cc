// Scaling regression tests: the properties that let one simulation grow to
// 64/256/1024 nodes.
//   - the stall-watchdog default budget scales with node count and
//     collective depth (2e9 ns is the 8-node calibration, not a constant);
//   - --nodes is guarded: the config layer rejects counts the index/bitmask
//     arithmetic was never validated for;
//   - per-link channel state is resident only for links that carried
//     traffic (it is allocated lazily; a 256-node channel with three active
//     links holds three link books, not 65536);
//   - the directory's SharerSet keeps the historic one-word fast path for
//     nodes 0-63 and spills above it without changing iteration order;
//   - whole-application runs at 64 and 256 nodes are bit-identical across
//     --sim-threads={1,4} and host-parallel batch execution, fault-free and
//     under chaos (the determinism contract does not erode with scale).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/apps/apps.h"
#include "src/exec/batch.h"
#include "src/exec/executor.h"
#include "src/proto/sharer_set.h"
#include "src/sim/channel.h"
#include "src/sim/engine.h"
#include "src/sim/fault.h"
#include "src/sim/network.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/tempest/config.h"
#include "src/util/assert.h"

namespace fgdsm {
namespace {

using tempest::Collectives;

// ---- Watchdog default scaling ----

TEST(WatchdogDefault, PaperScaleKeepsTheCalibratedBudget) {
  // The 2e9 figure was calibrated for 8-node chaos runs; it must not move
  // for existing configurations.
  for (int n : {1, 2, 4, 8})
    for (Collectives t : {Collectives::kFlat, Collectives::kBinary,
                          Collectives::kBinomial, Collectives::kTwoLevel})
      EXPECT_EQ(tempest::default_watchdog_ns(n, t), 2'000'000'000)
          << n << " " << tempest::to_string(t);
}

TEST(WatchdogDefault, FlatGrowsLinearlyTreesGrowLogarithmically) {
  // Flat: node 0 handles all n arrivals serially, so the budget follows
  // n/8. Trees: the critical path is the collective depth.
  EXPECT_EQ(tempest::default_watchdog_ns(64, Collectives::kFlat),
            8 * 2'000'000'000LL);
  EXPECT_EQ(tempest::default_watchdog_ns(1024, Collectives::kFlat),
            128 * 2'000'000'000LL);
  EXPECT_EQ(tempest::default_watchdog_ns(64, Collectives::kBinomial),
            4 * 2'000'000'000LL);  // ratio 8 -> depth 3 -> (1+3) * base
  EXPECT_EQ(tempest::default_watchdog_ns(1024, Collectives::kBinomial),
            8 * 2'000'000'000LL);  // ratio 128 -> depth 7 -> (1+7) * base
  // At large n a tree budget must undercut the flat budget — that gap is
  // the point of the hierarchical collectives.
  EXPECT_LT(tempest::default_watchdog_ns(1024, Collectives::kBinary),
            tempest::default_watchdog_ns(1024, Collectives::kFlat));
}

TEST(WatchdogDefault, MonotonicInNodeCount) {
  for (Collectives t : {Collectives::kFlat, Collectives::kBinomial}) {
    sim::Time prev = 0;
    for (int n : {1, 8, 9, 64, 256, 1024, 4096, tempest::kMaxNodes}) {
      const sim::Time w = tempest::default_watchdog_ns(n, t);
      EXPECT_GE(w, prev) << n << " " << tempest::to_string(t);
      prev = w;
    }
  }
}

// ---- Node-count guard ----

TEST(NodesGuard, ValidatesUpToMaxAndRejectsAbove) {
  tempest::ClusterConfig ok;
  ok.nnodes = tempest::kMaxNodes;
  EXPECT_NO_THROW(ok.validate());

  tempest::ClusterConfig bad;
  bad.nnodes = tempest::kMaxNodes + 1;
  try {
    bad.validate();
    FAIL() << "validate() accepted nnodes above kMaxNodes";
  } catch (const AssertionError& e) {
    // The message must name the flag and the limit — it surfaces to users.
    EXPECT_NE(std::string(e.what()).find("--nodes"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find(std::to_string(tempest::kMaxNodes)),
              std::string::npos);
  }
}

// ---- Lazy channel link state ----

struct ChannelHarness {
  sim::CostModel costs;
  sim::Engine engine;
  sim::Network net;
  std::unique_ptr<sim::ReliableChannel> channel;
  int delivered = 0;

  explicit ChannelHarness(int nnodes) : net(engine, costs, nnodes) {
    sim::ChannelConfig ch;
    ch.ack_type = 999;
    channel = std::make_unique<sim::ReliableChannel>(engine, net, nnodes, ch);
    for (int i = 0; i < nnodes; ++i)
      channel->attach(i, [this](sim::Message&&, sim::Time) { ++delivered; });
  }

  void send(int src, int dst) {
    sim::Message m;
    m.src = src;
    m.dst = dst;
    m.type = 7;
    channel->send(engine.now(), std::move(m));
  }
};

TEST(LazyLinkState, IdleLinksAllocateNothingAt256Nodes) {
  ChannelHarness h(256);
  // Construction must not materialize any of the 65536 per-link books.
  EXPECT_EQ(h.channel->resident_links(), 0u);

  // Traffic on three directed links; everything else stays idle.
  h.send(3, 7);
  h.send(7, 3);
  h.send(200, 41);
  h.engine.run();
  EXPECT_EQ(h.delivered, 3);
  // Resident state covers exactly the trafficked links (the 7->3 reply
  // shares the 3<->7 pair's books; pure acks ride existing links).
  EXPECT_GE(h.channel->resident_links(), 2u);
  EXPECT_LE(h.channel->resident_links(), 4u);
}

TEST(LazyLinkState, FlatPathCountsOnlyTraffickedLinks) {
  ChannelHarness h(8);  // the paper's cluster size uses the same layout
  EXPECT_EQ(h.channel->resident_links(), 0u);
  h.send(1, 2);
  h.engine.run();
  EXPECT_EQ(h.delivered, 1);
  EXPECT_GE(h.channel->resident_links(), 1u);
  EXPECT_LE(h.channel->resident_links(), 2u);
}

TEST(LazyLinkState, LazyLinksInheritInitialSeq) {
  ChannelHarness h(100);
  h.channel->set_initial_seq(0xFFFF0000u);
  h.send(90, 10);
  h.engine.run();
  EXPECT_EQ(h.delivered, 1);
  EXPECT_EQ(h.channel->resident_links(), 1u);
}

// ---- SharerSet across the one-word boundary ----

TEST(SharerSet, InlineWordBelow64AndSpillAbove) {
  proto::SharerArena a(1024);
  EXPECT_EQ(a.stride(), 15u);
  proto::SharerSet s;
  s.add(0, a);
  s.add(63, a);
  EXPECT_EQ(s.low64(), (std::uint64_t{1} << 63) | 1u);
  EXPECT_EQ(s.count(a), 2);
  s.add(64, a);
  s.add(1023, a);
  EXPECT_EQ(s.count(a), 4);
  EXPECT_TRUE(s.contains(64, a));
  EXPECT_TRUE(s.contains(1023, a));
  EXPECT_FALSE(s.contains(512, a));
  s.remove(64, a);
  EXPECT_FALSE(s.contains(64, a));
  EXPECT_EQ(s.count(a), 3);

  // A second set spills into its own words of the same arena.
  proto::SharerSet t;
  t.add(512, a);
  EXPECT_TRUE(t.contains(512, a));
  EXPECT_FALSE(t.contains(1023, a));
  EXPECT_FALSE(s.contains(512, a));

  // Ascending iteration order — the invalidation fan-out depends on it.
  std::vector<int> seen;
  s.for_each(a, [&](int n) { seen.push_back(n); });
  EXPECT_EQ(seen, (std::vector<int>{0, 63, 1023}));

  s.clear(a);
  EXPECT_EQ(s.count(a), 0);
  EXPECT_FALSE(s.contains(1023, a));
  EXPECT_EQ(t.count(a), 1);
}

// ---- Whole-application determinism at 64 and 256 nodes ----

exec::RunConfig cfg(int nodes, Collectives topo, int sim_threads,
                    bool faults) {
  exec::RunConfig c;
  c.cluster.nnodes = nodes;
  c.cluster.block_size = 128;
  c.cluster.dual_cpu = true;
  c.cluster.collectives = topo;
  c.cluster.sim_threads = sim_threads;
  c.opt = core::shmem_opt_full();
  c.gather_arrays = false;
  if (faults) {
    std::string err;
    c.cluster.faults = sim::FaultConfig::parse(
        "drop=0.01,dup=0.002,delay=0.05,reorder=0.01,seed=1", &err);
    EXPECT_TRUE(err.empty()) << err;
    c.cluster.watchdog_ns = tempest::default_watchdog_ns(nodes, topo);
  }
  return c;
}

void expect_identical(const exec::RunResult& a, const exec::RunResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.stats.elapsed_ns, b.stats.elapsed_ns) << label;
  EXPECT_EQ(a.scalars, b.scalars) << label;
  ASSERT_EQ(a.stats.node.size(), b.stats.node.size()) << label;
  for (std::size_t i = 0; i < a.stats.node.size(); ++i) {
    EXPECT_EQ(a.stats.node[i].total_misses(), b.stats.node[i].total_misses())
        << label << " node " << i;
    EXPECT_EQ(a.stats.node[i].messages_sent, b.stats.node[i].messages_sent)
        << label << " node " << i;
    EXPECT_EQ(a.stats.node[i].bytes_sent, b.stats.node[i].bytes_sent)
        << label << " node " << i;
    EXPECT_EQ(a.stats.node[i].sync_ns, b.stats.node[i].sync_ns)
        << label << " node " << i;
  }
}

TEST(ScaleDeterminism, SixtyFourNodesAcrossSimThreadsJobsAndChaos) {
  const auto prog = apps::jacobi(128, 3);
  for (const Collectives topo :
       {Collectives::kBinomial, Collectives::kTwoLevel}) {
    const std::string t = tempest::to_string(topo);
    const exec::RunResult st1 = exec::run(prog, cfg(64, topo, 1, false));
    const exec::RunResult st4 = exec::run(prog, cfg(64, topo, 4, false));
    expect_identical(st1, st4, t + " sim-threads 1 vs 4");

    // Chaos: timing may move, results may not — and the chaos run itself is
    // bit-identical across engine worker counts.
    const exec::RunResult ch1 = exec::run(prog, cfg(64, topo, 1, true));
    const exec::RunResult ch4 = exec::run(prog, cfg(64, topo, 4, true));
    expect_identical(ch1, ch4, t + " chaos sim-threads 1 vs 4");
    EXPECT_EQ(st1.scalars, ch1.scalars) << t << " chaos changed results";

    // Host-parallel batch execution reproduces the sequential results.
    std::vector<exec::ExperimentSpec> specs(2);
    specs[0].program = &prog;
    specs[0].config = cfg(64, topo, 1, false);
    specs[1].program = &prog;
    specs[1].config = cfg(64, topo, 1, true);
    const std::vector<exec::RunResult> batch =
        exec::BatchRunner(4).run_all(specs);
    ASSERT_EQ(batch.size(), 2u);
    expect_identical(st1, batch[0], t + " jobs=4 fault-free");
    expect_identical(ch1, batch[1], t + " jobs=4 chaos");
  }
}

TEST(ScaleDeterminism, TwoFiftySixNodesAcrossSimThreadsAndChaos) {
  const auto prog = apps::jacobi(256, 2);
  const Collectives topo = Collectives::kBinomial;
  const exec::RunResult st1 = exec::run(prog, cfg(256, topo, 1, false));
  const exec::RunResult st4 = exec::run(prog, cfg(256, topo, 4, false));
  expect_identical(st1, st4, "256n sim-threads 1 vs 4");

  const exec::RunResult ch1 = exec::run(prog, cfg(256, topo, 1, true));
  const exec::RunResult ch4 = exec::run(prog, cfg(256, topo, 4, true));
  expect_identical(ch1, ch4, "256n chaos sim-threads 1 vs 4");
  EXPECT_EQ(st1.scalars, ch1.scalars) << "256n chaos changed results";
}

}  // namespace
}  // namespace fgdsm
