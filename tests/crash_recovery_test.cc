// Fail-stop crashes with checkpoint/rollback recovery, end to end.
//
// The load-bearing properties:
//   - a run that loses a node mid-computation (scheduled or probabilistic
//     crash) detects the death through retry-budget exhaustion, rolls every
//     survivor back to the last barrier checkpoint, reincarnates the dead
//     node, and finishes with results BIT-IDENTICAL to a fault-free run;
//   - the same crash configuration reproduces the identical run (elapsed,
//     every counter) — crashes are counter-mode draws, not RNG state;
//   - checkpointing without crashes is result-passive: it costs simulated
//     time but cannot change any answer;
//   - a crash with checkpointing disabled is an unrecoverable, structured
//     failure: exit 87 naming the dead node, never a hang;
//   - the ReliableChannel detection edge (retry exhaustion, capped RTO
//     backoff) surfaces a structured dead-link diagnostic with the link
//     named and the unacked count — and the backoff cap bounds detection
//     latency to a computable constant.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "src/apps/apps.h"
#include "src/exec/executor.h"
#include "src/sim/channel.h"
#include "src/sim/cost_model.h"
#include "src/sim/engine.h"
#include "src/sim/fault.h"
#include "src/sim/network.h"
#include "src/sim/task.h"
#include "src/tempest/cluster.h"

namespace fgdsm {
namespace {

// ---------------------------------------------------------------------------
// Crash spec parsing.

TEST(CrashSpec, ParsesScheduledAndProbabilisticCrashes) {
  std::string err;
  const sim::FaultConfig c =
      sim::FaultConfig::parse("crash=3@1000000,crash=0@2500000,crashp=0.01",
                              &err);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_TRUE(c.enabled);
  EXPECT_TRUE(c.has_crashes());
  ASSERT_EQ(c.crashes.size(), 2u);
  EXPECT_EQ(c.crashes[0].first, 3);
  EXPECT_EQ(c.crashes[0].second, 1000000);
  EXPECT_EQ(c.crashes[1].first, 0);
  EXPECT_EQ(c.crashes[1].second, 2500000);
  EXPECT_DOUBLE_EQ(c.crashp, 0.01);
}

TEST(CrashSpec, TypoGetsLevenshteinSuggestionNotSilence) {
  std::string err;
  const sim::FaultConfig c = sim::FaultConfig::parse("crahsp=0.1", &err);
  EXPECT_FALSE(c.enabled);
  EXPECT_NE(err.find("crahsp"), std::string::npos) << err;
  // Plain Levenshtein ties 'crash' and 'crashp' at distance 2; either is a
  // useful pointer at the crash family.
  EXPECT_NE(err.find("did you mean 'crash"), std::string::npos) << err;
}

TEST(CrashSpec, RejectsMalformedCrashSchedules) {
  std::string err;
  EXPECT_FALSE(sim::FaultConfig::parse("crash=3", &err).enabled);
  EXPECT_FALSE(sim::FaultConfig::parse("crash=@100", &err).enabled);
  EXPECT_FALSE(sim::FaultConfig::parse("crash=x@100", &err).enabled);
  EXPECT_FALSE(sim::FaultConfig::parse("crashp=1.5", &err).enabled);
}

TEST(CrashSpec, CrashDrawsAreDeterministicPerNodeAndEpoch) {
  sim::FaultConfig cfg;
  cfg.enabled = true;
  cfg.crashp = 0.2;
  cfg.seed = 17;
  const sim::FaultInjector a(cfg, 8, 1000);
  const sim::FaultInjector b(cfg, 8, 1000);
  int fired = 0;
  for (int node = 0; node < 8; ++node)
    for (std::uint64_t e = 1; e <= 50; ++e) {
      EXPECT_EQ(a.crash_at_barrier(node, e), b.crash_at_barrier(node, e));
      fired += a.crash_at_barrier(node, e) ? 1 : 0;
    }
  EXPECT_GT(fired, 0);    // 400 draws at p=.2: zero would be broken
  EXPECT_LT(fired, 400);
}

// ---------------------------------------------------------------------------
// End-to-end crash + recovery.

exec::RunConfig crash_cfg(const std::string& spec, int nodes,
                          int checkpoint_every) {
  exec::RunConfig c;
  c.cluster.nnodes = nodes;
  c.opt = core::shmem_opt_full();
  c.gather_arrays = false;
  c.cluster.checkpoint_every = checkpoint_every;
  if (!spec.empty()) {
    std::string err;
    c.cluster.faults = sim::FaultConfig::parse(spec, &err);
    EXPECT_TRUE(err.empty()) << err;
    c.cluster.watchdog_ns = 5'000'000'000;
  }
  return c;
}

void expect_scalars_identical(const exec::RunResult& a,
                              const exec::RunResult& b) {
  ASSERT_EQ(a.scalars.size(), b.scalars.size());
  for (const auto& [name, v] : a.scalars)
    EXPECT_EQ(v, b.scalars.at(name)) << name;
}

// Under flat collectives the tree's root is the coordinator vertex, which
// takes no part in the barrier; under binomial it is node 0's own vertex.
// Rollback must reset both kinds of root.
TEST(CrashRecovery, ScheduledCrashRecoversBitIdentically) {
  const auto prog = apps::jacobi(96, 6);
  for (const tempest::Collectives topo :
       {tempest::Collectives::kFlat, tempest::Collectives::kBinomial}) {
    SCOPED_TRACE(tempest::to_string(topo));
    exec::RunConfig clean_cfg = crash_cfg("", 4, 0);
    clean_cfg.cluster.collectives = topo;
    const exec::RunResult clean = exec::run(prog, clean_cfg);
    // Kill node 2 a third of the way through the fault-free timeline.
    exec::RunConfig cfg = crash_cfg(
        "crash=2@" + std::to_string(clean.stats.elapsed_ns / 3), 4, 4);
    cfg.cluster.collectives = topo;
    const exec::RunResult rec = exec::run(prog, cfg);

    expect_scalars_identical(clean, rec);

    // The crash and the repair must actually have happened (non-vacuity).
    util::NodeStats t;
    for (const auto& ns : rec.stats.node) t += ns;
    EXPECT_EQ(t.crashes, 1u);
    EXPECT_GT(t.recoveries, 0u);
    EXPECT_GT(t.checkpoints, 0u);
    EXPECT_GT(t.checkpoint_bytes, 0u);
    EXPECT_GT(t.rollback_ns, 0u);
    // Detection + rollback + replay cost simulated time.
    EXPECT_GT(rec.stats.elapsed_ns, clean.stats.elapsed_ns);
  }
}

TEST(CrashRecovery, ProbabilisticCrashesRecoverBitIdentically) {
  const auto prog = apps::jacobi(96, 6);
  const exec::RunResult clean = exec::run(prog, crash_cfg("", 4, 0));
  const exec::RunResult rec =
      exec::run(prog, crash_cfg("crashp=0.04,seed=9", 4, 2));

  expect_scalars_identical(clean, rec);
  util::NodeStats t;
  for (const auto& ns : rec.stats.node) t += ns;
  EXPECT_GT(t.crashes, 0u);  // seed 9 must actually fire; else vacuous
  EXPECT_GT(t.recoveries, 0u);
}

TEST(CrashRecovery, SameCrashConfigIsBitIdenticalAcrossRuns) {
  const auto prog = apps::jacobi(96, 6);
  const exec::RunConfig cfg = crash_cfg("crashp=0.04,seed=9", 4, 2);
  const exec::RunResult a = exec::run(prog, cfg);
  const exec::RunResult b = exec::run(prog, cfg);
  EXPECT_EQ(a.stats.elapsed_ns, b.stats.elapsed_ns);
  expect_scalars_identical(a, b);
  for (std::size_t i = 0; i < a.stats.node.size(); ++i) {
    EXPECT_EQ(a.stats.node[i].crashes, b.stats.node[i].crashes) << i;
    EXPECT_EQ(a.stats.node[i].recoveries, b.stats.node[i].recoveries) << i;
    EXPECT_EQ(a.stats.node[i].rollback_ns, b.stats.node[i].rollback_ns) << i;
  }
}

TEST(CrashRecovery, CheckpointingWithoutCrashesIsResultPassive) {
  const auto prog = apps::jacobi(96, 6);
  const exec::RunResult base = exec::run(prog, crash_cfg("", 4, 0));
  const exec::RunResult ck = exec::run(prog, crash_cfg("", 4, 2));
  expect_scalars_identical(base, ck);
  util::NodeStats t;
  for (const auto& ns : ck.stats.node) t += ns;
  EXPECT_GT(t.checkpoints, 0u);
  EXPECT_EQ(t.crashes, 0u);
  EXPECT_EQ(t.recoveries, 0u);
  // The premium is real but bounded: checkpoint bytes are charged to the
  // cost model, so elapsed grows, monotonically with frequency.
  EXPECT_GE(ck.stats.elapsed_ns, base.stats.elapsed_ns);
}

// cg stresses the state the tag-based capture predicate cannot see: its
// replicated vectors (x, p) bypass access control, so every node's replica
// lives in blocks whose tags stay kInvalid away from the block's home. A
// rollback that restores only tag-visible blocks leaves the doomed
// timeline's `x += alpha*p` in the surviving replicas — the residual
// trajectory reconverges (CG solves the same system) but ||x||^2 does not.
TEST(CrashRecovery, ReplicatedArraysRollBackWithTheRest) {
  const auto prog = apps::cg(64, 128, 60);
  for (const core::Options& opt :
       {core::shmem_opt_full(), core::shmem_unopt()}) {
    exec::RunConfig clean = crash_cfg("", 4, 0);
    clean.opt = opt;
    const exec::RunResult base = exec::run(prog, clean);
    exec::RunConfig cfg = crash_cfg(
        "crash=2@" + std::to_string(base.stats.elapsed_ns / 2), 4, 4);
    cfg.opt = opt;
    const exec::RunResult rec = exec::run(prog, cfg);
    expect_scalars_identical(base, rec);
    util::NodeStats t;
    for (const auto& ns : rec.stats.node) t += ns;
    EXPECT_EQ(t.crashes, 1u);
    EXPECT_GT(t.recoveries, 0u);
  }
}

// In message-passing mode there is no protocol at all: every array's local
// copy is private storage with bootstrap tags, so the checkpoint must
// capture nodes' memory by explicit range, not by tag visibility.
TEST(CrashRecovery, MessagePassingReplaysPrivateMemoryExactly) {
  const auto prog = apps::cg(64, 128, 60);
  exec::RunConfig clean = crash_cfg("", 4, 0);
  clean.opt = core::msg_passing();
  const exec::RunResult base = exec::run(prog, clean);
  exec::RunConfig cfg =
      crash_cfg("crash=2@" + std::to_string(base.stats.elapsed_ns / 2), 4, 4);
  cfg.opt = core::msg_passing();
  const exec::RunResult rec = exec::run(prog, cfg);
  expect_scalars_identical(base, rec);
  util::NodeStats t;
  for (const auto& ns : rec.stats.node) t += ns;
  EXPECT_EQ(t.crashes, 1u);
  EXPECT_GT(t.recoveries, 0u);
}

TEST(CrashRecovery, MessagePassingModeRecoversToo) {
  const auto prog = apps::jacobi(96, 6);
  exec::RunConfig clean = crash_cfg("", 4, 0);
  clean.opt = core::msg_passing();
  const exec::RunResult base = exec::run(prog, clean);
  exec::RunConfig cfg =
      crash_cfg("crash=1@" + std::to_string(base.stats.elapsed_ns / 2), 4, 4);
  cfg.opt = core::msg_passing();
  const exec::RunResult rec = exec::run(prog, cfg);
  expect_scalars_identical(base, rec);
  util::NodeStats t;
  for (const auto& ns : rec.stats.node) t += ns;
  EXPECT_EQ(t.crashes, 1u);
  EXPECT_GT(t.recoveries, 0u);
}

TEST(CrashRecovery, IrregularInspectorExecutorRecoversToo) {
  const auto prog = apps::spmv(512, 8, 4, /*pattern=*/0);
  const exec::RunResult clean = exec::run(prog, crash_cfg("", 4, 0));
  const std::string spec =
      "crash=3@" + std::to_string(clean.stats.elapsed_ns / 2);
  const exec::RunResult rec = exec::run(prog, crash_cfg(spec, 4, 4));
  expect_scalars_identical(clean, rec);
  util::NodeStats t;
  for (const auto& ns : rec.stats.node) t += ns;
  EXPECT_EQ(t.crashes, 1u);
  EXPECT_GT(t.recoveries, 0u);
}

// End times of every span of category `cat` in a Chrome trace written by
// sim::Tracer (ts and dur follow the cat key, in microseconds).
std::vector<sim::Time> span_ends(const std::string& path,
                                 const std::string& cat) {
  std::ifstream f(path);
  const std::string text{std::istreambuf_iterator<char>(f),
                         std::istreambuf_iterator<char>()};
  const auto ns_after = [&](std::size_t from, const std::string& key) {
    const std::size_t at = text.find(key, from) + key.size();
    return static_cast<sim::Time>(
        std::llround(std::stod(text.substr(at, 32)) * 1000));
  };
  std::vector<sim::Time> ends;
  const std::string tag = "\"cat\": \"" + cat + "\"";
  for (std::size_t at = text.find(tag); at != std::string::npos;
       at = text.find(tag, at + 1))
    ends.push_back(ns_after(at, "\"ts\": ") + ns_after(at, "\"dur\": "));
  return ends;
}

// A crash while the inspector's needs exchange is in flight: some nodes
// have finished the exchange and recorded the schedule, others have not.
// Rollback must restore every node's record with the rest of its state, or
// the finished nodes replay while the others re-inspect and wait forever
// for needs nobody sends. The window comes from the inspect spans of the
// same run without the crash (a bare fault spec keeps the reliable channel
// on, so the timeline is the one the crash interrupts): from the first
// node done with the exchange to the last.
TEST(CrashRecovery, CrashDuringNeedsExchangeRecovers) {
  const auto prog = apps::spmv(4096, 8, 4, /*pattern=*/0);
  exec::RunConfig traced = crash_cfg("1", 8, 1);
  traced.trace_path = ::testing::TempDir() + "fgdsm_needs_exchange.json";
  const exec::RunResult clean = exec::run(prog, traced);
  const std::vector<sim::Time> ends = span_ends(traced.trace_path, "inspect");
  std::remove(traced.trace_path.c_str());
  ASSERT_EQ(ends.size(), 8u);  // one inspection per node, then replays
  const auto [first, last] = std::minmax_element(ends.begin(), ends.end());
  ASSERT_LT(*first, *last);

  for (int k = 0; k < 6; ++k) {
    const std::string spec =
        "crash=7@" + std::to_string(*first + (*last - *first) * k / 5);
    SCOPED_TRACE(spec);
    exec::RunResult rec;
    ASSERT_NO_THROW(rec = exec::run(prog, crash_cfg(spec, 8, 1)));
    expect_scalars_identical(clean, rec);
    util::NodeStats t;
    for (const auto& ns : rec.stats.node) t += ns;
    EXPECT_EQ(t.crashes, 1u);
    EXPECT_GT(t.recoveries, 0u);
  }
}

// ---------------------------------------------------------------------------
// Checkpoint accounting.

// Enters the barrier `depth` host frames below the program body. Each frame
// keeps a live local across the call, so none of them is a tail call.
void barrier_at_depth(tempest::Node& n, sim::Task& t, int depth) {
  volatile char frame[512];
  frame[0] = static_cast<char>(depth);
  if (depth == 0)
    n.barrier(t);
  else
    barrier_at_depth(n, t, depth - 1);
  frame[1] = frame[0];
}

// A checkpoint is charged for the blocks and tags it captured. The fiber
// stack it also saves holds the simulator's own frames, whose size depends
// on the compiler and on the host call depth, so it must not move
// simulated time.
TEST(CheckpointAccounting, ChargeIsIndependentOfHostCallDepth) {
  auto run_at = [](int depth) {
    tempest::ClusterConfig cfg;
    cfg.nnodes = 4;
    cfg.checkpoint_every = 1;
    tempest::Cluster c(cfg);
    c.allocate("x", 16 * cfg.page_size);
    return c.run([&](tempest::Node& n, sim::Task& t) {
      for (int r = 0; r < 3; ++r) {
        t.charge(1000 * (n.id() + 1));
        barrier_at_depth(n, t, depth);
      }
    });
  };
  const util::RunStats shallow = run_at(0);
  const util::RunStats deep = run_at(8);
  EXPECT_GT(shallow.totals().checkpoint_bytes, 0u);
  EXPECT_EQ(shallow.elapsed_ns, deep.elapsed_ns);
  EXPECT_EQ(shallow.totals().checkpoint_bytes, deep.totals().checkpoint_bytes);
}

// Each capture is counted once, on every node: the initial image plus one
// per K-th barrier.
TEST(CheckpointAccounting, CountsEachCaptureOnce) {
  const int k = 4;
  for (const hpf::Program& prog :
       {apps::pde(18, 3), apps::shallow(33, 17, 3)}) {
    SCOPED_TRACE(prog.name);
    const exec::RunResult r = exec::run(prog, crash_cfg("", 4, k));
    for (const util::NodeStats& ns : r.stats.node) {
      EXPECT_GE(ns.barriers, static_cast<std::uint64_t>(k));
      EXPECT_EQ(ns.checkpoints, 1 + ns.barriers / k);
    }
  }
}

// ---------------------------------------------------------------------------
// Unrecoverable: crash with checkpointing disabled.

TEST(CrashRecoveryDeathTest, CrashWithoutCheckpointsExits87NamingTheNode) {
  const auto prog = apps::jacobi(64, 4);
  EXPECT_EXIT(
      {
        try {
          exec::run(prog, crash_cfg("crash=1@200000", 4,
                                    /*checkpoint_every=*/0));
        } catch (const sim::CrashError& e) {
          sim::exit_crash(e);
        } catch (const sim::StallError& e) {
          sim::exit_stall(e);
        }
      },
      ::testing::ExitedWithCode(sim::kCrashExitCode),
      "node 1 crashed with no checkpoint");
}

// ---------------------------------------------------------------------------
// The detection edge: ReliableChannel retry exhaustion and RTO backoff cap.

TEST(ChannelDetection, RetryExhaustionNamesLinkAndUnackedCount) {
  sim::Engine engine;
  sim::CostModel costs;
  sim::Network net(engine, costs, 2);
  sim::ChannelConfig ccfg;
  ccfg.rto_ns = 1000;
  ccfg.max_retries = 3;
  sim::ReliableChannel ch(engine, net, 2, ccfg);
  ch.attach(0, [](sim::Message&&, sim::Time) {});
  ch.attach(1, [](sim::Message&&, sim::Time) {});
  ch.set_down_probe([](int node) { return node == 1; });  // 1 never acks
  // An unfinished task keeps the engine from treating the silence as normal
  // end-of-run ack loss.
  sim::Task blocked(engine, "blocked", [](sim::Task& t) { t.block(); });
  blocked.start();

  sim::Message m;
  m.src = 0;
  m.dst = 1;
  m.type = 7;
  ch.send(0, std::move(m));
  try {
    engine.run();
    FAIL() << "a dead peer must exhaust the retry budget";
  } catch (const sim::StallError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("retry budget exhausted on link 0->1"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("unacked on link"), std::string::npos) << what;
    EXPECT_NE(what.find("peer node 1 is unresponsive"), std::string::npos)
        << what;
  }
}

TEST(ChannelDetection, BackoffCapBoundsDetectionLatency) {
  sim::Engine engine;
  sim::CostModel costs;
  sim::Network net(engine, costs, 2);
  sim::ChannelConfig ccfg;
  ccfg.rto_ns = 1000;
  ccfg.max_retries = 10;  // well past the cap at shift 6
  sim::ReliableChannel ch(engine, net, 2, ccfg);
  ch.attach(0, [](sim::Message&&, sim::Time) {});
  ch.attach(1, [](sim::Message&&, sim::Time) {});
  ch.set_down_probe([](int node) { return node == 1; });
  sim::Task blocked(engine, "blocked", [](sim::Task& t) { t.block(); });
  blocked.start();

  sim::Message m;
  m.src = 0;
  m.dst = 1;
  m.type = 7;
  ch.send(0, std::move(m));
  // Attempt a's timer fires backoff(a) = rto << min(a, kBackoffCapShift)
  // after it is armed; the budget check fails at attempt max_retries. So
  // detection lands at exactly sum_{a=0..max_retries} backoff(a) — uncapped
  // doubling would instead take rto * (2^11 - 1), ~5.3x longer.
  sim::Time expected = 0;
  for (int a = 0; a <= ccfg.max_retries; ++a)
    expected +=
        ccfg.rto_ns << (a < sim::ReliableChannel::kBackoffCapShift
                            ? a
                            : sim::ReliableChannel::kBackoffCapShift);
  try {
    engine.run();
    FAIL() << "a dead peer must exhaust the retry budget";
  } catch (const sim::StallError&) {
    EXPECT_EQ(engine.now(), expected);
  }
}

TEST(ChannelDetection, FinishedProgramDropsLostFinalAck) {
  // A task sends to a peer that never acks, then finishes. When the
  // retransmission timer fires the program is done, so the channel must
  // drop the copy instead of spending its (zero) retry budget: run()
  // returns normally. A stale "tasks unfinished" view would stall here.
  sim::Engine engine;
  sim::CostModel costs;
  sim::Network net(engine, costs, 2);
  sim::ChannelConfig ccfg;
  ccfg.rto_ns = 1000;
  ccfg.max_retries = 0;
  sim::ReliableChannel ch(engine, net, 2, ccfg);
  ch.attach(0, [](sim::Message&&, sim::Time) {});
  ch.attach(1, [](sim::Message&&, sim::Time) {});
  ch.set_down_probe([](int node) { return node == 1; });
  sim::Task sender(engine, "sender", [&](sim::Task& t) {
    sim::Message m;
    m.src = 0;
    m.dst = 1;
    m.type = 7;
    ch.send(t.now(), std::move(m));
  });
  sender.start();
  EXPECT_NO_THROW(engine.run());
}

}  // namespace
}  // namespace fgdsm
