// Chaos-mode networking: deterministic fault injection, the reliable
// transport channel, the stall watchdog, and strict flag parsing.
//
// The load-bearing properties:
//   - application results under faults are bit-identical to fault-free runs
//     (the channel hides drops/dups/delays/reordering completely);
//   - a given --faults seed reproduces the identical run at any host thread
//     count (counter-mode hashing, no RNG state);
//   - fault injection disabled is *passive*: every chaos counter stays zero
//     and the run is untouched;
//   - a dead link terminates the process with the documented exit code (86)
//     and a diagnostic naming the link, not a hang.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/common.h"
#include "src/apps/apps.h"
#include "src/exec/batch.h"
#include "src/exec/executor.h"
#include "src/sim/engine.h"
#include "src/sim/fault.h"
#include "src/util/options.h"

namespace fgdsm {
namespace {

// ---------------------------------------------------------------------------
// FaultConfig parsing.

TEST(FaultConfig, ParsesFullSpec) {
  std::string err;
  const sim::FaultConfig c = sim::FaultConfig::parse(
      "drop=0.01,dup=0.002,delay=0.1,reorder=0.05,delay-ns=80000,"
      "rto-ns=150000,seed=7,retries=5",
      &err);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_TRUE(c.enabled);
  EXPECT_DOUBLE_EQ(c.drop, 0.01);
  EXPECT_DOUBLE_EQ(c.dup, 0.002);
  EXPECT_DOUBLE_EQ(c.delay, 0.1);
  EXPECT_DOUBLE_EQ(c.reorder, 0.05);
  EXPECT_EQ(c.delay_ns, 80000);
  EXPECT_EQ(c.rto_ns, 150000);
  EXPECT_EQ(c.seed, 7u);
  EXPECT_EQ(c.max_retries, 5);
}

TEST(FaultConfig, BareFlagEnablesChaosPlumbingWithZeroRates) {
  std::string err;
  const sim::FaultConfig c = sim::FaultConfig::parse("1", &err);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_TRUE(c.enabled);
  EXPECT_DOUBLE_EQ(c.drop, 0.0);
}

TEST(FaultConfig, RejectsUnknownKeyAndBadValues) {
  std::string err;
  sim::FaultConfig c = sim::FaultConfig::parse("dorp=0.01", &err);
  EXPECT_FALSE(c.enabled);
  EXPECT_NE(err.find("dorp"), std::string::npos) << err;

  c = sim::FaultConfig::parse("drop=1.5", &err);
  EXPECT_FALSE(c.enabled);
  EXPECT_NE(err.find("drop"), std::string::npos) << err;

  c = sim::FaultConfig::parse("seed=abc", &err);
  EXPECT_FALSE(c.enabled);
  EXPECT_FALSE(err.empty());
}

// ---------------------------------------------------------------------------
// FaultInjector determinism.

TEST(FaultInjector, SameSeedSameVerdictsAnyCallOrder) {
  sim::FaultConfig cfg;
  cfg.enabled = true;
  cfg.drop = 0.2;
  cfg.dup = 0.1;
  cfg.delay = 0.3;
  cfg.seed = 99;
  sim::FaultInjector a(cfg, 4, 1000);
  sim::FaultInjector b(cfg, 4, 1000);
  // b interleaves an unrelated link's draws between a's — per-link counters
  // must make link (1,2)'s sequence independent of other links' traffic.
  std::vector<sim::FaultInjector::Decision> va, vb;
  for (int i = 0; i < 200; ++i) va.push_back(a.decide(1, 2));
  for (int i = 0; i < 200; ++i) {
    b.decide(0, 3);
    vb.push_back(b.decide(1, 2));
  }
  int dropped = 0;
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(va[i].drop, vb[i].drop) << i;
    EXPECT_EQ(va[i].duplicate, vb[i].duplicate) << i;
    EXPECT_EQ(va[i].extra_delay, vb[i].extra_delay) << i;
    dropped += va[i].drop ? 1 : 0;
  }
  EXPECT_GT(dropped, 0);      // 200 draws at p=.2: zero would be broken
  EXPECT_LT(dropped, 200);
}

TEST(FaultInjector, DifferentSeedsDiffer) {
  sim::FaultConfig cfg;
  cfg.enabled = true;
  cfg.drop = 0.5;
  cfg.seed = 1;
  sim::FaultInjector a(cfg, 2, 1000);
  cfg.seed = 2;
  sim::FaultInjector b(cfg, 2, 1000);
  int differ = 0;
  for (int i = 0; i < 100; ++i)
    differ += a.decide(0, 1).drop != b.decide(0, 1).drop ? 1 : 0;
  EXPECT_GT(differ, 0);
}

TEST(FaultInjector, ZeroRatesNeverFault) {
  sim::FaultConfig cfg;
  cfg.enabled = true;
  sim::FaultInjector inj(cfg, 2, 1000);
  for (int i = 0; i < 100; ++i) {
    const auto d = inj.decide(0, 1);
    EXPECT_FALSE(d.drop);
    EXPECT_FALSE(d.duplicate);
    EXPECT_EQ(d.extra_delay, 0);
  }
}

// ---------------------------------------------------------------------------
// Strict flag parsing.

TEST(OptionsStrict, ClosestMatchSuggestsPlausibleTyposOnly) {
  const std::vector<std::string> known = {"trace", "scale", "nodes",
                                          "check-coherence"};
  EXPECT_EQ(util::Options::closest_match("tarce", known), "trace");
  EXPECT_EQ(util::Options::closest_match("check-coherance", known),
            "check-coherence");
  EXPECT_EQ(util::Options::closest_match("zzzzzz", known), "");
}

TEST(OptionsStrictDeathTest, UnknownFlagExits2NamingFlagAndSuggestion) {
  const char* argv[] = {"bench", "--tarce=x.json"};
  util::Options o(2, argv);
  EXPECT_EXIT(o.check_known({"trace", "scale"}),
              ::testing::ExitedWithCode(2),
              "unknown option --tarce \\(did you mean --trace\\?\\)");
}

TEST(OptionsStrict, KnownFlagsPass) {
  const char* argv[] = {"bench", "--trace=x.json", "--scale=0.5"};
  util::Options o(3, argv);
  o.check_known({"trace", "scale"});  // must not exit
}

// A misspelled --app must not filter every run out and print empty tables.
TEST(OptionsStrictDeathTest, UnknownAppExits2WithSuggestion) {
  const char* jacobl[] = {"bench_fig3", "--app=jacobl"};
  EXPECT_EXIT(
      (void)bench::BenchConfig::from_args(2, jacobl, bench::registry_names()),
      ::testing::ExitedWithCode(2),
      "unknown --app=jacobl \\(did you mean --app=jacobi\\?\\)");
  // Too far for a typo suggestion (a transposition is two edits in four
  // letters): the valid names are listed instead.
  const char* spvm[] = {"bench_scale", "--app=spvm"};
  EXPECT_EXIT((void)bench::BenchConfig::from_args(2, spvm, {"jacobi", "spmv"}),
              ::testing::ExitedWithCode(2),
              "unknown --app=spvm \\(expected one of: jacobi spmv\\)");
}

// So must a real app the harness does not run: the paper suite has no spmv,
// bench_scale no lu, and bench_irreg runs spmv only.
TEST(OptionsStrictDeathTest, AppTheHarnessDoesNotRunExits2) {
  const char* spmv[] = {"bench_paper", "--app=spmv"};
  EXPECT_EXIT(
      (void)bench::BenchConfig::from_args(2, spmv, bench::registry_names()),
      ::testing::ExitedWithCode(2), "unknown --app=spmv \\(");
  const char* lu[] = {"bench_scale", "--app=lu"};
  EXPECT_EXIT((void)bench::BenchConfig::from_args(2, lu, {"jacobi", "spmv"}),
              ::testing::ExitedWithCode(2),
              "unknown --app=lu \\(expected one of: jacobi spmv\\)");
  const char* jacobi[] = {"bench_irreg", "--app=jacobi"};
  EXPECT_EXIT((void)bench::BenchConfig::from_args(2, jacobi, {"spmv"}),
              ::testing::ExitedWithCode(2), "unknown --app=jacobi \\(");
  // A harness whose experiments are fixed takes no --app at all.
  EXPECT_EXIT((void)bench::BenchConfig::from_args(2, jacobi, {}),
              ::testing::ExitedWithCode(2), "unknown option --app");
}

TEST(OptionsStrict, RegistryAppsAndSpmvPass) {
  for (const char* app : {"jacobi", "lu"}) {
    const std::string flag = std::string("--app=") + app;
    const char* argv[] = {"bench", flag.c_str()};
    EXPECT_EQ(
        bench::BenchConfig::from_args(2, argv, bench::registry_names())
            .only_app,
        app);
  }
  const char* spmv[] = {"bench_irreg", "--app=spmv"};
  EXPECT_EQ(bench::BenchConfig::from_args(2, spmv, {"spmv"}).only_app, "spmv");
}

// ---------------------------------------------------------------------------
// End-to-end chaos runs.

exec::RunConfig chaos_cfg(const std::string& spec, int nodes = 4) {
  exec::RunConfig c;
  c.cluster.nnodes = nodes;
  c.cluster.check_coherence = true;
  c.opt = core::shmem_opt_full();
  c.gather_arrays = false;
  if (!spec.empty()) {
    std::string err;
    c.cluster.faults = sim::FaultConfig::parse(spec, &err);
    EXPECT_TRUE(err.empty()) << err;
    c.cluster.watchdog_ns = 2'000'000'000;
  }
  return c;
}

TEST(Chaos, ApplicationResultsSurviveFaultsBitIdentically) {
  const auto prog = apps::jacobi(96, 6);
  const exec::RunResult clean = exec::run(prog, chaos_cfg(""));
  const exec::RunResult chaos = exec::run(
      prog, chaos_cfg("drop=0.03,dup=0.01,delay=0.1,reorder=0.05,seed=42"));

  // The channel must hide every fault: same answers, coherence clean.
  ASSERT_EQ(clean.scalars.size(), chaos.scalars.size());
  for (const auto& [name, v] : clean.scalars)
    EXPECT_EQ(v, chaos.scalars.at(name)) << name;

  // And the chaos must actually have happened (else the test is vacuous).
  util::NodeStats t;
  for (const auto& ns : chaos.stats.node) t += ns;
  EXPECT_GT(t.faults_dropped, 0u);
  EXPECT_GT(t.retransmits, 0u);
  // Timing shifts under chaos (it may move either way: delays also change
  // protocol race outcomes), but only timing — results matched above.
  EXPECT_NE(chaos.stats.elapsed_ns, clean.stats.elapsed_ns);
}

TEST(Chaos, SameSeedIsBitIdentical) {
  const auto prog = apps::jacobi(96, 6);
  const char* spec = "drop=0.05,dup=0.02,delay=0.2,reorder=0.1,seed=7";
  const exec::RunResult a = exec::run(prog, chaos_cfg(spec));
  const exec::RunResult b = exec::run(prog, chaos_cfg(spec));
  EXPECT_EQ(a.stats.elapsed_ns, b.stats.elapsed_ns);
  for (std::size_t i = 0; i < a.stats.node.size(); ++i)
    util::NodeStats::visit_fields(
        a.stats.node[i], [&](const char* name, auto v) {
          util::NodeStats::visit_fields(
              b.stats.node[i], [&](const char* name2, auto v2) {
                if (std::string(name) == name2) {
                  EXPECT_EQ(static_cast<double>(v), static_cast<double>(v2))
                      << name << " node " << i;
                }
              });
        });
  for (const auto& [name, v] : a.scalars)
    EXPECT_EQ(v, b.scalars.at(name)) << name;
}

TEST(Chaos, DifferentSeedsChangeTimingNotResults) {
  const auto prog = apps::jacobi(96, 6);
  const exec::RunResult a =
      exec::run(prog, chaos_cfg("drop=0.05,delay=0.2,seed=1"));
  const exec::RunResult b =
      exec::run(prog, chaos_cfg("drop=0.05,delay=0.2,seed=2"));
  for (const auto& [name, v] : a.scalars)
    EXPECT_EQ(v, b.scalars.at(name)) << name;
  EXPECT_NE(a.stats.elapsed_ns, b.stats.elapsed_ns);
}

TEST(Chaos, DisabledFaultsArePassive) {
  const auto prog = apps::jacobi(96, 6);
  const exec::RunResult r = exec::run(prog, chaos_cfg(""));
  for (const auto& ns : r.stats.node) {
    EXPECT_EQ(ns.retransmits, 0u);
    EXPECT_EQ(ns.channel_acks, 0u);
    EXPECT_EQ(ns.dup_suppressed, 0u);
    EXPECT_EQ(ns.faults_dropped, 0u);
    EXPECT_EQ(ns.faults_duplicated, 0u);
    EXPECT_EQ(ns.faults_delayed, 0u);
  }
}

TEST(Chaos, MessagePassingModeSurvivesFaultsToo) {
  const auto prog = apps::jacobi(96, 6);
  exec::RunConfig clean = chaos_cfg("");
  clean.opt = core::msg_passing();
  exec::RunConfig chaos = chaos_cfg("drop=0.03,dup=0.01,seed=11");
  chaos.opt = core::msg_passing();
  const exec::RunResult a = exec::run(prog, clean);
  const exec::RunResult b = exec::run(prog, chaos);
  for (const auto& [name, v] : a.scalars)
    EXPECT_EQ(v, b.scalars.at(name)) << name;
}

// ---------------------------------------------------------------------------
// Liveness failure: dead link.

TEST(ChaosDeathTest, DeadLinkExhaustsRetriesAndExitsWithStallCode) {
  const auto prog = apps::jacobi(64, 2);
  EXPECT_EXIT(
      {
        try {
          exec::run(prog, chaos_cfg("drop=1.0,retries=0,seed=3"));
        } catch (const sim::StallError& e) {
          sim::exit_stall(e);
        }
      },
      ::testing::ExitedWithCode(sim::kStallExitCode),
      "retry budget exhausted on link [0-9]+->[0-9]+");
}

TEST(ChaosDeathTest, WatchdogFiresOnStallAndNamesBlockedTasks) {
  const auto prog = apps::jacobi(64, 2);
  EXPECT_EXIT(
      {
        exec::RunConfig c = chaos_cfg("drop=1.0,retries=30,seed=3");
        c.cluster.watchdog_ns = 1'000'000;  // 1 ms: fire before retries end
        try {
          exec::run(prog, c);
        } catch (const sim::StallError& e) {
          sim::exit_stall(e);
        }
      },
      ::testing::ExitedWithCode(sim::kStallExitCode),
      "watchdog: no compute-task progress");
}

TEST(Chaos, StallReportNamesLinkAndBlockedTasks) {
  const auto prog = apps::jacobi(64, 2);
  try {
    exec::run(prog, chaos_cfg("drop=1.0,retries=0,seed=3"));
    FAIL() << "a fully dead network must stall";
  } catch (const sim::StallError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("retry budget exhausted"), std::string::npos) << what;
    EXPECT_NE(what.find("blocked tasks:"), std::string::npos) << what;
    EXPECT_NE(what.find("node"), std::string::npos) << what;
    EXPECT_NE(what.find("channel state:"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace fgdsm
