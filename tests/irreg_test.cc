// Inspector–executor runtime (src/irreg/) end-to-end: the spmv irregular
// workload must produce identical results under the default protocol, the
// inspector–executor schedule, the MP backend, any host thread count, and
// chaos mode — while the schedule demonstrably carries traffic (fewer
// protocol messages than the default protocol) and the schedule cache
// amortizes inspection across timesteps.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "src/apps/apps.h"
#include "src/exec/batch.h"
#include "src/exec/executor.h"
#include "src/irreg/inspector.h"
#include "src/sim/fault.h"

namespace fgdsm::exec {
namespace {

RunConfig config(core::Options opt, int nnodes, std::size_t block = 128) {
  RunConfig cfg;
  cfg.cluster.nnodes = nnodes;
  cfg.cluster.block_size = block;
  cfg.opt = opt;
  cfg.gather_arrays = true;
  return cfg;
}

void expect_match(const RunResult& ref, const RunResult& r,
                  const std::string& label) {
  for (const auto& [name, va] : ref.arrays) {
    const auto it = r.arrays.find(name);
    ASSERT_NE(it, r.arrays.end()) << label;
    ASSERT_EQ(va.size(), it->second.size()) << label;
    std::size_t bad = 0;
    for (std::size_t i = 0; i < va.size(); ++i)
      if (va[i] != it->second[i]) ++bad;
    EXPECT_EQ(bad, 0u) << label << ": array " << name << " has " << bad
                       << " mismatching elements of " << va.size();
  }
  for (const auto& [name, sv] : ref.scalars) {
    auto it = r.scalars.find(name);
    ASSERT_NE(it, r.scalars.end()) << label << " scalar " << name;
    EXPECT_EQ(sv, it->second) << label << " scalar " << name;
  }
}

// Same contract as the affine suite (apps_test): serial agrees with the
// parallel reference through scalars at a loose tolerance (different
// reduction grouping); every parallel mode is bit-identical to the
// default-protocol reference.
void check_all_modes(const hpf::Program& prog, int nnodes,
                     std::size_t block = 128) {
  const RunResult serial = run(prog, config(core::serial(), 1, block));
  ASSERT_FALSE(serial.scalars.empty()) << prog.name;
  const RunResult reference =
      run(prog, config(core::shmem_unopt(), nnodes, block));
  for (const auto& [name, sv] : serial.scalars) {
    auto it = reference.scalars.find(name);
    ASSERT_NE(it, reference.scalars.end()) << prog.name << " " << name;
    EXPECT_NEAR(sv, it->second, 1e-6 * (1.0 + std::abs(sv)))
        << prog.name << " serial-vs-parallel scalar " << name;
  }
  for (const core::Options& opt :
       {core::shmem_opt_base(), core::shmem_opt_bulk(),
        core::shmem_opt_full(), core::shmem_opt_pre(),
        core::msg_passing()}) {
    const RunResult r = run(prog, config(opt, nnodes, block));
    expect_match(reference, r, prog.name + "/" + opt.label());
  }
}

TEST(Irreg, SpmvBandAllModes) {
  check_all_modes(apps::spmv(768, 8, 5, /*pattern=*/0), 4);
}
TEST(Irreg, SpmvHashAllModes) {
  check_all_modes(apps::spmv(768, 8, 5, /*pattern=*/1), 4);
}
TEST(Irreg, SpmvOddNodesSmallBlocks) {
  check_all_modes(apps::spmv(600, 8, 4, /*pattern=*/0), 3, 64);
}
TEST(Irreg, SpmvEightNodes) {
  check_all_modes(apps::spmv(1024, 8, 4, /*pattern=*/1), 8);
}

// The IR carries the indirection explicitly.
TEST(Irreg, SpmvProgramHasIndirectReads) {
  const auto prog = apps::spmv(512, 8, 4, 0);
  EXPECT_TRUE(irreg::has_indirect(prog));
  EXPECT_FALSE(irreg::has_indirect(apps::jacobi(64, 2)));
}

// Acceptance: on the banded pattern the materialized schedule must carry
// enough of the gather that the scheduled run sends fewer protocol messages
// than the default protocol.
TEST(Irreg, ScheduleBeatsDefaultProtocolOnMessages) {
  const auto prog = apps::spmv(1024, 8, 5, /*pattern=*/0);
  const RunResult unopt = run(prog, config(core::shmem_unopt(), 4));
  const RunResult opt = run(prog, config(core::shmem_opt_full(), 4));
  EXPECT_LT(opt.stats.totals().messages_sent,
            unopt.stats.totals().messages_sent);
}

// Schedule reuse (CHAOS/PARTI amortization): the indirection arrays never
// change inside the time loop, so each node inspects exactly once and every
// later visit replays its recorded schedule. Without reuse, every visit
// re-inspects. Numerics are identical either way; only time differs.
TEST(Irreg, ScheduleCacheAmortizesInspection) {
  const std::int64_t iters = 6;
  const auto prog = apps::spmv(768, 8, iters, /*pattern=*/0);
  for (const core::Options& base :
       {core::shmem_opt_full(), core::msg_passing()}) {
    RunConfig on = config(base, 4);
    RunConfig off = on;
    off.opt.reuse_schedule = false;
    const RunResult a = run(prog, on);
    const RunResult b = run(prog, off);
    const std::string label = base.label();

    for (const auto& ns : a.stats.node) {
      EXPECT_EQ(ns.irreg_inspections, 1u) << label;
      EXPECT_EQ(ns.sched_cache_misses, 1u) << label;
      EXPECT_EQ(ns.sched_cache_hits, static_cast<std::uint64_t>(iters - 1))
          << label;
    }
    for (const auto& ns : b.stats.node) {
      EXPECT_EQ(ns.irreg_inspections, static_cast<std::uint64_t>(iters))
          << label;
      EXPECT_EQ(ns.sched_cache_misses, 0u) << label;
      EXPECT_EQ(ns.sched_cache_hits, 0u) << label;
    }
    // Re-inspection is real simulated communication: the uncached run is
    // strictly slower, but numerically identical.
    EXPECT_LT(a.stats.elapsed_ns, b.stats.elapsed_ns) << label;
    EXPECT_EQ(a.scalars, b.scalars) << label;
    expect_match(a, b, label + " reuse vs re-inspect");
  }
}

// Inspector determinism across host parallelism: a batch of irregular runs
// must be bit-identical at any --jobs count.
TEST(Irreg, BatchResultsIdenticalAcrossJobCounts) {
  const auto band = apps::spmv(600, 8, 4, 0);
  const auto hash = apps::spmv(600, 8, 4, 1);
  std::vector<ExperimentSpec> specs;
  for (const hpf::Program* p : {&band, &hash}) {
    for (const core::Options& opt :
         {core::shmem_unopt(), core::shmem_opt_full(),
          core::msg_passing()}) {
      ExperimentSpec s;
      s.program = p;
      s.config = config(opt, 4);
      specs.push_back(s);
    }
  }
  const auto seq = BatchRunner(1).run_all(specs);
  const auto par = BatchRunner(3).run_all(specs);
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i].stats.elapsed_ns, par[i].stats.elapsed_ns) << i;
    EXPECT_EQ(seq[i].scalars, par[i].scalars) << i;
    EXPECT_EQ(seq[i].stats.totals().messages_sent,
              par[i].stats.totals().messages_sent)
        << i;
    expect_match(seq[i], par[i], "spec " + std::to_string(i));
  }
}

// Chaos: with deterministic fault injection + reliable transport, the
// scheduled modes lose real messages (the exchange and the gather both
// cross the faulty wire) yet results stay bit-identical to fault-free runs.
TEST(Irreg, ChaosPreservesResults) {
  const auto prog = apps::spmv(768, 8, 4, /*pattern=*/0);
  for (const core::Options& base :
       {core::shmem_opt_full(), core::msg_passing()}) {
    const RunResult clean = run(prog, config(base, 4));
    for (std::uint64_t seed : {1ull, 2ull}) {
      RunConfig cfg = config(base, 4);
      std::string err;
      cfg.cluster.faults = sim::FaultConfig::parse(
          "drop=0.02,seed=" + std::to_string(seed), &err);
      ASSERT_TRUE(err.empty()) << err;
      cfg.cluster.watchdog_ns = 2'000'000'000;
      const RunResult chaotic = run(prog, cfg);
      const std::string label =
          base.label() + " seed=" + std::to_string(seed);
      EXPECT_EQ(clean.scalars, chaotic.scalars) << label;
      expect_match(clean, chaotic, label);
      EXPECT_GT(chaotic.stats.totals().faults_dropped, 0u) << label;
      EXPECT_GT(chaotic.stats.totals().retransmits, 0u) << label;
    }
  }
}

}  // namespace
}  // namespace fgdsm::exec
