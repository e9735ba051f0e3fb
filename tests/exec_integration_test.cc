// End-to-end: the jacobi program runs under every execution mode and every
// optimization level, on several cluster shapes, and produces bit-identical
// results; the optimized runs also show the paper's headline effects
// (fewer misses, less communication time).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "src/apps/apps.h"
#include "src/exec/executor.h"

namespace fgdsm::exec {
namespace {

RunConfig config(core::Options opt, int nnodes = 4,
                 std::size_t block = 128, bool dual = true) {
  RunConfig cfg;
  cfg.cluster.nnodes = nnodes;
  cfg.cluster.block_size = block;
  cfg.cluster.dual_cpu = dual;
  cfg.opt = opt;
  cfg.gather_arrays = true;
  return cfg;
}

// Arrays must match bit-for-bit; reduction-derived scalars may differ in
// the last bits between different node counts (different partial-sum
// grouping), so they get a tight relative tolerance.
void expect_same_arrays(const RunResult& a, const RunResult& b,
                        const std::string& label) {
  ASSERT_EQ(a.arrays.size(), b.arrays.size()) << label;
  for (const auto& [name, va] : a.arrays) {
    const auto it = b.arrays.find(name);
    ASSERT_NE(it, b.arrays.end()) << label << " missing " << name;
    ASSERT_EQ(va.size(), it->second.size()) << label << " " << name;
    std::size_t bad = 0;
    for (std::size_t i = 0; i < va.size(); ++i)
      if (va[i] != it->second[i] && ++bad <= 3)
        ADD_FAILURE() << label << ": " << name << "[" << i << "] "
                      << it->second[i] << " != " << va[i];
    EXPECT_EQ(bad, 0u) << label << ": " << name << " has " << bad
                       << " mismatches";
  }
  for (const auto& [name, sa] : a.scalars) {
    auto it = b.scalars.find(name);
    ASSERT_NE(it, b.scalars.end()) << label;
    EXPECT_NEAR(sa, it->second, 1e-9 * (1.0 + std::abs(sa)))
        << label << " scalar " << name;
  }
}

class JacobiModes : public ::testing::Test {
 protected:
  static constexpr std::int64_t kN = 64;
  static constexpr std::int64_t kSweeps = 6;
  hpf::Program prog = apps::jacobi(kN, kSweeps);
  RunResult serial = run(prog, config(core::serial()));
};

TEST_F(JacobiModes, SerialProducesChecksum) {
  EXPECT_TRUE(serial.scalars.count("checksum"));
  EXPECT_NE(serial.scalars.at("checksum"), 0.0);
  EXPECT_EQ(serial.arrays.at("u").size(), std::size_t(kN * kN));
}

TEST_F(JacobiModes, ShmemUnoptMatchesSerial) {
  const RunResult r = run(prog, config(core::shmem_unopt()));
  expect_same_arrays(serial, r, "sm-unopt");
}

TEST_F(JacobiModes, ShmemOptBaseMatchesSerial) {
  const RunResult r = run(prog, config(core::shmem_opt_base()));
  expect_same_arrays(serial, r, "sm-opt");
}

TEST_F(JacobiModes, ShmemOptBulkMatchesSerial) {
  const RunResult r = run(prog, config(core::shmem_opt_bulk()));
  expect_same_arrays(serial, r, "sm-opt+bulk");
}

TEST_F(JacobiModes, ShmemOptFullMatchesSerial) {
  const RunResult r = run(prog, config(core::shmem_opt_full()));
  expect_same_arrays(serial, r, "sm-opt+rtelim");
}

TEST_F(JacobiModes, ShmemOptPreMatchesSerial) {
  const RunResult r = run(prog, config(core::shmem_opt_pre()));
  expect_same_arrays(serial, r, "sm-opt+pre");
}

TEST_F(JacobiModes, MsgPassingMatchesSerial) {
  const RunResult r = run(prog, config(core::msg_passing()));
  expect_same_arrays(serial, r, "msg-passing");
}

TEST_F(JacobiModes, OptimizationReducesMissesAndTime) {
  // At n=64 a ghost column is only 4 blocks and its two boundary blocks stay
  // with the default protocol (the paper's edge effect, §6/grav), so the
  // reduction is moderate here; see EdgeEffectShrinksWithProblemSize.
  const RunResult unopt = run(prog, config(core::shmem_unopt()));
  const RunResult opt = run(prog, config(core::shmem_opt_full()));
  EXPECT_LT(opt.stats.avg_misses_per_node(),
            0.85 * unopt.stats.avg_misses_per_node());
  EXPECT_LT(opt.stats.elapsed_ns, unopt.stats.elapsed_ns);
}

TEST_F(JacobiModes, EdgeEffectShrinksWithProblemSize) {
  // With 256-row columns (16 blocks each) the trimmed edge blocks are a
  // small fraction; the optimized run should eliminate most misses after
  // the cold start, mirroring Table 3's jacobi row (96.7% reduction).
  hpf::Program big = apps::jacobi(128, 40);  // enough sweeps to amortize cold-start misses
  RunConfig base = config(core::shmem_unopt());
  base.gather_arrays = false;
  RunConfig optc = config(core::shmem_opt_full());
  optc.gather_arrays = false;
  const RunResult unopt = run(big, base);
  const RunResult opt = run(big, optc);
  // Compare misses excluding the identical cold-start (init) portion: total
  // reduction should still be strong.
  EXPECT_LT(opt.stats.avg_misses_per_node(),
            0.65 * unopt.stats.avg_misses_per_node());
  EXPECT_LT(opt.stats.elapsed_ns, unopt.stats.elapsed_ns);
}

TEST_F(JacobiModes, SingleCpuSlowerThanDualCpu) {
  const RunResult dual =
      run(prog, config(core::shmem_unopt(), 4, 128, /*dual=*/true));
  const RunResult single =
      run(prog, config(core::shmem_unopt(), 4, 128, /*dual=*/false));
  expect_same_arrays(dual, single, "single-vs-dual");
  EXPECT_GT(single.stats.elapsed_ns, dual.stats.elapsed_ns);
  EXPECT_GT(single.stats.totals().handler_steal_ns, 0);
}

// No padding bytes: gtest names each case in ctest with a byte dump of the
// parameter, and uninitialised padding would make those names change from
// one run of the binary to the next.
struct ShapeParam {
  std::int64_t nnodes;
  std::size_t block;
};
static_assert(sizeof(ShapeParam) ==
              sizeof(std::int64_t) + sizeof(std::size_t));

class JacobiShapes : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(JacobiShapes, AllModesAgree) {
  const auto p = GetParam();
  hpf::Program prog = apps::jacobi(48, 4);
  const RunResult serial = run(prog, config(core::serial()));
  for (const core::Options& opt :
       {core::shmem_unopt(), core::shmem_opt_base(), core::shmem_opt_full(),
        core::msg_passing()}) {
    const RunResult r =
        run(prog, config(opt, static_cast<int>(p.nnodes), p.block));
    expect_same_arrays(serial, r, opt.label());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, JacobiShapes,
    ::testing::Values(ShapeParam{2, 128}, ShapeParam{3, 64},
                      ShapeParam{8, 128}, ShapeParam{8, 32},
                      ShapeParam{5, 64}, ShapeParam{1, 128}),
    [](const ::testing::TestParamInfo<ShapeParam>& info) {
      return "n" + std::to_string(info.param.nnodes) + "_b" +
             std::to_string(info.param.block);
    });

}  // namespace
}  // namespace fgdsm::exec
