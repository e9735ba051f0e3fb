// The shifted-writer program: a loop whose computation distribution differs
// from its data distribution, so nodes write columns they do not own (the
// paper's non-owner write contract, §4.2). Shared by the tests that run it.
#pragma once

#include <cstdint>
#include <utility>

#include "src/hpf/ir.h"

namespace fgdsm::test_programs {

// Writes are distributed by loop index while the data lives BLOCK-wise with
// a shifted subscript, so every node writes columns it does not own.
inline hpf::Program shifted_writer(std::int64_t n, std::int64_t steps) {
  using hpf::AffineExpr;
  using hpf::BodyCtx;
  using hpf::DistKind;
  using hpf::LoopVar;
  using hpf::ParallelLoop;
  using hpf::Phase;
  using hpf::TimeLoop;
  hpf::Program prog;
  prog.name = "shifted-writer";
  const AffineExpr N = AffineExpr::sym("n");
  const AffineExpr I = AffineExpr::sym("i"), J = AffineExpr::sym("j");
  prog.arrays.push_back({"a", {N, N}, DistKind::kBlock});
  prog.arrays.push_back({"b", {N, N}, DistKind::kBlock});
  prog.sizes.set("n", n);
  prog.sizes.set("steps", steps);

  ParallelLoop init;
  init.name = "init";
  init.dist = LoopVar{"j", AffineExpr(0), N - 1};
  init.free.push_back(LoopVar{"i", AffineExpr(0), N - 1});
  init.home_array = "a";
  init.home_sub = J;
  init.writes = {{"a", {I, J}}, {"b", {I, J}}};
  init.body = [](BodyCtx& c) {
    auto a = hpf::view2(c, "a");
    auto b = hpf::view2(c, "b");
    const std::int64_t n = c.sym("n");
    const std::int64_t j = c.dist();
    for (std::int64_t i = 0; i < n; ++i) {
      a(i, j) = 0.01 * static_cast<double>(i + 3 * j);
      b(i, j) = 0.0;
    }
  };
  prog.phases.push_back(Phase::make(std::move(init)));

  TimeLoop tl;
  tl.counter = "t";
  tl.count = AffineExpr::sym("steps");
  {
    // Computation split by index over [0, n-9); writes b(:, j+8): the last
    // nodes write into columns owned by others.
    ParallelLoop w;
    w.name = "shifted-write";
    w.dist = LoopVar{"j", AffineExpr(0), N - 9};
    w.free.push_back(LoopVar{"i", AffineExpr(0), N - 1});
    w.comp = ParallelLoop::Comp::kBlockByIndex;
    w.reads = {{"a", {I, J}}, {"b", {I, J + 8}}};
    w.writes = {{"b", {I, J + 8}}};
    w.cost_per_iter_ns = 60;
    w.body = [](BodyCtx& c) {
      auto a = hpf::view2(c, "a");
      auto b = hpf::view2(c, "b");
      const std::int64_t n = c.sym("n");
      const std::int64_t j = c.dist();
      for (std::int64_t i = 0; i < n; ++i)
        b(i, j + 8) = 0.5 * b(i, j + 8) + a(i, j);
    };
    tl.phases.push_back(Phase::make(std::move(w)));
  }
  {
    // Owner-computes consumer keeps the data moving.
    ParallelLoop r;
    r.name = "consume";
    r.dist = LoopVar{"j", AffineExpr(0), N - 1};
    r.free.push_back(LoopVar{"i", AffineExpr(0), N - 1});
    r.home_array = "a";
    r.home_sub = AffineExpr::sym("j");
    r.reads = {{"b", {I, J}}};
    r.writes = {{"a", {I, J}}};
    r.cost_per_iter_ns = 60;
    r.body = [](BodyCtx& c) {
      auto a = hpf::view2(c, "a");
      auto b = hpf::view2(c, "b");
      const std::int64_t n = c.sym("n");
      const std::int64_t j = c.dist();
      for (std::int64_t i = 0; i < n; ++i)
        a(i, j) += 0.1 * b(i, j);
    };
    tl.phases.push_back(Phase::make(std::move(r)));
  }
  prog.phases.push_back(Phase::make(std::move(tl)));

  ParallelLoop sum;
  sum.name = "checksum";
  sum.dist = LoopVar{"j", AffineExpr(0), N - 1};
  sum.free.push_back(LoopVar{"i", AffineExpr(0), N - 1});
  sum.home_array = "a";
  sum.home_sub = AffineExpr::sym("j");
  sum.reads = {{"a", {I, J}}};
  sum.has_reduce = true;
  sum.reduce_scalar = "checksum";
  sum.body = [](BodyCtx& c) {
    auto a = hpf::view2(c, "a");
    const std::int64_t n = c.sym("n");
    double acc = 0;
    for (std::int64_t i = 0; i < n; ++i) acc += a(i, c.dist());
    c.contribute(acc);
  };
  prog.phases.push_back(Phase::make(std::move(sum)));
  return prog;
}

}  // namespace fgdsm::test_programs
