// lu — right-looking LU decomposition (no pivoting; the synthetic matrix is
// diagonally dominant) of an n x n matrix with CYCLIC column distribution
// (Table 2: 1024x1024).
//
// Each elimination step broadcasts the pivot column to every processor —
// the paper's one app where message passing beats shared memory. The
// broadcast column shrinks with k, so in late iterations the block-aligned
// inner subset vanishes and the edge effects limit the optimization (§6).
#include <cmath>

#include "src/apps/apps.h"
#include "src/apps/costs.h"

namespace fgdsm::apps {

using hpf::AffineExpr;
using hpf::ArrayHandle;
using hpf::BodyCtx;
using hpf::DistKind;
using hpf::LoopVar;
using hpf::ParallelLoop;
using hpf::Phase;
using hpf::Program;
using hpf::TimeLoop;

Program lu(std::int64_t n) {
  Program prog;
  prog.name = "lu";
  const AffineExpr N = AffineExpr::sym("n");
  const AffineExpr I = AffineExpr::sym("i"), J = AffineExpr::sym("j"),
                   K = AffineExpr::sym("k");
  prog.arrays.push_back({"a", {N, N}, DistKind::kCyclic});
  prog.sizes.set("n", n);
  const ArrayHandle A = prog.handle("a");

  {
    ParallelLoop init;
    init.name = "init";
    init.dist = LoopVar{"j", AffineExpr(0), N - 1};
    init.free.push_back(LoopVar{"i", AffineExpr(0), N - 1});
    init.home_array = "a";
    init.home_sub = J;
    init.writes = {{"a", {I, J}}};
    init.cost_per_iter_ns = costs::kInitNs;
    init.body = [A](BodyCtx& c) {
      auto a = view2(c, A);
      const std::int64_t n = c.sym("n");
      const std::int64_t j = c.dist();
      for (std::int64_t i = 0; i < n; ++i) {
        a(i, j) = std::sin(0.013 * static_cast<double>(i * 7 + j * 3 + 1));
        if (i == j) a(i, j) += static_cast<double>(n);  // dominance
      }
    };
    prog.phases.push_back(Phase::make(std::move(init)));
  }

  TimeLoop tl;
  tl.counter = "k";
  tl.count = N - 1;

  // Scale the pivot column: a(i,k) /= a(k,k), i > k. Runs only on the
  // pivot column's owner.
  {
    ParallelLoop scale;
    scale.name = "scale";
    scale.dist = LoopVar{"j", K, K};  // the single column j == k
    scale.free.push_back(LoopVar{"i", K + 1, N - 1});
    scale.home_array = "a";
    scale.home_sub = J;
    scale.reads = {{"a", {I, J}}, {"a", {K, K}}};
    scale.writes = {{"a", {I, J}}};
    scale.cost_per_iter_ns = costs::kLuScaleNs;
    scale.body = [A](BodyCtx& c) {
      auto a = view2(c, A);
      const std::int64_t n = c.sym("n");
      const std::int64_t k = c.dist();  // == the column being scaled
      const double pivot = a(k, k);
      for (std::int64_t i = k + 1; i < n; ++i) a(i, k) /= pivot;
    };
    tl.phases.push_back(Phase::make(std::move(scale)));
  }

  // Trailing update: a(i,j) -= a(i,k) * a(k,j), i,j > k. Reads the pivot
  // column a(:,k) — broadcast from its owner to everyone.
  {
    ParallelLoop upd;
    upd.name = "update";
    upd.dist = LoopVar{"j", K + 1, N - 1};
    upd.free.push_back(LoopVar{"i", K + 1, N - 1});
    upd.home_array = "a";
    upd.home_sub = J;
    upd.reads = {{"a", {I, J}}, {"a", {I, K}}, {"a", {K, J}}};
    upd.writes = {{"a", {I, J}}};
    upd.cost_per_iter_ns = costs::kLuUpdateNs;
    upd.body = [A](BodyCtx& c) {
      auto a = view2(c, A);
      const std::int64_t n = c.sym("n");
      const std::int64_t k = c.sym("k");
      const std::int64_t j = c.dist();
      const double akj = a(k, j);
      for (std::int64_t i = k + 1; i < n; ++i) a(i, j) -= a(i, k) * akj;
    };
    tl.phases.push_back(Phase::make(std::move(upd)));
  }
  prog.phases.push_back(Phase::make(std::move(tl)));

  // Checksum: sum of log|diag(U)| (the log-determinant), plus a plain sum
  // of L+U entries.
  {
    ParallelLoop sum;
    sum.name = "checksum";
    sum.dist = LoopVar{"j", AffineExpr(0), N - 1};
    sum.free.push_back(LoopVar{"i", AffineExpr(0), N - 1});
    sum.home_array = "a";
    sum.home_sub = J;
    sum.reads = {{"a", {I, J}}};
    sum.cost_per_iter_ns = costs::kReduceNs;
    sum.has_reduce = true;
    sum.reduce_scalar = "checksum";
    sum.body = [A](BodyCtx& c) {
      auto a = view2(c, A);
      const std::int64_t n = c.sym("n");
      const std::int64_t j = c.dist();
      double acc = std::log(std::abs(a(j, j)));
      for (std::int64_t i = 0; i < n; ++i) acc += 1e-6 * a(i, j);
      c.contribute(acc);
    };
    prog.phases.push_back(Phase::make(std::move(sum)));
  }
  return prog;
}

}  // namespace fgdsm::apps
