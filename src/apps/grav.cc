// grav — gravitational potential kernel (Syracuse HPF suite): a 129x129
// potential grid relaxed against a 129x129x129 mass distribution, SUM
// reductions per source plane (Table 2: grid size 128 -> 129 points, 5
// iterations, ~17 MB).
//
// Two properties the paper highlights (§6):
//  - array extents of 129 make columns 1032 bytes — never block-aligned at
//    128-byte blocks, so the compiler's inner subsets lose two blocks per
//    column and only ~38% of misses are removed;
//  - a large number of SUM reductions (one per moment order per iteration,
//    plus the total source mass) limits speedup in every configuration.
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
using hpf::ScalarPhase;
using hpf::TimeLoop;

Program grav(std::int64_t n, std::int64_t iters) {
  // n is the grid size; arrays have n+1 points per dimension (129 for 128).
  Program prog;
  prog.name = "grav";
  const AffineExpr M = AffineExpr::sym("m");  // m = n + 1
  const AffineExpr I = AffineExpr::sym("i"), J = AffineExpr::sym("j"),
                   K = AffineExpr::sym("k");
  prog.arrays.push_back({"phi", {M, M}, DistKind::kBlock});
  prog.arrays.push_back({"phinew", {M, M}, DistKind::kBlock});
  prog.arrays.push_back({"rho", {M, M, M}, DistKind::kBlock});
  prog.sizes.set("m", n + 1);
  prog.sizes.set("iters", iters);
  const ArrayHandle PHI = prog.handle("phi"), PHINEW = prog.handle("phinew"),
                    RHO = prog.handle("rho");

  {
    ParallelLoop init2d;
    init2d.name = "init-phi";
    init2d.dist = LoopVar{"j", AffineExpr(0), M - 1};
    init2d.free.push_back(LoopVar{"i", AffineExpr(0), M - 1});
    init2d.home_array = "phi";
    init2d.home_sub = J;
    init2d.writes = {{"phi", {I, J}}, {"phinew", {I, J}}};
    init2d.cost_per_iter_ns = costs::kInitNs;
    init2d.body = [PHI, PHINEW](BodyCtx& c) {
      auto phi = view2(c, PHI);
      auto phinew = view2(c, PHINEW);
      const std::int64_t m = c.sym("m");
      const std::int64_t j = c.dist();
      for (std::int64_t i = 0; i < m; ++i) {
        phi(i, j) = 0.01 * std::cos(0.2 * static_cast<double>(i + j));
        phinew(i, j) = 0.0;
      }
    };
    prog.phases.push_back(Phase::make(std::move(init2d)));
  }
  {
    ParallelLoop init3d;
    init3d.name = "init-rho";
    init3d.dist = LoopVar{"k", AffineExpr(0), M - 1};
    init3d.free.push_back(LoopVar{"i", AffineExpr(0), M - 1});
    init3d.free.push_back(LoopVar{"j", AffineExpr(0), M - 1});
    init3d.home_array = "rho";
    init3d.home_sub = K;
    init3d.writes = {{"rho", {I, J, K}}};
    init3d.cost_per_iter_ns = costs::kInitNs;
    init3d.body = [RHO](BodyCtx& c) {
      auto rho = view3(c, RHO);
      const std::int64_t m = c.sym("m");
      const std::int64_t k = c.dist();
      for (std::int64_t j = 0; j < m; ++j)
        for (std::int64_t i = 0; i < m; ++i)
          rho(i, j, k) =
              std::exp(-1e-3 * static_cast<double>((i - 60) * (i - 60) +
                                                   (j - 70) * (j - 70) +
                                                   (k - 50) * (k - 50)));
    };
    prog.phases.push_back(Phase::make(std::move(init3d)));
  }

  TimeLoop outer;
  outer.counter = "t";
  outer.count = AffineExpr::sym("iters");

  // Per iteration: one SUM reduction per moment order (the reduction storm
  // the paper describes — "a large number of SUM reductions, which, while
  // efficiently implemented using low-level messages, ultimately limit
  // speedups"). Each round sums a differently-weighted functional of the
  // distributed potential grid: the summand is parallel over owned columns,
  // but every round costs a full cluster synchronization.
  {
    TimeLoop moments;
    moments.counter = "kp";
    moments.count = M;
    ParallelLoop mom;
    mom.name = "moment";
    mom.dist = LoopVar{"j", AffineExpr(0), M - 1};
    mom.free.push_back(LoopVar{"i", AffineExpr(0), M - 1});
    mom.home_array = "phi";
    mom.home_sub = J;
    // Each round also reads the kp-th potential column — a per-round
    // broadcast from its owner. phi is rewritten every iteration, so these
    // columns must move again each time; their 129-point extent is the
    // paper's pronounced-edge-effect case for the optimizer.
    mom.reads = {{"phi", {I, J}}, {"phi", {I, AffineExpr::sym("kp")}}};
    mom.cost_per_iter_ns = costs::kGravMomentNs;
    mom.has_reduce = true;
    mom.reduce_scalar = "moment_sum";
    mom.body = [PHI](BodyCtx& c) {
      auto phi = view2(c, PHI);
      const std::int64_t m = c.sym("m");
      const std::int64_t j = c.dist();
      const std::int64_t kp = c.sym("kp");
      const double wj =
          1.0 + 0.5 * static_cast<double>((j * (kp + 1)) % 7);
      double acc = 0.0;
      for (std::int64_t i = 0; i < m; ++i)
        acc += wj * phi(i, j) + 0.01 * phi(i, kp);
      c.contribute(acc);
    };
    moments.phases.push_back(Phase::make(std::move(mom)));
    ScalarPhase fold;
    fold.name = "fold-moment";
    fold.body = [](BodyCtx& c) {
      const double prev =
          c.sym("kp") == 0 ? 0.0 : c.scalar("moment_acc");
      const double kp = static_cast<double>(c.sym("kp"));
      c.set_scalar("moment_acc",
                   prev + c.scalar("moment_sum") / (1.0 + 0.01 * kp));
    };
    moments.phases.push_back(Phase::make(std::move(fold)));
    outer.phases.push_back(Phase::make(std::move(moments)));
  }

  // The mass of the source distribution: one parallel pass over the 3-D
  // grid per iteration (each node reads only its owned planes).
  {
    ParallelLoop mass;
    mass.name = "mass";
    mass.dist = LoopVar{"k", AffineExpr(0), M - 1};
    mass.free.push_back(LoopVar{"i", AffineExpr(0), M - 1});
    mass.free.push_back(LoopVar{"j", AffineExpr(0), M - 1});
    mass.home_array = "rho";
    mass.home_sub = K;
    mass.reads = {{"rho", {I, J, K}}};
    mass.cost_per_iter_ns = costs::kReduceNs;
    mass.has_reduce = true;
    mass.reduce_scalar = "total_mass";
    mass.body = [RHO](BodyCtx& c) {
      auto rho = view3(c, RHO);
      const std::int64_t m = c.sym("m");
      const std::int64_t k = c.dist();
      double acc = 0.0;
      for (std::int64_t j = 0; j < m; ++j)
        for (std::int64_t i = 0; i < m; ++i) acc += rho(i, j, k);
      c.contribute(acc);
    };
    outer.phases.push_back(Phase::make(std::move(mass)));
  }

  // ...then relax the potential under the accumulated source term: a
  // five-point sweep whose ghost columns are the 129-point edge-effect case.
  {
    ParallelLoop relax;
    relax.name = "relax";
    relax.dist = LoopVar{"j", AffineExpr(1), M - 2};
    relax.free.push_back(LoopVar{"i", AffineExpr(1), M - 2});
    relax.home_array = "phinew";
    relax.home_sub = J;
    relax.reads = {{"phi", {I, J}},
                   {"phi", {I - 1, J}},
                   {"phi", {I + 1, J}},
                   {"phi", {I, J - 1}},
                   {"phi", {I, J + 1}}};
    relax.writes = {{"phinew", {I, J}}};
    relax.cost_per_iter_ns = costs::kGravRelaxNs;
    relax.body = [PHI, PHINEW](BodyCtx& c) {
      auto phi = view2(c, PHI);
      auto phinew = view2(c, PHINEW);
      const std::int64_t m = c.sym("m");
      const std::int64_t j = c.dist();
      const double g =
          (c.scalar("total_mass") + c.scalar("moment_acc")) * 1e-6;
      for (std::int64_t i = 1; i < m - 1; ++i)
        phinew(i, j) = 0.25 * (phi(i - 1, j) + phi(i + 1, j) +
                               phi(i, j - 1) + phi(i, j + 1) - g);
    };
    outer.phases.push_back(Phase::make(std::move(relax)));
  }
  {
    ParallelLoop copy;
    copy.name = "copy-back";
    copy.dist = LoopVar{"j", AffineExpr(1), M - 2};
    copy.free.push_back(LoopVar{"i", AffineExpr(1), M - 2});
    copy.home_array = "phi";
    copy.home_sub = J;
    copy.reads = {{"phinew", {I, J}}};
    copy.writes = {{"phi", {I, J}}};
    copy.cost_per_iter_ns = costs::kInitNs;
    copy.body = [PHI, PHINEW](BodyCtx& c) {
      auto phi = view2(c, PHI);
      auto phinew = view2(c, PHINEW);
      const std::int64_t m = c.sym("m");
      const std::int64_t j = c.dist();
      for (std::int64_t i = 1; i < m - 1; ++i) phi(i, j) = phinew(i, j);
    };
    outer.phases.push_back(Phase::make(std::move(copy)));
  }
  prog.phases.push_back(Phase::make(std::move(outer)));

  // Checksum over phi.
  {
    ParallelLoop sum;
    sum.name = "checksum";
    sum.dist = LoopVar{"j", AffineExpr(0), M - 1};
    sum.free.push_back(LoopVar{"i", AffineExpr(0), M - 1});
    sum.home_array = "phi";
    sum.home_sub = J;
    sum.reads = {{"phi", {I, J}}};
    sum.cost_per_iter_ns = costs::kReduceNs;
    sum.has_reduce = true;
    sum.reduce_scalar = "checksum";
    sum.body = [PHI](BodyCtx& c) {
      auto phi = view2(c, PHI);
      const std::int64_t m = c.sym("m");
      const std::int64_t j = c.dist();
      double acc = 0.0;
      for (std::int64_t i = 0; i < m; ++i) acc += phi(i, j);
      c.contribute(acc);
    };
    prog.phases.push_back(Phase::make(std::move(sum)));
  }
  return prog;
}

}  // namespace fgdsm::apps
