// jacobi — 2048x2048 five-point Jacobi relaxation, 100 sweeps (Table 2).
//
// The canonical producer-consumer stencil the paper's technique targets:
// each sweep reads one ghost column from each neighbor; the compiler turns
// those into two sender-initiated column transfers per node per sweep.
#include <cmath>

#include "src/apps/apps.h"
#include "src/apps/costs.h"

namespace fgdsm::apps {

using hpf::AffineExpr;
using hpf::ArrayHandle;
using hpf::ArrayRef;
using hpf::BodyCtx;
using hpf::DistKind;
using hpf::LoopVar;
using hpf::ParallelLoop;
using hpf::Phase;
using hpf::Program;
using hpf::TimeLoop;

namespace {

ParallelLoop sweep(const Program& prog, const char* name, const char* src,
                   const char* dst) {
  const AffineExpr N = AffineExpr::sym("n");
  const AffineExpr I = AffineExpr::sym("i"), J = AffineExpr::sym("j");
  ParallelLoop loop;
  loop.name = name;
  loop.dist = LoopVar{"j", AffineExpr(1), N - 2};
  loop.free.push_back(LoopVar{"i", AffineExpr(1), N - 2});
  loop.home_array = dst;
  loop.home_sub = J;
  loop.reads = {{src, {I, J}},
                {src, {I - 1, J}},
                {src, {I + 1, J}},
                {src, {I, J - 1}},
                {src, {I, J + 1}}};
  loop.writes = {{dst, {I, J}}};
  loop.cost_per_iter_ns = costs::kJacobiSweepNs;
  loop.body = [U = prog.handle(src), V = prog.handle(dst)](BodyCtx& c) {
    auto u = view2(c, U);
    auto v = view2(c, V);
    const std::int64_t n = c.sym("n");
    const std::int64_t j = c.dist();
    for (std::int64_t i = 1; i < n - 1; ++i)
      v(i, j) =
          0.25 * (u(i - 1, j) + u(i + 1, j) + u(i, j - 1) + u(i, j + 1));
  };
  return loop;
}

}  // namespace

Program jacobi(std::int64_t n, std::int64_t sweeps) {
  Program prog;
  prog.name = "jacobi";
  const AffineExpr N = AffineExpr::sym("n");
  const AffineExpr I = AffineExpr::sym("i"), J = AffineExpr::sym("j");
  prog.arrays.push_back({"u", {N, N}, DistKind::kBlock});
  prog.arrays.push_back({"v", {N, N}, DistKind::kBlock});
  prog.sizes.set("n", n);
  // Two sweeps per time step (u->v, v->u); `sweeps` counts single sweeps.
  prog.sizes.set("steps", (sweeps + 1) / 2);
  const ArrayHandle U = prog.handle("u"), V = prog.handle("v");

  // Initialization: a deterministic boundary-value problem. Writes the
  // whole of both arrays (cold write faults populate ownership, as on the
  // real system).
  {
    ParallelLoop init;
    init.name = "init";
    init.dist = LoopVar{"j", AffineExpr(0), N - 1};
    init.free.push_back(LoopVar{"i", AffineExpr(0), N - 1});
    init.home_array = "u";
    init.home_sub = J;
    init.writes = {{"u", {I, J}}, {"v", {I, J}}};
    init.cost_per_iter_ns = costs::kInitNs;
    init.body = [U, V](BodyCtx& c) {
      auto u = view2(c, U);
      auto v = view2(c, V);
      const std::int64_t n = c.sym("n");
      const std::int64_t j = c.dist();
      for (std::int64_t i = 0; i < n; ++i) {
        const bool boundary = i == 0 || j == 0 || i == n - 1 || j == n - 1;
        const double val =
            boundary ? std::sin(0.71 * static_cast<double>(i + 2 * j)) : 0.0;
        u(i, j) = val;
        v(i, j) = val;
      }
    };
    prog.phases.push_back(Phase::make(std::move(init)));
  }

  TimeLoop tl;
  tl.counter = "t";
  tl.count = AffineExpr::sym("steps");
  tl.phases.push_back(Phase::make(sweep(prog, "sweep-uv", "u", "v")));
  tl.phases.push_back(Phase::make(sweep(prog, "sweep-vu", "v", "u")));
  prog.phases.push_back(Phase::make(std::move(tl)));

  // Checksum: sum of u over owned columns.
  {
    ParallelLoop sum;
    sum.name = "checksum";
    sum.dist = LoopVar{"j", AffineExpr(0), N - 1};
    sum.free.push_back(LoopVar{"i", AffineExpr(0), N - 1});
    sum.home_array = "u";
    sum.home_sub = J;
    sum.reads = {{"u", {I, J}}};
    sum.cost_per_iter_ns = costs::kReduceNs;
    sum.has_reduce = true;
    sum.reduce_scalar = "checksum";
    sum.body = [U](BodyCtx& c) {
      auto u = view2(c, U);
      const std::int64_t n = c.sym("n");
      const std::int64_t j = c.dist();
      double acc = 0;
      for (std::int64_t i = 0; i < n; ++i) acc += u(i, j);
      c.contribute(acc);
    };
    prog.phases.push_back(Phase::make(std::move(sum)));
  }
  return prog;
}

}  // namespace fgdsm::apps
