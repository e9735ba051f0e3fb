// pde — Genesis PDE1's RELAX routine: 3-D red/black relaxation of a Poisson
// problem on an n^3 grid, distributed on the last (plane) dimension
// (Table 2: grid size 128, 40 iterations, ~56 MB).
//
// Each half-sweep reads the two neighbouring planes (ghost planes): the
// compiler turns those into two whole-plane sender-initiated transfers per
// node per half-sweep — large contiguous sections, ideal for bulk transfer.
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

namespace {

ParallelLoop half_sweep(const Program& prog, const char* name, int color) {
  const AffineExpr N = AffineExpr::sym("n");
  const AffineExpr I = AffineExpr::sym("i"), J = AffineExpr::sym("j"),
                   K = AffineExpr::sym("k");
  ParallelLoop loop;
  loop.name = name;
  loop.dist = LoopVar{"k", AffineExpr(1), N - 2};
  loop.free.push_back(LoopVar{"i", AffineExpr(1), N - 2});
  loop.free.push_back(LoopVar{"j", AffineExpr(1), N - 2});
  loop.home_array = "u";
  loop.home_sub = K;
  loop.reads = {{"u", {I, J, K}},     {"u", {I - 1, J, K}},
                {"u", {I + 1, J, K}}, {"u", {I, J - 1, K}},
                {"u", {I, J + 1, K}}, {"u", {I, J, K - 1}},
                {"u", {I, J, K + 1}}, {"f", {I, J, K}}};
  loop.writes = {{"u", {I, J, K}}};
  // Half the points update per sweep; the cost constant reflects the full
  // masked traversal of the plane.
  loop.cost_per_iter_ns = costs::kPdeRelaxNs / 2.0;
  loop.body = [color, U = prog.handle("u"),
               F = prog.handle("f")](BodyCtx& c) {
    auto u = view3(c, U);
    auto f = view3(c, F);
    const std::int64_t n = c.sym("n");
    const std::int64_t k = c.dist();
    const double w = 1.15;  // over-relaxation
    for (std::int64_t j = 1; j < n - 1; ++j)
      for (std::int64_t i = 1; i < n - 1; ++i) {
        if (((i + j + k) & 1) != color) continue;
        const double nb = u(i - 1, j, k) + u(i + 1, j, k) + u(i, j - 1, k) +
                          u(i, j + 1, k) + u(i, j, k - 1) + u(i, j, k + 1);
        u(i, j, k) =
            (1.0 - w) * u(i, j, k) + w * (nb - f(i, j, k)) / 6.0;
      }
  };
  return loop;
}

}  // namespace

Program pde(std::int64_t n, std::int64_t iters) {
  Program prog;
  prog.name = "pde";
  const AffineExpr N = AffineExpr::sym("n");
  const AffineExpr I = AffineExpr::sym("i"), J = AffineExpr::sym("j"),
                   K = AffineExpr::sym("k");
  prog.arrays.push_back({"u", {N, N, N}, DistKind::kBlock});
  prog.arrays.push_back({"f", {N, N, N}, DistKind::kBlock});
  prog.arrays.push_back({"r", {N, N, N}, DistKind::kBlock});  // residual work
  prog.sizes.set("n", n);
  prog.sizes.set("iters", iters);
  const ArrayHandle U = prog.handle("u"), F = prog.handle("f"),
                    R = prog.handle("r");

  {
    ParallelLoop init;
    init.name = "init";
    init.dist = LoopVar{"k", AffineExpr(0), N - 1};
    init.free.push_back(LoopVar{"i", AffineExpr(0), N - 1});
    init.free.push_back(LoopVar{"j", AffineExpr(0), N - 1});
    init.home_array = "u";
    init.home_sub = K;
    init.writes = {{"u", {I, J, K}}, {"f", {I, J, K}}, {"r", {I, J, K}}};
    init.cost_per_iter_ns = costs::kInitNs;
    init.body = [U, F, R](BodyCtx& c) {
      auto u = view3(c, U);
      auto f = view3(c, F);
      auto r = view3(c, R);
      const std::int64_t n = c.sym("n");
      const std::int64_t k = c.dist();
      for (std::int64_t j = 0; j < n; ++j)
        for (std::int64_t i = 0; i < n; ++i) {
          const bool bnd = i == 0 || j == 0 || k == 0 || i == n - 1 ||
                           j == n - 1 || k == n - 1;
          u(i, j, k) =
              bnd ? std::cos(0.37 * static_cast<double>(i + j + k)) : 0.0;
          f(i, j, k) = 1e-3 * std::sin(0.11 * static_cast<double>(i - j + k));
          r(i, j, k) = 0.0;
        }
    };
    prog.phases.push_back(Phase::make(std::move(init)));
  }

  TimeLoop tl;
  tl.counter = "t";
  tl.count = AffineExpr::sym("iters");
  tl.phases.push_back(Phase::make(half_sweep(prog, "relax-red", 0)));
  tl.phases.push_back(Phase::make(half_sweep(prog, "relax-black", 1)));
  prog.phases.push_back(Phase::make(std::move(tl)));

  // Residual norm (the RELAX driver's convergence quantity).
  {
    ParallelLoop res;
    res.name = "residual";
    res.dist = LoopVar{"k", AffineExpr(1), N - 2};
    res.free.push_back(LoopVar{"i", AffineExpr(1), N - 2});
    res.free.push_back(LoopVar{"j", AffineExpr(1), N - 2});
    res.home_array = "u";
    res.home_sub = K;
    res.reads = {{"u", {I, J, K}},     {"u", {I - 1, J, K}},
                 {"u", {I + 1, J, K}}, {"u", {I, J - 1, K}},
                 {"u", {I, J + 1, K}}, {"u", {I, J, K - 1}},
                 {"u", {I, J, K + 1}}, {"f", {I, J, K}}};
    res.writes = {{"r", {I, J, K}}};
    res.cost_per_iter_ns = costs::kPdeRelaxNs / 2.0;
    res.has_reduce = true;
    res.reduce_scalar = "residual";
    res.body = [U, F, R](BodyCtx& c) {
      auto u = view3(c, U);
      auto f = view3(c, F);
      auto r = view3(c, R);
      const std::int64_t n = c.sym("n");
      const std::int64_t k = c.dist();
      double acc = 0.0;
      for (std::int64_t j = 1; j < n - 1; ++j)
        for (std::int64_t i = 1; i < n - 1; ++i) {
          const double nb = u(i - 1, j, k) + u(i + 1, j, k) +
                            u(i, j - 1, k) + u(i, j + 1, k) +
                            u(i, j, k - 1) + u(i, j, k + 1);
          const double res_ijk = nb - 6.0 * u(i, j, k) - f(i, j, k);
          r(i, j, k) = res_ijk;
          acc += res_ijk * res_ijk;
        }
      c.contribute(acc);
    };
    prog.phases.push_back(Phase::make(std::move(res)));
  }
  return prog;
}

}  // namespace fgdsm::apps
