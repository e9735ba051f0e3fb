// spmv — iterated sparse matrix–vector product with normalization, the
// irregular workload for the inspector–executor runtime (src/irreg/).
//
// The matrix is held in an ELL-style fixed-k layout: for column-block-
// distributed row j, a(i,j) is the i-th nonzero coefficient and col(i,j)
// the (0-based) index of the x element it multiplies — so the inner product
// reads x(col(i,j)), an indirection the affine analysis cannot plan. The
// indirection pattern is configurable:
//
//   pattern 0 "band": col = j + (i - k/2)*37 wrapped mod n. Each node's
//     gather set merges into long intervals (~ k/2 * 37 elements of halo
//     per side), most of whose blocks survive the shmem_limits trimming —
//     the inspector's schedule carries nearly all the traffic.
//   pattern 1 "hash": col = hash(i, j) mod n. Scattered single elements:
//     after trimming almost everything falls back to the default protocol,
//     the honest worst case for block-granular schedules.
//
// x and col versions never change inside the time loop (only x's *values*
// do, via the aligned normalization loop), so the inspection runs once and
// the schedule replays every iteration — the CHAOS/PARTI amortization the
// schedule cache models.
//
// Deliberately not in apps::registry(): the paper-suite benches stay
// byte-stable; bench_irreg drives this app directly.
#include <cmath>
#include <cstdint>

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

namespace {
std::int64_t col_of(std::int64_t i, std::int64_t j, std::int64_t k,
                    std::int64_t n, std::int64_t pattern) {
  if (pattern == 0) {  // band
    const std::int64_t c = j + (i - k / 2) * 37;
    return ((c % n) + n) % n;
  }
  // hash: splitmix64-style scramble of (i, j), reduced mod n.
  std::uint64_t z = static_cast<std::uint64_t>(i * 0x9e3779b9 + j) +
                    0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z = z ^ (z >> 31);
  return static_cast<std::int64_t>(z % static_cast<std::uint64_t>(n));
}
}  // namespace

Program spmv(std::int64_t n, std::int64_t k, std::int64_t iters,
             std::int64_t pattern) {
  Program prog;
  prog.name = "spmv";
  const AffineExpr N = AffineExpr::sym("n"), K = AffineExpr::sym("k");
  const AffineExpr I = AffineExpr::sym("i"), J = AffineExpr::sym("j");
  prog.arrays.push_back({"a", {K, N}, DistKind::kBlock});
  prog.arrays.push_back({"col", {K, N}, DistKind::kBlock});
  prog.arrays.push_back({"x", {N}, DistKind::kBlock});
  prog.arrays.push_back({"y", {N}, DistKind::kBlock});
  prog.sizes.set("n", n);
  prog.sizes.set("k", k);
  prog.sizes.set("iters", iters);
  prog.sizes.set("pattern", pattern);
  const ArrayHandle A = prog.handle("a"), COL = prog.handle("col"),
                    X = prog.handle("x"), Y = prog.handle("y");

  {
    ParallelLoop init;
    init.name = "init";
    init.dist = LoopVar{"j", AffineExpr(0), N - 1};
    init.free.push_back(LoopVar{"i", AffineExpr(0), K - 1});
    init.home_array = "x";
    init.home_sub = J;
    init.writes = {{"a", {I, J}}, {"col", {I, J}}, {"x", {J}}, {"y", {J}}};
    init.cost_per_iter_ns = costs::kInitNs;
    init.body = [A, COL, X, Y](BodyCtx& c) {
      auto a = view2(c, A);
      auto col = view2(c, COL);
      auto x = view1(c, X);
      auto y = view1(c, Y);
      const std::int64_t nn = c.sym("n"), kk = c.sym("k");
      const std::int64_t pat = c.sym("pattern");
      const std::int64_t j = c.dist();
      for (std::int64_t i = 0; i < kk; ++i) {
        col(i, j) = static_cast<double>(col_of(i, j, kk, nn, pat));
        // Positive coefficients keep ||A x|| bounded away from zero.
        a(i, j) = 0.5 + 0.25 * std::sin(0.013 * static_cast<double>(
                                            3 * i + 7 * j + 1));
      }
      x(j) = 1.0 + 0.001 * static_cast<double>(j % 13);
      y(j) = 0.0;
    };
    prog.phases.push_back(Phase::make(std::move(init)));
  }

  TimeLoop tl;
  tl.counter = "t";
  tl.count = AffineExpr::sym("iters");
  {
    // y(j) = sum_i a(i,j) * x(col(i,j)) — the gather.
    ParallelLoop mv;
    mv.name = "y=A*x";
    mv.dist = LoopVar{"j", AffineExpr(0), N - 1};
    mv.free.push_back(LoopVar{"i", AffineExpr(0), K - 1});
    mv.home_array = "y";
    mv.home_sub = J;
    mv.reads = {{"a", {I, J}}, {"col", {I, J}}};
    mv.ind_reads.push_back({"x", "col", {I, J}, /*value_offset=*/0});
    mv.writes = {{"y", {J}}};
    mv.cost_per_iter_ns = costs::kCgMatvecNs;
    mv.has_reduce = true;
    mv.reduce_scalar = "ynorm";
    mv.body = [A, COL, X, Y](BodyCtx& c) {
      auto a = view2(c, A);
      auto col = view2(c, COL);
      auto x = view1(c, X);
      auto y = view1(c, Y);
      const std::int64_t kk = c.sym("k");
      const std::int64_t j = c.dist();
      double acc = 0.0;
      for (std::int64_t i = 0; i < kk; ++i)
        acc += a(i, j) * x(static_cast<std::int64_t>(col(i, j)));
      y(j) = acc;
      c.contribute(acc * acc);
    };
    tl.phases.push_back(Phase::make(std::move(mv)));
  }
  {
    ScalarPhase sc;
    sc.name = "scale";
    sc.body = [](BodyCtx& c) {
      const double yn = c.scalar("ynorm");
      c.set_scalar("scale", yn > 0 ? 1.0 / std::sqrt(yn) : 0.0);
    };
    tl.phases.push_back(Phase::make(std::move(sc)));
  }
  {
    // x = scale * y — aligned: refreshes x's *values* without touching the
    // indirection arrays, so the cached gather schedule stays valid.
    ParallelLoop xl;
    xl.name = "x=scale*y";
    xl.dist = LoopVar{"j", AffineExpr(0), N - 1};
    xl.home_array = "x";
    xl.home_sub = J;
    xl.reads = {{"y", {J}}};
    xl.writes = {{"x", {J}}};
    xl.cost_per_iter_ns = costs::kCgVecNs;
    xl.body = [X, Y](BodyCtx& c) {
      auto x = view1(c, X);
      auto y = view1(c, Y);
      x(c.dist()) = c.scalar("scale") * y(c.dist());
    };
    tl.phases.push_back(Phase::make(std::move(xl)));
  }
  prog.phases.push_back(Phase::make(std::move(tl)));

  {
    // Weighted checksum (plain ||x||^2 would be identically 1 after the
    // normalization — insensitive to gather correctness).
    ParallelLoop sum;
    sum.name = "checksum";
    sum.dist = LoopVar{"j", AffineExpr(0), N - 1};
    sum.home_array = "x";
    sum.home_sub = J;
    sum.reads = {{"x", {J}}};
    sum.cost_per_iter_ns = costs::kReduceNs;
    sum.has_reduce = true;
    sum.reduce_scalar = "checksum";
    sum.body = [X](BodyCtx& c) {
      auto x = view1(c, X);
      const std::int64_t j = c.dist();
      c.contribute(x(j) * static_cast<double>((j % 7) + 1));
    };
    prog.phases.push_back(Phase::make(std::move(sum)));
  }
  return prog;
}

}  // namespace fgdsm::apps
