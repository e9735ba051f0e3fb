// cg — conjugate gradient on the normal equations (CGNR) for a synthetic
// moderately ill-conditioned nrows x ncols system (Table 2: 180x360, converging in
// 630 iterations).
//
// Communication profile: the matrix is stored twice (at = A^T, ncols x
// nrows, distributed on A's rows; atr = A, nrows x ncols, distributed on
// A's columns), x and p are replicated, and each iteration all-gathers the
// two distributed vectors q (nrows) and w (ncols) — many small section
// transfers, which is exactly why the paper's cg is communication-bound and
// why its message-passing backend does poorly on it.
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

namespace {
double a_elem(std::int64_t i, std::int64_t j, std::int64_t nr) {
  // Moderately ill-conditioned: banded dominant entries whose magnitude
  // varies by ~30x across rows, plus correlated off-band noise. CGNR needs
  // several hundred iterations — the paper's run converges in 630.
  double v = 0.10 * std::sin(0.017 * static_cast<double>(3 * i + 5 * j + 1));
  if (j % nr == i) v += 1.0;
  if ((j + 1) % nr == i) v += 0.45;
  // Geometric column scaling sets the condition number (~10^4.1), which
  // fixes the CGNR iteration count in the several-hundreds, like the
  // paper's 630-iteration run.
  return v * std::pow(10.0, -4.1 * static_cast<double>(j) /
                                static_cast<double>(2 * nr));
}
}  // namespace

Program cg(std::int64_t nrows, std::int64_t ncols, std::int64_t iters) {
  Program prog;
  prog.name = "cg";
  const AffineExpr NR = AffineExpr::sym("nr"), NC = AffineExpr::sym("nc");
  const AffineExpr I = AffineExpr::sym("i"), J = AffineExpr::sym("j");
  // at(j,i) = A(i,j): ncols x nrows, distributed on i (rows of A).
  prog.arrays.push_back({"at", {NC, NR}, DistKind::kBlock});
  // atr(i,j) = A(i,j): nrows x ncols, distributed on j (columns of A).
  prog.arrays.push_back({"atr", {NR, NC}, DistKind::kBlock});
  prog.arrays.push_back({"q", {NR}, DistKind::kBlock});   // q = A p
  prog.arrays.push_back({"r", {NR}, DistKind::kBlock});   // residual
  prog.arrays.push_back({"w", {NC}, DistKind::kBlock});   // w = A^T r
  prog.arrays.push_back({"p", {NC}, DistKind::kReplicated});
  prog.arrays.push_back({"x", {NC}, DistKind::kReplicated});
  prog.sizes.set("nr", nrows);
  prog.sizes.set("nc", ncols);
  prog.sizes.set("iters", iters);
  const ArrayHandle AT = prog.handle("at"), ATR = prog.handle("atr"),
                    Q = prog.handle("q"), R = prog.handle("r"),
                    W = prog.handle("w"), P = prog.handle("p"),
                    X = prog.handle("x");

  // ---- Initialization ----
  {
    ParallelLoop init;
    init.name = "init-at";
    init.dist = LoopVar{"i", AffineExpr(0), NR - 1};
    init.free.push_back(LoopVar{"j", AffineExpr(0), NC - 1});
    init.home_array = "at";
    init.home_sub = I;
    init.writes = {{"at", {J, I}}, {"q", {I}}, {"r", {I}}};
    init.cost_per_iter_ns = costs::kInitNs;
    init.body = [AT, Q, R](BodyCtx& c) {
      auto at = view2(c, AT);
      auto q = view1(c, Q);
      auto r = view1(c, R);
      const std::int64_t nr = c.sym("nr"), nc = c.sym("nc");
      const std::int64_t i = c.dist();
      for (std::int64_t j = 0; j < nc; ++j) at(j, i) = a_elem(i, j, nr);
      q(i) = 0.0;
      r(i) = 1.0 + 0.01 * static_cast<double>(i % 7);  // b (x0 = 0)
    };
    prog.phases.push_back(Phase::make(std::move(init)));
  }
  {
    ParallelLoop init;
    init.name = "init-atr";
    init.dist = LoopVar{"j", AffineExpr(0), NC - 1};
    init.free.push_back(LoopVar{"i", AffineExpr(0), NR - 1});
    init.home_array = "atr";
    init.home_sub = J;
    init.writes = {{"atr", {I, J}}, {"w", {J}}};
    init.cost_per_iter_ns = costs::kInitNs;
    init.body = [ATR, W](BodyCtx& c) {
      auto atr = view2(c, ATR);
      auto w = view1(c, W);
      const std::int64_t nr = c.sym("nr");
      const std::int64_t j = c.dist();
      for (std::int64_t i = 0; i < nr; ++i) atr(i, j) = a_elem(i, j, nr);
      w(j) = 0.0;
    };
    prog.phases.push_back(Phase::make(std::move(init)));
  }

  // w0 = A^T r0; rho0 = ||w0||^2; p0 = w0 (needs w gathered).
  ParallelLoop wloop;  // reused template: w = A^T r (reads all of r)
  {
    wloop.name = "w=At*r";
    wloop.dist = LoopVar{"j", AffineExpr(0), NC - 1};
    wloop.free.push_back(LoopVar{"i", AffineExpr(0), NR - 1});
    wloop.home_array = "w";
    wloop.home_sub = J;
    wloop.reads = {{"atr", {I, J}}, {"r", {I}}};
    wloop.writes = {{"w", {J}}};
    wloop.cost_per_iter_ns = costs::kCgMatvecNs;
    wloop.has_reduce = true;
    wloop.reduce_scalar = "rho";
    wloop.body = [ATR, R, W](BodyCtx& c) {
      auto atr = view2(c, ATR);
      auto r = view1(c, R);
      auto w = view1(c, W);
      const std::int64_t nr = c.sym("nr");
      const std::int64_t j = c.dist();
      double acc = 0.0;
      for (std::int64_t i = 0; i < nr; ++i) acc += atr(i, j) * r(i);
      w(j) = acc;
      c.contribute(acc * acc);
    };
  }
  prog.phases.push_back(Phase::make(wloop));

  // p = w (+ beta p): reads ALL of w (all-gather), replicated computation.
  auto make_ploop = [&](bool first) {
    ParallelLoop pl;
    pl.name = first ? "p=w" : "p=w+beta*p";
    pl.dist = LoopVar{"j", AffineExpr(0), NC - 1};
    pl.comp = ParallelLoop::Comp::kOwnerComputes;
    pl.home_array = "p";  // replicated: every node runs every iteration
    pl.home_sub = J;
    pl.reads = {{"w", {J}}};
    pl.writes = {{"p", {J}}};
    pl.cost_per_iter_ns = costs::kCgVecNs;
    pl.body = [first, W, P](BodyCtx& c) {
      auto w = view1(c, W);
      auto p = view1(c, P);
      const std::int64_t j = c.dist();
      p(j) = first ? w(j) : w(j) + c.scalar("beta") * p(j);
    };
    return pl;
  };
  prog.phases.push_back(Phase::make(make_ploop(true)));

  // ---- Iteration ----
  TimeLoop tl;
  tl.counter = "t";
  tl.count = AffineExpr::sym("iters");
  {
    // q = A p; contribute ||q||^2 (for alpha).
    ParallelLoop ql;
    ql.name = "q=A*p";
    ql.dist = LoopVar{"i", AffineExpr(0), NR - 1};
    ql.free.push_back(LoopVar{"j", AffineExpr(0), NC - 1});
    ql.home_array = "q";
    ql.home_sub = I;
    ql.reads = {{"at", {J, I}}, {"p", {J}}};
    ql.writes = {{"q", {I}}};
    ql.cost_per_iter_ns = costs::kCgMatvecNs;
    ql.has_reduce = true;
    ql.reduce_scalar = "qq";
    ql.body = [AT, P, Q](BodyCtx& c) {
      auto at = view2(c, AT);
      auto p = view1(c, P);
      auto q = view1(c, Q);
      const std::int64_t nc = c.sym("nc");
      const std::int64_t i = c.dist();
      double acc = 0.0;
      for (std::int64_t j = 0; j < nc; ++j) acc += at(j, i) * p(j);
      q(i) = acc;
      c.contribute(acc * acc);
    };
    tl.phases.push_back(Phase::make(std::move(ql)));
  }
  {
    ScalarPhase alpha;
    alpha.name = "alpha";
    alpha.body = [](BodyCtx& c) {
      const double qq = c.scalar("qq");
      c.set_scalar("alpha", qq > 0 ? c.scalar("rho") / qq : 0.0);
    };
    tl.phases.push_back(Phase::make(std::move(alpha)));
  }
  {
    // x += alpha p (replicated, local); r -= alpha q (aligned, local).
    ParallelLoop xl;
    xl.name = "x+=alpha*p";
    xl.dist = LoopVar{"j", AffineExpr(0), NC - 1};
    xl.home_array = "x";
    xl.home_sub = J;
    xl.reads = {{"p", {J}}};
    xl.writes = {{"x", {J}}};
    xl.cost_per_iter_ns = costs::kCgVecNs;
    xl.body = [X, P](BodyCtx& c) {
      auto x = view1(c, X);
      auto p = view1(c, P);
      x(c.dist()) += c.scalar("alpha") * p(c.dist());
    };
    tl.phases.push_back(Phase::make(std::move(xl)));
  }
  {
    ParallelLoop rl;
    rl.name = "r-=alpha*q";
    rl.dist = LoopVar{"i", AffineExpr(0), NR - 1};
    rl.home_array = "r";
    rl.home_sub = I;
    rl.reads = {{"q", {I}}, {"r", {I}}};
    rl.writes = {{"r", {I}}};
    rl.cost_per_iter_ns = costs::kCgVecNs;
    rl.body = [R, Q](BodyCtx& c) {
      auto r = view1(c, R);
      auto q = view1(c, Q);
      r(c.dist()) -= c.scalar("alpha") * q(c.dist());
    };
    tl.phases.push_back(Phase::make(std::move(rl)));
  }
  {
    // w = A^T r again; new rho.
    ParallelLoop wl = wloop;
    wl.reduce_scalar = "rho_new";
    tl.phases.push_back(Phase::make(std::move(wl)));
  }
  {
    ScalarPhase beta;
    beta.name = "beta";
    beta.body = [](BodyCtx& c) {
      const double rho = c.scalar("rho");
      c.set_scalar("beta", rho > 0 ? c.scalar("rho_new") / rho : 0.0);
      c.set_scalar("rho", c.scalar("rho_new"));
    };
    tl.phases.push_back(Phase::make(std::move(beta)));
  }
  tl.phases.push_back(Phase::make(make_ploop(false)));
  tl.exit_when = [](BodyCtx& c) { return c.scalar("rho") < 1e-18; };
  prog.phases.push_back(Phase::make(std::move(tl)));

  // Checksum: ||x||^2.
  {
    ParallelLoop sum;
    sum.name = "checksum";
    sum.dist = LoopVar{"j", AffineExpr(0), NC - 1};
    sum.home_array = "x";
    sum.home_sub = J;
    sum.reads = {{"x", {J}}};
    sum.cost_per_iter_ns = costs::kReduceNs;
    sum.has_reduce = true;
    sum.reduce_scalar = "checksum";
    sum.body = [X](BodyCtx& c) {
      auto x = view1(c, X);
      const std::int64_t j = c.dist();
      // Replicated x: every node contributes its slice only once — use the
      // block partition of j by node id to avoid double counting.
      const std::int64_t np = c.sym(hpf::kSymNProcs);
      const std::int64_t nc = c.sym("nc");
      const std::int64_t bsz = (nc + np - 1) / np;
      if (j / bsz == c.sym(hpf::kSymProc)) c.contribute(x(j) * x(j));
    };
    prog.phases.push_back(Phase::make(std::move(sum)));
  }
  return prog;
}

}  // namespace fgdsm::apps
