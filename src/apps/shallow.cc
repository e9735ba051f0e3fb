// shallow — the NCAR shallow-water benchmark (Table 2: 1025x513 grid, 100
// time steps): the classic three-loop stencil structure (loop 100: mass
// fluxes cu/cv, vorticity z, height h; loop 200: the u/v/p update; loop
// 300: time smoothing), plus the periodic column wrap, which becomes a
// long-distance single-column transfer between the first and last
// processors.
//
// Arrays are REAL*8 here (the original is REAL*4): communication volume
// doubles but every pattern is preserved; see DESIGN.md deviations.
#include <array>
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
constexpr double kDx = 1e5, kDy = 1e5, kDt = 90.0, kAlpha = 0.001;
}

Program shallow(std::int64_t nx, std::int64_t ny, std::int64_t steps) {
  Program prog;
  prog.name = "shallow";
  const AffineExpr NX = AffineExpr::sym("nx"), NY = AffineExpr::sym("ny");
  const AffineExpr I = AffineExpr::sym("i"), J = AffineExpr::sym("j");
  for (const char* a : {"u", "v", "p", "unew", "vnew", "pnew", "uold",
                        "vold", "pold", "cu", "cv", "z", "h"})
    prog.arrays.push_back({a, {NX, NY}, DistKind::kBlock});
  prog.sizes.set("nx", nx);
  prog.sizes.set("ny", ny);
  prog.sizes.set("steps", steps);
  const ArrayHandle U = prog.handle("u"), V = prog.handle("v"),
                    P = prog.handle("p"), UNEW = prog.handle("unew"),
                    VNEW = prog.handle("vnew"), PNEW = prog.handle("pnew"),
                    UOLD = prog.handle("uold"), VOLD = prog.handle("vold"),
                    POLD = prog.handle("pold"), CU = prog.handle("cu"),
                    CV = prog.handle("cv"), Z = prog.handle("z"),
                    H = prog.handle("h");

  // ---- Initial conditions ----
  {
    ParallelLoop init;
    init.name = "init";
    init.dist = LoopVar{"j", AffineExpr(0), NY - 1};
    init.free.push_back(LoopVar{"i", AffineExpr(0), NX - 1});
    init.home_array = "p";
    init.home_sub = J;
    for (const char* a : {"u", "v", "p", "unew", "vnew", "pnew", "uold",
                          "vold", "pold", "cu", "cv", "z", "h"})
      init.writes.push_back({a, {I, J}});
    init.cost_per_iter_ns = costs::kInitNs * 3;
    init.body = [U, V, P, UOLD, VOLD, POLD,
                 zeroed = std::array{UNEW, VNEW, PNEW, CU, CV, Z,
                                     H}](BodyCtx& c) {
      const std::int64_t nx = c.sym("nx");
      const std::int64_t j = c.dist();
      auto u = view2(c, U);
      auto v = view2(c, V);
      auto p = view2(c, P);
      auto uold = view2(c, UOLD);
      auto vold = view2(c, VOLD);
      auto pold = view2(c, POLD);
      for (std::int64_t i = 0; i < nx; ++i) {
        const double a = 1e6 * std::cos(2.0 * M_PI * i / 200.0);
        const double b = std::sin(2.0 * M_PI * j / 200.0);
        const double psi_like = a * b;
        u(i, j) = -psi_like / kDy * 1e-6;
        v(i, j) = psi_like / kDx * 1e-6;
        p(i, j) = 5e4 + 1e3 * std::cos(0.05 * (i + 2.0 * j));
        uold(i, j) = u(i, j);
        vold(i, j) = v(i, j);
        pold(i, j) = p(i, j);
      }
      for (const ArrayHandle& a2 : zeroed) {
        auto w = view2(c, a2);
        for (std::int64_t i = 0; i < nx; ++i) w(i, j) = 0.0;
      }
    };
    prog.phases.push_back(Phase::make(std::move(init)));
  }

  TimeLoop tl;
  tl.counter = "t";
  tl.count = AffineExpr::sym("steps");

  // tdt: first step integrates dt, later steps 2*dt (leapfrog).
  {
    ScalarPhase tdt;
    tdt.name = "tdt";
    tdt.body = [](BodyCtx& c) {
      c.set_scalar("tdt", c.sym("t") == 0 ? kDt : 2.0 * kDt);
    };
    tl.phases.push_back(Phase::make(std::move(tdt)));
  }

  // ---- Loop 100: cu, cv, z, h ----
  {
    ParallelLoop l100;
    l100.name = "loop100";
    l100.dist = LoopVar{"j", AffineExpr(0), NY - 1};
    l100.free.push_back(LoopVar{"i", AffineExpr(0), NX - 1});
    l100.home_array = "cu";
    l100.home_sub = J;
    l100.reads = {{"p", {I, J}},     {"p", {I - 1, J}}, {"p", {I, J - 1}},
                  {"p", {I - 1, J - 1}},
                  {"u", {I, J}},     {"u", {I, J - 1}}, {"u", {I + 1, J}},
                  {"v", {I, J}},     {"v", {I - 1, J}}, {"v", {I, J + 1}}};
    l100.writes = {{"cu", {I, J}}, {"cv", {I, J}}, {"z", {I, J}},
                   {"h", {I, J}}};
    l100.cost_per_iter_ns = costs::kShallowLoopNs;
    l100.body = [U, V, P, CU, CV, Z, H](BodyCtx& c) {
      auto u = view2(c, U);
      auto v = view2(c, V);
      auto p = view2(c, P);
      auto cu = view2(c, CU);
      auto cv = view2(c, CV);
      auto z = view2(c, Z);
      auto h = view2(c, H);
      const std::int64_t nx = c.sym("nx"), ny = c.sym("ny");
      const std::int64_t j = c.dist();
      const double fsdx = 4.0 / kDx, fsdy = 4.0 / kDy;
      for (std::int64_t i = 1; i < nx; ++i)
        cu(i, j) = 0.5 * (p(i, j) + p(i - 1, j)) * u(i, j);
      if (j >= 1) {
        for (std::int64_t i = 0; i < nx; ++i)
          cv(i, j) = 0.5 * (p(i, j) + p(i, j - 1)) * v(i, j);
        for (std::int64_t i = 1; i < nx; ++i)
          z(i, j) = (fsdx * (v(i, j) - v(i - 1, j)) -
                     fsdy * (u(i, j) - u(i, j - 1))) /
                    (p(i - 1, j - 1) + p(i, j - 1) + p(i, j) + p(i - 1, j));
      }
      if (j <= ny - 2)
        for (std::int64_t i = 0; i < nx - 1; ++i)
          h(i, j) = p(i, j) + 0.25 * (u(i + 1, j) * u(i + 1, j) +
                                      u(i, j) * u(i, j) +
                                      v(i, j + 1) * v(i, j + 1) +
                                      v(i, j) * v(i, j));
    };
    tl.phases.push_back(Phase::make(std::move(l100)));
  }

  // ---- Periodic continuation: wrap column 0 -> column ny-1 (and the row
  // wrap, which is node-local). The column wrap is a single-column
  // transfer from the first processor to the last.
  {
    ParallelLoop wrap;
    wrap.name = "periodic";
    wrap.dist = LoopVar{"j", NY - 1, NY - 1};
    wrap.free.push_back(LoopVar{"i", AffineExpr(0), NX - 1});
    wrap.home_array = "cu";
    wrap.home_sub = J;
    wrap.reads = {{"cu", {I, J - (NY - 1)}},
                  {"cv", {I, J - (NY - 1)}},
                  {"z", {I, J - (NY - 1)}},
                  {"h", {I, J - (NY - 1)}}};
    wrap.writes = {{"cu", {I, J}}, {"cv", {I, J}}, {"z", {I, J}},
                   {"h", {I, J}}};
    wrap.cost_per_iter_ns = costs::kInitNs;
    wrap.body = [wrapped = std::array{CU, CV, Z, H}](BodyCtx& c) {
      const std::int64_t nx = c.sym("nx");
      const std::int64_t j = c.dist();
      for (const ArrayHandle& a : wrapped) {
        auto w = view2(c, a);
        for (std::int64_t i = 0; i < nx; ++i) {
          // Column wrap plus the local row wrap.
          w(i, j) = w(i, 0);
        }
        w(0, j) = w(nx - 1, j);
      }
    };
    tl.phases.push_back(Phase::make(std::move(wrap)));
  }

  // ---- Loop 200: unew, vnew, pnew ----
  {
    ParallelLoop l200;
    l200.name = "loop200";
    l200.dist = LoopVar{"j", AffineExpr(1), NY - 2};
    l200.free.push_back(LoopVar{"i", AffineExpr(1), NX - 2});
    l200.home_array = "unew";
    l200.home_sub = J;
    l200.reads = {{"uold", {I, J}},   {"vold", {I, J}},  {"pold", {I, J}},
                  {"z", {I, J}},      {"z", {I + 1, J}}, {"z", {I, J + 1}},
                  {"cv", {I, J}},     {"cv", {I - 1, J}},
                  {"cv", {I, J + 1}}, {"cv", {I - 1, J + 1}},
                  {"cu", {I, J}},     {"cu", {I + 1, J}},
                  {"cu", {I, J - 1}}, {"cu", {I + 1, J - 1}},
                  {"h", {I, J}},      {"h", {I - 1, J}}, {"h", {I, J - 1}}};
    l200.writes = {{"unew", {I, J}}, {"vnew", {I, J}}, {"pnew", {I, J}}};
    l200.cost_per_iter_ns = costs::kShallowLoopNs;
    l200.body = [UOLD, VOLD, POLD, CU, CV, Z, H, UNEW, VNEW,
                 PNEW](BodyCtx& c) {
      auto uold = view2(c, UOLD);
      auto vold = view2(c, VOLD);
      auto pold = view2(c, POLD);
      auto cu = view2(c, CU);
      auto cv = view2(c, CV);
      auto z = view2(c, Z);
      auto h = view2(c, H);
      auto unew = view2(c, UNEW);
      auto vnew = view2(c, VNEW);
      auto pnew = view2(c, PNEW);
      const std::int64_t nx = c.sym("nx");
      const std::int64_t j = c.dist();
      const double tdt = c.scalar("tdt");
      const double tdts8 = tdt / 8.0;
      const double tdtsdx = tdt / kDx, tdtsdy = tdt / kDy;
      for (std::int64_t i = 1; i < nx - 1; ++i) {
        unew(i, j) = uold(i, j) +
                     tdts8 * (z(i, j + 1) + z(i, j)) *
                         (cv(i, j + 1) + cv(i - 1, j + 1) + cv(i - 1, j) +
                          cv(i, j)) -
                     tdtsdx * (h(i, j) - h(i - 1, j));
        vnew(i, j) = vold(i, j) -
                     tdts8 * (z(i + 1, j) + z(i, j)) *
                         (cu(i + 1, j) + cu(i, j) + cu(i, j - 1) +
                          cu(i + 1, j - 1)) -
                     tdtsdy * (h(i, j) - h(i, j - 1));
        pnew(i, j) = pold(i, j) - tdtsdx * (cu(i + 1, j) - cu(i, j)) -
                     tdtsdy * (cv(i, j + 1) - cv(i, j));
      }
    };
    tl.phases.push_back(Phase::make(std::move(l200)));
  }

  // ---- Loop 300: time smoothing and rotation ----
  {
    ParallelLoop l300;
    l300.name = "loop300";
    l300.dist = LoopVar{"j", AffineExpr(0), NY - 1};
    l300.free.push_back(LoopVar{"i", AffineExpr(0), NX - 1});
    l300.home_array = "u";
    l300.home_sub = J;
    l300.reads = {{"u", {I, J}},    {"v", {I, J}},    {"p", {I, J}},
                  {"unew", {I, J}}, {"vnew", {I, J}}, {"pnew", {I, J}},
                  {"uold", {I, J}}, {"vold", {I, J}}, {"pold", {I, J}}};
    l300.writes = {{"u", {I, J}},    {"v", {I, J}},    {"p", {I, J}},
                   {"uold", {I, J}}, {"vold", {I, J}}, {"pold", {I, J}}};
    l300.cost_per_iter_ns = costs::kShallowLoopNs;
    l300.body = [U, V, P, UNEW, VNEW, PNEW, UOLD, VOLD,
                 POLD](BodyCtx& c) {
      auto u = view2(c, U);
      auto v = view2(c, V);
      auto p = view2(c, P);
      auto unew = view2(c, UNEW);
      auto vnew = view2(c, VNEW);
      auto pnew = view2(c, PNEW);
      auto uold = view2(c, UOLD);
      auto vold = view2(c, VOLD);
      auto pold = view2(c, POLD);
      const std::int64_t nx = c.sym("nx");
      const std::int64_t j = c.dist();
      for (std::int64_t i = 0; i < nx; ++i) {
        uold(i, j) =
            u(i, j) + kAlpha * (unew(i, j) - 2.0 * u(i, j) + uold(i, j));
        vold(i, j) =
            v(i, j) + kAlpha * (vnew(i, j) - 2.0 * v(i, j) + vold(i, j));
        pold(i, j) =
            p(i, j) + kAlpha * (pnew(i, j) - 2.0 * p(i, j) + pold(i, j));
        u(i, j) = unew(i, j);
        v(i, j) = vnew(i, j);
        p(i, j) = pnew(i, j);
      }
    };
    tl.phases.push_back(Phase::make(std::move(l300)));
  }
  prog.phases.push_back(Phase::make(std::move(tl)));

  // Checksums over the prognostic fields.
  for (const char* a : {"p", "u", "v"}) {
    ParallelLoop sum;
    sum.name = std::string("checksum-") + a;
    sum.dist = LoopVar{"j", AffineExpr(0), NY - 1};
    sum.free.push_back(LoopVar{"i", AffineExpr(0), NX - 1});
    sum.home_array = a;
    sum.home_sub = J;
    sum.reads = {{a, {I, J}}};
    sum.cost_per_iter_ns = costs::kReduceNs;
    sum.has_reduce = true;
    sum.reduce_scalar = std::string("checksum_") + a;
    sum.body = [A = prog.handle(a)](BodyCtx& c) {
      auto w = view2(c, A);
      const std::int64_t nx = c.sym("nx");
      const std::int64_t j = c.dist();
      double acc = 0.0;
      for (std::int64_t i = 0; i < nx; ++i) acc += w(i, j);
      c.contribute(acc);
    };
    prog.phases.push_back(Phase::make(std::move(sum)));
  }
  return prog;
}

}  // namespace fgdsm::apps
