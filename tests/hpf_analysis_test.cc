#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "src/apps/apps.h"
#include "src/hpf/analysis.h"
#include "src/hpf/ir.h"

namespace fgdsm::hpf {
namespace {

// A jacobi-like program: u, v are n x n BLOCK-distributed on columns;
// the loop computes v(i,j) = f(u(i,j), u(i±1,j), u(i,j±1)) for interior
// points, owner-computes on v(:,j).
Program jacobi_like(std::int64_t n) {
  Program prog;
  prog.name = "jacobi-like";
  const AffineExpr N = AffineExpr::sym("n");
  prog.arrays.push_back({"u", {N, N}, DistKind::kBlock});
  prog.arrays.push_back({"v", {N, N}, DistKind::kBlock});
  prog.sizes.set("n", n);

  ParallelLoop loop;
  loop.name = "sweep";
  loop.dist = LoopVar{"j", AffineExpr(1), N - 2};
  loop.free.push_back(LoopVar{"i", AffineExpr(1), N - 2});
  loop.comp = ParallelLoop::Comp::kOwnerComputes;
  loop.home_array = "v";
  loop.home_sub = AffineExpr::sym("j");
  const AffineExpr I = AffineExpr::sym("i"), J = AffineExpr::sym("j");
  loop.reads = {{"u", {I, J}},
                {"u", {I - 1, J}},
                {"u", {I + 1, J}},
                {"u", {I, J - 1}},
                {"u", {I, J + 1}}};
  loop.writes = {{"v", {I, J}}};
  prog.phases.push_back(Phase::make(std::move(loop)));
  return prog;
}

Bindings bind(const Program& p, int np, int self = 0) {
  Bindings b = p.sizes;
  b.set(kSymNProcs, np);
  b.set(kSymProc, self);
  return b;
}

TEST(Analysis, LocalItersOwnerComputes) {
  Program prog = jacobi_like(16);
  const auto& loop = *prog.phases[0].loop;
  const Bindings b = bind(prog, 4);
  // n=16, np=4: block size 4. Loop range is 1..14.
  EXPECT_EQ(local_iters(loop, prog, b, 4, 0), (ConcreteInterval{1, 3, 1}));
  EXPECT_EQ(local_iters(loop, prog, b, 1, 0),
            (ConcreteInterval{1, 14, 1}));  // single processor runs it all
  EXPECT_EQ(local_iters(loop, prog, b, 4, 1), (ConcreteInterval{4, 7, 1}));
  EXPECT_EQ(local_iters(loop, prog, b, 4, 3), (ConcreteInterval{12, 14, 1}));
}

TEST(Analysis, LocalItersCoverLoopExactlyOnce) {
  Program prog = jacobi_like(33);
  const auto& loop = *prog.phases[0].loop;
  for (int np : {1, 2, 3, 5, 8}) {
    const Bindings b = bind(prog, np);
    for (std::int64_t j = 1; j <= 31; ++j) {
      int count = 0;
      for (int p = 0; p < np; ++p)
        if (local_iters(loop, prog, b, np, p).contains(j)) ++count;
      EXPECT_EQ(count, 1) << "np=" << np << " j=" << j;
    }
  }
}

TEST(Analysis, LocalItersBlockByIndex) {
  Program prog = jacobi_like(16);
  ParallelLoop loop = *prog.phases[0].loop;
  loop.comp = ParallelLoop::Comp::kBlockByIndex;
  const Bindings b = bind(prog, 4);
  // Range 1..14 (14 iters), block 4: [1,4],[5,8],[9,12],[13,14].
  EXPECT_EQ(local_iters(loop, prog, b, 4, 0), (ConcreteInterval{1, 4, 1}));
  EXPECT_EQ(local_iters(loop, prog, b, 4, 3), (ConcreteInterval{13, 14, 1}));
}

TEST(Analysis, RefSectionShifts) {
  Program prog = jacobi_like(16);
  const auto& loop = *prog.phases[0].loop;
  const Bindings b = bind(prog, 4);
  const ConcreteInterval iters{4, 7, 1};  // processor 1
  // u(i, j-1) over j in 4..7, i in 1..14 -> rows 1..14, cols 3..6.
  const ConcreteSection s =
      ref_section(loop, loop.reads[3], prog, b, iters);
  EXPECT_EQ(s.dims[0], (ConcreteInterval{1, 14, 1}));
  EXPECT_EQ(s.dims[1], (ConcreteInterval{3, 6, 1}));
}

TEST(Analysis, JacobiGhostColumnTransfers) {
  Program prog = jacobi_like(16);
  const auto& loop = *prog.phases[0].loop;
  const Bindings b = bind(prog, 4);
  const auto transfers = analyze_transfers(loop, prog, b, 4);
  // Interior processors receive one ghost column from each neighbor;
  // boundary processors only from their single neighbor:
  // p0 <- p1 (col 4), p1 <- p0 (col 3), p1 <- p2 (col 8), p2 <- p1 (col 7),
  // p2 <- p3 (col 12), p3 <- p2 (col 11). Total 6 transfers, all reads.
  EXPECT_EQ(transfers.size(), 6u);
  auto find = [&](int snd, int rcv) -> const Transfer* {
    for (const auto& t : transfers)
      if (t.sender == snd && t.receiver == rcv) return &t;
    return nullptr;
  };
  ASSERT_NE(find(1, 0), nullptr);
  EXPECT_EQ(find(1, 0)->section.dims[1], (ConcreteInterval{4, 4, 1}));
  ASSERT_NE(find(0, 1), nullptr);
  EXPECT_EQ(find(0, 1)->section.dims[1], (ConcreteInterval{3, 3, 1}));
  ASSERT_NE(find(2, 3), nullptr);
  EXPECT_EQ(find(2, 3)->section.dims[1], (ConcreteInterval{11, 11, 1}));
  EXPECT_EQ(find(3, 0), nullptr);  // no wraparound
  EXPECT_EQ(find(0, 2), nullptr);  // only neighbors
  for (const auto& t : transfers) {
    EXPECT_FALSE(t.for_write);
    EXPECT_EQ(t.array, "u");
    EXPECT_EQ(t.section.dims[0], (ConcreteInterval{1, 14, 1}));
  }
}

TEST(Analysis, NoTransfersWhenAligned) {
  // v(i,j) = u(i,j): no communication at all.
  Program prog = jacobi_like(16);
  ParallelLoop loop = *prog.phases[0].loop;
  const AffineExpr I = AffineExpr::sym("i"), J = AffineExpr::sym("j");
  loop.reads = {{"u", {I, J}}, {"u", {I + 1, J}}, {"u", {I - 1, J}}};
  const Bindings b = bind(prog, 4);
  EXPECT_TRUE(analyze_transfers(loop, prog, b, 4).empty());
}

TEST(Analysis, SingleProcessorNeedsNoTransfers) {
  Program prog = jacobi_like(16);
  const auto& loop = *prog.phases[0].loop;
  const Bindings b = bind(prog, 1);
  EXPECT_TRUE(analyze_transfers(loop, prog, b, 1).empty());
}

TEST(Analysis, CyclicBroadcastPattern) {
  // LU-style: every processor reads column k of a CYCLIC matrix; the owner
  // of k must send to everyone else.
  Program prog;
  const AffineExpr N = AffineExpr::sym("n");
  prog.arrays.push_back({"a", {N, N}, DistKind::kCyclic});
  prog.sizes.set("n", 12);
  ParallelLoop loop;
  loop.name = "update";
  loop.dist = LoopVar{"j", AffineExpr::sym("k") + 1, N - 1};
  loop.free.push_back(LoopVar{"i", AffineExpr::sym("k") + 1, N - 1});
  loop.comp = ParallelLoop::Comp::kOwnerComputes;
  loop.home_array = "a";
  loop.home_sub = AffineExpr::sym("j");
  const AffineExpr I = AffineExpr::sym("i"), J = AffineExpr::sym("j");
  loop.reads = {{"a", {I, J}}, {"a", {I, AffineExpr::sym("k")}}};
  loop.writes = {{"a", {I, J}}};
  Bindings b = prog.sizes;
  b.set("k", 3);
  b.set(kSymNProcs, 4);
  const auto transfers = analyze_transfers(loop, prog, b, 4);
  // Column 3 is owned by processor 3 (cyclic). Readers: every p with
  // non-empty iterations whose sections include column 3 — p != 3.
  int recvs = 0;
  for (const auto& t : transfers) {
    EXPECT_EQ(t.sender, 3);
    EXPECT_EQ(t.section.dims[1], (ConcreteInterval{3, 3, 1}));
    EXPECT_EQ(t.section.dims[0], (ConcreteInterval{4, 11, 1}));
    ++recvs;
  }
  EXPECT_EQ(recvs, 3);
}

TEST(Analysis, NonOwnerWriteProducesWriteTransfer) {
  // Computation distributed by index while data lives elsewhere: processor
  // p writes columns it does not own.
  Program prog = jacobi_like(16);
  ParallelLoop loop = *prog.phases[0].loop;
  loop.comp = ParallelLoop::Comp::kBlockByIndex;
  const AffineExpr I = AffineExpr::sym("i"), J = AffineExpr::sym("j");
  loop.reads = {{"u", {I, J}}};
  loop.writes = {{"v", {I, AffineExpr::sym("j") + 1}}};  // shifted write
  const Bindings b = bind(prog, 4);
  const auto transfers = analyze_transfers(loop, prog, b, 4);
  bool saw_write = false;
  for (const auto& t : transfers)
    if (t.for_write) {
      saw_write = true;
      EXPECT_EQ(t.array, "v");
    }
  EXPECT_TRUE(saw_write);
}

TEST(Analysis, TransfersClippedToArrayBounds) {
  // Stencil sections reach outside the array at the global boundary; the
  // analysis must clip them.
  Program prog = jacobi_like(16);
  ParallelLoop loop = *prog.phases[0].loop;
  loop.dist = LoopVar{"j", AffineExpr(0), AffineExpr::sym("n") - 1};
  const Bindings b = bind(prog, 4);
  const auto transfers = analyze_transfers(loop, prog, b, 4);
  for (const auto& t : transfers) {
    EXPECT_GE(t.section.dims[1].lo, 0);
    EXPECT_LE(t.section.dims[1].hi, 15);
  }
}

TEST(Analysis, OverlappingRefsMergeToOneTransfer) {
  // Two reads covering overlapping row ranges of the same ghost column must
  // merge (hulled) rather than duplicate the transfer.
  Program prog = jacobi_like(16);
  ParallelLoop loop = *prog.phases[0].loop;
  const AffineExpr I = AffineExpr::sym("i"), J = AffineExpr::sym("j");
  loop.reads = {{"u", {I, J - 1}}, {"u", {I + 1, J - 1}}};
  const Bindings b = bind(prog, 4);
  const auto transfers = analyze_transfers(loop, prog, b, 4);
  int p1_to_p2 = 0;
  for (const auto& t : transfers)
    if (t.sender == 1 && t.receiver == 2) {
      ++p1_to_p2;
      EXPECT_EQ(t.section.dims[0], (ConcreteInterval{1, 15, 1}));  // hull
    }
  EXPECT_EQ(p1_to_p2, 1);
}

// ---- Footprints against brute force (analysis soundness) ----
//
// chunk_footprint and ref_section summarize a reference's accesses as one
// strided interval per dimension. The check enumerates the loop nest
// instead: every value of the loop variables, each subscript evaluated with
// AffineExpr::eval. When the nest runs at least one iteration, each
// dimension's interval must hold exactly the values enumerated for it.
// When it runs none, a dimension that reads a loop variable with an empty
// range must be empty.

using ValueSets = std::vector<std::set<std::int64_t>>;

std::set<std::int64_t> members(const ConcreteInterval& iv) {
  std::set<std::int64_t> out;
  const ConcreteInterval n = iv.normalized();
  for (std::int64_t v = n.lo; v <= n.hi; v += n.stride) out.insert(v);
  return out;
}

// Bounds of free variable f with the distributed variable at `dist`.
ConcreteInterval free_range(const ParallelLoop& loop, const Bindings& b,
                            std::size_t f, std::int64_t dist) {
  Bindings t = b;
  t.set(loop.dist.sym, dist);
  return {loop.free[f].lo.eval(t), loop.free[f].hi.eval(t), 1};
}

// Enumerates the nest with the distributed variable at `dist`; returns the
// per-dimension value sets of `subs` and whether any iteration ran.
bool enumerate(const ParallelLoop& loop, const std::vector<AffineExpr>& subs,
               const Bindings& b, std::int64_t dist, ValueSets* sets) {
  sets->assign(subs.size(), {});
  bool ran = false;
  Bindings t = b;
  t.set(loop.dist.sym, dist);
  std::vector<std::int64_t> lo, hi;
  for (const LoopVar& fv : loop.free) {
    lo.push_back(fv.lo.eval(t));
    hi.push_back(fv.hi.eval(t));
  }
  const auto visit = [&](auto&& self, std::size_t f) -> void {
    if (f == loop.free.size()) {
      ran = true;
      for (std::size_t dim = 0; dim < subs.size(); ++dim)
        (*sets)[dim].insert(subs[dim].eval(t));
      return;
    }
    for (std::int64_t v = lo[f]; v <= hi[f]; ++v) {
      t.set(loop.free[f].sym, v);
      self(self, f + 1);
    }
  };
  visit(visit, 0);
  return ran;
}

// The loop variable subscript `sub` reads, as an index into `ranges` (0 is
// the distributed variable, 1 + f free variable f), or -1 for none.
int var_of(const ParallelLoop& loop, const AffineExpr& sub) {
  if (sub.references(loop.dist.sym)) return 0;
  for (std::size_t f = 0; f < loop.free.size(); ++f)
    if (sub.references(loop.free[f].sym)) return static_cast<int>(f) + 1;
  return -1;
}

void expect_matches(const ParallelLoop& loop,
                    const std::vector<AffineExpr>& subs,
                    const ConcreteSection& got, const ValueSets& want,
                    bool ran, const std::vector<ConcreteInterval>& ranges,
                    const std::string& where) {
  ASSERT_EQ(got.dims.size(), subs.size()) << where;
  for (std::size_t d = 0; d < subs.size(); ++d) {
    if (ran) {
      EXPECT_EQ(members(got.dims[d]), want[d])
          << where << " dim " << d << " sub " << subs[d].to_string();
      continue;
    }
    const int v = var_of(loop, subs[d]);
    if (v >= 0 && ranges[static_cast<std::size_t>(v)].empty()) {
      EXPECT_TRUE(got.dims[d].empty())
          << where << " dim " << d << " sub " << subs[d].to_string();
    }
  }
}

bool free_bounds_read_dist(const ParallelLoop& loop) {
  for (const LoopVar& fv : loop.free)
    if (fv.lo.references(loop.dist.sym) || fv.hi.references(loop.dist.sym))
      return true;
  return false;
}

// Every subscript list the loop declares: reads, writes and the index
// references of its indirect reads.
std::vector<ArrayRef> refs_of(const ParallelLoop& loop) {
  std::vector<ArrayRef> refs = loop.reads;
  refs.insert(refs.end(), loop.writes.begin(), loop.writes.end());
  for (const IndirectRef& ir : loop.ind_reads)
    refs.push_back({ir.index_array, ir.index_subs});
  return refs;
}

// Checks chunk_footprint for every local chunk of every node, and
// ref_section over each node's local iterations (against the union of its
// chunks' values) where the whole-loop section is rectangular. Returns the
// number of chunks checked.
std::int64_t check_loop(const Program& prog, const ParallelLoop& loop,
                        const Bindings& base, int np,
                        const std::string& where) {
  std::int64_t chunks = 0;
  const std::vector<ArrayRef> refs = refs_of(loop);
  const bool rectangular = !free_bounds_read_dist(loop);
  for (int p = 0; p < np; ++p) {
    Bindings b = base;
    b.set(kSymNProcs, np);
    b.set(kSymProc, p);
    const ConcreteInterval iters = local_iters(loop, prog, b, np, p);
    if (iters.empty()) continue;
    const std::set<std::int64_t> dists = members(iters);
    chunks += static_cast<std::int64_t>(dists.size());
    const std::string at = where + " np=" + std::to_string(np) +
                           " p=" + std::to_string(p);
    for (const ArrayRef& ref : refs) {
      ValueSets want, all(ref.subs.size());
      bool ran_any = false;
      for (const std::int64_t j : dists) {
        std::vector<ConcreteInterval> ranges = {{j, j, 1}};
        for (std::size_t f = 0; f < loop.free.size(); ++f)
          ranges.push_back(free_range(loop, b, f, j));
        const bool ran = enumerate(loop, ref.subs, b, j, &want);
        expect_matches(loop, ref.subs,
                       chunk_footprint(loop, ref, prog, b, j), want, ran,
                       ranges,
                       at + " chunk " + std::to_string(j) + " " + ref.array);
        ran_any = ran_any || ran;
        for (std::size_t d = 0; d < want.size(); ++d)
          all[d].insert(want[d].begin(), want[d].end());
      }
      if (!rectangular) continue;
      std::vector<ConcreteInterval> ranges = {iters};
      for (std::size_t f = 0; f < loop.free.size(); ++f)
        ranges.push_back(free_range(loop, b, f, iters.lo));
      expect_matches(loop, ref.subs, ref_section(loop, ref, prog, b, iters),
                     all, ran_any, ranges, at + " section " + ref.array);
    }
  }
  return chunks;
}

// Visits every parallel loop of `phases`, binding each time-loop counter
// to its first, middle and last values in turn.
void for_each_loop(const std::vector<Phase>& phases, const Bindings& b,
                   const std::function<void(const ParallelLoop&,
                                            const Bindings&)>& fn) {
  for (const Phase& ph : phases) {
    if (ph.kind == Phase::Kind::kParallelLoop) fn(*ph.loop, b);
    if (ph.kind != Phase::Kind::kTimeLoop) continue;
    const std::int64_t count = ph.time->count.eval(b);
    std::set<std::int64_t> values;
    for (const std::int64_t v : {std::int64_t{0}, count / 2, count - 1})
      if (v >= 0 && v < count) values.insert(v);
    for (const std::int64_t v : values) {
      Bindings inner = b;
      inner.set(ph.time->counter, v);
      for_each_loop(ph.time->phases, inner, fn);
    }
  }
}

// The values of the symbols `loop` reads, beyond its own loop variables:
// two visits that agree on them have identical footprints.
std::vector<std::pair<std::string, std::int64_t>> loop_key(
    const ParallelLoop& loop, const Bindings& b) {
  std::set<std::string> syms;
  const auto add = [&](const AffineExpr& e) {
    for (const auto& [s, c] : e.terms()) syms.insert(s);
  };
  add(loop.dist.lo);
  add(loop.dist.hi);
  for (const LoopVar& fv : loop.free) {
    add(fv.lo);
    add(fv.hi);
  }
  add(loop.home_sub);
  for (const ArrayRef& ref : refs_of(loop))
    for (const AffineExpr& sub : ref.subs) add(sub);
  std::vector<std::pair<std::string, std::int64_t>> key;
  for (const std::string& s : syms)
    if (b.has(s)) key.emplace_back(s, b.get(s));
  return key;
}

void check_program(const Program& prog) {
  std::int64_t chunks = 0;
  std::set<std::pair<const ParallelLoop*,
                     std::vector<std::pair<std::string, std::int64_t>>>>
      seen;
  for_each_loop(prog.phases, prog.sizes,
                [&](const ParallelLoop& loop, const Bindings& b) {
                  if (!seen.insert({&loop, loop_key(loop, b)}).second) return;
                  for (const int np : {1, 8, 64})
                    chunks += check_loop(prog, loop, b, np,
                                         prog.name + "/" + loop.name);
                });
  EXPECT_GT(chunks, 0) << prog.name;
}

TEST(FootprintBruteForce, RegistryApps) {
  for (const apps::AppInfo& app : apps::registry()) {
    SCOPED_TRACE(app.name);
    check_program(app.scaled(0.02));
  }
}

TEST(FootprintBruteForce, Spmv) {
  check_program(apps::spmv(96, 5, 2, /*pattern=*/0));
}

// A seeded random affine loop over one to three arrays: negative
// coefficients, constant and symbolic subscripts, offsets past the array
// edge, BLOCK and CYCLIC distributions, and free bounds that follow the
// distributed variable (triangular nests) and can go empty.
Program random_loop(std::mt19937_64& rng) {
  const auto pick = [&](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  };
  Program prog;
  prog.name = "random";
  prog.sizes.set("n", pick(6, 40));
  prog.sizes.set("m", pick(2, 9));
  prog.sizes.set("t", pick(0, 4));
  const AffineExpr N = AffineExpr::sym("n"), M = AffineExpr::sym("m"),
                   T = AffineExpr::sym("t");
  const int narrays = static_cast<int>(pick(1, 3));
  for (int a = 0; a < narrays; ++a) {
    ArrayDecl d;
    d.name = "a" + std::to_string(a);
    const int rank = static_cast<int>(pick(1, 3));
    for (int r = 0; r + 1 < rank; ++r)
      d.extents.push_back(pick(0, 1) ? M : AffineExpr(pick(1, 7)));
    d.extents.push_back(N);  // the distributed dimension
    d.dist = pick(0, 1) ? DistKind::kBlock : DistKind::kCyclic;
    prog.arrays.push_back(std::move(d));
  }

  ParallelLoop loop;
  loop.name = "random";
  const AffineExpr J = AffineExpr::sym("j");
  loop.dist = LoopVar{"j", pick(0, 1) ? AffineExpr(pick(0, 2)) : T,
                      N - pick(-1, 2)};
  if (pick(0, 2) == 0) {
    loop.comp = ParallelLoop::Comp::kBlockByIndex;
  } else {
    loop.home_array = prog.arrays[static_cast<std::size_t>(
                                      pick(0, narrays - 1))]
                          .name;
    loop.home_sub = J + pick(-1, 1);
  }
  const char* const free_syms[] = {"i", "k"};
  const int nfree = static_cast<int>(pick(0, 2));
  for (int f = 0; f < nfree; ++f) {
    LoopVar fv{free_syms[f], AffineExpr(pick(0, 2)), M - pick(0, 2)};
    switch (pick(0, 3)) {
      case 0:  // lower triangle: empty while j < 2
        fv.lo = AffineExpr(0);
        fv.hi = J - 2;
        break;
      case 1:  // upper triangle: empty once j reaches n - 1
        fv.lo = J + 1;
        fv.hi = N - 1;
        break;
      case 2:  // shrinking with j, bounded by the problem size
        fv.lo = AffineExpr(1);
        fv.hi = N - J * 2;
        break;
      default:
        break;
    }
    loop.free.push_back(std::move(fv));
  }

  // One subscript: a constant, a symbolic constant, or coeff * var + offset
  // with the offset possibly reaching past the array edge.
  const auto subscript = [&]() -> AffineExpr {
    const std::int64_t kind = pick(0, 5);
    if (kind == 0) return AffineExpr(pick(-2, 8));
    if (kind == 1) return N - pick(0, 2) + (pick(0, 1) ? T : AffineExpr(0));
    std::int64_t coeff = pick(1, 3) * (pick(0, 1) ? 1 : -1);
    const int var = static_cast<int>(pick(0, nfree));
    const std::string sym = var == 0 ? "j" : free_syms[var - 1];
    AffineExpr e = AffineExpr::sym(sym, coeff) + pick(-3, 3);
    if (coeff < 0) e = e + N;  // keep most values near the array
    if (pick(0, 3) == 0) e = e + T;
    return e;
  };
  const auto refs = [&](std::vector<ArrayRef>* out, int lo, int hi) {
    const int count = static_cast<int>(pick(lo, hi));
    for (int r = 0; r < count; ++r) {
      const ArrayDecl& a =
          prog.arrays[static_cast<std::size_t>(pick(0, narrays - 1))];
      ArrayRef ref{a.name, {}};
      for (std::size_t d = 0; d < a.extents.size(); ++d)
        ref.subs.push_back(subscript());
      out->push_back(std::move(ref));
    }
  };
  refs(&loop.reads, 1, 4);
  refs(&loop.writes, 0, 2);
  prog.phases.push_back(Phase::make(std::move(loop)));
  return prog;
}

TEST(FootprintBruteForce, RandomAffineLoops) {
  std::mt19937_64 rng(20260417);
  std::int64_t chunks = 0;
  for (int i = 0; i < 300; ++i) {
    const Program prog = random_loop(rng);
    const ParallelLoop& loop = *prog.phases[0].loop;
    for (const int np : {1, 8, 64})
      chunks += check_loop(prog, loop, prog.sizes, np,
                           "random loop " + std::to_string(i));
  }
  EXPECT_GT(chunks, 1000);
}

}  // namespace
}  // namespace fgdsm::hpf
