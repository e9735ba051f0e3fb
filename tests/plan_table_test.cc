// The run-wide communication-plan table (core::PlanTable): every node's
// plan from a shared entry must equal that node's own from-scratch build
// (core::build_comm_plan) in every schedule, count and flag; one key must
// cost one analysis however many nodes ask, including concurrently from
// several engine workers; and the key must change exactly when a symbol
// the loop references (or a caller-supplied extra component) changes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "src/apps/apps.h"
#include "src/core/plan.h"
#include "src/core/plan_table.h"
#include "src/hpf/analysis.h"
#include "src/hpf/ir.h"

namespace fgdsm::core {
namespace {

// Collect every ParallelLoop in the program (descending into time loops)
// and bind each time-loop counter to 0 so loop structure is evaluable.
void collect_loops(const std::vector<hpf::Phase>& phases,
                   std::vector<const hpf::ParallelLoop*>& out,
                   hpf::Bindings& b) {
  for (const auto& p : phases) {
    if (p.kind == hpf::Phase::Kind::kParallelLoop) out.push_back(p.loop.get());
    if (p.kind != hpf::Phase::Kind::kTimeLoop) continue;
    b.set(p.time->counter, 0);
    collect_loops(p.time->phases, out, b);
  }
}

// A program's loops, bindings at np nodes, and standalone layouts with the
// executor's packing rule (block-aligned consecutive allocations); any
// consistent bases work as long as the table and the reference share them.
struct Fixture {
  Fixture(const hpf::Program& p, int np, std::size_t block = 128)
      : prog(p), bind(p.sizes) {
    bind.set(hpf::kSymNProcs, np);
    bind.set(hpf::kSymProc, 0);
    collect_loops(prog.phases, loops, bind);
    hpf::GAddr base = 0;
    for (const auto& a : prog.arrays) {
      hpf::ArrayLayout& lay = layouts[a.name];
      lay.name = a.name;
      for (const auto& e : a.extents) lay.extents.push_back(e.eval(bind));
      lay.elem = 8;
      lay.base = base;
      base += (lay.bytes() + block - 1) / block * block;
    }
  }
  const hpf::Program& prog;
  hpf::Bindings bind;
  std::vector<const hpf::ParallelLoop*> loops;
  LayoutMap layouts;
};

// (a) Every node's plan in a table entry is the plan that node would build
// for itself, for every loop of every app (spmv's indirect loop included:
// without gathers its entry is the affine analysis alone), at 1, 3, 8 and
// 64 nodes, block-aligned (shared memory) and exact (message passing).
// cg's registry sizes keep the paper's full matrix at every scale; a
// smaller matrix has the same loops and keeps the 64-node reference builds
// quick.
TEST(PlanTable, EveryNodesPlanEqualsItsOwnBuild) {
  std::vector<hpf::Program> progs;
  for (const auto& app : apps::registry())
    progs.push_back(app.name == "cg" ? apps::cg(64, 128, 2)
                                     : app.scaled(0.1));
  progs.push_back(apps::spmv(1024, 8, 2, /*pattern=*/0));
  for (const hpf::Program& prog : progs) {
    for (int np : {1, 3, 8, 64}) {
      const Fixture f(prog, np);
      ASSERT_FALSE(f.loops.empty()) << prog.name;
      for (bool align : {true, false}) {
        PlanTable table(prog, f.layouts, np, 128, align);
        for (const hpf::ParallelLoop* loop : f.loops) {
          const PlanTable::Entry& e = table.get(*loop, f.bind);
          ASSERT_EQ(e.plans.size(), static_cast<std::size_t>(np));
          for (int me = 0; me < np; ++me)
            EXPECT_EQ(e.plans[static_cast<std::size_t>(me)],
                      build_comm_plan(*loop, prog, f.bind, f.layouts, np, me,
                                      128, align))
                << prog.name << "/" << loop->name << " np=" << np
                << " align=" << align << " me=" << me;
        }
      }
    }
  }
}

// (b) One key, np requests (one per node): one analysis, one entry, one
// address — and the caller's gather transfers are computed once and land
// in every node's plan.
TEST(PlanTable, NodesRequestingOneKeyShareOneAnalysis) {
  constexpr int kNp = 8;
  const hpf::Program prog = apps::spmv(1024, 8, 2, /*pattern=*/0);
  const Fixture f(prog, kNp);
  PlanTable table(f.prog, f.layouts, kNp, 128, /*block_align=*/true);
  const hpf::ParallelLoop& loop = *f.loops[1];
  ASSERT_EQ(loop.name, "y=A*x");  // the gather loop
  const std::vector<hpf::Transfer> gathers = {
      {"x", /*sender=*/0, /*receiver=*/kNp - 1,
       hpf::ConcreteSection{{hpf::ConcreteInterval{0, 127, 1}}}, false}};
  int analyses = 0;
  const auto count = [&] {
    ++analyses;
    return gathers;
  };
  const PlanTable::Entry* first = &table.get(loop, f.bind, {3}, count);
  for (int node = 1; node < kNp; ++node) {
    hpf::Bindings b = f.bind;
    b.set(hpf::kSymProc, node);  // each node asks with its own bindings
    EXPECT_EQ(&table.get(loop, b, {3}, count), first) << "node " << node;
  }
  EXPECT_EQ(analyses, 1);
  std::vector<hpf::Transfer> all =
      hpf::analyze_transfers(loop, f.prog, f.bind, kNp);
  all.insert(all.end(), gathers.begin(), gathers.end());
  for (int me = 0; me < kNp; ++me)
    EXPECT_EQ(first->plans[static_cast<std::size_t>(me)],
              plan_from_transfers(all, f.layouts, me, 128, true))
        << "me=" << me;
}

// LU's update loop keys on the pivot counter k (its bounds shift every
// elimination step) as well as the size n.
TEST(PlanTable, KeySymbolChangeMissesUnrelatedChangeHits) {
  constexpr int kNp = 4;
  const hpf::Program prog = apps::lu(64);
  const Fixture f(prog, kNp);
  const hpf::ParallelLoop* update = nullptr;
  for (const auto* l : f.loops)
    if (l->name == "update") update = l;
  ASSERT_NE(update, nullptr);
  const hpf::ParallelLoop& loop = *update;
  const std::vector<std::string> keys = plan_key_symbols(loop, f.prog);
  ASSERT_NE(std::find(keys.begin(), keys.end(), "k"), keys.end());

  PlanTable table(f.prog, f.layouts, kNp, 128, true);
  const PlanTable::Entry& e = table.get(loop, f.bind);
  EXPECT_TRUE(e.matches(f.bind, {}));

  // Changing a symbol the loop never references keeps the same entry.
  hpf::Bindings unrelated = f.bind;
  unrelated.set("$some_unreferenced_symbol", 42);
  EXPECT_TRUE(e.matches(unrelated, {}));
  EXPECT_EQ(&table.get(loop, unrelated), &e);

  // Changing a referenced symbol is a new key: a new entry analyzed under
  // the new value, while the old one stays valid for the old key.
  hpf::Bindings changed = f.bind;
  changed.set("k", 5);
  EXPECT_FALSE(e.matches(changed, {}));
  const PlanTable::Entry& next = table.get(loop, changed);
  EXPECT_NE(&next, &e);
  EXPECT_TRUE(next.matches(changed, {}));
  for (int me = 0; me < kNp; ++me)
    EXPECT_EQ(next.plans[static_cast<std::size_t>(me)],
              build_comm_plan(loop, f.prog, changed, f.layouts, kNp, me, 128,
                              true))
        << "me=" << me;
  EXPECT_EQ(&table.get(loop, f.bind), &e);
}

// The caller-supplied extra key (the inspector's index-array write
// versions) participates in the key: same extra, same entry; a different
// value, no extra, or a longer extra each get their own entry.
TEST(PlanTable, ExtraKeyParticipatesInKey) {
  constexpr int kNp = 4;
  const hpf::Program prog = apps::jacobi(96, 4);
  const Fixture f(prog, kNp);
  const hpf::ParallelLoop& loop = *f.loops.front();
  PlanTable table(f.prog, f.layouts, kNp, 128, true);

  const PlanTable::Entry& e = table.get(loop, f.bind, {7});
  EXPECT_TRUE(e.matches(f.bind, {7}));
  EXPECT_FALSE(e.matches(f.bind, {8}));     // version bumped
  EXPECT_FALSE(e.matches(f.bind, {}));      // no extra at all
  EXPECT_FALSE(e.matches(f.bind, {7, 7}));  // extra length
  EXPECT_EQ(&table.get(loop, f.bind, {7}), &e);
  EXPECT_NE(&table.get(loop, f.bind, {8}), &e);
  EXPECT_NE(&table.get(loop, f.bind, {}), &e);
  EXPECT_NE(&table.get(loop, f.bind, {7, 7}), &e);
  // The first entry is intact after the others were added.
  EXPECT_EQ(&table.get(loop, f.bind, {7}), &e);
  EXPECT_EQ(e.plans[1], build_comm_plan(loop, f.prog, f.bind, f.layouts, kNp,
                                        1, 128, true));
}

// (c) Engine workers share the table: 4 threads asking for the same keys
// at the same moment get one entry and one analysis per key.
TEST(PlanTable, ConcurrentRequestsShareOneEntryPerKey) {
  constexpr int kNp = 8;
  constexpr int kThreads = 4;
  constexpr std::int64_t kVersions = 6;
  const hpf::Program prog = apps::jacobi(96, 4);
  const Fixture f(prog, kNp);
  PlanTable table(f.prog, f.layouts, kNp, 128, true);
  const std::size_t keys = f.loops.size() * kVersions;

  std::atomic<int> analyses{0};
  std::vector<std::vector<const PlanTable::Entry*>> got(
      kThreads, std::vector<const PlanTable::Entry*>(keys, nullptr));
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (std::size_t k = 0; k < keys; ++k) {
        // Odd threads walk the keys backwards, so requests collide on
        // entries being created as well as on finished ones.
        const std::size_t i = t % 2 == 0 ? k : keys - 1 - k;
        const hpf::ParallelLoop& loop = *f.loops[i / kVersions];
        const std::int64_t version = static_cast<std::int64_t>(i % kVersions);
        got[static_cast<std::size_t>(t)][i] =
            &table.get(loop, f.bind, {version}, [&] {
              analyses.fetch_add(1);
              return std::vector<hpf::Transfer>{};
            });
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(analyses.load(), static_cast<int>(keys));
  for (std::size_t i = 0; i < keys; ++i) {
    ASSERT_NE(got[0][i], nullptr) << i;
    for (int t = 1; t < kThreads; ++t)
      EXPECT_EQ(got[static_cast<std::size_t>(t)][i], got[0][i])
          << "key " << i << " thread " << t;
  }
}

}  // namespace
}  // namespace fgdsm::core
