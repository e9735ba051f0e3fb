// Steady state allocates nothing: once a node has visited a loop, later
// visits reuse storage it owns — access-check scratch, payload buffers,
// compiled references, plan records — in every execution mode, and under
// chaos, where the reliable channel retains every sent message. Each case
// runs one app twice, with 2I and with 3I iterations, and charges the extra
// allocations to the extra simulated events.
//
// Host work that scales with the node count is bounded here too: one
// inspection round of the irregular needs exchange allocates O(np), not
// one list per (sender, receiver) pair, and a 256-node directory whose
// entries gain sharers >= 64 allocates O(log entries) times.
//
// A binary of its own: it replaces the global operator new, which is
// process-wide.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <string>

#include "src/apps/apps.h"
#include "src/exec/executor.h"
#include "src/proto/stache.h"
#include "src/sim/fault.h"
#include "src/tempest/cluster.h"

namespace {
// Atomic: engine workers may allocate concurrently.
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

// Every replacement stays out of line: inlined, GCC would pair a malloc or
// free with a standard container's new or delete and warn of a mismatch.
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t n) {
  return ::operator new(n);
}
[[gnu::noinline]] void* operator new(std::size_t n, std::align_val_t a) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t align = static_cast<std::size_t>(a);
  if (void* p = std::aligned_alloc(align, (n + align - 1) / align * align))
    return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t n, std::align_val_t a) {
  return ::operator new(n, a);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t,
                                       std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t,
                                         std::align_val_t) noexcept {
  std::free(p);
}

namespace fgdsm::exec {
namespace {

struct App {
  const char* name;
  std::int64_t iters;  // I: the runs make 2I and 3I iterations
  std::function<hpf::Program(std::int64_t iters)> build;
};

const App kApps[] = {
    {"jacobi", 8, [](std::int64_t it) { return apps::jacobi(128, it); }},
    {"pde", 2, [](std::int64_t it) { return apps::pde(48, it); }},
    {"shallow", 4,
     [](std::int64_t it) { return apps::shallow(65, 33, it); }},
    {"grav", 2, [](std::int64_t it) { return apps::grav(32, it); }},
    {"cg", 5, [](std::int64_t it) { return apps::cg(180, 360, it); }},
    {"spmv", 4,
     [](std::int64_t it) { return apps::spmv(1024, 8, it, /*pattern=*/0); }},
};

struct Mode {
  const char* name;
  core::Options opt;
  bool dual_cpu;
  bool shmem;
};

const Mode kModes[] = {
    {"sm_unopt", core::shmem_unopt(), true, true},
    {"sm_opt_2cpu", core::shmem_opt_full(), true, true},
    {"sm_opt_1cpu", core::shmem_opt_full(), false, true},
    {"mp", core::msg_passing(), true, false},
};

struct Count {
  std::uint64_t allocs = 0;
  std::uint64_t events = 0;
};

// `faults`: a --faults spec, empty for a perfect wire.
Count measure(const App& app, const Mode& mode, std::int64_t iters,
              const std::string& faults = "") {
  const hpf::Program prog = app.build(iters);
  RunConfig cfg;
  cfg.cluster.nnodes = 8;
  cfg.cluster.dual_cpu = mode.dual_cpu;
  cfg.opt = mode.opt;
  if (!faults.empty()) {
    std::string err;
    cfg.cluster.faults = sim::FaultConfig::parse(faults, &err);
    EXPECT_TRUE(err.empty()) << err;
  }
  const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
  const RunResult r = run(prog, cfg);
  const std::uint64_t a1 = g_allocs.load(std::memory_order_relaxed);
  return {a1 - a0, r.engine_events};
}

class SteadyAlloc
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(SteadyAlloc, LaterVisitsAllocateNothing) {
  const App& app = kApps[std::get<0>(GetParam())];
  const Mode& mode = kModes[std::get<1>(GetParam())];
  const Count two = measure(app, mode, 2 * app.iters);
  const Count three = measure(app, mode, 3 * app.iters);
  ASSERT_GT(three.events, two.events) << "the extra iterations ran no events";
  const std::uint64_t extra_events = three.events - two.events;
  const std::int64_t extra_allocs = static_cast<std::int64_t>(three.allocs) -
                                    static_cast<std::int64_t>(two.allocs);
  const double per_event =
      static_cast<double>(extra_allocs) / static_cast<double>(extra_events);
  RecordProperty("extra_events", std::to_string(extra_events));
  RecordProperty("extra_allocs", std::to_string(extra_allocs));
  EXPECT_LE(per_event, 0.005)
      << app.name << " " << mode.name << ": " << extra_allocs
      << " allocations over " << extra_events << " extra events ("
      << two.allocs << " at " << 2 * app.iters << " iterations, "
      << three.allocs << " at " << 3 * app.iters << ")";
  // The stencils' visits repeat exactly in the shared-memory modes, so
  // nothing may allocate at all.
  const std::string name = app.name;
  if (mode.shmem && (name == "jacobi" || name == "pde")) {
    EXPECT_EQ(extra_allocs, 0)
        << app.name << " " << mode.name << " allocated in its extra "
        << "iterations";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AppsByMode, SteadyAlloc,
    ::testing::Combine(::testing::Range<std::size_t>(0, std::size(kApps)),
                       ::testing::Range<std::size_t>(0, std::size(kModes))),
    [](const ::testing::TestParamInfo<SteadyAlloc::ParamType>& info) {
      return std::string(kApps[std::get<0>(info.param)].name) + "_" +
             kModes[std::get<1>(info.param)].name;
    });

// Chaos legs: drops, duplicates and delays through the reliable channel.
// The channel retains every sent message until it is acked and resends it
// on a timeout; the retained copy, each retransmission and each duplicate
// share the sent payload, so no allocation scales with the extra traffic
// (a payload copied per retained message costs hundreds here). Random
// faults can still push a high-water mark up in the extra iterations — a
// deeper out-of-order buffer, more events or buffers in flight at once —
// and each such step allocates once: 1 to 8 of them over seeds 1–5.
class SteadyAllocChaos : public ::testing::TestWithParam<const char*> {};

TEST_P(SteadyAllocChaos, RetainedCopiesShareTheirPayloads) {
  const std::string name = GetParam();
  const App* app = nullptr;
  for (const App& a : kApps)
    if (name == a.name) app = &a;
  ASSERT_NE(app, nullptr);
  const Mode& mode = kModes[1];  // sm_opt_2cpu
  const std::string faults = "drop=0.01,dup=0.01,delay=0.05,seed=3";
  const Count two = measure(*app, mode, 2 * app->iters, faults);
  const Count three = measure(*app, mode, 3 * app->iters, faults);
  ASSERT_GT(three.events, two.events) << "the extra iterations ran no events";
  const std::int64_t extra_allocs = static_cast<std::int64_t>(three.allocs) -
                                    static_cast<std::int64_t>(two.allocs);
  RecordProperty("extra_events", std::to_string(three.events - two.events));
  RecordProperty("extra_allocs", std::to_string(extra_allocs));
  constexpr std::int64_t kHighWaterSteps = 16;
  EXPECT_LE(extra_allocs, kHighWaterSteps)
      << app->name << " under " << faults << ": " << extra_allocs
      << " allocations in the extra iterations (" << two.allocs << " at "
      << 2 * app->iters << " iterations, " << three.allocs << " at "
      << 3 * app->iters << ")";
}

INSTANTIATE_TEST_SUITE_P(Apps, SteadyAllocChaos,
                         ::testing::Values("jacobi", "spmv"),
                         [](const ::testing::TestParamInfo<const char*>& i) {
                           return std::string(i.param);
                         });

// One inspection round of spmv — every node scans its index slice and
// broadcasts its need list — allocates O(np). Each node encodes its list
// once into one pooled buffer that its np−1 messages share, and receivers
// keep the handles instead of decoding. With schedule reuse off, every
// visit of the irregular loop inspects again, so the extra iterations add
// one round each.
TEST(SteadyAllocInspection, OneRoundAllocatesLinearlyInNodes) {
  // Allocations per node and round. Scan and visit temporaries take about
  // 15; a list copied and decoded per (sender, receiver) pair would add
  // 2(np−1).
  constexpr std::int64_t kPerNode = 24;
  for (const int np : {64, 256}) {
    RunConfig cfg;
    cfg.cluster.nnodes = np;
    cfg.cluster.dual_cpu = true;
    cfg.opt = core::shmem_opt_full();
    cfg.opt.reuse_schedule = false;
    const auto measure_iters = [&](std::int64_t iters) {
      const hpf::Program prog = apps::spmv(64 * np, 8, iters, /*pattern=*/0);
      const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
      const RunResult r = run(prog, cfg);
      const std::uint64_t a1 = g_allocs.load(std::memory_order_relaxed);
      const std::uint64_t inspections = r.stats.totals().irreg_inspections;
      return std::pair<std::uint64_t, std::uint64_t>(a1 - a0, inspections);
    };
    const auto [allocs2, insp2] = measure_iters(2);
    const auto [allocs4, insp4] = measure_iters(4);
    ASSERT_GT(insp4, insp2);
    ASSERT_EQ((insp4 - insp2) % static_cast<std::uint64_t>(np), 0u);
    const auto rounds = static_cast<std::int64_t>(
        (insp4 - insp2) / static_cast<std::uint64_t>(np));
    const std::int64_t per_round =
        (static_cast<std::int64_t>(allocs4) -
         static_cast<std::int64_t>(allocs2)) / rounds;
    RecordProperty("allocs_per_round_np" + std::to_string(np),
                   std::to_string(per_round));
    EXPECT_LE(per_round, kPerNode * np)
        << "np=" << np << ": " << per_round << " allocations per inspection "
        << "round over " << rounds << " extra rounds (" << allocs2 << " vs "
        << allocs4 << ")";
  }
}

// Sharer sets of a 256-node directory: two nodes above 63 read every block
// of one home, so every entry spills. The spill words come from the home's
// arena, which grows geometrically: eight times the entries add O(log)
// allocations, not one or more per entry.
TEST(SteadyAllocDirectory, SpilledSharerSetsAllocateLogarithmically) {
  const auto measure_entries = [](std::size_t entries) {
    tempest::ClusterConfig cfg;
    cfg.nnodes = 256;
    cfg.page_size = std::size_t{1} << 20;  // one page: every block at home 0
    tempest::Cluster c(cfg);
    proto::Stache stache(c);
    const std::size_t bytes = entries * cfg.block_size;
    const tempest::GAddr base = c.allocate("x", bytes);
    const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
    c.run([&](tempest::Node& n, sim::Task& t) {
      if (n.id() == 100 || n.id() == 200)
        for (tempest::GAddr a = base; a < base + bytes; a += cfg.block_size)
          n.ensure_readable(t, a, 8);
      n.barrier(t);
    });
    const std::uint64_t a1 = g_allocs.load(std::memory_order_relaxed);
    const proto::Stache::DirSnapshot last =
        stache.dir_snapshot(c.block_of(base + bytes - cfg.block_size));
    EXPECT_EQ(last.state, proto::Stache::DirState::kShared);
    return a1 - a0;
  };
  constexpr std::size_t kFew = 1024;
  constexpr std::size_t kMany = 8 * kFew;
  const std::uint64_t few = measure_entries(kFew);
  const std::uint64_t many = measure_entries(kMany);
  const std::int64_t extra =
      static_cast<std::int64_t>(many) - static_cast<std::int64_t>(few);
  RecordProperty("extra_allocs", std::to_string(extra));
  EXPECT_LE(extra, 4 * std::bit_width(kMany))
      << (kMany - kFew) << " more spilled entries cost " << extra
      << " allocations (" << few << " for " << kFew << ", " << many
      << " for " << kMany << ")";
}

}  // namespace
}  // namespace fgdsm::exec
