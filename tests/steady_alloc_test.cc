// Steady state allocates nothing: once a node has visited a loop, later
// visits reuse storage it owns — access-check scratch, payload buffers,
// compiled references, plan records — in every execution mode. Each case
// runs one app twice, with 2I and with 3I iterations, and charges the extra
// allocations to the extra simulated events.
//
// A binary of its own: it replaces the global operator new, which is
// process-wide.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <string>

#include "src/apps/apps.h"
#include "src/exec/executor.h"

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

Count measure(const App& app, const Mode& mode, std::int64_t iters) {
  const hpf::Program prog = app.build(iters);
  RunConfig cfg;
  cfg.cluster.nnodes = 8;
  cfg.cluster.dual_cpu = mode.dual_cpu;
  cfg.opt = mode.opt;
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

}  // namespace
}  // namespace fgdsm::exec
