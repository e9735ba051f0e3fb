#include "bench/hostperf.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

// Counting allocator hook: every operator new in the process bumps the
// counter. Only executables that compile this file in count; the library
// never overrides the global allocator.
namespace {
// Atomic: the engine's --sim-threads worker crew allocates concurrently.
// Relaxed is enough — the count is read only between runs, after joins.
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t align = static_cast<std::size_t>(a);
  if (void* p = std::aligned_alloc(align, (n + align - 1) / align * align))
    return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return ::operator new(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace fgdsm::bench {

std::uint64_t allocation_count() {
  return g_allocs.load(std::memory_order_relaxed);
}

double calibrate_mops() {
  constexpr std::uint64_t kOps = 200'000'000;
  std::uint64_t x = 0x9e3779b97f4a7c15ull, acc = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < kOps; ++i) {
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    acc ^= z ^ (z >> 31);
  }
  const double s = seconds_since(t0);
  // Defeat dead-code elimination without affecting output determinism.
  if (acc == 0x12345678) std::fprintf(stderr, "calib sentinel\n");
  return static_cast<double>(kOps) / 1e6 / s;
}

}  // namespace fgdsm::bench
