// Host-side measurement helpers for the harnesses that time the simulator
// itself (bench_selfperf, bench_scale). hostperf.cc also replaces the
// global operator new/delete with a counting set, so an executable counts
// its heap allocations only when it compiles that file in.
#pragma once

#include <chrono>
#include <cstdint>

namespace fgdsm::bench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Heap allocations (operator new calls) the process has made so far.
std::uint64_t allocation_count();

// Fixed-work splitmix64 loop: a host-speed yardstick with no allocation and
// no branches, in Mops/s, so workload throughput can be normalized across
// machines. Both harnesses use it, so their normalized numbers compare
// directly on one host.
double calibrate_mops();

}  // namespace fgdsm::bench
