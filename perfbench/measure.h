// Host-side measurement helpers for the benchmark: an in-memory span log
// (written out as Chrome trace_event JSON when the run ends), sample
// summaries (median and quartiles), and process probes: CPU time, peak RSS
// and the count of heap allocations.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace fgdsm::perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Heap allocations (operator new calls) the process has made so far. The
// benchmark binary replaces the global operator new to count them; each
// workload runs in its own process, so the count belongs to that workload.
std::uint64_t allocation_count();
// Process user+system CPU seconds so far (all threads).
double process_cpu_seconds();
// Peak resident set size of the process, MiB.
double peak_rss_mib();

// Median and quartiles of a sample set (linear interpolation between order
// statistics). Empty input gives all zeros.
struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;
};
Summary summarize(std::vector<double> samples);

// Spans recorded by the benchmark around each call it makes into a layer:
// layer name, span name, host start/end, and the enclosing span. Kept in
// memory; write_chrome() dumps them once at exit. A disabled log records
// nothing. Callers open every span outside the interval they time, so
// recording never shows up in a measurement, only in the traced wall time.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  void set_enabled(bool on) { enabled_ = on; }
  std::size_t size() const { return spans_.size(); }

  class Scope {
   public:
    Scope(SpanLog& log, const char* layer, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_ = nullptr;  // null: the log was disabled at entry
    int index_ = -1;
  };

  // Chrome trace_event JSON ("X" events; args carry span id and parent).
  bool write_chrome(const std::string& path) const;

 private:
  struct Span {
    const char* layer;
    std::string name;
    std::int64_t t0_ns;
    std::int64_t t1_ns;
    int parent;
  };
  std::int64_t now_ns() const;

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span indices
};

}  // namespace fgdsm::perfbench
