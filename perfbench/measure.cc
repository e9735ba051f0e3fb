#include "perfbench/measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>

#include "src/util/json.h"

// Counting allocator hook (the bench_selfperf shape). It lives in this file,
// away from the code it counts, so the compiler never inlines these
// definitions into standard containers' paths.
namespace {
// Atomic: the engine's worker threads allocate concurrently.
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

namespace fgdsm::perfbench {

std::uint64_t allocation_count() {
  return g_allocs.load(std::memory_order_relaxed);
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const auto at = [&v](double q) {
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
  };
  s.median = at(0.5);
  s.q1 = at(0.25);
  s.q3 = at(0.75);
  return s;
}

std::int64_t SpanLog::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

SpanLog::Scope::Scope(SpanLog& log, const char* layer, std::string name) {
  if (!log.enabled_) return;
  log_ = &log;
  index_ = static_cast<int>(log.spans_.size());
  const int parent = log.open_.empty() ? -1 : log.open_.back();
  log.spans_.push_back({layer, std::move(name), log.now_ns(), 0, parent});
  log.open_.push_back(index_);
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  log_->spans_[static_cast<std::size_t>(index_)].t1_ns = log_->now_ns();
  log_->open_.pop_back();
}

bool SpanLog::write_chrome(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  util::JsonWriter w(f, 0);
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.begin_object();
    w.kv("name", s.name);
    w.kv("cat", s.layer);
    w.kv("ph", "X");
    w.kv("pid", 1);
    w.kv("tid", 1);
    w.kv("ts", static_cast<double>(s.t0_ns) / 1e3);
    w.kv("dur", static_cast<double>(s.t1_ns - s.t0_ns) / 1e3);
    w.key("args");
    w.begin_object();
    w.kv("id", static_cast<std::int64_t>(i));
    w.kv("parent", s.parent);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  f << '\n';
  return static_cast<bool>(f);
}

}  // namespace fgdsm::perfbench
