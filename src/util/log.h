// Minimal leveled logger. Logging is off by default (simulation runs are the
// product; logs are a debugging aid) and enabled per-category via
// util::Log::enable() or the FGDSM_LOG environment variable
// (comma-separated category names, or "all"), read before main().
//
// A disabled FGDSM_LOG site costs one relaxed atomic load: the categories,
// the mutex and the message stream are only touched while some category is
// on. Protocol handlers log on every event, so this is a hot-path cost.
#pragma once

#include <atomic>
#include <iostream>
#include <mutex>
#include <set>
#include <sstream>
#include <string>

namespace fgdsm::util {

class Log {
 public:
  static Log& instance();

  // True while any category (or "all") is enabled.
  static bool any_enabled() {
    return any_.load(std::memory_order_relaxed);
  }

  void enable(const std::string& category);
  void disable(const std::string& category);
  bool enabled(const std::string& category) const;

  void write(const std::string& category, const std::string& msg);

 private:
  Log();
  void update_any();  // with mu_ held

  static inline std::atomic<bool> any_{false};
  mutable std::mutex mu_;
  std::set<std::string> categories_;
  bool all_ = false;
};

}  // namespace fgdsm::util

// Usage: FGDSM_LOG("proto", "node " << n << " read fault @" << addr);
// The stream expression is evaluated only when the category is enabled.
#define FGDSM_LOG(category, expr)                                  \
  do {                                                             \
    if (::fgdsm::util::Log::any_enabled() &&                       \
        ::fgdsm::util::Log::instance().enabled(category)) {        \
      std::ostringstream fgdsm_log_os_;                            \
      fgdsm_log_os_ << expr;                                       \
      ::fgdsm::util::Log::instance().write(category,               \
                                           fgdsm_log_os_.str());   \
    }                                                              \
  } while (0)
