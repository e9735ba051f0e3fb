#include "src/util/log.h"

#include <cstdlib>

namespace fgdsm::util {

Log& Log::instance() {
  static Log log;
  return log;
}

namespace {
// Reads FGDSM_LOG during static initialization, so the flag FGDSM_LOG sites
// test is already set when main() starts.
[[maybe_unused]] const Log& kFromEnvironment = Log::instance();
}  // namespace

Log::Log() {
  if (const char* env = std::getenv("FGDSM_LOG")) {
    std::string s(env);
    size_t pos = 0;
    while (pos != std::string::npos) {
      size_t comma = s.find(',', pos);
      std::string cat = s.substr(
          pos, comma == std::string::npos ? std::string::npos : comma - pos);
      if (!cat.empty()) enable(cat);
      pos = comma == std::string::npos ? comma : comma + 1;
    }
  }
}

void Log::enable(const std::string& category) {
  std::lock_guard<std::mutex> g(mu_);
  if (category == "all")
    all_ = true;
  else
    categories_.insert(category);
  update_any();
}

void Log::disable(const std::string& category) {
  std::lock_guard<std::mutex> g(mu_);
  if (category == "all")
    all_ = false;
  else
    categories_.erase(category);
  update_any();
}

void Log::update_any() {
  any_.store(all_ || !categories_.empty(), std::memory_order_relaxed);
}

bool Log::enabled(const std::string& category) const {
  std::lock_guard<std::mutex> g(mu_);
  return all_ || categories_.count(category) > 0;
}

void Log::write(const std::string& category, const std::string& msg) {
  std::lock_guard<std::mutex> g(mu_);
  std::cerr << "[" << category << "] " << msg << "\n";
}

}  // namespace fgdsm::util
