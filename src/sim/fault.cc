#include "src/sim/fault.h"

#include <cstdlib>
#include <sstream>

#include "src/util/assert.h"
#include "src/util/options.h"

namespace fgdsm::sim {

namespace {

// splitmix64 — a full-avalanche mixer; counter-mode use (hash of a unique
// index) gives independent, reproducible draws with no carried state.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double u01(std::uint64_t x) {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

bool parse_rate(const std::string& v, double* out) {
  char* end = nullptr;
  *out = std::strtod(v.c_str(), &end);
  return !v.empty() && end == v.c_str() + v.size() && *out >= 0.0 &&
         *out <= 1.0;
}

bool parse_u64(const std::string& v, std::uint64_t* out) {
  char* end = nullptr;
  *out = std::strtoull(v.c_str(), &end, 10);
  return !v.empty() && end == v.c_str() + v.size();
}

}  // namespace

FaultConfig FaultConfig::parse(const std::string& spec, std::string* error) {
  FaultConfig c;
  error->clear();
  c.enabled = true;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty() || item == "1") continue;  // bare --faults
    const std::size_t eq = item.find('=');
    const std::string key = item.substr(0, eq);
    const std::string val =
        eq == std::string::npos ? std::string() : item.substr(eq + 1);
    bool ok = true;
    std::uint64_t u = 0;
    if (key == "drop") {
      ok = parse_rate(val, &c.drop);
    } else if (key == "dup") {
      ok = parse_rate(val, &c.dup);
    } else if (key == "delay") {
      ok = parse_rate(val, &c.delay);
    } else if (key == "reorder") {
      ok = parse_rate(val, &c.reorder);
    } else if (key == "delay-ns") {
      ok = parse_u64(val, &u);
      c.delay_ns = static_cast<Time>(u);
    } else if (key == "rto-ns") {
      ok = parse_u64(val, &u);
      c.rto_ns = static_cast<Time>(u);
    } else if (key == "seed") {
      ok = parse_u64(val, &c.seed);
    } else if (key == "retries") {
      ok = parse_u64(val, &u) && u <= 30;  // 2^30 * rto already absurd
      c.max_retries = static_cast<int>(u);
    } else if (key == "crash") {
      // crash=<node>@<ns>: fail-stop the node at that virtual time.
      // Repeatable; each occurrence appends one scheduled crash.
      const std::size_t at = val.find('@');
      std::uint64_t node = 0, ns = 0;
      ok = at != std::string::npos && at > 0 &&
           parse_u64(val.substr(0, at), &node) &&
           parse_u64(val.substr(at + 1), &ns) && node <= 0x7fffffffull;
      if (ok)
        c.crashes.emplace_back(static_cast<int>(node),
                               static_cast<Time>(ns));
    } else if (key == "crashp") {
      ok = parse_rate(val, &c.crashp);
    } else {
      static const std::vector<std::string> kKnown = {
          "drop",   "dup",  "delay",   "reorder", "delay-ns",
          "rto-ns", "seed", "retries", "crash",   "crashp"};
      const std::string hint = util::Options::closest_match(key, kKnown);
      *error = "unknown fault key '" + key + "'" +
               (hint.empty() ? std::string() :
                               " (did you mean '" + hint + "'?)") +
               "; expected drop/dup/delay/reorder/delay-ns/rto-ns/seed/"
               "retries/crash/crashp";
      return FaultConfig{};
    }
    if (!ok) {
      *error = "invalid value '" + val + "' for fault key '" + key + "'";
      return FaultConfig{};
    }
  }
  return c;
}

std::string FaultConfig::summary() const {
  std::ostringstream os;
  os << "drop=" << drop << " dup=" << dup << " delay=" << delay
     << " reorder=" << reorder << " seed=" << seed
     << " retries=" << max_retries;
  if (crashp > 0.0) os << " crashp=" << crashp;
  for (const auto& [node, t] : crashes)
    os << " crash=" << node << "@" << t;
  return os.str();
}

FaultInjector::FaultInjector(const FaultConfig& cfg, int nnodes,
                             Time default_window)
    : cfg_(cfg),
      nnodes_(nnodes),
      window_(cfg.delay_ns > 0 ? cfg.delay_ns : default_window),
      link_sparse_(static_cast<std::size_t>(nnodes)) {
  FGDSM_ASSERT(nnodes >= 1);
  FGDSM_ASSERT_MSG(window_ > 0, "fault delay window must be positive");
}

std::uint64_t FaultInjector::hash(int src, int dst, std::uint64_t n,
                                  std::uint64_t salt) const {
  const std::uint64_t link = static_cast<std::uint64_t>(src) *
                                 static_cast<std::uint64_t>(nnodes_) +
                             static_cast<std::uint64_t>(dst);
  // Mixing in stages keeps every (seed, link, index, salt) draw independent.
  return mix64(mix64(mix64(cfg_.seed ^ 0x5eedull) ^ link) ^
               (n * 4 + salt));
}

bool FaultInjector::crash_at_barrier(int node, std::uint64_t epoch) const {
  if (cfg_.crashp <= 0.0) return false;
  // Disjoint chain from the per-link draws: a different salt on the seed
  // stage means no (link, index) message draw can collide with a
  // (node, epoch) crash draw. Stateless — safe from any thread.
  const std::uint64_t h =
      mix64(mix64(mix64(cfg_.seed ^ 0xc7a5b1ull) ^
                  static_cast<std::uint64_t>(node)) ^
            epoch);
  return u01(h) < cfg_.crashp;
}

FaultInjector::Decision FaultInjector::decide(int src, int dst) {
  const std::uint64_t n = link_sparse_[static_cast<std::size_t>(src)][dst]++;
  Decision d;
  util::NodeStats* st =
      static_cast<std::size_t>(src) < stats_.size() ? stats_[src] : nullptr;
  if (cfg_.drop > 0 && u01(hash(src, dst, n, 0)) < cfg_.drop) {
    d.drop = true;
    if (st != nullptr) ++st->faults_dropped;
    return d;  // a dropped message needs no further verdicts
  }
  const std::uint64_t jitter = hash(src, dst, n, 1);
  if (cfg_.delay > 0 && u01(hash(src, dst, n, 2)) < cfg_.delay)
    d.extra_delay += 1 + static_cast<Time>(jitter % static_cast<std::uint64_t>(
                                               window_));
  if (cfg_.reorder > 0 && u01(hash(src, dst, n, 3)) < cfg_.reorder)
    d.extra_delay +=
        1 + static_cast<Time>(mix64(jitter) %
                              static_cast<std::uint64_t>(2 * window_));
  if (d.extra_delay > 0 && st != nullptr) ++st->faults_delayed;
  if (cfg_.dup > 0 && u01(hash(src, dst, n, 4)) < cfg_.dup) {
    d.duplicate = true;
    d.dup_delay = 1 + static_cast<Time>(mix64(jitter ^ 0xd0bull) %
                                        static_cast<std::uint64_t>(window_));
    if (st != nullptr) ++st->faults_duplicated;
  }
  return d;
}

}  // namespace fgdsm::sim
