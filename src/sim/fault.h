// Deterministic network fault injection (chaos mode, --faults=...).
//
// The injector sits between Network::send and delivery scheduling: for every
// wire-crossing message it decides — drop, duplicate, delay, or pass — from
// a counter-based hash of (seed, link, per-link message index). No global
// RNG state exists, so a given seed produces the identical fault sequence
// regardless of host thread count (exec::BatchRunner) or wall-clock timing,
// and two runs with the same seed are bit-identical. Loopback (self-send)
// messages never cross the wire and are never faulted.
//
// Fault injection is only meaningful under the reliable transport
// (sim::ReliableChannel): a dropped message with no retransmission layer is
// a guaranteed hang. tempest::Cluster enforces the pairing — enabling
// faults enables the channel.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/sim/time.h"
#include "src/util/stats.h"

namespace fgdsm::sim {

// Parsed form of --faults=drop=0.01,dup=0.001,delay=0.05,delay-ns=80000,
// reorder=0.02,seed=42,retries=10,rto-ns=200000. All rates are independent
// per-message probabilities in [0,1]; delay-ns bounds the extra latency a
// delayed/duplicated message picks up (0 = a default derived from the cost
// model's wire latency); retries/rto-ns configure the reliable channel
// layered on top.
struct FaultConfig {
  bool enabled = false;    // set by parse(); gates the whole subsystem
  double drop = 0.0;       // P(message never delivered)
  double dup = 0.0;        // P(message delivered twice)
  double delay = 0.0;      // P(message held back by up to delay_ns)
  double reorder = 0.0;    // P(message held back past its successors)
  Time delay_ns = 0;       // max injected extra latency (0 = model default)
  std::uint64_t seed = 1;  // chaos seed; same seed => same fault sequence
  int max_retries = 10;    // channel retry budget per message (0 = none)
  Time rto_ns = 0;         // channel base retransmission timeout (0 = default)

  // Fail-stop crashes. `crashes` holds explicit schedules
  // (crash=<node>@<ns>, repeatable: the node dies at that virtual time);
  // `crashp` is the per-(node, barrier-epoch) crash probability, drawn
  // counter-mode like every other fault so runs are bit-identical at any
  // --jobs/--sim-threads. Recovery requires checkpointing
  // (--checkpoint-every=K); without it a crash is a structured stall.
  std::vector<std::pair<int, Time>> crashes;  // (node, virtual ns)
  double crashp = 0.0;

  bool has_crashes() const { return !crashes.empty() || crashp > 0.0; }

  // Parse a comma-separated key=value spec. On error, returns a disabled
  // config and stores a human-readable message in *error (empty on success).
  // A bare/empty spec ("--faults") enables chaos plumbing with zero rates.
  // Unknown keys are rejected with a Levenshtein "did you mean" suggestion
  // (the util::Options strict-mode diagnostic), so a typo like crahsp=0.1
  // cannot silently disable the fault it meant to enable.
  static FaultConfig parse(const std::string& spec, std::string* error);

  std::string summary() const;  // "drop=0.01 dup=0 ... seed=42" (diagnostics)
};

class FaultInjector {
 public:
  // `default_window`: extra-latency bound used when cfg.delay_ns == 0
  // (tempest::Cluster passes a multiple of the wire latency).
  FaultInjector(const FaultConfig& cfg, int nnodes, Time default_window);

  // Per-node counter sinks (faults_dropped/duplicated/delayed land on the
  // message's source node). Optional; unset entries are simply not counted.
  void set_stats(std::vector<util::NodeStats*> stats) {
    stats_ = std::move(stats);
  }

  // The verdict for one wire crossing of a src->dst message. Each call
  // consumes one per-link index, so retransmissions re-roll the dice —
  // a retransmitted copy can itself be dropped.
  struct Decision {
    bool drop = false;
    bool duplicate = false;
    Time extra_delay = 0;  // added to the primary copy's arrival
    Time dup_delay = 0;    // added on top for the duplicate copy
  };
  Decision decide(int src, int dst);

  // Probabilistic fail-stop draw: does `node` crash at its `epoch`-th
  // barrier? Pure counter-mode hash of (seed, node, epoch) on a chain
  // disjoint from the per-link message draws, so crash verdicts are
  // independent of traffic and bit-identical at any --jobs/--sim-threads.
  // Stateless and const: the same (node, epoch) always answers the same.
  bool crash_at_barrier(int node, std::uint64_t epoch) const;

  const FaultConfig& config() const { return cfg_; }
  Time window() const { return window_; }

 private:
  std::uint64_t hash(int src, int dst, std::uint64_t n, std::uint64_t salt)
      const;

  FaultConfig cfg_;
  int nnodes_;
  Time window_;
  // Per-link message index: one hash map per source node, keyed by
  // destination, whose counters materialize (at 0) on a link's first wire
  // crossing, so an idle link costs nothing (a 1024-node cluster would
  // otherwise hold ~1M counters up front). decide() always runs in the
  // source node's event partition, so under --sim-threads each map is only
  // ever touched by one worker.
  std::vector<std::unordered_map<int, std::uint64_t>> link_sparse_;
  std::vector<util::NodeStats*> stats_;
};

}  // namespace fgdsm::sim
