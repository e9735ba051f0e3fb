// Reliable transport channel: turns the (possibly faulty) Network into an
// in-order, exactly-once message pipe per directed link.
//
// Mechanics, modeled on classic sliding-window transports:
//   - every wire-crossing message carries a per-link sequence number (ch_seq,
//     1-based; 0 marks unsequenced traffic: loopback and pure acks);
//   - every outgoing message piggybacks the sender's cumulative receive count
//     for the reverse link (ch_ack), so under steady protocol traffic acks
//     cost nothing; a delayed pure-ack message (cfg.ack_type) covers one-way
//     bursts;
//   - the sender keeps each unacked message and arms a retransmission timer
//     (base RTO, exponential backoff, bounded retry budget); exhaustion is a
//     provable liveness failure and escalates to Engine::fail_stall with the
//     offending link and message type;
//   - the receiver delivers in sequence order, buffers out-of-order arrivals,
//     and suppresses duplicates (retransmitted or fault-duplicated copies).
//
// Bookkeeping: the sender's retained copies live in a power-of-two ring
// indexed by sequence number (consecutive seqs make the sliding window a
// natural ring; the ring doubles on the rare occasion the window outgrows
// it). A retained copy and every retransmission share the sent message's
// payload buffer (sim::Payload) instead of copying it. The receiver's
// out-of-order buffer is a small sorted vector — no node-per-message
// containers on the retransmission path. Sequence numbers are 64-bit end
// to end, so they never wrap within any realistic soak (the earlier 32-bit
// fields, compared with plain </>, misordered after 2^32 messages on one
// link).
//
// Link-state residency: the per-link books live in per-node hash maps
// where a link's book is allocated on its first traffic, so resident state
// grows with *active* links rather than nodes^2 (a 1024-node cluster would
// otherwise hold ~1M tx+rx records before the first message). Lazily
// created links inherit initial_seq_, and every map is iterated in sorted
// (src, dst) order, preserving bit-identity.
//
// The channel exists only in chaos mode (tempest::Cluster creates it iff
// --faults is given); a fault-free configuration keeps the original direct
// Network::send path, so reliability costs nothing when unused. Determinism:
// all per-link state is keyed by (src,dst) and all timers go through the
// engine's (time, seq) order, so runs are bit-identical for a given seed.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/sim/engine.h"
#include "src/sim/network.h"
#include "src/sim/time.h"
#include "src/util/stats.h"

namespace fgdsm::sim {

struct ChannelConfig {
  Time rto_ns = 200'000;       // base retransmission timeout
  Time ack_delay_ns = 50'000;  // pure-ack deferral (hoping to piggyback)
  int max_retries = 10;        // attempts beyond the first send; 0 = none
  std::uint16_t ack_type = 0;  // message type reserved for pure acks
};

class ReliableChannel {
 public:
  ReliableChannel(Engine& engine, Network& net, int nnodes, ChannelConfig cfg);

  // Install the app-facing delivery sink for `node`. The channel installs
  // itself as the node's Network sink and forwards in-order traffic here.
  void attach(int node, Network::DeliverFn deliver);

  // Per-node counter sinks (retransmits/channel_acks land on the sending
  // node, dup_suppressed on the receiving node). Optional.
  void set_stats(std::vector<util::NodeStats*> stats) {
    stats_ = std::move(stats);
  }

  // Pretty-printer for diagnostics: message type id -> name.
  void set_type_namer(std::function<const char*(std::uint16_t)> fn) {
    type_name_ = std::move(fn);
  }

  // Crash mode: `down(node)` answers whether the node is currently
  // fail-stopped. A down node neither receives (inbound traffic at it is
  // dropped before ack processing — it stops acking, which is exactly the
  // detection signal), nor retransmits, nor sends pure acks. The probe is
  // only consulted at partition-safe sites: the receive path and timer
  // bodies all run in the probed node's own partition.
  void set_down_probe(std::function<bool(int)> down) {
    down_ = std::move(down);
  }

  // Rollback-restart: drop every retained copy, out-of-order buffer and
  // timer obligation, and restart all links (resident and future) at a
  // common sequence base past every seq ever assigned. In-flight copies
  // from the abandoned timeline then land strictly at-or-below the new base
  // and are suppressed as duplicates, while post-recovery traffic sequences
  // cleanly — the same inheritance path PR'd for set_initial_seq.
  void reset_for_recovery();

  // Exponential-backoff cap: RTO << min(attempt, kBackoffCapShift). Bounds
  // the inter-probe gap on a dead link (and so crash-detection latency) to
  // 2^6 * rto while keeping early backoff exponential.
  static constexpr int kBackoffCapShift = 6;

  // Sequence msg, stamp the piggyback ack, retain a retransmission copy and
  // arm its timer, then hand it to the network. Returns injection end (same
  // contract as Network::send). Loopback messages bypass the channel.
  Time send(Time earliest, Message msg);

  // One line per link with unacked traffic — appended to stall reports.
  std::string describe_state() const;

  // Test hook: make every link behave as if it had already carried `seq`
  // messages in each direction (all acked). Used by the wrap regression test
  // to start sequencing near former overflow points (e.g. UINT32_MAX - k).
  // Must be called before any traffic flows.
  void set_initial_seq(std::uint64_t seq);

  // Number of directed links with resident per-link state. Idle links
  // contribute nothing — the scaling tests assert this.
  std::size_t resident_links() const;

 private:
  struct TxSlot {
    Message msg;
    std::uint64_t seq = 0;
    bool live = false;  // retained and awaiting ack
  };
  struct TxLink {
    std::uint64_t next_seq = 0;  // last sequence number assigned
    std::uint64_t acked = 0;     // highest cumulatively acked seq
    std::uint64_t win_base = 1;  // smallest seq that may still be live
    std::size_t live_count = 0;
    std::vector<TxSlot> ring;  // power-of-two; slot for seq s = s & mask
  };
  struct RxLink {
    std::uint64_t cum = 0;            // delivered in order through cum
    std::uint64_t last_ack_sent = 0;  // newest cum the peer has seen
    bool ack_timer_armed = false;
    std::vector<Message> ooo;  // out-of-order arrivals, sorted by ch_seq
  };

  // Get-or-create accessors (created links inherit initial_seq_).
  // References stay valid across later creations — unordered_map never
  // invalidates references on rehash.
  TxLink& tx(int src, int dst);
  RxLink& rx(int src, int dst);
  // Lookup-only variants: null when the link has no resident state yet.
  TxLink* tx_find(int src, int dst);
  RxLink* rx_find(int src, int dst);
  // Sorted (src,dst) pairs with link state.
  std::vector<std::pair<int, int>> active_links() const;
  util::NodeStats* stats_for(int node) {
    return static_cast<std::size_t>(node) < stats_.size() ? stats_[node]
                                                          : nullptr;
  }
  const char* type_name(std::uint16_t t) const {
    return type_name_ ? type_name_(t) : "?";
  }

  // Slot lookup for a seq that may already have been acked/cleaned; null if
  // it is no longer retained.
  TxSlot* find_slot(TxLink& t, std::uint64_t seq);
  void retain(TxLink& t, const Message& msg);
  void release_slot(TxLink& t, TxSlot& s);

  void on_receive(int node, Message&& m, Time arrival);
  void process_ack(int src, int dst, std::uint64_t ack);
  void arm_retransmit(int src, int dst, std::uint64_t seq, int attempt);
  void schedule_pure_ack(int src, int dst);
  [[noreturn]] void fail_retries(int src, int dst, std::uint64_t seq,
                                 const Message& m, int attempts);

  Engine& engine_;
  Network& net_;
  int nnodes_;
  ChannelConfig cfg_;
  // Per-node maps populated on a link's first traffic: the sender side
  // indexed by src and keyed by dst, the receiver side indexed by dst and
  // keyed by src.
  std::vector<std::unordered_map<int, TxLink>> tx_sparse_;
  std::vector<std::unordered_map<int, RxLink>> rx_sparse_;
  std::uint64_t initial_seq_ = 0;            // inherited by lazy links
  std::vector<Network::DeliverFn> deliver_;  // app sinks, per node
  std::vector<util::NodeStats*> stats_;
  std::function<const char*(std::uint16_t)> type_name_;
  std::function<bool(int)> down_;  // null = no node is ever down
};

}  // namespace fgdsm::sim
