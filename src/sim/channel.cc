#include "src/sim/channel.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "src/util/assert.h"

namespace fgdsm::sim {

namespace {
// Initial retained-copy ring per link; doubles if the unacked window ever
// outgrows it (deep reordering or a long ack outage).
constexpr std::size_t kInitialRing = 16;
}  // namespace

ReliableChannel::ReliableChannel(Engine& engine, Network& net, int nnodes,
                                 ChannelConfig cfg)
    : engine_(engine),
      net_(net),
      nnodes_(nnodes),
      cfg_(cfg),
      tx_sparse_(static_cast<std::size_t>(nnodes)),
      rx_sparse_(static_cast<std::size_t>(nnodes)),
      deliver_(static_cast<std::size_t>(nnodes)) {
  FGDSM_ASSERT(nnodes >= 1);
  FGDSM_ASSERT_MSG(cfg_.rto_ns > 0, "channel rto must be positive");
  FGDSM_ASSERT(cfg_.max_retries >= 0);
}

ReliableChannel::TxLink& ReliableChannel::tx(int src, int dst) {
  auto [it, created] =
      tx_sparse_[static_cast<std::size_t>(src)].try_emplace(dst);
  if (created && initial_seq_ > 0) {
    it->second.next_seq = initial_seq_;
    it->second.acked = initial_seq_;
    it->second.win_base = initial_seq_ + 1;
  }
  return it->second;
}

ReliableChannel::RxLink& ReliableChannel::rx(int src, int dst) {
  auto [it, created] =
      rx_sparse_[static_cast<std::size_t>(dst)].try_emplace(src);
  if (created && initial_seq_ > 0) {
    it->second.cum = initial_seq_;
    it->second.last_ack_sent = initial_seq_;
  }
  return it->second;
}

ReliableChannel::TxLink* ReliableChannel::tx_find(int src, int dst) {
  auto& m = tx_sparse_[static_cast<std::size_t>(src)];
  auto it = m.find(dst);
  return it == m.end() ? nullptr : &it->second;
}

ReliableChannel::RxLink* ReliableChannel::rx_find(int src, int dst) {
  auto& m = rx_sparse_[static_cast<std::size_t>(dst)];
  auto it = m.find(src);
  return it == m.end() ? nullptr : &it->second;
}

void ReliableChannel::attach(int node, Network::DeliverFn deliver) {
  FGDSM_ASSERT(node >= 0 && node < nnodes_);
  deliver_[node] = std::move(deliver);
  net_.attach(node, [this, node](Message&& m, Time arrival) {
    on_receive(node, std::move(m), arrival);
  });
}

void ReliableChannel::set_initial_seq(std::uint64_t seq) {
  // Links created later inherit initial_seq_ in tx()/rx().
  for (const auto& m : tx_sparse_)
    FGDSM_ASSERT_MSG(m.empty(), "set_initial_seq after traffic started");
  initial_seq_ = seq;
}

ReliableChannel::TxSlot* ReliableChannel::find_slot(TxLink& t,
                                                    std::uint64_t seq) {
  if (seq < t.win_base || seq > t.next_seq || t.ring.empty()) return nullptr;
  TxSlot& s = t.ring[seq & (t.ring.size() - 1)];
  if (!s.live) return nullptr;
  FGDSM_DCHECK(s.seq == seq);
  return &s;
}

void ReliableChannel::retain(TxLink& t, const Message& msg) {
  if (t.ring.empty()) t.ring.resize(kInitialRing);
  // Grow (and re-place live slots) if the window no longer fits: with a
  // power-of-two ring and consecutive seqs, each in-window seq maps to a
  // distinct slot iff window <= ring size.
  if (msg.ch_seq - t.win_base + 1 > t.ring.size()) {
    std::vector<TxSlot> bigger(t.ring.size() * 2);
    for (TxSlot& s : t.ring) {
      if (!s.live) continue;
      TxSlot& d = bigger[s.seq & (bigger.size() - 1)];
      FGDSM_DCHECK(!d.live);
      d = std::move(s);
    }
    t.ring = std::move(bigger);
  }
  TxSlot& s = t.ring[msg.ch_seq & (t.ring.size() - 1)];
  FGDSM_DCHECK(!s.live);
  s.msg = msg;  // shares the payload buffer
  s.seq = msg.ch_seq;
  s.live = true;
  ++t.live_count;
}

void ReliableChannel::release_slot(TxLink& t, TxSlot& s) {
  s.msg.payload.reset();
  s.live = false;
  --t.live_count;
}

Time ReliableChannel::send(Time earliest, Message msg) {
  if (msg.dst == msg.src) return net_.send(earliest, std::move(msg));

  TxLink& t = tx(msg.src, msg.dst);
  msg.ch_seq = ++t.next_seq;
  // Piggyback: "I've received through cum". A reverse link with no resident
  // state has received nothing beyond the initial seq — don't materialize
  // it just to read the default.
  if (RxLink* reverse = rx_find(msg.dst, msg.src)) {
    msg.ch_ack = reverse->cum;
    reverse->last_ack_sent = reverse->cum;
  } else {
    msg.ch_ack = initial_seq_;
  }
  retain(t, msg);  // retained for retransmission
  arm_retransmit(msg.src, msg.dst, msg.ch_seq, /*attempt=*/0);
  return net_.send(earliest, std::move(msg));
}

void ReliableChannel::arm_retransmit(int src, int dst, std::uint64_t seq,
                                     int attempt) {
  const Time base = engine_.now();
  // Exponential with a cap: uncapped doubling made late probes of a dead
  // link minutes of virtual time apart, pushing detection past the watchdog.
  const Time backoff =
      cfg_.rto_ns << (attempt < kBackoffCapShift ? attempt : kBackoffCapShift);
  engine_.schedule(base + backoff, [this, src, dst, seq, attempt] {
    if (down_ && down_(src)) return;  // a dead node does not retransmit
    TxLink* tp = tx_find(src, dst);
    if (tp == nullptr) return;  // link never materialized — nothing retained
    TxLink& t = *tp;
    TxSlot* slot = find_slot(t, seq);
    if (slot == nullptr) return;  // acked meanwhile — timer is moot
    if (!engine_.any_task_unfinished()) {
      // The program completed; only the final ack is missing. Not a stall —
      // stop retrying so the event queue can drain.
      release_slot(t, *slot);
      return;
    }
    if (attempt >= cfg_.max_retries)
      fail_retries(src, dst, seq, slot->msg, attempt);
    Message copy = slot->msg;
    if (RxLink* reverse = rx_find(dst, src)) {
      copy.ch_ack = reverse->cum;  // refresh the piggyback
      reverse->last_ack_sent = reverse->cum;
    } else {
      copy.ch_ack = initial_seq_;
    }
    if (util::NodeStats* st = stats_for(src)) ++st->retransmits;
    net_.send(engine_.now(), std::move(copy));
    arm_retransmit(src, dst, seq, attempt + 1);
  });
}

void ReliableChannel::fail_retries(int src, int dst, std::uint64_t seq,
                                   const Message& m, int attempts) {
  const TxLink* tp = tx_find(src, dst);
  std::ostringstream os;
  os << "reliable channel: retry budget exhausted on link " << src << "->"
     << dst << " (" << type_name(m.type) << " seq " << seq << " after "
     << attempts << " retransmissions, budget " << cfg_.max_retries << ", "
     << (tp != nullptr ? tp->live_count : 0)
     << " unacked on link); link is effectively dead — peer node " << dst
     << " is unresponsive";
  engine_.fail_stall(os.str());
}

void ReliableChannel::process_ack(int tx_src, int tx_dst, std::uint64_t ack) {
  TxLink* tp = tx_find(tx_src, tx_dst);
  if (tp == nullptr) return;  // never sent on this link — nothing retained
  TxLink& t = *tp;
  if (ack <= t.acked) return;
  t.acked = ack;
  // Cumulative: every retained seq through `ack` is now delivered.
  for (std::uint64_t s = t.win_base; s <= ack; ++s) {
    if (TxSlot* slot = find_slot(t, s)) release_slot(t, *slot);
  }
  t.win_base = std::max(t.win_base, ack + 1);
}

void ReliableChannel::on_receive(int node, Message&& m, Time arrival) {
  // A fail-stopped node receives nothing: no delivery, no ack processing,
  // no duplicate bookkeeping. Its silence is what peers eventually detect
  // as retry-budget exhaustion.
  if (down_ && down_(node)) return;
  // A cumulative ack rides on every wire message: it acknowledges the
  // traffic `node` sent to m.src.
  if (m.src != node && m.ch_ack > 0) process_ack(node, m.src, m.ch_ack);

  if (m.type == cfg_.ack_type && m.ch_seq == 0 && m.src != node) {
    return;  // pure ack: transport-level only, never surfaces to the app
  }
  if (m.ch_seq == 0) {
    // Unsequenced (loopback) traffic bypasses ordering entirely.
    deliver_[node](std::move(m), arrival);
    return;
  }

  RxLink& rx = this->rx(m.src, node);
  const int src = m.src;
  if (m.ch_seq <= rx.cum) {
    // Already delivered: a retransmitted or fault-duplicated copy. The
    // sender evidently missed our ack, so force another out (rewinding
    // last_ack_sent makes the ack timer consider cum unannounced).
    if (util::NodeStats* st = stats_for(node)) ++st->dup_suppressed;
    if (rx.last_ack_sent >= rx.cum && rx.cum > 0)
      rx.last_ack_sent = rx.cum - 1;
    schedule_pure_ack(node, src);
    return;
  }
  if (m.ch_seq == rx.cum + 1) {
    rx.cum = m.ch_seq;
    deliver_[node](std::move(m), arrival);
    // Drain any buffered successors that are now in order. Their own wire
    // arrival was earlier; they become *processable* only now.
    std::size_t drained = 0;
    while (drained < rx.ooo.size() &&
           rx.ooo[drained].ch_seq == rx.cum + 1) {
      rx.cum = rx.ooo[drained].ch_seq;
      deliver_[node](std::move(rx.ooo[drained]), arrival);
      ++drained;
    }
    if (drained > 0)
      rx.ooo.erase(rx.ooo.begin(),
                   rx.ooo.begin() + static_cast<std::ptrdiff_t>(drained));
  } else {
    // Gap: hold until the predecessors arrive (or are retransmitted). The
    // buffer is sorted by ch_seq; insert in place, dropping duplicates.
    auto it = std::lower_bound(
        rx.ooo.begin(), rx.ooo.end(), m.ch_seq,
        [](const Message& a, std::uint64_t s) { return a.ch_seq < s; });
    if (it != rx.ooo.end() && it->ch_seq == m.ch_seq) {
      if (util::NodeStats* st = stats_for(node)) ++st->dup_suppressed;
    } else {
      rx.ooo.insert(it, std::move(m));
    }
  }
  schedule_pure_ack(node, src);
}

void ReliableChannel::schedule_pure_ack(int from, int to) {
  RxLink& rx = this->rx(to, from);
  if (rx.ack_timer_armed) return;
  rx.ack_timer_armed = true;
  engine_.schedule(engine_.now() + cfg_.ack_delay_ns, [this, from, to] {
    RxLink& rx = this->rx(to, from);
    rx.ack_timer_armed = false;
    if (down_ && down_(from)) return;  // a dead node does not ack
    if (rx.last_ack_sent >= rx.cum && rx.ooo.empty())
      return;  // reverse traffic piggybacked it already and nothing is stuck
    Message ack;
    ack.src = from;
    ack.dst = to;
    ack.type = cfg_.ack_type;
    ack.ch_seq = 0;  // acks are unsequenced: cumulative => idempotent
    ack.ch_ack = rx.cum;
    rx.last_ack_sent = rx.cum;
    if (util::NodeStats* st = stats_for(from)) ++st->channel_acks;
    net_.send(engine_.now(), std::move(ack));
  });
}

void ReliableChannel::reset_for_recovery() {
  // Common restart base: past every sequence number ever assigned in either
  // direction, so any copy still in flight from the abandoned timeline
  // compares <= the base and is suppressed as a duplicate.
  std::uint64_t base = initial_seq_;
  for (const auto& m : tx_sparse_)
    for (const auto& [d, t] : m) base = std::max(base, t.next_seq);
  for (const auto& m : rx_sparse_)
    for (const auto& [s, r] : m) base = std::max(base, r.cum);

  const auto reset_tx = [base](TxLink& t) {
    t.next_seq = base;
    t.acked = base;
    t.win_base = base + 1;
    t.live_count = 0;
    t.ring.clear();
  };
  const auto reset_rx = [base](RxLink& r) {
    r.cum = base;
    r.last_ack_sent = base;
    r.ack_timer_armed = false;
    r.ooo.clear();
  };
  for (auto& m : tx_sparse_)
    for (auto& [d, t] : m) reset_tx(t);
  for (auto& m : rx_sparse_)
    for (auto& [s, r] : m) reset_rx(r);
  // Links materializing after recovery inherit the same base (tx()/rx()).
  initial_seq_ = base;
}

std::size_t ReliableChannel::resident_links() const {
  return active_links().size();
}

std::vector<std::pair<int, int>> ReliableChannel::active_links() const {
  std::vector<std::pair<int, int>> pairs;
  for (int s = 0; s < nnodes_; ++s)
    for (const auto& [d, t] : tx_sparse_[static_cast<std::size_t>(s)])
      pairs.emplace_back(s, d);
  for (int d = 0; d < nnodes_; ++d)
    for (const auto& [s, r] : rx_sparse_[static_cast<std::size_t>(d)])
      pairs.emplace_back(s, d);
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  return pairs;
}

std::string ReliableChannel::describe_state() const {
  std::ostringstream os;
  for (const auto& [s, d] : active_links()) {
    {
      auto tx_at = [&](int a, int b) -> const TxLink* {
        const auto& m = tx_sparse_[static_cast<std::size_t>(a)];
        auto it = m.find(b);
        return it == m.end() ? nullptr : &it->second;
      };
      auto rx_at = [&](int a, int b) -> const RxLink* {
        const auto& m = rx_sparse_[static_cast<std::size_t>(b)];
        auto it = m.find(a);
        return it == m.end() ? nullptr : &it->second;
      };
      static const TxLink kNoTx;
      static const RxLink kNoRx;
      const TxLink* tp = tx_at(s, d);
      const RxLink* rp = rx_at(s, d);
      const TxLink& t = tp != nullptr ? *tp : kNoTx;
      const RxLink& r = rp != nullptr ? *rp : kNoRx;
      if (t.live_count == 0 && r.ooo.empty()) continue;
      os << "  link " << s << "->" << d << ":";
      if (t.live_count > 0) {
        const TxSlot* oldest = nullptr;
        for (std::uint64_t q = t.win_base; q <= t.next_seq && !oldest; ++q) {
          const TxSlot& cand = t.ring[q & (t.ring.size() - 1)];
          if (cand.live && cand.seq == q) oldest = &cand;
        }
        os << " " << t.live_count << " unacked";
        if (oldest != nullptr)
          os << " (oldest seq " << oldest->seq << " "
             << type_name(oldest->msg.type) << ", acked through " << t.acked
             << ")";
      }
      if (!r.ooo.empty())
        os << " " << r.ooo.size() << " buffered out-of-order at receiver"
           << " (delivered through " << r.cum << ")";
      os << "\n";
    }
  }
  std::string out = os.str();
  if (out.empty()) return out;
  return "channel state:\n" + out;
}

}  // namespace fgdsm::sim
