// Needs exchange of the inspector–executor runtime: an all-to-all broadcast
// of each node's Need list so every node can fold the identical global
// transfer set (inspector.h step 2).
//
// Each node encodes its list once, into one pooled buffer that its np−1
// messages share (sim::Payload); every message still charges its own copy
// time and wire bytes. Receivers keep the handles and decode nothing: the
// plan table reads the lists in place, once per key.
//
// Broadcast, not owner-targeted queries, on purpose: the executor's CCC
// contract counts expected sends/receives with semaphores, so every node
// must know the complete transfer set — including pairs it is not part of —
// to agree on any_comm/any_flush and barrier placement. A broadcast gives
// that in one round with no reply traffic.
//
// Like the MP backend, the exchange runs without barriers, so a fast node
// can start inspection round k+1 while a slow node still waits in round k.
// Messages carry the sender's inspection sequence number; future-sequence
// arrivals are stashed and applied when the receiver's exchange() catches up
// (the MpRuntime epoch-stash pattern). Per-link FIFO delivery (restored by
// the reliable channel under chaos) keeps sequences monotone per link.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "src/irreg/inspector.h"
#include "src/sim/sync.h"
#include "src/tempest/cluster.h"
#include "src/tempest/node.h"

namespace fgdsm::irreg {

class IrregRuntime {
 public:
  // Registers the kIrregNeeds handler. Must outlive the run.
  explicit IrregRuntime(tempest::Cluster& cluster);

  // Broadcast this node's need list and collect every other node's.
  // Collective: every node must call it the same number of times in the
  // same order (guaranteed because inspection points are derived from the
  // identical program on every node). Returns the np need lists indexed by
  // node id, each a NeedList payload (entry node.id() is `mine`); they stay
  // valid until this node's next exchange.
  std::span<const sim::Payload> exchange(tempest::Node& node,
                                         sim::Task& task,
                                         const std::vector<Need>& mine);

 private:
  struct NodeState {
    std::int64_t seq = 0;  // inspection sequence (next exchange to complete)
    std::vector<sim::Payload> recv;  // per sender, current sequence
    std::vector<sim::Payload> done;  // the last completed exchange's lists
    std::map<std::int64_t, std::vector<sim::Message>> stash;  // future seqs
    sim::Semaphore sem;  // one post per current-sequence arrival
  };

  tempest::Cluster& cluster_;
  std::vector<NodeState> st_;
};

}  // namespace fgdsm::irreg
