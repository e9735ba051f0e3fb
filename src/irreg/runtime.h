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
// Messages carry the sender's inspection round as their epoch, and a
// tempest::EpochInbox holds a later round's lists until the receiver's
// exchange() catches up.
#pragma once

#include <span>
#include <vector>

#include "src/irreg/inspector.h"
#include "src/tempest/cluster.h"
#include "src/tempest/epoch_inbox.h"
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
  tempest::Cluster& cluster_;
  // Keeps one list per sender for the current round.
  tempest::EpochInbox inbox_;
  // The last completed round's lists, np per node, node-major. Not
  // checkpointed: no one reads them across a barrier.
  std::vector<sim::Payload> done_;
};

}  // namespace fgdsm::irreg
