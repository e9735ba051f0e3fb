// Message-passing backend — the baseline the paper compares against: PGI's
// pghpf message-passing runtime ported to Tempest messages (§5, Fig. 3).
//
// No access control, no directory, no coherence: owners simply ship section
// bytes to consumers before each loop, and a byte-counting semaphore gates
// the consumer. Every node keeps the full-segment backing (the port uses the
// same global addresses), so a received section lands at its natural
// address.
//
// Epochs. The backend runs without barriers, so a fast sender can race one
// or more communication phases ahead of a slow receiver. Messages are tagged
// with the sender's communication-epoch counter (advanced at the same
// program points on every node); the receiver stashes future-epoch payloads
// and applies them when it advances — otherwise early data could clobber a
// section the receiver is still reading.
//
// The per-message software overhead (CostModel::mp_msg_overhead) models the
// marshalling/progress-engine cost of the ported runtime. The paper found
// this backend slower than dual-cpu shared memory on most of the suite
// (strikingly so on cg) and attributed it to unidentified overheads in the
// messaging runtime; this knob reproduces that behaviour and is the honest
// place to tune the MP baseline.
#pragma once

#include <cstdint>
#include <vector>

#include "src/tempest/cluster.h"
#include "src/tempest/node.h"

namespace fgdsm::mp {

using tempest::GAddr;
using tempest::Node;

class MpRuntime {
 public:
  // Registers the kMpData handler. Must outlive the run.
  explicit MpRuntime(tempest::Cluster& cluster);

  // Enter the next communication epoch (call at the same program point on
  // every node); applies any stashed early arrivals for the new epoch.
  void advance_epoch(Node& node, sim::Task& task);

  // Ship [addr, addr+len) of this node's memory to dst, split into messages
  // of at most max_payload bytes, tagged with the current epoch.
  void send(Node& node, sim::Task& task, GAddr addr, std::size_t len,
            int dst, std::size_t max_payload);

  // Block until `bytes` of current-epoch MP data have arrived.
  void recv(Node& node, sim::Task& task, std::int64_t bytes);

  std::int64_t epoch(int node) const { return st_[node].epoch; }

 private:
  struct NodeState {
    std::int64_t epoch = 0;
    // Early arrivals for later epochs (arg[1]), in arrival order.
    std::vector<sim::Message> stash;
  };
  void apply(Node& node, const sim::Message& m);

  tempest::Cluster& cluster_;
  std::vector<NodeState> st_;
};

}  // namespace fgdsm::mp
