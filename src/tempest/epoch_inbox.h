// The receive side of an epoch-tagged message stream: MP section data
// (src/mp) and the inspector's needs exchange (src/irreg). Both run without
// barriers, so a fast sender can race phases ahead of a slow receiver,
// whose early data must wait for the phase it belongs to. Every node
// advances its epoch at the same program points, and each message carries
// its sender's epoch in arg[1].
//
// Per node the inbox holds the current epoch, later epochs' messages in
// arrival order (the stash, one flat vector), the payload handles the
// consumer keeps for the current epoch (`slots` per node), and the
// semaphore the node's task waits on. A runtime's handler charges its own
// cost and calls accept(): a current-epoch message goes to the consumer's
// Deliver callback, which returns the units to post; a later one is
// stashed until advance() moves the epoch and replays it. Per-link FIFO
// delivery (restored by the reliable channel under chaos) keeps epochs
// monotone per link, so an older epoch's message is an error. A checkpoint
// (always at a barrier, which no epoch's traffic crosses) keeps only each
// node's epoch; the inbox's host-state hook asserts that the stash, the
// kept slots and the semaphore are empty there, and restore empties them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/tempest/cluster.h"
#include "src/tempest/node.h"

namespace fgdsm::tempest {

class EpochInbox {
 public:
  // Takes one current-epoch message at `node`; may move its payload into
  // `kept`, the node's slots. Returns the units to post.
  using Deliver = std::function<std::int64_t(
      Node& node, sim::Message& m, std::span<sim::Payload> kept)>;

  // Registers the inbox's host-state hook. `name` labels the semaphore in
  // stall dumps and error messages (a string that outlives the inbox).
  EpochInbox(Cluster& cluster, const char* name, std::size_t slots,
             Deliver deliver);
  EpochInbox(const EpochInbox&) = delete;
  EpochInbox& operator=(const EpochInbox&) = delete;

  // Handler context: take a message whose handler has charged its cost;
  // `t` is the handler's clock.
  void accept(Node& node, sim::Message& m, sim::Time t);

  // The epoch `node` is in; senders tag their messages with it.
  std::int64_t epoch(int node) const {
    return nodes_[static_cast<std::size_t>(node)].epoch;
  }

  // Task context: enter the next epoch and replay its stashed messages.
  // The only place an epoch moves.
  void advance(Node& node, sim::Task& task);

  // Task context: block until `n` units of current-epoch data are posted.
  void wait(Node& node, sim::Task& task, std::int64_t n) {
    at(node.id()).sem.wait(task, n);
  }

  // The payload handles the consumer keeps for `node`'s current epoch.
  std::span<sim::Payload> kept(int node) {
    return {kept_.data() + static_cast<std::size_t>(node) * slots_, slots_};
  }

 private:
  struct NodeInbox {
    std::int64_t epoch = 0;
    std::vector<sim::Message> stash;  // later epochs, arrival order
    sim::Semaphore sem;
  };
  NodeInbox& at(int node) { return nodes_[static_cast<std::size_t>(node)]; }

  Cluster& cluster_;
  const char* name_;
  std::size_t slots_;
  Deliver deliver_;
  std::vector<NodeInbox> nodes_;
  std::vector<sim::Payload> kept_;  // slots_ per node, node-major
  std::vector<std::int64_t> epoch_snap_;  // each node's at the checkpoint
};

}  // namespace fgdsm::tempest
