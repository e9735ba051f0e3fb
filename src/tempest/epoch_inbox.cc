#include "src/tempest/epoch_inbox.h"

#include <utility>

#include "src/util/assert.h"

namespace fgdsm::tempest {

EpochInbox::EpochInbox(Cluster& cluster, const char* name, std::size_t slots,
                       Deliver deliver)
    : cluster_(cluster),
      name_(name),
      slots_(slots),
      deliver_(std::move(deliver)),
      nodes_(static_cast<std::size_t>(cluster.nnodes())),
      kept_(static_cast<std::size_t>(cluster.nnodes()) * slots),
      epoch_snap_(nodes_.size()) {
  for (NodeInbox& in : nodes_) in.sem.set_name(name);
  // Crash recovery: the epoch is host state the cluster checkpoint cannot
  // see. A checkpoint's barrier leaves the rest empty: every message of the
  // current epoch has been consumed, and no node is in a later epoch to
  // send one. Capture checks that, and restore empties it.
  cluster_.register_host_state_hook(
      {[this](int node) {
         const NodeInbox& in = at(node);
         std::size_t kept_held = 0;
         for (const sim::Payload& p : kept(node))
           kept_held += p.data() != nullptr ? 1 : 0;
         FGDSM_ASSERT_MSG(in.stash.empty() && kept_held == 0 &&
                              in.sem.count() == 0,
                          "checkpoint at an undrained "
                              << name_ << " inbox (node " << node
                              << "): " << in.stash.size()
                              << " stashed messages, " << kept_held
                              << " kept payloads, semaphore count "
                              << in.sem.count());
         epoch_snap_[static_cast<std::size_t>(node)] = in.epoch;
       },
       [this](int node) {
         NodeInbox& in = at(node);
         in.epoch = epoch_snap_[static_cast<std::size_t>(node)];
         in.stash.clear();
         for (sim::Payload& p : kept(node)) p.reset();
         in.sem.restore_for_recovery(0);
       }});
}

void EpochInbox::accept(Node& node, sim::Message& m, sim::Time t) {
  NodeInbox& in = at(node.id());
  const std::int64_t epoch = m.arg[1];
  if (epoch == in.epoch) {
    const std::int64_t units = deliver_(node, m, kept(node.id()));
    in.sem.post(t, units);
    return;
  }
  FGDSM_ASSERT_MSG(epoch > in.epoch, "stale " << name_ << " message (epoch "
                                              << epoch << " < " << in.epoch
                                              << ")");
  in.stash.push_back(std::move(m));
}

void EpochInbox::advance(Node& node, sim::Task& task) {
  NodeInbox& in = at(node.id());
  ++in.epoch;
  // Replay the new epoch's messages in order; later epochs' stay stashed.
  // The copy charge may yield, and handlers then append to the stash, so
  // elements are reached by index.
  std::size_t later = 0;
  for (std::size_t i = 0; i < in.stash.size(); ++i) {
    if (in.stash[i].arg[1] != in.epoch) {
      if (i != later) in.stash[later] = std::move(in.stash[i]);
      ++later;
      continue;
    }
    task.charge(cluster_.costs().copy_time(
        static_cast<std::int64_t>(in.stash[i].payload.size())));
    sim::Message& m = in.stash[i];
    const std::int64_t units = deliver_(node, m, kept(node.id()));
    in.sem.post(task.now(), units);
    m.payload.reset();
  }
  in.stash.erase(in.stash.begin() + static_cast<std::ptrdiff_t>(later),
                 in.stash.end());
}

}  // namespace fgdsm::tempest
