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
      kept_(static_cast<std::size_t>(cluster.nnodes()) * slots) {
  for (NodeInbox& in : nodes_) in.sem.set_name(name);
  // Crash recovery: all of the above is host state the cluster checkpoint
  // cannot see. Copying the stashes and kept handles shares their payloads
  // (capture and restore run at the window barrier). A rolled-back waiter
  // resumes inside its wait loop and re-evaluates against the restored
  // count.
  cluster_.register_host_state_hook(
      {[this] {
         snap_.resize(nodes_.size());
         for (std::size_t i = 0; i < nodes_.size(); ++i) {
           snap_[i].epoch = nodes_[i].epoch;
           snap_[i].stash = nodes_[i].stash;
           snap_[i].sem = nodes_[i].sem.count();
         }
         kept_snap_ = kept_;
       },
       [this] {
         for (std::size_t i = 0; i < nodes_.size(); ++i) {
           nodes_[i].epoch = snap_[i].epoch;
           nodes_[i].stash = snap_[i].stash;
           nodes_[i].sem.restore_for_recovery(snap_[i].sem);
         }
         kept_ = kept_snap_;
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
