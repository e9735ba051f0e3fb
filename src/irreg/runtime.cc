#include "src/irreg/runtime.h"

#include <utility>

#include "src/util/assert.h"

namespace fgdsm::irreg {

IrregRuntime::IrregRuntime(tempest::Cluster& cluster)
    : cluster_(cluster),
      st_(static_cast<std::size_t>(cluster.nnodes())) {
  for (NodeState& st : st_) {
    st.recv.resize(static_cast<std::size_t>(cluster.nnodes()));
    st.done.resize(static_cast<std::size_t>(cluster.nnodes()));
    st.sem.set_name("irreg_needs");
  }
  cluster_.register_handler(
      tempest::MsgType::kIrregNeeds,
      [this](tempest::Node& self, sim::Message& m,
             tempest::HandlerClock& clk) {
        clk.charge(cluster_.costs().copy_time(
            static_cast<std::int64_t>(m.payload.size())));
        NodeState& st = st_[static_cast<std::size_t>(self.id())];
        const std::int64_t seq = m.arg[1];
        if (seq == st.seq) {
          st.recv[static_cast<std::size_t>(m.src)] = std::move(m.payload);
          st.sem.post(clk.t);
        } else {
          FGDSM_ASSERT_MSG(seq > st.seq,
                           "stale needs message (seq " << seq << " < "
                                                       << st.seq << ")");
          st.stash[seq].push_back(std::move(m));
        }
      });
  // Crash recovery: the exchange sequence, buffered per-sender lists and
  // future-sequence stash are host state the cluster checkpoint cannot see.
  // Copying them shares the payloads (capture and restore run at the window
  // barrier). The semaphore is captured as a count and force-restored — a
  // rolled-back waiter resumes inside its wait loop and re-evaluates
  // against it. The last completed lists are not state: no one reads them
  // across a barrier.
  struct NodeSnap {
    std::int64_t seq;
    std::vector<sim::Payload> recv;
    std::map<std::int64_t, std::vector<sim::Message>> stash;
    std::int64_t sem;
  };
  cluster_.register_host_state_hook(
      {[this]() -> std::shared_ptr<void> {
         auto blob = std::make_shared<std::vector<NodeSnap>>();
         blob->reserve(st_.size());
         for (const NodeState& st : st_)
           blob->push_back({st.seq, st.recv, st.stash, st.sem.count()});
         return blob;
       },
       [this](const std::shared_ptr<void>& b) {
         const auto& snap =
             *std::static_pointer_cast<std::vector<NodeSnap>>(b);
         for (std::size_t i = 0; i < st_.size(); ++i) {
           st_[i].seq = snap[i].seq;
           st_[i].recv = snap[i].recv;
           st_[i].stash = snap[i].stash;
           st_[i].sem.restore_for_recovery(snap[i].sem);
         }
       }});
}

std::span<const sim::Payload> IrregRuntime::exchange(
    tempest::Node& node, sim::Task& task, const std::vector<Need>& mine) {
  const int np = cluster_.nnodes();
  const int me = node.id();
  NodeState& st = st_[static_cast<std::size_t>(me)];

  sim::Payload list =
      cluster_.payload_pool().acquire(mine.size() * NeedList::kRecordBytes);
  NeedList::encode(mine, list.mutable_data());
  for (int dst = 0; dst < np; ++dst) {
    if (dst == me) continue;
    // Marshalling the need list into the message buffer.
    task.charge(cluster_.costs().copy_time(
        static_cast<std::int64_t>(list.size())));
    sim::Message m;
    m.dst = dst;
    m.type = static_cast<std::uint16_t>(tempest::MsgType::kIrregNeeds);
    m.arg[1] = st.seq;
    m.payload = list;
    node.send(task, std::move(m));
  }
  if (np > 1) st.sem.wait(task, np - 1);
  st.recv[static_cast<std::size_t>(me)] = std::move(list);

  // This exchange is complete: its lists become the result, the previous
  // result's handles drop, and stashed arrivals for the next exchange
  // surface.
  std::swap(st.recv, st.done);
  for (sim::Payload& p : st.recv) p.reset();
  ++st.seq;
  auto it = st.stash.find(st.seq);
  if (it != st.stash.end()) {
    for (sim::Message& m : it->second) {
      task.charge(cluster_.costs().copy_time(
          static_cast<std::int64_t>(m.payload.size())));
      st.recv[static_cast<std::size_t>(m.src)] = std::move(m.payload);
      st.sem.post(task.now());
    }
    st.stash.erase(it);
  }
  return st.done;
}

}  // namespace fgdsm::irreg
