#include "src/mp/runtime.h"

#include <cstring>

#include "src/util/assert.h"

namespace fgdsm::mp {

MpRuntime::MpRuntime(tempest::Cluster& cluster)
    : cluster_(cluster),
      st_(static_cast<std::size_t>(cluster.nnodes())) {
  cluster_.register_handler(
      tempest::MsgType::kMpData,
      [this](Node& self, sim::Message& m, tempest::HandlerClock& clk) {
        clk.charge(cluster_.costs().mp_msg_overhead +
                   cluster_.costs().copy_time(
                       static_cast<std::int64_t>(m.payload.size())));
        NodeState& st = st_[static_cast<std::size_t>(self.id())];
        const std::int64_t epoch = m.arg[1];
        if (epoch == st.epoch) {
          apply(self, m);
          self.recv_sem.post(clk.t,
                             static_cast<std::int64_t>(m.payload.size()));
        } else {
          FGDSM_ASSERT_MSG(epoch > st.epoch,
                           "stale MP message (epoch " << epoch << " < "
                                                      << st.epoch << ")");
          st.stash.push_back(std::move(m));
        }
      });
  // Crash recovery: epochs and stashed future-epoch payloads are host state
  // the cluster checkpoint cannot see. The whole table is the snapshot;
  // copying it shares the stashed payloads (capture and restore run at the
  // window barrier, where any handle may be copied).
  cluster_.register_host_state_hook(
      {[this]() -> std::shared_ptr<void> {
         return std::make_shared<std::vector<NodeState>>(st_);
       },
       [this](const std::shared_ptr<void>& b) {
         st_ = *std::static_pointer_cast<std::vector<NodeState>>(b);
       }});
}

void MpRuntime::apply(Node& node, const sim::Message& m) {
  std::memcpy(node.mem(m.addr), m.payload.data(), m.payload.size());
}

void MpRuntime::advance_epoch(Node& node, sim::Task& task) {
  NodeState& st = st_[static_cast<std::size_t>(node.id())];
  task.sync();  // settle handlers due now before flipping the epoch
  ++st.epoch;
  // Apply the new epoch's arrivals in order; later epochs' stay stashed.
  // The copy charge may yield, and handlers then append to the stash, so
  // elements are reached by index.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < st.stash.size(); ++i) {
    if (st.stash[i].arg[1] != st.epoch) {
      if (i != kept) st.stash[kept] = std::move(st.stash[i]);
      ++kept;
      continue;
    }
    const auto bytes = static_cast<std::int64_t>(st.stash[i].payload.size());
    task.charge(cluster_.costs().copy_time(bytes));
    sim::Message& m = st.stash[i];
    apply(node, m);
    node.recv_sem.post(task.now(), bytes);
    m.payload.reset();
  }
  st.stash.erase(st.stash.begin() + static_cast<std::ptrdiff_t>(kept),
                 st.stash.end());
}

void MpRuntime::send(Node& node, sim::Task& task, GAddr addr,
                     std::size_t len, int dst, std::size_t max_payload) {
  FGDSM_ASSERT(dst != node.id());
  FGDSM_ASSERT(max_payload > 0);
  const std::int64_t epoch =
      st_[static_cast<std::size_t>(node.id())].epoch;
  std::size_t off = 0;
  while (off < len) {
    const std::size_t chunk = std::min(max_payload, len - off);
    // Marshalling cost: the runtime copies the section into a message
    // buffer, converts descriptors and runs its progress engine once per
    // message (see CostModel::mp_per_byte_extra_ns).
    task.charge(cluster_.costs().mp_msg_overhead +
                cluster_.costs().copy_time(static_cast<std::int64_t>(chunk)) +
                static_cast<sim::Time>(
                    cluster_.costs().mp_per_byte_extra_ns * chunk));
    sim::Message m;
    m.dst = dst;
    m.type = static_cast<std::uint16_t>(tempest::MsgType::kMpData);
    m.addr = addr + off;
    m.arg[1] = epoch;
    m.payload = node.cluster().payload_pool().acquire(chunk);
    std::memcpy(m.payload.mutable_data(), node.mem(addr + off), chunk);
    node.send(task, std::move(m));
    off += chunk;
  }
}

void MpRuntime::recv(Node& node, sim::Task& task, std::int64_t bytes) {
  if (bytes > 0) node.recv_sem.wait(task, bytes);
}

}  // namespace fgdsm::mp
