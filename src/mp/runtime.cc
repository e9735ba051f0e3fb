#include "src/mp/runtime.h"

#include <cstring>

#include "src/util/assert.h"

namespace fgdsm::mp {

MpRuntime::MpRuntime(tempest::Cluster& cluster)
    : cluster_(cluster),
      // A current-epoch message lands at its natural address; the receiver
      // counts bytes.
      inbox_(cluster, "mp_data", /*slots=*/0,
             [](Node& node, sim::Message& m, std::span<sim::Payload>) {
               std::memcpy(node.mem(m.addr), m.payload.data(),
                           m.payload.size());
               return static_cast<std::int64_t>(m.payload.size());
             }) {
  cluster_.register_handler(
      tempest::MsgType::kMpData,
      [this](Node& self, sim::Message& m, tempest::HandlerClock& clk) {
        clk.charge(cluster_.costs().mp_msg_overhead +
                   cluster_.costs().copy_time(
                       static_cast<std::int64_t>(m.payload.size())));
        inbox_.accept(self, m, clk.t);
      });
}

void MpRuntime::advance_epoch(Node& node, sim::Task& task) {
  task.sync();  // settle handlers due now before flipping the epoch
  inbox_.advance(node, task);
}

void MpRuntime::send(Node& node, sim::Task& task, GAddr addr,
                     std::size_t len, int dst, std::size_t max_payload) {
  FGDSM_ASSERT(dst != node.id());
  FGDSM_ASSERT(max_payload > 0);
  const std::int64_t epoch = inbox_.epoch(node.id());
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
  if (bytes > 0) inbox_.wait(node, task, bytes);
}

}  // namespace fgdsm::mp
