#include "src/irreg/runtime.h"

#include <algorithm>
#include <utility>

namespace fgdsm::irreg {

IrregRuntime::IrregRuntime(tempest::Cluster& cluster)
    : cluster_(cluster),
      inbox_(cluster, "irreg_needs",
             static_cast<std::size_t>(cluster.nnodes()),
             [](tempest::Node&, sim::Message& m,
                std::span<sim::Payload> kept) {
               kept[static_cast<std::size_t>(m.src)] = std::move(m.payload);
               return std::int64_t{1};
             }),
      done_(static_cast<std::size_t>(cluster.nnodes()) *
            static_cast<std::size_t>(cluster.nnodes())) {
  cluster_.register_handler(
      tempest::MsgType::kIrregNeeds,
      [this](tempest::Node& self, sim::Message& m,
             tempest::HandlerClock& clk) {
        clk.charge(cluster_.costs().copy_time(
            static_cast<std::int64_t>(m.payload.size())));
        inbox_.accept(self, m, clk.t);
      });
}

std::span<const sim::Payload> IrregRuntime::exchange(
    tempest::Node& node, sim::Task& task, const std::vector<Need>& mine) {
  const int np = cluster_.nnodes();
  const int me = node.id();

  sim::Payload list =
      cluster_.payload_pool().acquire(mine.size() * NeedList::kRecordBytes);
  NeedList::encode(mine, list.mutable_data());
  const std::int64_t round = inbox_.epoch(me);
  for (int dst = 0; dst < np; ++dst) {
    if (dst == me) continue;
    // Marshalling the need list into the message buffer.
    task.charge(cluster_.costs().copy_time(
        static_cast<std::int64_t>(list.size())));
    sim::Message m;
    m.dst = dst;
    m.type = static_cast<std::uint16_t>(tempest::MsgType::kIrregNeeds);
    m.arg[1] = round;
    m.payload = list;
    node.send(task, std::move(m));
  }
  if (np > 1) inbox_.wait(node, task, np - 1);
  const std::span<sim::Payload> recv = inbox_.kept(me);
  recv[static_cast<std::size_t>(me)] = std::move(list);

  // This round is complete: its lists become the result, the previous
  // result's handles drop in sender order, and early arrivals for the next
  // round surface.
  const std::span<sim::Payload> done(
      done_.data() + static_cast<std::size_t>(me) * recv.size(), recv.size());
  std::swap_ranges(recv.begin(), recv.end(), done.begin());
  for (sim::Payload& p : recv) p.reset();
  inbox_.advance(node, task);
  return done;
}

}  // namespace fgdsm::irreg
