// Point-to-point network with per-node transmit occupancy, wire latency and
// bandwidth. Messages are active messages in the Tempest sense: a type, a few
// word arguments, and an optional data payload (e.g. a cache block, or a
// bulk-transfer payload of several contiguous blocks).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/sim/cost_model.h"
#include "src/sim/engine.h"
#include "src/sim/payload.h"
#include "src/sim/resource.h"
#include "src/sim/time.h"

namespace fgdsm::sim {

struct Message {
  int src = -1;
  int dst = -1;
  std::uint16_t type = 0;
  // Recovery-epoch stamp (crash/rollback mode; sits in the padding after
  // `type`, so Message stays within the inline event buffer). The cluster
  // stamps every transmitted message with the current recovery epoch and
  // drops deliveries stamped with an older one — this is what kills stale
  // loopback messages, which bypass channel sequencing entirely. Always 0
  // in fault-free runs.
  std::uint32_t epoch = 0;
  std::uint64_t addr = 0;                 // usually a global byte address
  std::array<std::int64_t, 4> arg{};      // small scalar arguments
  Payload payload;                        // optional data, shared on copy
  std::uint64_t trace_id = 0;             // tracer flow id (0 = untraced)
  // Reliable-transport framing (sim::ReliableChannel; chaos mode only).
  // ch_seq is the per-link sequence number (0 = unsequenced: loopback and
  // pure acks); ch_ack piggybacks the sender's cumulative receive count for
  // the reverse direction of the link. 64-bit so long soaks can never wrap:
  // the old 32-bit fields compared with plain </> and misordered once a
  // link's traffic crossed 2^32 messages.
  std::uint64_t ch_seq = 0;
  std::uint64_t ch_ack = 0;

  std::int64_t size_bytes(int header) const {
    return header + static_cast<std::int64_t>(payload.size());
  }
};

class FaultInjector;

class Network {
 public:
  using DeliverFn = std::function<void(Message&&, Time arrival)>;

  Network(Engine& engine, const CostModel& costs, int nnodes);

  // Install the delivery sink for a node (the node's handler dispatcher).
  void attach(int node, DeliverFn deliver);

  // Chaos mode: route every wire crossing through `f` (drop/dup/delay
  // verdicts). Null (the default) is a perfect wire; the only cost of the
  // disabled path is this pointer test.
  void set_fault_injector(FaultInjector* f) { fault_ = f; }

  // Crash mode: stamp every message with *epoch at send time (see
  // Message::epoch). The pointer targets the cluster's recovery-epoch
  // counter; null (the default) leaves the stamp at 0.
  void set_epoch_stamp(const std::uint32_t* epoch) { epoch_stamp_ = epoch; }

  // Transmit msg; the sender's NI is occupied starting no earlier than
  // `earliest` (typically the sending cpu's clock after it has charged
  // msg_send_overhead) for the wire-serialization time. Returns serialization
  // end. Delivery is scheduled at serialization end + wire latency.
  // Self-sends (loopback) skip the wire. The cpu cost of composing the
  // message is the caller's to charge — on a compute task's clock or a
  // handler's clock — so that cpu and NI occupancy are modeled separately.
  Time send(Time earliest, Message msg);

  // Serialization-only cost (no send overhead), for cost queries.
  Time tx_time(std::int64_t payload_bytes) const;

  // Lower bound on the latency of any cross-node message: the wire latency
  // (injection/serialization only add). This is the engine's safe window
  // lookahead for conservative synchronous-window PDES — nothing one node
  // does can be observed by another sooner than this.
  Time min_link_latency() const;

  std::uint64_t total_messages() const {
    std::uint64_t n = 0;
    for (const TxCounters& c : counters_) n += c.messages;
    return n;
  }
  std::uint64_t total_bytes() const {
    std::uint64_t n = 0;
    for (const TxCounters& c : counters_) n += c.bytes;
    return n;
  }

 private:
  // Send-side accounting, sharded per source node so concurrently drained
  // partitions never write the same counter (send always runs in the source
  // node's partition). Padded off shared cache lines.
  struct alignas(64) TxCounters {
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
  };

  Engine& engine_;
  const CostModel& costs_;
  std::vector<Resource> tx_;  // one transmit resource per node
  std::vector<DeliverFn> deliver_;
  FaultInjector* fault_ = nullptr;
  const std::uint32_t* epoch_stamp_ = nullptr;
  std::vector<TxCounters> counters_;  // indexed by msg.src
};

}  // namespace fgdsm::sim
