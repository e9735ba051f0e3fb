#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/tempest/cluster.h"
#include "src/tempest/epoch_inbox.h"
#include "src/tempest/node.h"
#include "src/tempest/protocol.h"
#include "src/tempest/types.h"
#include "src/util/assert.h"

namespace fgdsm::tempest {
namespace {

ClusterConfig small_config(int nnodes = 4) {
  ClusterConfig cfg;
  cfg.nnodes = nnodes;
  cfg.block_size = 64;
  cfg.page_size = 256;
  return cfg;
}

TEST(ClusterGeometry, BlockAndHomeMath) {
  Cluster c(small_config(4));
  EXPECT_EQ(c.block_of(0), 0u);
  EXPECT_EQ(c.block_of(63), 0u);
  EXPECT_EQ(c.block_of(64), 1u);
  EXPECT_EQ(c.block_addr(3), 192u);
  // Pages of 256 bytes round-robin over 4 nodes.
  EXPECT_EQ(c.home_of(c.block_of(0)), 0);
  EXPECT_EQ(c.home_of(c.block_of(255)), 0);
  EXPECT_EQ(c.home_of(c.block_of(256)), 1);
  EXPECT_EQ(c.home_of(c.block_of(1024)), 0);  // wraps around
}

TEST(ClusterGeometry, AllocationIsPageAligned) {
  Cluster c(small_config());
  const GAddr a = c.allocate("a", 100);
  const GAddr b = c.allocate("b", 1);
  EXPECT_EQ(a % 256, 0u);
  EXPECT_EQ(b % 256, 0u);
  EXPECT_GT(b, a);
  EXPECT_GE(c.segment_bytes(), b + 1);
}

TEST(ClusterConfigValidation, RejectsBadGeometry) {
  ClusterConfig cfg;
  cfg.block_size = 48;  // not a power of two
  EXPECT_THROW(Cluster c(cfg), AssertionError);
  ClusterConfig cfg2;
  cfg2.block_size = 128;
  cfg2.page_size = 200;  // not a multiple
  EXPECT_THROW(Cluster c2(cfg2), AssertionError);
}

TEST(ClusterRun, InitialAccessTags) {
  Cluster c(small_config(2));
  c.allocate("arr", 1024);
  c.run([&](Node& n, sim::Task&) {
    for (BlockId b = 0; b < c.num_blocks(); ++b) {
      if (c.home_of(b) == n.id())
        EXPECT_EQ(n.access(b), Access::kReadWrite);
      else
        EXPECT_EQ(n.access(b), Access::kInvalid);
    }
  });
}

TEST(ClusterRun, NodesHaveIndependentMemory) {
  Cluster c(small_config(2));
  const GAddr a = c.allocate("x", 64);
  c.run([&](Node& n, sim::Task&) {
    *n.ptr<int>(a) = 100 + n.id();
  });
  EXPECT_EQ(*c.node(0).ptr<int>(a), 100);
  EXPECT_EQ(*c.node(1).ptr<int>(a), 101);
}

TEST(Barrier, SynchronizesAllNodes) {
  Cluster c(small_config(4));
  c.allocate("pad", 64);
  std::vector<sim::Time> before(4), after(4);
  c.run([&](Node& n, sim::Task& t) {
    // Stagger arrival; everyone leaves at (or after) the last arrival.
    t.charge(1000 * (n.id() + 1));
    before[n.id()] = t.now();
    n.barrier(t);
    after[n.id()] = t.now();
  });
  const sim::Time last_arrival =
      *std::max_element(before.begin(), before.end());
  for (int i = 0; i < 4; ++i) {
    EXPECT_GE(after[i], last_arrival);
    EXPECT_EQ(c.node(i).stats.barriers, 1u);
    EXPECT_GT(c.node(i).stats.sync_ns, 0);
  }
}

TEST(Barrier, ManyBarriersStayPaired) {
  Cluster c(small_config(3));
  c.allocate("pad", 64);
  std::vector<int> rounds(3, 0);
  c.run([&](Node& n, sim::Task& t) {
    for (int r = 0; r < 10; ++r) {
      t.charge(100 * (n.id() + 1) * (r + 1));
      n.barrier(t);
      ++rounds[n.id()];
    }
  });
  EXPECT_EQ(rounds, (std::vector<int>{10, 10, 10}));
}

TEST(Barrier, SingleNodeIsLocal) {
  Cluster c(small_config(1));
  c.allocate("pad", 64);
  auto rs = c.run([&](Node& n, sim::Task& t) { n.barrier(t); });
  EXPECT_EQ(rs.node[0].messages_sent, 0u);
}

TEST(Reduce, SumAcrossNodes) {
  Cluster c(small_config(4));
  c.allocate("pad", 64);
  std::vector<double> results(4);
  c.run([&](Node& n, sim::Task& t) {
    results[n.id()] = n.allreduce(t, static_cast<double>(n.id() + 1));
  });
  for (int i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(results[i], 10.0);
}

TEST(Reduce, MaxAndMin) {
  Cluster c(small_config(4));
  c.allocate("pad", 64);
  std::vector<double> mx(4), mn(4);
  c.run([&](Node& n, sim::Task& t) {
    const double v = static_cast<double>((n.id() * 7) % 5);
    mx[n.id()] = n.allreduce(t, v, Node::ReduceOp::kMax);
    mn[n.id()] = n.allreduce(t, v, Node::ReduceOp::kMin);
  });
  // values: 0, 2, 4, 1
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(mx[i], 4.0);
    EXPECT_DOUBLE_EQ(mn[i], 0.0);
  }
}

TEST(Reduce, RepeatedReductionsAreConsistent) {
  Cluster c(small_config(3));
  c.allocate("pad", 64);
  std::vector<std::vector<double>> res(3);
  c.run([&](Node& n, sim::Task& t) {
    for (int r = 0; r < 5; ++r)
      res[n.id()].push_back(n.allreduce(t, static_cast<double>(r)));
  });
  for (int i = 0; i < 3; ++i)
    for (int r = 0; r < 5; ++r) EXPECT_DOUBLE_EQ(res[i][r], 3.0 * r);
}

TEST(Messaging, TaskSendChargesAndCounts) {
  Cluster c(small_config(2));
  c.allocate("pad", 64);
  // Install a trivial user of an unused slot: reuse kMpData.
  int received = 0;
  c.register_handler(MsgType::kMpData,
                     [&](Node&, sim::Message& m, HandlerClock&) {
                       received += static_cast<int>(m.arg[0]);
                     });
  auto rs = c.run([&](Node& n, sim::Task& t) {
    if (n.id() == 0) {
      sim::Message m;
      m.dst = 1;
      m.type = static_cast<std::uint16_t>(MsgType::kMpData);
      m.arg[0] = 5;
      const sim::Time before = t.now();
      n.send(t, std::move(m));
      EXPECT_EQ(t.now() - before, c.costs().msg_send_overhead);
    } else {
      t.charge(sim::kMs);  // stay alive long enough to receive
    }
  });
  EXPECT_EQ(received, 5);
  EXPECT_EQ(rs.node[0].messages_sent, 1u);
  EXPECT_GT(rs.node[0].bytes_sent, 0u);
}

TEST(Messaging, SingleCpuHandlerStealsComputeTime) {
  auto run_mode = [](bool dual) {
    ClusterConfig cfg = small_config(2);
    cfg.dual_cpu = dual;
    Cluster c(cfg);
    c.allocate("pad", 64);
    c.register_handler(MsgType::kMpData,
                       [](Node&, sim::Message&, HandlerClock& clk) {
                         clk.charge(50 * sim::kUs);  // heavy handler
                       });
    auto rs = c.run([&](Node& n, sim::Task& t) {
      if (n.id() == 0) {
        for (int i = 0; i < 10; ++i) {
          sim::Message m;
          m.dst = 1;
          m.type = static_cast<std::uint16_t>(MsgType::kMpData);
          n.send(t, std::move(m));
        }
      } else {
        t.charge(5 * sim::kMs);
      }
    });
    return rs.node[1].handler_steal_ns;
  };
  EXPECT_EQ(run_mode(true), 0);      // dedicated protocol processor
  EXPECT_GT(run_mode(false), 0);     // interleaved: handlers steal cpu
}

TEST(ClusterRun, ElapsedIsMaxNodeFinish) {
  Cluster c(small_config(2));
  c.allocate("pad", 64);
  auto rs = c.run([&](Node& n, sim::Task& t) {
    t.charge(n.id() == 0 ? 100 : 7777);
  });
  EXPECT_EQ(rs.elapsed_ns, 7777);
}

// ---- ensure_chunk's fault loop ----

// A protocol with no messages: every fault stalls kStall and grants the
// block locally, then runs `during`, which may revoke tags the way a
// concurrent remote access would while the fault was outstanding. Faults are
// logged per node as "r<block>" / "w<block>".
class ScriptedProtocol final : public Protocol {
 public:
  static constexpr sim::Time kStall = sim::kUs;
  std::map<int, std::vector<std::string>> log;
  std::function<void(Node&, char, BlockId)> during;

  void on_read_fault(Node& n, sim::Task& t, BlockId b) override {
    fault(n, t, 'r', b, Access::kReadOnly);
  }
  void on_write_fault(Node& n, sim::Task& t, BlockId b) override {
    fault(n, t, 'w', b, Access::kReadWrite);
  }
  void drain(Node&, sim::Task&) override {}

 private:
  void fault(Node& n, sim::Task& t, char kind, BlockId b, Access grant) {
    log[n.id()].push_back(kind + std::to_string(b));
    t.charge(kStall);
    n.set_access(b, grant);
    if (during) during(n, kind, b);
  }
};

TEST(EnsureChunk, FetchedReadIsNotRefetchedAfterLaterInvalidation) {
  Cluster c(small_config(4));
  const GAddr base = c.allocate("arr", 4096);
  const BlockId w = c.block_of(base + 64);   // page 0: home node 0
  const BlockId r = c.block_of(base + 320);  // page 1: home node 1
  ScriptedProtocol proto;
  int write_faults = 0;
  proto.during = [&](Node& n, char kind, BlockId b) {
    // While the read stalls, a competing writer recalls the write block;
    // the write block's re-fault then sees a remote write invalidate the
    // read block. Its fetched bytes still serve this chunk.
    if (kind == 'r' && b == r) n.set_access(w, Access::kInvalid);
    if (kind == 'w' && b == w && ++write_faults == 2)
      n.set_access(r, Access::kInvalid);
  };
  sim::Time elapsed = 0;
  auto rs = c.run([&](Node& n, sim::Task& t) {
    n.protocol = &proto;
    if (n.id() != 2) return;
    const sim::Time t0 = t.now();
    n.ensure_chunk(t, {{c.block_addr(r), 8}}, {{c.block_addr(w), 8}});
    elapsed = t.now() - t0;
    EXPECT_EQ(n.access(w), Access::kReadWrite);
    EXPECT_EQ(n.access(r), Access::kInvalid);
  });
  EXPECT_EQ(proto.log[2], (std::vector<std::string>{
                              "w" + std::to_string(w), "r" + std::to_string(r),
                              "w" + std::to_string(w)}));
  EXPECT_EQ(rs.node[2].read_misses, 1u);
  EXPECT_EQ(rs.node[2].write_misses, 2u);
  // One re-fault is not contention enough for a backoff.
  EXPECT_EQ(elapsed, 3 * ScriptedProtocol::kStall);
  EXPECT_EQ(rs.node[2].miss_ns, 3 * ScriptedProtocol::kStall);
}

TEST(EnsureChunk, FalseSharingReFaultsBackOffByNodeId) {
  Cluster c(small_config(4));
  const GAddr base = c.allocate("arr", 4096);
  const BlockId w = c.block_of(base + 3 * 256);  // page 3: home node 3
  ScriptedProtocol proto;
  std::map<int, int> faults;
  // A competing writer takes the block back during each of a node's first
  // four write faults; the fifth grant sticks.
  proto.during = [&](Node& n, char, BlockId b) {
    if (++faults[n.id()] <= 4) n.set_access(b, Access::kInvalid);
  };
  std::map<int, sim::Time> elapsed;
  auto rs = c.run([&](Node& n, sim::Task& t) {
    n.protocol = &proto;
    if (n.id() != 0 && n.id() != 2) return;
    const sim::Time t0 = t.now();
    n.ensure_chunk(t, {}, {{c.block_addr(w), 64}});
    elapsed[n.id()] = t.now() - t0;
  });
  // Re-faults 2, 3 and 4 count contention 2, 3 and 4; each later pass
  // first backs off (contention - 1) * id * wire_latency. Node 0 never
  // waits.
  const sim::Time stalls = 5 * ScriptedProtocol::kStall;
  const sim::Time wire = c.costs().wire_latency;
  EXPECT_EQ(elapsed[0], stalls);
  EXPECT_EQ(elapsed[2], stalls + (1 + 2 + 3) * 2 * wire);
  for (int id : {0, 2}) {
    EXPECT_EQ(proto.log[id].size(), 5u) << "node " << id;
    EXPECT_EQ(rs.node[static_cast<std::size_t>(id)].write_misses, 5u);
    EXPECT_EQ(rs.node[static_cast<std::size_t>(id)].miss_ns, elapsed[id]);
  }
}

TEST(ClusterRun, RunIsOneShot) {
  Cluster c(small_config(2));
  c.allocate("pad", 64);
  c.run([](Node&, sim::Task&) {});
  EXPECT_THROW(c.run([](Node&, sim::Task&) {}), AssertionError);
}

// ---- EpochInbox ----

// An inbox on kMpData whose consumer logs each delivery as (message id,
// the receiver's epoch at delivery) and posts 1.
struct InboxProbe {
  explicit InboxProbe(Cluster& c)
      : inbox(c, "probe", /*slots=*/0,
              [this](Node& n, sim::Message& m, std::span<sim::Payload>) {
                log.emplace_back(m.arg[0], inbox.epoch(n.id()));
                return std::int64_t{1};
              }) {
    c.register_handler(MsgType::kMpData,
                       [this](Node& n, sim::Message& m, HandlerClock& clk) {
                         inbox.accept(n, m, clk.t);
                       });
  }
  static void send(Node& n, sim::Task& t, std::int64_t id,
                   std::int64_t epoch) {
    sim::Message m;
    m.dst = 1 - n.id();
    m.type = static_cast<std::uint16_t>(MsgType::kMpData);
    m.arg[0] = id;
    m.arg[1] = epoch;
    n.send(t, std::move(m));
  }
  EpochInbox inbox;
  std::vector<std::pair<std::int64_t, std::int64_t>> log;
};

TEST(EpochInbox, LaterEpochsSurfaceInArrivalOrderAtTheirAdvance) {
  Cluster c(small_config(2));
  c.allocate("pad", 64);
  InboxProbe probe(c);
  c.run([&](Node& n, sim::Task& t) {
    if (n.id() == 0) {
      // Messages 1..5 for epochs 2, 1, 2, 0, 1, sent back to back.
      const std::int64_t epochs[] = {2, 1, 2, 0, 1};
      for (std::int64_t id = 1; id <= 5; ++id)
        InboxProbe::send(n, t, id, epochs[id - 1]);
      return;
    }
    t.charge(sim::kMs);  // every message has arrived
    probe.inbox.wait(n, t, 1);
    probe.inbox.advance(n, t);
    probe.inbox.wait(n, t, 2);
    probe.inbox.advance(n, t);
    probe.inbox.wait(n, t, 2);
  });
  const std::vector<std::pair<std::int64_t, std::int64_t>> want = {
      {4, 0}, {2, 1}, {5, 1}, {1, 2}, {3, 2}};
  EXPECT_EQ(probe.log, want);
}

TEST(EpochInbox, OlderEpochIsAnError) {
  Cluster c(small_config(2));
  c.allocate("pad", 64);
  InboxProbe probe(c);
  EXPECT_THROW(c.run([&](Node& n, sim::Task& t) {
                 if (n.id() == 1) {
                   probe.inbox.advance(n, t);
                   probe.inbox.advance(n, t);
                   t.charge(sim::kMs);
                   return;
                 }
                 t.charge(sim::kUs);  // the receiver is in epoch 2 by now
                 InboxProbe::send(n, t, 1, /*epoch=*/1);
               }),
               AssertionError);
}

}  // namespace
}  // namespace fgdsm::tempest
