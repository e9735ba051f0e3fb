#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <sstream>
#include <random>
#include <vector>

#include "src/proto/stache.h"
#include "src/tempest/cluster.h"
#include "src/util/assert.h"

namespace fgdsm::proto {
namespace {

using tempest::Access;
using tempest::Cluster;
using tempest::ClusterConfig;
using tempest::GAddr;
using tempest::MsgType;
using tempest::Node;

ClusterConfig cfg(int nnodes, std::size_t block = 64,
                  std::size_t page = 256) {
  ClusterConfig c;
  c.nnodes = nnodes;
  c.block_size = block;
  c.page_size = page;
  return c;
}

// Convenience: a simulated store of one double through the access-check path.
void store(Node& n, sim::Task& t, GAddr a, double v) {
  n.ensure_writable(t, a, 8);
  std::memcpy(n.mem(a), &v, 8);
  n.note_writes(a, 8);
}

double load(Node& n, sim::Task& t, GAddr a) {
  n.ensure_readable(t, a, 8);
  double v;
  std::memcpy(&v, n.mem(a), 8);
  return v;
}

TEST(Stache, ColdReadMissFetchesData) {
  Cluster c(cfg(2));
  Stache proto(c);
  const GAddr a = c.allocate("x", 64);  // page 0 -> home is node 0
  ASSERT_EQ(c.home_of(c.block_of(a)), 0);
  double seen = 0;
  auto rs = c.run([&](Node& n, sim::Task& t) {
    if (n.id() == 0) store(n, t, a, 42.5);  // home: silent (tag RW)
    n.barrier(t);
    if (n.id() == 1) seen = load(n, t, a);
    n.barrier(t);
  });
  EXPECT_DOUBLE_EQ(seen, 42.5);
  EXPECT_EQ(rs.node[1].read_misses, 1u);
  EXPECT_EQ(rs.node[0].read_misses, 0u);
  EXPECT_EQ(rs.node[0].write_misses, 0u);  // home holds RW at start
}

TEST(Stache, ThreeHopReadRecallsFromOwner) {
  // Owner != home != reader: the full Figure 1(a) chain.
  Cluster c(cfg(4));
  Stache proto(c);
  // Page 1 -> home node 1.
  c.allocate("pad", 256);
  const GAddr a = c.allocate("x", 64);
  ASSERT_EQ(c.home_of(c.block_of(a)), 1);
  double seen = 0;
  int put_data_reqs = 0;
  // Wrap the kPutDataReq handler to count recalls.
  const Cluster::Handler orig = c.handler(MsgType::kPutDataReq);
  c.register_handler(MsgType::kPutDataReq,
                     [&, orig](Node& n, sim::Message& m,
                               tempest::HandlerClock& clk) {
                       ++put_data_reqs;
                       orig(n, m, clk);
                     });
  c.run([&](Node& n, sim::Task& t) {
    if (n.id() == 2) store(n, t, a, 7.25);  // node 2 becomes exclusive owner
    n.barrier(t);
    if (n.id() == 3) seen = load(n, t, a);
    n.barrier(t);
  });
  EXPECT_DOUBLE_EQ(seen, 7.25);
  EXPECT_EQ(put_data_reqs, 1);
  auto snap = proto.dir_snapshot(c.block_of(a));
  EXPECT_EQ(snap.state, Stache::DirState::kShared);
  EXPECT_FALSE(snap.busy);
}

TEST(Stache, EagerUpgradeDoesNotStall) {
  Cluster c(cfg(2));
  Stache proto(c);
  c.allocate("pad", 256);
  const GAddr a = c.allocate("x", 64);  // home node 1
  ASSERT_EQ(c.home_of(c.block_of(a)), 1);
  c.run([&](Node& n, sim::Task& t) {
    if (n.id() == 0) {
      (void)load(n, t, a);  // node 0 becomes a sharer (read miss stalls)
      const sim::Time t0 = t.now();
      store(n, t, a, 1.0);  // upgrade must be eager: cost ~ fault + send
      const sim::Time upgrade_cost = t.now() - t0;
      EXPECT_LT(upgrade_cost, c.costs().fault_cost +
                                  c.costs().msg_send_overhead + 2 * sim::kUs);
      EXPECT_EQ(proto.outstanding(0), 1);
      n.barrier(t);  // drains
      EXPECT_EQ(proto.outstanding(0), 0);
    } else {
      n.barrier(t);
    }
  });
  auto snap = proto.dir_snapshot(c.block_of(a));
  EXPECT_EQ(snap.state, Stache::DirState::kExcl);
  EXPECT_EQ(snap.owner, 0);
}

TEST(Stache, ProducerConsumerRepeated) {
  // The paper's motivating pattern: p writes, q reads, in a time-step loop.
  Cluster c(cfg(2));
  Stache proto(c);
  c.allocate("pad", 256);
  const GAddr a = c.allocate("x", 64);
  std::vector<double> seen;
  auto rs = c.run([&](Node& n, sim::Task& t) {
    for (int it = 0; it < 5; ++it) {
      if (n.id() == 0) store(n, t, a, 10.0 + it);
      n.barrier(t);
      if (n.id() == 1) seen.push_back(load(n, t, a));
      n.barrier(t);
    }
  });
  ASSERT_EQ(seen.size(), 5u);
  for (int it = 0; it < 5; ++it) EXPECT_DOUBLE_EQ(seen[it], 10.0 + it);
  // Every iteration after the first: reader misses (invalidated) and writer
  // re-upgrades (downgraded by the recall).
  EXPECT_EQ(rs.node[1].read_misses, 5u);
  EXPECT_GE(rs.node[0].write_misses, 4u);
  EXPECT_GE(rs.node[1].invalidations_received, 4u);
}

TEST(Stache, FalseSharingWritersMergeByWord) {
  // Two nodes write disjoint words of the same block in the same epoch; both
  // values must survive (multiple-writer merge via dirty masks).
  Cluster c(cfg(3));
  Stache proto(c);
  c.allocate("pad", 256);
  const GAddr a = c.allocate("x", 64);  // words a+0..a+56
  double r0 = 0, r8 = 0;
  c.run([&](Node& n, sim::Task& t) {
    if (n.id() == 0) store(n, t, a + 0, 111.0);
    if (n.id() == 1) store(n, t, a + 8, 222.0);
    n.barrier(t);
    if (n.id() == 2) {
      r0 = load(n, t, a + 0);
      r8 = load(n, t, a + 8);
    }
    n.barrier(t);
  });
  EXPECT_DOUBLE_EQ(r0, 111.0);
  EXPECT_DOUBLE_EQ(r8, 222.0);
}

TEST(Stache, FalseSharingSurvivorReadsLoserWords) {
  // The *winning* concurrent writer must also observe the loser's words
  // after synchronization (grant fix-up / re-fetch path).
  Cluster c(cfg(2));
  Stache proto(c);
  c.allocate("pad", 256);
  const GAddr a = c.allocate("x", 64);
  double got0 = -1, got1 = -1;
  c.run([&](Node& n, sim::Task& t) {
    if (n.id() == 0) store(n, t, a + 0, 5.0);
    if (n.id() == 1) store(n, t, a + 8, 6.0);
    n.barrier(t);
    if (n.id() == 0) got1 = load(n, t, a + 8);
    if (n.id() == 1) got0 = load(n, t, a + 0);
    n.barrier(t);
  });
  EXPECT_DOUBLE_EQ(got1, 6.0);
  EXPECT_DOUBLE_EQ(got0, 5.0);
}

TEST(Stache, MkWritableFetchesExclusivePipelined) {
  Cluster c(cfg(4));
  Stache proto(c);
  c.allocate("pad", 256);
  const GAddr a = c.allocate("arr", 512);  // 8 blocks of 64B
  const tempest::BlockId b0 = c.block_of(a);
  c.run([&](Node& n, sim::Task& t) {
    n.barrier(t);
    if (n.id() == 2)
      proto.mk_writable(n, t, b0, b0 + 7);
    // Pipelined: mk_writable returns before grants; the barrier drains.
    n.barrier(t);
    if (n.id() == 2) {
      for (int i = 0; i < 8; ++i)
        EXPECT_EQ(n.access(b0 + i), Access::kReadWrite);
      EXPECT_EQ(proto.outstanding(2), 0);
    }
    n.barrier(t);
  });
  for (int i = 0; i < 8; ++i) {
    auto snap = proto.dir_snapshot(b0 + i);
    if (c.home_of(b0 + i) == 2) {
      // Node 2 is the home: it held these writable from bootstrap; no
      // transaction was needed and the directory stays Idle.
      EXPECT_EQ(snap.state, Stache::DirState::kIdle);
    } else {
      EXPECT_EQ(snap.state, Stache::DirState::kExcl);
      EXPECT_EQ(snap.owner, 2);
    }
  }
}

TEST(Stache, MkWritableIsNoOpWhenAlreadyWritable) {
  Cluster c(cfg(2));
  Stache proto(c);
  const GAddr a = c.allocate("arr", 256);
  const tempest::BlockId b0 = c.block_of(a);
  auto rs = c.run([&](Node& n, sim::Task& t) {
    if (n.id() == 0) {
      // Home already holds page 0 writable.
      const std::uint64_t before = n.stats.messages_sent;
      proto.mk_writable(n, t, b0, b0 + 3);
      EXPECT_EQ(n.stats.messages_sent, before);
    }
    n.barrier(t);
  });
  (void)rs;
}

TEST(Stache, ImplicitCallsAreLocal) {
  Cluster c(cfg(2));
  Stache proto(c);
  c.allocate("pad", 256);
  const GAddr a = c.allocate("arr", 256);
  const tempest::BlockId b0 = c.block_of(a);
  c.run([&](Node& n, sim::Task& t) {
    if (n.id() == 0) {
      const std::uint64_t before = n.stats.messages_sent;
      proto.implicit_writable(n, t, b0, b0 + 3);
      for (int i = 0; i < 4; ++i)
        EXPECT_EQ(n.access(b0 + i), Access::kReadWrite);
      proto.implicit_invalidate(n, t, b0, b0 + 3);
      for (int i = 0; i < 4; ++i)
        EXPECT_EQ(n.access(b0 + i), Access::kInvalid);
      EXPECT_EQ(n.stats.messages_sent, before);  // zero protocol traffic
    }
    n.barrier(t);
  });
}

TEST(Stache, DirectTransferMovesDataWithoutCoherence) {
  // The Figure 1(b) path: owner sends, reader receives; the directory never
  // learns the reader has a copy.
  Cluster c(cfg(2));
  Stache proto(c);
  const GAddr a = c.allocate("arr", 256);  // home node 0
  const tempest::BlockId b0 = c.block_of(a);
  std::vector<double> got(4, 0.0);
  c.run([&](Node& n, sim::Task& t) {
    if (n.id() == 0) {
      for (int i = 0; i < 4; ++i) store(n, t, a + 64 * i, 100.0 + i);
      n.barrier(t);  // both prepared
      proto.send_blocks(n, t, a, 256, 1, /*max_payload=*/64);
      n.barrier(t);
    } else {
      proto.implicit_writable(n, t, b0, b0 + 3);
      n.barrier(t);
      proto.ready_to_recv(n, t, 4);
      for (int i = 0; i < 4; ++i)
        std::memcpy(&got[i], n.mem(a + 64 * i), 8);
      proto.implicit_invalidate(n, t, b0, b0 + 3);
      n.barrier(t);
    }
  });
  for (int i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(got[i], 100.0 + i);
  for (int i = 0; i < 4; ++i) {
    auto snap = proto.dir_snapshot(b0 + i);
    // Directory believes nothing about node 1 (Idle: home wrote silently).
    EXPECT_EQ(snap.state, Stache::DirState::kIdle);
  }
}

TEST(Stache, BulkTransferCoalescesMessages) {
  auto run_with_payload = [&](std::size_t payload) {
    Cluster c(cfg(2));
    Stache proto(c);
    const GAddr a = c.allocate("arr", 1024);  // 16 blocks
    const tempest::BlockId b0 = c.block_of(a);
    std::uint64_t ccc_msgs = 0;
    c.run([&](Node& n, sim::Task& t) {
      if (n.id() == 0) {
        n.barrier(t);
        proto.send_blocks(n, t, a, 1024, 1, payload);
        ccc_msgs = n.stats.ccc_messages_sent;
        n.barrier(t);
      } else {
        proto.implicit_writable(n, t, b0, b0 + 15);
        n.barrier(t);
        proto.ready_to_recv(n, t, 16);
        n.barrier(t);
      }
    });
    return ccc_msgs;
  };
  EXPECT_EQ(run_with_payload(64), 16u);    // one message per block
  EXPECT_EQ(run_with_payload(512), 2u);    // bulk: 8 blocks per message
  EXPECT_EQ(run_with_payload(1024), 1u);   // single payload
}

TEST(Stache, CccFlushReturnsNonOwnerWrites) {
  Cluster c(cfg(2));
  Stache proto(c);
  const GAddr a = c.allocate("arr", 128);  // home node 0 = owner
  const tempest::BlockId b0 = c.block_of(a);
  double got = 0;
  c.run([&](Node& n, sim::Task& t) {
    if (n.id() == 0) {
      // Owner: send current contents, let node 1 write, await flush.
      store(n, t, a, 1.0);
      n.barrier(t);
      proto.send_blocks(n, t, a, 128, 1, 128);
      n.barrier(t);
      proto.ready_to_recv(n, t, 2);  // the flush comes back
      got = load(n, t, a);
      n.barrier(t);
    } else {
      proto.implicit_writable(n, t, b0, b0 + 1);
      n.barrier(t);
      proto.ready_to_recv(n, t, 2);
      double v = 0;
      std::memcpy(&v, n.mem(a), 8);
      v += 41.0;
      std::memcpy(n.mem(a), &v, 8);
      proto.ccc_flush(n, t, a, 128, /*owner=*/0, /*max_payload=*/128);
      proto.implicit_invalidate(n, t, b0, b0 + 1);
      n.barrier(t);
      n.barrier(t);
    }
  });
  EXPECT_DOUBLE_EQ(got, 42.0);
}

// ---------------------------------------------------------------------------
// Property test: random data-race-free word traces against a reference
// memory, across block sizes and node counts.
// ---------------------------------------------------------------------------

struct DrfParam {
  int nnodes;
  std::size_t block;
  unsigned seed;
};

class StacheDrfTest : public ::testing::TestWithParam<DrfParam> {};

TEST_P(StacheDrfTest, RandomTracesMatchReference) {
  const DrfParam p = GetParam();
  constexpr int kWords = 192;
  constexpr int kEpochs = 6;
  Cluster c(cfg(p.nnodes, p.block, /*page=*/512));
  Stache proto(c);
  const GAddr base = c.allocate("arena", kWords * 8);

  // Deterministic plan, shared by all nodes: per epoch, each word gets at
  // most one writer; every node reads a pseudo-random subset after the
  // barrier.
  std::mt19937 rng(p.seed);
  std::vector<std::vector<int>> writer(kEpochs, std::vector<int>(kWords));
  for (int e = 0; e < kEpochs; ++e)
    for (int w = 0; w < kWords; ++w) {
      // -1 = nobody writes this epoch.
      writer[e][w] = static_cast<int>(rng() % (p.nnodes + 1)) - 1;
    }
  std::vector<double> expected(kWords, 0.0);

  std::vector<int> mismatches(p.nnodes, 0);
  std::vector<std::string> detail;
  c.run([&](Node& n, sim::Task& t) {
    for (int e = 0; e < kEpochs; ++e) {
      for (int w = 0; w < kWords; ++w) {
        if (writer[e][w] != n.id()) continue;
        store(n, t, base + 8 * w, 1000.0 * e + w);
      }
      n.barrier(t);
      // Everyone reads every word and checks against the reference.
      std::mt19937 lrng(p.seed * 77 + e);
      for (int w = 0; w < kWords; ++w) {
        if (lrng() % 3 == 0) continue;  // skip some reads
        const double v = load(n, t, base + 8 * w);
        const double want =
            writer[e][w] >= 0 ? 1000.0 * e + w : expected[w];
        if (v != want) {
          ++mismatches[n.id()];
          if (detail.size() < 10) {
            std::ostringstream os;
            os << "node " << n.id() << " epoch " << e << " word " << w
               << " (block " << c.block_of(base + 8 * w) << ", home "
               << c.home_of(c.block_of(base + 8 * w)) << ", writer "
               << writer[e][w] << "): got " << v << " want " << want;
            detail.push_back(os.str());
          }
        }
      }
      n.barrier(t);
      if (n.id() == 0)  // update host-side reference once per epoch
        for (int w = 0; w < kWords; ++w)
          if (writer[e][w] >= 0) expected[w] = 1000.0 * e + w;
      n.barrier(t);
    }
  });
  for (const std::string& d : detail) ADD_FAILURE() << d;
  for (int i = 0; i < p.nnodes; ++i) EXPECT_EQ(mismatches[i], 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StacheDrfTest,
    ::testing::Values(DrfParam{2, 32, 1}, DrfParam{2, 64, 2},
                      DrfParam{2, 128, 3}, DrfParam{4, 64, 4},
                      DrfParam{4, 128, 5}, DrfParam{8, 128, 6},
                      DrfParam{8, 32, 7}, DrfParam{3, 64, 8}),
    [](const ::testing::TestParamInfo<DrfParam>& info) {
      return "n" + std::to_string(info.param.nnodes) + "_b" +
             std::to_string(info.param.block) + "_s" +
             std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace fgdsm::proto
