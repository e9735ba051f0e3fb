#include <gtest/gtest.h>

#include <cstring>

#include "src/mp/runtime.h"
#include "src/tempest/cluster.h"

namespace fgdsm::mp {
namespace {

using tempest::Cluster;
using tempest::ClusterConfig;
using tempest::Node;

ClusterConfig cfg(int nnodes) {
  ClusterConfig c;
  c.nnodes = nnodes;
  return c;
}

TEST(MpRuntime, MovesBytesToSameAddress) {
  Cluster c(cfg(2));
  MpRuntime mp(c);
  const tempest::GAddr a = c.allocate("buf", 4096);
  double got = 0;
  c.run([&](Node& n, sim::Task& t) {
    mp.advance_epoch(n, t);
    if (n.id() == 0) {
      double v = 3.75;
      std::memcpy(n.mem(a + 64), &v, 8);
      mp.send(n, t, a + 64, 8, 1, 16384);
    } else {
      mp.recv(n, t, 8);
      std::memcpy(&got, n.mem(a + 64), 8);
    }
  });
  EXPECT_DOUBLE_EQ(got, 3.75);
}

TEST(MpRuntime, SplitsByMaxPayload) {
  Cluster c(cfg(2));
  MpRuntime mp(c);
  const tempest::GAddr a = c.allocate("buf", 8192);
  auto rs = c.run([&](Node& n, sim::Task& t) {
    mp.advance_epoch(n, t);
    if (n.id() == 0)
      mp.send(n, t, a, 4096, 1, /*max_payload=*/1024);
    else
      mp.recv(n, t, 4096);
  });
  EXPECT_EQ(rs.node[0].messages_sent, 4u);
}

TEST(MpRuntime, EarlyEpochDataIsStashedNotApplied) {
  // A fast sender two epochs ahead must not clobber the slow receiver's
  // current-epoch view of the same address.
  Cluster c(cfg(2));
  MpRuntime mp(c);
  const tempest::GAddr a = c.allocate("buf", 4096);
  double seen_epoch1 = 0, seen_epoch2 = 0;
  c.run([&](Node& n, sim::Task& t) {
    if (n.id() == 0) {
      // Epoch 1: send value 1; epoch 2: send value 2 to the SAME address,
      // immediately (no barriers in the MP backend).
      mp.advance_epoch(n, t);
      double v = 1.0;
      std::memcpy(n.mem(a), &v, 8);
      mp.send(n, t, a, 8, 1, 16384);
      mp.advance_epoch(n, t);
      v = 2.0;
      std::memcpy(n.mem(a), &v, 8);
      mp.send(n, t, a, 8, 1, 16384);
    } else {
      // Receiver is slow to enter epoch 1.
      t.charge(5 * sim::kMs);
      mp.advance_epoch(n, t);
      mp.recv(n, t, 8);
      std::memcpy(&seen_epoch1, n.mem(a), 8);
      mp.advance_epoch(n, t);
      mp.recv(n, t, 8);
      std::memcpy(&seen_epoch2, n.mem(a), 8);
    }
  });
  EXPECT_DOUBLE_EQ(seen_epoch1, 1.0);  // epoch-2 payload stashed, not applied
  EXPECT_DOUBLE_EQ(seen_epoch2, 2.0);
}

TEST(MpRuntime, ArrivalsDuringStashReplayAreKept) {
  // Node 1 enters epoch 1 with 64 early messages stashed. Replaying them
  // charges copy time, during which node 2's epoch-2 messages arrive and
  // join the stash; both epochs' data must land intact.
  Cluster c(cfg(3));
  MpRuntime mp(c);
  constexpr std::size_t kBig = 64 * 4096, kSmall = 32 * 8;
  const tempest::GAddr a = c.allocate("a", kBig);
  const tempest::GAddr b = c.allocate("b", kSmall);
  const auto fill = [](Node& n, tempest::GAddr at, std::size_t len,
                       double v) {
    for (std::size_t off = 0; off < len; off += 8)
      std::memcpy(n.mem(at + off), &v, 8);
  };
  const auto all_equal = [](Node& n, tempest::GAddr at, std::size_t len,
                            double v) {
    for (std::size_t off = 0; off < len; off += 8)
      if (std::memcmp(n.mem(at + off), &v, 8) != 0) return false;
    return true;
  };
  bool epoch1_ok = false, epoch2_ok = false;
  c.run([&](Node& n, sim::Task& t) {
    if (n.id() == 0) {
      mp.advance_epoch(n, t);
      fill(n, a, kBig, 1.0);
      mp.send(n, t, a, kBig, 1, 4096);  // 64 messages, sent by ~36 ms
      mp.advance_epoch(n, t);
    } else if (n.id() == 2) {
      mp.advance_epoch(n, t);
      mp.advance_epoch(n, t);
      t.charge(50 * sim::kMs);
      fill(n, b, kSmall, 2.0);
      mp.send(n, t, b, kSmall, 1, 8);  // 32 messages, one per ~45 us
    } else {
      t.charge(50 * sim::kMs);  // every epoch-1 message is stashed by now
      mp.advance_epoch(n, t);   // replaying them takes ~1 ms
      mp.recv(n, t, kBig);
      epoch1_ok = all_equal(n, a, kBig, 1.0);
      mp.advance_epoch(n, t);
      mp.recv(n, t, kSmall);
      epoch2_ok = all_equal(n, b, kSmall, 2.0);
    }
  });
  EXPECT_TRUE(epoch1_ok);
  EXPECT_TRUE(epoch2_ok);
}

TEST(MpRuntime, ManySendersCountTogether) {
  Cluster c(cfg(4));
  MpRuntime mp(c);
  const tempest::GAddr a = c.allocate("buf", 4096);
  double sum = 0;
  c.run([&](Node& n, sim::Task& t) {
    mp.advance_epoch(n, t);
    if (n.id() != 3) {
      double v = n.id() + 1;
      std::memcpy(n.mem(a + 8 * n.id()), &v, 8);
      mp.send(n, t, a + 8 * n.id(), 8, 3, 16384);
    } else {
      mp.recv(n, t, 24);  // 3 senders x 8 bytes
      for (int i = 0; i < 3; ++i) {
        double v;
        std::memcpy(&v, n.mem(a + 8 * i), 8);
        sum += v;
      }
    }
  });
  EXPECT_DOUBLE_EQ(sum, 6.0);
}

TEST(MpRuntime, PerMessageOverheadCharged) {
  Cluster c(cfg(2));
  MpRuntime mp(c);
  const tempest::GAddr a = c.allocate("buf", 65536);
  sim::Time send_cost = 0;
  c.run([&](Node& n, sim::Task& t) {
    mp.advance_epoch(n, t);
    if (n.id() == 0) {
      const sim::Time t0 = t.now();
      mp.send(n, t, a, 8192, 1, /*max_payload=*/1024);  // 8 messages
      send_cost = t.now() - t0;
    } else {
      mp.recv(n, t, 8192);
    }
  });
  EXPECT_GE(send_cost, 8 * c.costs().mp_msg_overhead);
}

}  // namespace
}  // namespace fgdsm::mp
