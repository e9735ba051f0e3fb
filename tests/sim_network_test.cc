#include <gtest/gtest.h>

#include <vector>

#include "src/sim/cost_model.h"
#include "src/sim/engine.h"
#include "src/sim/network.h"

namespace fgdsm::sim {
namespace {

class NetworkTest : public ::testing::Test {
 protected:
  Engine engine;
  CostModel costs;
};

TEST_F(NetworkTest, DeliversWithLatencyAndBandwidth) {
  Network net(engine, costs, 2);
  std::vector<std::pair<Message, Time>> got;
  net.attach(1, [&](Message&& m, Time t) { got.emplace_back(std::move(m), t); });
  net.attach(0, [&](Message&&, Time) { FAIL() << "nothing for node 0"; });

  Message m;
  m.src = 0;
  m.dst = 1;
  m.type = 7;
  m.addr = 0x1000;
  m.payload = Payload(128);
  const Time inject_end = net.send(/*earliest=*/0, std::move(m));

  const Time expect_inject =
      costs.bytes_time(128 + costs.msg_header_bytes);
  EXPECT_EQ(inject_end, expect_inject);
  engine.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].first.type, 7);
  EXPECT_EQ(got[0].first.addr, 0x1000u);
  EXPECT_EQ(got[0].first.payload.size(), 128u);
  EXPECT_EQ(got[0].second, expect_inject + costs.wire_latency);
}

TEST_F(NetworkTest, SenderTransmitSerializes) {
  Network net(engine, costs, 2);
  std::vector<Time> arrivals;
  net.attach(1, [&](Message&&, Time t) { arrivals.push_back(t); });

  for (int i = 0; i < 3; ++i) {
    Message m;
    m.src = 0;
    m.dst = 1;
    net.send(0, std::move(m));
  }
  engine.run();
  ASSERT_EQ(arrivals.size(), 3u);
  const Time per_msg = costs.bytes_time(costs.msg_header_bytes);
  EXPECT_EQ(arrivals[0], per_msg + costs.wire_latency);
  EXPECT_EQ(arrivals[1], 2 * per_msg + costs.wire_latency);
  EXPECT_EQ(arrivals[2], 3 * per_msg + costs.wire_latency);
}

TEST_F(NetworkTest, SelfSendSkipsWire) {
  Network net(engine, costs, 2);
  Time arrival = -1;
  net.attach(0, [&](Message&&, Time t) { arrival = t; });
  Message m;
  m.src = 0;
  m.dst = 0;
  const Time inject_end = net.send(0, std::move(m));
  engine.run();
  EXPECT_EQ(arrival, inject_end);
}

TEST_F(NetworkTest, CountsTraffic) {
  Network net(engine, costs, 2);
  net.attach(1, [](Message&&, Time) {});
  Message m;
  m.src = 0;
  m.dst = 1;
  m.payload = Payload(100);
  net.send(0, std::move(m));
  engine.run();
  EXPECT_EQ(net.total_messages(), 1u);
  EXPECT_EQ(net.total_bytes(),
            static_cast<std::uint64_t>(100 + costs.msg_header_bytes));
}

TEST_F(NetworkTest, BandwidthMatchesTable1) {
  // Table 1: 20 MB/s network bandwidth => 50 ns/byte.
  EXPECT_DOUBLE_EQ(costs.ns_per_byte, 50.0);
  EXPECT_EQ(costs.bytes_time(1'000'000), 50 * kMs);
}

}  // namespace
}  // namespace fgdsm::sim
