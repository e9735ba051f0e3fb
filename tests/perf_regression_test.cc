// Regression tests for the simulator hot-path overhaul:
//   - Engine::run is reusable after an event throws (RAII running-flag);
//   - ReliableChannel sequence numbers are 64-bit and survive crossing the
//     former 32-bit wrap point under drops and duplication;
//   - the event slab and the payload pools reach a high-water mark and stay
//     there, including a sender's pool whose buffers other partitions
//     consume. That whole runs allocate nothing once every node has visited
//     its loops is tests/steady_alloc_test.cc's job.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/channel.h"
#include "src/sim/engine.h"
#include "src/sim/event_pool.h"
#include "src/sim/fault.h"
#include "src/sim/network.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/util/assert.h"

namespace fgdsm::sim {
namespace {

// ---- Engine reuse after an exception (running_ released on every exit) ----

TEST(EngineReuse, RunAgainAfterEventThrows) {
  Engine e;
  int ran = 0;
  e.schedule(10, [&] { ++ran; });
  e.schedule(20, [] { throw std::runtime_error("boom"); });
  e.schedule(30, [&] { ++ran; });
  EXPECT_THROW(e.run(), std::runtime_error);
  EXPECT_EQ(ran, 1);
  // The guard must have released the running flag: scheduling and a second
  // run() both work, and the event after the throwing one still executes.
  e.schedule(40, [&] { ++ran; });
  e.run();
  EXPECT_EQ(ran, 3);
  EXPECT_EQ(e.now(), 40);
}

TEST(EngineReuse, RunAfterNormalCompletion) {
  Engine e;
  int ran = 0;
  e.schedule(5, [&] { ++ran; });
  e.run();
  e.schedule(15, [&] { ++ran; });
  e.run();
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(e.now(), 15);
}

// ---- 64-bit channel sequence numbers across the old 32-bit wrap ----

struct WrapHarness {
  CostModel costs;
  Engine engine;
  Network net{engine, costs, 2};
  FaultConfig fcfg;
  std::string err;
  std::unique_ptr<FaultInjector> fault;
  std::unique_ptr<ReliableChannel> channel;
  std::vector<std::uint64_t> delivered;  // arg[0] of each in-order delivery
  Semaphore done;
  std::size_t expected = 0;

  explicit WrapHarness(const std::string& faults) {
    fcfg = FaultConfig::parse(faults, &err);
    EXPECT_TRUE(err.empty()) << err;
    fault = std::make_unique<FaultInjector>(fcfg, 2, /*default_window=*/
                                            8 * costs.wire_latency);
    net.set_fault_injector(fault.get());
    ChannelConfig ch;
    ch.ack_type = 999;
    channel = std::make_unique<ReliableChannel>(engine, net, 2, ch);
    channel->attach(0, [](Message&&, Time) {});
    channel->attach(1, [this](Message&& m, Time) {
      delivered.push_back(static_cast<std::uint64_t>(m.arg[0]));
      if (delivered.size() == expected) done.post(engine.now());
    });
  }

  void send_burst(int n) {
    expected = static_cast<std::size_t>(n);
    // A live task keeps the channel retrying dropped messages (with no
    // unfinished task it treats the run as complete and stops); it blocks
    // until the full burst has been delivered in order.
    Task waiter(engine, "waiter", [&](Task& self) { done.wait(self); });
    waiter.start(0);
    Time t = 0;
    for (int i = 0; i < n; ++i) {
      Message m;
      m.src = 0;
      m.dst = 1;
      m.type = 7;
      m.arg[0] = i;
      t = channel->send(t, std::move(m));
    }
    engine.run();
  }
};

TEST(ChannelSeqWrap, InOrderExactlyOnceAcrossUint32Max) {
  // Start every link as if it had already carried nearly 2^32 messages; the
  // burst crosses the former overflow point. With 32-bit sequence fields the
  // post-wrap seqs compared below the cumulative ack and the stream
  // misordered/stalled; 64-bit seqs must deliver in order exactly once.
  WrapHarness h("drop=0.2,dup=0.1,seed=7");
  h.channel->set_initial_seq((1ull << 32) - 8);
  h.send_burst(64);
  ASSERT_EQ(h.delivered.size(), 64u);
  for (std::uint64_t i = 0; i < 64; ++i) EXPECT_EQ(h.delivered[i], i);
}

TEST(ChannelSeqWrap, DeterministicAcrossRuns) {
  auto run = [] {
    WrapHarness h("drop=0.15,dup=0.05,reorder=0.1,seed=11");
    h.channel->set_initial_seq((1ull << 32) - 3);
    h.send_burst(40);
    return std::pair(h.delivered, h.engine.now());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);  // bit-identical virtual end time
}

// ---- Zero allocation in steady state ----

TEST(SteadyState, EventSlabStopsGrowing) {
  Engine e;
  // Self-rescheduling chains: a fixed event population cycling through the
  // pool. Identical laps after the first must be served entirely from the
  // free list — the slab's high-water mark is reached once.
  std::vector<std::function<void()>> chains(32);
  int remaining = 0;
  auto lap = [&] {
    remaining = 10'000;
    for (int k = 0; k < 32; ++k) {
      chains[k] = [&, k] {
        if (remaining-- > 0) e.schedule(e.now() + 1 + k % 7, chains[k]);
      };
      e.schedule(e.now() + 1 + k, chains[k]);
    }
    e.run();
  };
  lap();  // warm-up: slab grows to the population's high-water mark
  const std::uint64_t grows = e.event_slab_grows();
  EXPECT_GT(grows, 0u);
  lap();  // steady state: every push reuses a freed slot
  EXPECT_EQ(e.event_slab_grows(), grows)
      << "event slab grew after warm-up: steady state is allocating";
}

TEST(SteadyState, BufferPoolReusesPayloads) {
  BufferPool pool;
  // Warm up with the working-set of buffer sizes.
  std::vector<std::vector<std::byte>> in_flight;
  for (int i = 0; i < 16; ++i) in_flight.push_back(pool.acquire(4096));
  for (auto& b : in_flight) pool.release(std::move(b));
  in_flight.clear();
  const std::uint64_t fresh = pool.fresh_allocs();
  for (int round = 0; round < 1000; ++round) {
    for (int i = 0; i < 16; ++i) in_flight.push_back(pool.acquire(4096));
    for (auto& b : in_flight) pool.release(std::move(b));
    in_flight.clear();
  }
  EXPECT_EQ(pool.fresh_allocs(), fresh)
      << "payload pool allocated in steady state";
}

TEST(SteadyState, ConsumedPayloadsReturnToTheSendersPool) {
  // Partition 0 sends, partition 1 consumes. Held buffers go home at the
  // window barrier, so the sender's next round reuses them.
  std::vector<BufferPool> pools(2);
  const auto round = [&] {
    std::vector<std::vector<std::byte>> in_flight;
    in_flight.reserve(16);
    for (int i = 0; i < 16; ++i) in_flight.push_back(pools[0].acquire(4096));
    for (auto& b : in_flight) pools[1].release_to(0, std::move(b));
    for (BufferPool& p : pools) p.send_home(pools);  // the window barrier
  };
  round();
  const std::uint64_t fresh = pools[0].fresh_allocs();
  EXPECT_EQ(fresh, 16u);
  for (int r = 0; r < 100; ++r) round();
  EXPECT_EQ(pools[0].fresh_allocs(), fresh)
      << "the sender allocated while its buffers sat in the receiver's pool";
  EXPECT_EQ(pools[1].fresh_allocs(), 0u);
}

TEST(SteadyState, ChannelRetransmissionRingStopsGrowing) {
  // Long fault-free burst: the window stays small, so the retained-copy ring
  // must never grow past its initial size and the ooo buffer stays empty.
  WrapHarness h("");  // chaos plumbing enabled, zero fault rates
  h.send_burst(20'000);
  ASSERT_EQ(h.delivered.size(), 20'000u);
  for (std::uint64_t i = 0; i < h.delivered.size(); ++i)
    ASSERT_EQ(h.delivered[i], i);
}

TEST(InlineFnTest, TypicalEventsAreNotBoxed) {
  const std::uint64_t boxed = InlineFn::boxed_count;
  Engine e;
  // A Message-carrying lambda (the network delivery event, the largest
  // common event) must ride inline in the event record.
  Message m;
  m.payload.resize(128);
  int sunk = 0;
  e.schedule(1, [&sunk, m2 = std::move(m)]() mutable {
    sunk += static_cast<int>(m2.payload.size());
  });
  e.run();
  EXPECT_EQ(sunk, 128);
  EXPECT_EQ(InlineFn::boxed_count, boxed)
      << "delivery-sized event was heap-boxed";
}

}  // namespace
}  // namespace fgdsm::sim
