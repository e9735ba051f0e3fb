// Regression tests for the simulator hot-path overhaul:
//   - Engine::run is reusable after an event throws (RAII running-flag);
//   - ReliableChannel sequence numbers are 64-bit and survive crossing the
//     former 32-bit wrap point under drops and duplication;
//   - the event slab and the payload pools reach a high-water mark and stay
//     there, including a sender's pool whose shared buffers other
//     partitions consume. That whole runs allocate nothing once every node
//     has visited its loops is tests/steady_alloc_test.cc's job.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/channel.h"
#include "src/sim/engine.h"
#include "src/sim/event_pool.h"
#include "src/sim/fault.h"
#include "src/sim/network.h"
#include "src/sim/payload.h"
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
  std::vector<Payload> in_flight;
  for (int i = 0; i < 16; ++i) in_flight.push_back(pool.acquire(4096));
  in_flight.clear();  // the last handles drop: the buffers go back
  const std::uint64_t fresh = pool.fresh_allocs();
  EXPECT_EQ(pool.idle(), 16u);
  for (int round = 0; round < 1000; ++round) {
    for (int i = 0; i < 16; ++i) in_flight.push_back(pool.acquire(4096));
    in_flight.clear();
  }
  EXPECT_EQ(pool.fresh_allocs(), fresh)
      << "payload pool allocated in steady state";
}

TEST(SteadyState, ConsumedPayloadsReturnToTheSendersPool) {
  // Partition 0 sends every buffer it acquires to partitions 1 and 2, which
  // drop their handles two windows apart. A buffer may go home only at the
  // barrier after its last drop; then the sender's next round reuses it.
  constexpr Time kL = 100;
  Engine engine;
  engine.set_partitions(3);
  engine.set_window_lookahead(kL);
  PayloadPools pools(engine, 3);
  engine.set_window_hook([&] { pools.settle(); });
  std::vector<std::size_t> idle_shared;  // after partition 1's drops
  std::vector<std::size_t> idle_home;    // after partition 2's drops
  constexpr int kRounds = 20;
  for (int r = 0; r < kRounds; ++r) {
    const Time t0 = r * 10 * kL;
    engine.schedule_node(0, t0, [&, t0] {
      for (int i = 0; i < 16; ++i) {
        Payload p = pools.current().acquire(4096);
        std::memset(p.mutable_data(), i, p.size());
        engine.schedule_node(1, t0 + kL, [p] { ASSERT_EQ(p.size(), 4096u); });
        engine.schedule_node(2, t0 + 3 * kL, [p = std::move(p)] {
          ASSERT_EQ(p.size(), 4096u);
        });
      }
      // The owner reads its own pool, in its own partition.
      engine.schedule(t0 + 2 * kL,
                      [&] { idle_shared.push_back(pools[0].idle()); });
      engine.schedule(t0 + 4 * kL,
                      [&] { idle_home.push_back(pools[0].idle()); });
    });
  }
  engine.run();
  ASSERT_EQ(idle_shared.size(), static_cast<std::size_t>(kRounds));
  ASSERT_EQ(idle_home.size(), static_cast<std::size_t>(kRounds));
  for (int r = 0; r < kRounds; ++r) {
    EXPECT_EQ(idle_shared[r], 0u)
        << "round " << r << ": a buffer went home while still shared";
    EXPECT_EQ(idle_home[r], 16u)
        << "round " << r << ": buffers did not go home after the last drop";
  }
  EXPECT_EQ(pools[0].fresh_allocs(), 16u)
      << "the sender allocated while its buffers were away";
  EXPECT_EQ(pools[1].fresh_allocs(), 0u);
  EXPECT_EQ(pools[2].fresh_allocs(), 0u);
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

// A callable that does not fit the inline buffer, or may throw on move,
// does not convert to InlineFn at all.
struct ThrowingMove {
  ThrowingMove() = default;
  ThrowingMove(ThrowingMove&&) noexcept(false) {}
};

TEST(InlineFnTest, TypicalEventsAreNotBoxed) {
  Engine e;
  // A Message-carrying lambda (the network delivery event, the largest
  // common event) rides inline in the event record.
  Message m;
  m.payload = Payload(128);
  int sunk = 0;
  e.schedule(1, [&sunk, m2 = std::move(m)]() mutable {
    sunk += static_cast<int>(m2.payload.size());
  });
  e.run();
  EXPECT_EQ(sunk, 128);

  const auto too_big = [bytes = std::array<char, 129>{}] { (void)bytes; };
  static_assert(sizeof(too_big) == 129);
  static_assert(!std::is_constructible_v<InlineFn, decltype(too_big)>);
  const auto throws_on_move = [t = ThrowingMove{}] { (void)t; };
  static_assert(!std::is_constructible_v<InlineFn, decltype(throws_on_move)>);
}

}  // namespace
}  // namespace fgdsm::sim
