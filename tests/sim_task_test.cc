#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "src/sim/engine.h"
#include "src/sim/resource.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/util/assert.h"

namespace fgdsm::sim {
namespace {

TEST(Task, ChargeAdvancesClock) {
  Engine e;
  Time end = -1;
  Task t(e, "t", [&](Task& self) {
    self.charge(100);
    self.charge(50);
    end = self.now();
  });
  t.start(10);
  e.run();
  EXPECT_EQ(end, 160);
  EXPECT_TRUE(t.finished());
}

TEST(Task, ChargeYieldsAcrossPendingEvents) {
  // An event between the task's clock and its charge target must run at its
  // own virtual time, not after the whole charge.
  Engine e;
  std::vector<std::pair<const char*, Time>> trace;
  Task t(e, "t", [&](Task& self) {
    self.charge(1000);
    trace.emplace_back("task-done", self.now());
  });
  e.schedule(400, [&] { trace.emplace_back("event", e.now()); });
  t.start(0);
  e.run();
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_STREQ(trace[0].first, "event");
  EXPECT_EQ(trace[0].second, 400);
  EXPECT_STREQ(trace[1].first, "task-done");
  EXPECT_EQ(trace[1].second, 1000);
}

TEST(Task, SemaphoreBlocksUntilPost) {
  Engine e;
  Semaphore sem;
  Time woke = -1;
  Task t(e, "t", [&](Task& self) {
    self.charge(10);
    sem.wait(self);
    woke = self.now();
  });
  e.schedule(500, [&] { sem.post(500); });
  t.start(0);
  e.run();
  EXPECT_EQ(woke, 500);
}

TEST(Task, SemaphorePostBeforeWaitDoesNotBlock) {
  Engine e;
  Semaphore sem;
  Time woke = -1;
  sem.post(0, 2);
  Task t(e, "t", [&](Task& self) {
    self.charge(100);
    sem.wait(self, 2);
    woke = self.now();
  });
  t.start(0);
  e.run();
  EXPECT_EQ(woke, 100);  // no blocking: time does not jump
  EXPECT_EQ(sem.count(), 0);
}

TEST(Task, CountingSemaphoreWaitsForAll) {
  Engine e;
  Semaphore sem;
  Time woke = -1;
  Task t(e, "t", [&](Task& self) {
    sem.wait(self, 3);
    woke = self.now();
  });
  e.schedule(100, [&] { sem.post(100); });
  e.schedule(200, [&] { sem.post(200); });
  e.schedule(300, [&] { sem.post(300); });
  t.start(0);
  e.run();
  EXPECT_EQ(woke, 300);
}

TEST(Task, WakeInTaskPastDoesNotMoveClockBackwards) {
  Engine e;
  Semaphore sem;
  Time woke = -1;
  Task t(e, "t", [&](Task& self) {
    self.charge(1000);
    sem.wait(self);  // signal arrives at t=200 < 1000
    woke = self.now();
  });
  e.schedule(200, [&] { sem.post(200); });
  t.start(0);
  e.run();
  EXPECT_EQ(woke, 1000);
}

TEST(Task, TwoTasksInterleaveDeterministically) {
  Engine e;
  // With a small lookahead, side-effect order tracks virtual-time order
  // closely; tasks leapfrog in lookahead-sized slices.
  e.set_lookahead(10);
  std::vector<int> order;
  Task a(e, "a", [&](Task& self) {
    for (int i = 0; i < 3; ++i) {
      self.charge(100);
      order.push_back(1);
    }
  });
  Task b(e, "b", [&](Task& self) {
    for (int i = 0; i < 3; ++i) {
      self.charge(100);
      order.push_back(2);
    }
  });
  a.start(0);
  b.start(50);
  e.run();
  // a finishes charges at 100,200,300; b at 150,250,350.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 1, 2, 1, 2}));
}

TEST(Task, CpuStealDelaysResumption) {
  // A handler occupies the task's cpu while the task is blocked; on wake the
  // task's clock must include the stolen time.
  Engine e;
  Resource cpu;
  Semaphore sem;
  std::int64_t stolen = 0;
  Time woke = -1;
  Task t(e, "t", [&](Task& self) {
    self.charge(100);  // cpu available = 100
    sem.wait(self);
    woke = self.now();
  });
  t.set_cpu(&cpu);
  t.set_steal_counter(&stolen);
  e.schedule(200, [&] {
    // Handler runs 200..260 on the shared cpu, then posts.
    const Time end = cpu.acquire(200, 60);
    sem.post(end);
  });
  t.start(0);
  e.run();
  EXPECT_EQ(woke, 260);
  EXPECT_EQ(stolen, 0);  // wake time already covers occupancy: no extra jump
  EXPECT_EQ(cpu.available(), 260);
}

TEST(Task, CpuStealObservedMidCharge) {
  // Handler occupancy during a charge pushes the remaining work later.
  Engine e;
  Resource cpu;
  Time done = -1;
  std::int64_t stolen = 0;
  Task t(e, "t", [&](Task& self) {
    self.charge(1000);
    done = self.now();
  });
  t.set_cpu(&cpu);
  t.set_steal_counter(&stolen);
  e.schedule(300, [&] { cpu.acquire(300, 120); });
  t.start(0);
  e.run();
  EXPECT_EQ(done, 1120);
  EXPECT_EQ(stolen, 120);
}

TEST(Task, LookaheadBoundsRunahead) {
  // While task b has a pending resume at t=100, task a must not advance
  // beyond 100 + lookahead - 1 in one go; once b finishes, a is free.
  Engine e;
  e.set_lookahead(50);
  std::vector<std::pair<int, Time>> finish;
  Task a(e, "a", [&](Task& self) {
    self.charge(10'000);
    finish.emplace_back(1, self.now());
  });
  Task b(e, "b", [&](Task& self) {
    self.charge(200);
    finish.emplace_back(2, self.now());
  });
  a.start(0);
  b.start(100);
  e.run();
  ASSERT_EQ(finish.size(), 2u);
  // b finishes at 300, a at 10000; with lookahead 50, a cannot have finished
  // before b in host order either.
  EXPECT_EQ(finish[0], (std::pair<int, Time>{2, 300}));
  EXPECT_EQ(finish[1], (std::pair<int, Time>{1, 10'000}));
}

TEST(Task, LateStarterStillSeesCausalOrder) {
  // A message-like chain: b starts later and schedules an ordinary event in
  // what would be a's past if a ran ahead unboundedly. With lookahead below
  // the scheduling delay, a must observe the event at the right time.
  Engine e;
  e.set_lookahead(20);
  std::vector<std::pair<const char*, Time>> trace;
  Task a(e, "a", [&](Task& self) {
    self.charge(5'000);
    trace.emplace_back("a-done", self.now());
  });
  Task b(e, "b", [&](Task& self) {
    self.charge(10);  // acts at t=110
    self.engine().schedule(self.now() + 25, [&, t = self.now() + 25] {
      trace.emplace_back("event", t);
    });
  });
  a.start(0);
  b.start(100);
  e.run();
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_STREQ(trace[0].first, "event");
  EXPECT_EQ(trace[0].second, 135);
  EXPECT_STREQ(trace[1].first, "a-done");
}

TEST(Task, DeadlockDetected) {
  Engine e;
  {
    Semaphore sem;
    Task t(e, "stuck", [&](Task& self) { sem.wait(self); });
    t.start(0);
    EXPECT_THROW(e.run(), AssertionError);
  }
}

TEST(Task, BodyExceptionPropagates) {
  Engine e;
  Task t(e, "thrower", [&](Task& self) {
    self.charge(5);
    throw std::runtime_error("app failure");
  });
  t.start(0);
  EXPECT_THROW(e.run(), std::runtime_error);
}

TEST(Task, DestructionWhileBlockedUnwinds) {
  Engine e;
  Semaphore sem;
  bool cleaned = false;
  {
    Task t(e, "t", [&](Task& self) {
      struct Guard {
        bool* flag;
        ~Guard() { *flag = true; }
      } g{&cleaned};
      sem.wait(self);
    });
    t.start(0);
    EXPECT_THROW(e.run(), AssertionError);  // deadlock reported
  }                                          // ~Task cancels + joins
  EXPECT_TRUE(cleaned);
}

// Non-tail recursion with a frame the optimizer can neither elide nor fold
// into a loop: the addition after the call keeps every frame live.
[[gnu::noinline]] int recurse_forever(const volatile bool* go, int depth) {
  volatile char frame[512];
  frame[0] = static_cast<char>(depth);
  if (!*go) return depth;
  return recurse_forever(go, depth + 1) + frame[0];
}

TEST(TaskDeathTest, StackOverflowFaultsOnTheGuardPage) {
  // The fiber stack sits above a PROT_NONE page: running off its end must
  // kill the process instead of scribbling over whatever lies below.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Engine e;
        volatile bool go = true;
        Task t(e, "deep", [&](Task&) { recurse_forever(&go, 0); });
        t.start(0);
        e.run();
      },
      "");
}

// Rollback at the sim level, without a cluster: unwind() frees what the
// abandoned frames own, restart() runs the body again from the top at the
// given time, and the resume events of the old timeline fire as no-ops.
TEST(Task, RestartRunsTheBodyAfreshAfterUnwindFreesItsFrames) {
  struct Probe {
    int* live;
    explicit Probe(int* l) : live(l) { ++*live; }
    ~Probe() { --*live; }
  };
  Engine e;
  int live = 0;
  // At each entry to the body: the engine's time and the task's clock.
  std::vector<std::pair<Time, Time>> entries;
  Task t(e, "t", [&](Task& self) {
    entries.emplace_back(e.now(), self.now());
    const auto owned = std::make_unique<Probe>(&live);
    self.block();
  });
  e.schedule(100, [&] {
    EXPECT_EQ(live, 1);
    t.wake(500);  // the old timeline's resume, still pending at restart
    t.unwind();
    EXPECT_EQ(live, 0);  // the abandoned frame's heap is freed
    EXPECT_TRUE(t.finished());
    t.restart(300);
  });
  e.schedule(550, [&] {
    EXPECT_EQ(live, 1);  // re-created by the restarted body, which the
    EXPECT_FALSE(t.finished());  // stale resume at 500 did not wake
    t.wake(600);
  });
  t.start(0);
  e.run();
  EXPECT_EQ(entries,
            (std::vector<std::pair<Time, Time>>{{0, 0}, {300, 300}}));
  EXPECT_EQ(live, 0);
  EXPECT_EQ(t.now(), 600);
  EXPECT_TRUE(t.finished());
}

TEST(Resource, AcquireSerializes) {
  Resource r;
  EXPECT_EQ(r.acquire(100, 50), 150);
  EXPECT_EQ(r.acquire(100, 50), 200);  // queued behind previous occupancy
  EXPECT_EQ(r.acquire(500, 10), 510);  // idle gap
  EXPECT_EQ(r.available(), 510);
}

}  // namespace
}  // namespace fgdsm::sim
