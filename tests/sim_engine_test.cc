#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "src/sim/engine.h"
#include "src/sim/task.h"
#include "src/util/assert.h"

namespace fgdsm::sim {
namespace {

TEST(Engine, ProcessesInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule(30, [&] { order.push_back(3); });
  e.schedule(10, [&] { order.push_back(1); });
  e.schedule(20, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30);
  EXPECT_EQ(e.events_processed(), 3u);
}

TEST(Engine, EqualTimestampsRunInScheduleOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) e.schedule(5, [&order, i] { order.push_back(i); });
  e.run();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(Engine, EventsMayScheduleMoreEvents) {
  Engine e;
  int count = 0;
  std::function<void()> chain = [&] {
    ++count;
    if (count < 5) e.schedule(e.now() + 10, chain);
  };
  e.schedule(0, chain);
  e.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(e.now(), 40);
}

TEST(Engine, RejectsSchedulingInPast) {
  Engine e;
  e.schedule(100, [&] {
    EXPECT_THROW(e.schedule(50, [] {}), AssertionError);
  });
  e.run();
}

TEST(Engine, NextEventTime) {
  Engine e;
  EXPECT_EQ(e.next_event_time(), kTimeInfinity);
  e.schedule(42, [] {});
  EXPECT_EQ(e.next_event_time(), 42);
  e.run();
  EXPECT_EQ(e.next_event_time(), kTimeInfinity);
}

TEST(Engine, ExceptionPropagates) {
  Engine e;
  e.schedule(1, [] { throw std::runtime_error("boom"); });
  EXPECT_THROW(e.run(), std::runtime_error);
}

TEST(Engine, SinglePartitionWatchdogChecksEveryHandlerEvent) {
  // One partition drains the whole run in one window, so the watchdog must
  // fire at the first handler event past the threshold: the timer at 1100,
  // not at some later window boundary. (The timer stops at 5000, so a run
  // without that check ends in a deadlock error instead of spinning.)
  Engine e;
  e.set_watchdog(1000);
  Task blocked(e, "blocked", [](Task& t) { t.block(); });
  blocked.start();
  std::function<void()> tick = [&] {
    if (e.now() < 5000) e.schedule(e.now() + 100, tick);
  };
  e.schedule(100, tick);
  try {
    e.run();
    FAIL() << "a blocked task under a live timer must trip the watchdog";
  } catch (const StallError& err) {
    EXPECT_NE(std::string(err.what()).find(
                  "no compute-task progress for 1100 virtual ns"),
              std::string::npos)
        << err.what();
  }
  EXPECT_EQ(e.now(), 1100);
}

}  // namespace
}  // namespace fgdsm::sim
