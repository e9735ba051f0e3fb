#include <gtest/gtest.h>

#include "src/util/assert.h"
#include "src/util/log.h"
#include "src/util/options.h"
#include "src/util/stats.h"
#include "src/util/table.h"

namespace fgdsm {
namespace {

TEST(Assert, ThrowsWithMessage) {
  EXPECT_THROW(FGDSM_ASSERT(1 == 2), AssertionError);
  try {
    FGDSM_ASSERT_MSG(false, "ctx " << 42);
    FAIL() << "should have thrown";
  } catch (const AssertionError& e) {
    EXPECT_NE(std::string(e.what()).find("ctx 42"), std::string::npos);
  }
}

TEST(Assert, PassesSilently) {
  FGDSM_ASSERT(2 + 2 == 4);
  FGDSM_ASSERT_MSG(true, "never evaluated");
}

// Logging is off unless FGDSM_LOG names a category; these tests assume the
// variable is unset and leave every category disabled.
TEST(Log, EnablesAndDisablesOneCategoryAndAll) {
  util::Log& log = util::Log::instance();
  ASSERT_FALSE(util::Log::any_enabled());
  log.enable("proto");
  EXPECT_TRUE(util::Log::any_enabled());
  EXPECT_TRUE(log.enabled("proto"));
  EXPECT_FALSE(log.enabled("ckpt"));
  log.disable("proto");
  EXPECT_FALSE(util::Log::any_enabled());
  EXPECT_FALSE(log.enabled("proto"));

  log.enable("all");
  EXPECT_TRUE(util::Log::any_enabled());
  EXPECT_TRUE(log.enabled("proto"));
  EXPECT_TRUE(log.enabled("ckpt"));
  log.enable("proto");
  log.disable("all");
  EXPECT_TRUE(util::Log::any_enabled());  // "proto" is still on
  EXPECT_FALSE(log.enabled("ckpt"));
  log.disable("proto");
  EXPECT_FALSE(util::Log::any_enabled());
}

TEST(Log, EnabledCategoryWrites) {
  util::Log& log = util::Log::instance();
  log.enable("proto");
  ::testing::internal::CaptureStderr();
  FGDSM_LOG("proto", "node " << 3 << " read fault");
  FGDSM_LOG("ckpt", "not this one");
  const std::string out = ::testing::internal::GetCapturedStderr();
  log.disable("proto");
  EXPECT_EQ(out, "[proto] node 3 read fault\n");
}

TEST(Log, DisabledCategoryDoesNotEvaluateItsStream) {
  util::Log& log = util::Log::instance();
  int evaluated = 0;
  const auto count = [&] { return ++evaluated; };
  FGDSM_LOG("proto", "value " << count());
  EXPECT_EQ(evaluated, 0);
  // Another category on: the site checks its own.
  log.enable("ckpt");
  FGDSM_LOG("proto", "value " << count());
  log.disable("ckpt");
  EXPECT_EQ(evaluated, 0);
  log.enable("proto");
  ::testing::internal::CaptureStderr();
  FGDSM_LOG("proto", "value " << count());
  ::testing::internal::GetCapturedStderr();
  log.disable("proto");
  EXPECT_EQ(evaluated, 1);
}

TEST(Stats, NodeStatsAccumulate) {
  util::NodeStats a, b;
  a.read_misses = 3;
  a.compute_ns = 100;
  a.miss_ns = 10;
  a.sync_ns = 5;
  b.read_misses = 2;
  b.write_misses = 7;
  b.ccc_ns = 4;
  a += b;
  EXPECT_EQ(a.read_misses, 5u);
  EXPECT_EQ(a.write_misses, 7u);
  EXPECT_EQ(a.total_misses(), 12u);
  EXPECT_EQ(a.comm_ns(), 10 + 5 + 4);
}

TEST(Stats, RunStatsAverages) {
  util::RunStats rs(4);
  for (int i = 0; i < 4; ++i) {
    rs.node[i].read_misses = 10;
    rs.node[i].compute_ns = 1000;
    rs.node[i].miss_ns = 100;
  }
  EXPECT_DOUBLE_EQ(rs.avg_misses_per_node(), 10.0);
  EXPECT_DOUBLE_EQ(rs.avg_compute_ns_per_node(), 1000.0);
  EXPECT_DOUBLE_EQ(rs.avg_comm_ns_per_node(), 100.0);
}

TEST(Stats, PercentReduction) {
  EXPECT_DOUBLE_EQ(util::percent_reduction(100.0, 25.0), 75.0);
  EXPECT_DOUBLE_EQ(util::percent_reduction(0.0, 25.0), 0.0);
}

TEST(Stats, Formatting) {
  EXPECT_EQ(util::format_ns(1'500'000'000), "1.500 s");
  EXPECT_EQ(util::format_ns(2'500'000), "2.50 ms");
  EXPECT_EQ(util::format_ns(42'000), "42.00 us");
  EXPECT_EQ(util::format_ns(999), "999 ns");
  EXPECT_EQ(util::format_count(293'800), "293.8K");
  EXPECT_EQ(util::format_count(12'000'000), "12.0M");
  EXPECT_EQ(util::format_count(123), "123");
}

TEST(Table, FormatsAligned) {
  util::Table t({"app", "time"});
  t.add_row({"jacobi", "1.0"});
  t.add_row({"pde", "22.5"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| app    | time |"), std::string::npos);
  EXPECT_NE(s.find("| jacobi | 1.0  |"), std::string::npos);
}

TEST(Table, RejectsWrongArity) {
  util::Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), AssertionError);
}

TEST(Options, ParsesForms) {
  const char* argv[] = {"prog", "--nodes=8", "--block=128",
                        "--dual", "positional", "--ratio=2.5"};
  util::Options o(6, argv);
  EXPECT_EQ(o.get_int("nodes", 0), 8);
  EXPECT_EQ(o.get_int("block", 0), 128);
  EXPECT_TRUE(o.has("dual"));
  EXPECT_DOUBLE_EQ(o.get_double("ratio", 0.0), 2.5);
  ASSERT_EQ(o.positional().size(), 1u);
  EXPECT_EQ(o.positional()[0], "positional");
  EXPECT_EQ(o.get_int("absent", -7), -7);
}

TEST(Options, TrailingFlagIsBoolean) {
  const char* argv[] = {"prog", "--verbose"};
  util::Options o(2, argv);
  EXPECT_TRUE(o.get_bool("verbose"));
}

}  // namespace
}  // namespace fgdsm
