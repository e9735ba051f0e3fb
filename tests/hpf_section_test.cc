#include <gtest/gtest.h>

#include <random>

#include "src/hpf/distribution.h"
#include "src/hpf/layout.h"
#include "src/hpf/section.h"
#include "src/hpf/symbolic.h"

namespace fgdsm::hpf {
namespace {

TEST(AffineExpr, ArithmeticAndEval) {
  const AffineExpr n = AffineExpr::sym("n");
  const AffineExpr e = n * 2 + AffineExpr::sym("p") - 3;
  Bindings b;
  b.set("n", 10);
  b.set("p", 4);
  EXPECT_EQ(e.eval(b), 21);
  EXPECT_EQ(e.coeff("n"), 2);
  EXPECT_EQ(e.coeff("p"), 1);
  EXPECT_EQ(e.coeff("q"), 0);
  EXPECT_TRUE((n - n).is_constant());
  EXPECT_EQ((n - n).constant(), 0);
  // The form analysis.cc's diagnostics print.
  EXPECT_EQ(e.to_string(), "-3+2*n+p");
  EXPECT_EQ((n - 1).to_string(), "-1+n");
  EXPECT_EQ((AffineExpr::sym("$p") * 4 + 3).to_string(), "3+4*$p");
  EXPECT_EQ((AffineExpr(0) - n).to_string(), "-n");
  EXPECT_EQ((n - n).to_string(), "0");
}

TEST(AffineExpr, UnboundSymbolThrows) {
  Bindings b;
  EXPECT_THROW(AffineExpr::sym("x").eval(b), AssertionError);
}

TEST(ConcreteInterval, Basics) {
  ConcreteInterval iv{2, 10, 2};
  EXPECT_EQ(iv.count(), 5);
  EXPECT_TRUE(iv.contains(6));
  EXPECT_FALSE(iv.contains(5));
  EXPECT_FALSE(iv.contains(12));
  EXPECT_TRUE((ConcreteInterval{3, 2, 1}).empty());
  // Normalization trims hi to the last member.
  EXPECT_EQ((ConcreteInterval{0, 9, 4}).normalized().hi, 8);
}

TEST(ConcreteInterval, IntersectUnitStride) {
  const auto r = intersect({0, 10, 1}, {5, 20, 1});
  EXPECT_EQ(r.lo, 5);
  EXPECT_EQ(r.hi, 10);
  EXPECT_EQ(r.count(), 6);
  EXPECT_TRUE(intersect({0, 4, 1}, {5, 9, 1}).empty());
}

TEST(ConcreteInterval, IntersectStrided) {
  // {0,3,6,9,12} ∩ {0,4,8,12} = {0,12}
  const auto r = intersect({0, 12, 3}, {0, 12, 4});
  EXPECT_EQ(r.lo, 0);
  EXPECT_EQ(r.hi, 12);
  EXPECT_EQ(r.stride, 12);
  EXPECT_EQ(r.count(), 2);
  // Misaligned strides: {1,3,5,...} ∩ {0,2,4,...} = empty
  EXPECT_TRUE(intersect({1, 99, 2}, {0, 98, 2}).empty());
}

TEST(ConcreteInterval, IntersectPropertyRandom) {
  std::mt19937 rng(42);
  for (int trial = 0; trial < 500; ++trial) {
    ConcreteInterval a{static_cast<std::int64_t>(rng() % 40),
                       static_cast<std::int64_t>(rng() % 80),
                       static_cast<std::int64_t>(rng() % 6 + 1)};
    ConcreteInterval b{static_cast<std::int64_t>(rng() % 40),
                       static_cast<std::int64_t>(rng() % 80),
                       static_cast<std::int64_t>(rng() % 6 + 1)};
    const ConcreteInterval r = intersect(a, b);
    for (std::int64_t v = -5; v <= 90; ++v)
      EXPECT_EQ(r.contains(v), a.contains(v) && b.contains(v))
          << "v=" << v << " a=[" << a.lo << "," << a.hi << "," << a.stride
          << "] b=[" << b.lo << "," << b.hi << "," << b.stride << "]";
  }
}

TEST(ConcreteInterval, SubtractPropertyRandom) {
  std::mt19937 rng(7);
  for (int trial = 0; trial < 500; ++trial) {
    ConcreteInterval a{static_cast<std::int64_t>(rng() % 40),
                       static_cast<std::int64_t>(rng() % 80),
                       static_cast<std::int64_t>(rng() % 4 + 1)};
    ConcreteInterval b{static_cast<std::int64_t>(rng() % 40),
                       static_cast<std::int64_t>(rng() % 80),
                       static_cast<std::int64_t>(rng() % 4 + 1)};
    const auto pieces = subtract(a, b);
    for (std::int64_t v = -5; v <= 90; ++v) {
      bool in = false;
      for (const auto& piece : pieces) in = in || piece.contains(v);
      EXPECT_EQ(in, a.contains(v) && !b.contains(v)) << "v=" << v;
    }
  }
}

TEST(ConcreteSet, SubtractRectangles2D) {
  // (0:9, 0:9) minus (2:7, 3:6): the classic frame.
  ConcreteSet s(ConcreteSection{{{0, 9, 1}, {0, 9, 1}}});
  const ConcreteSet r = s.subtract(ConcreteSection{{{2, 7, 1}, {3, 6, 1}}});
  const std::vector<ConcreteInterval> uni{{0, 9, 1}, {0, 9, 1}};
  EXPECT_EQ(r.exact_count_slow(uni), 100 - 6 * 4);
  EXPECT_TRUE(r.contains({0, 0}));
  EXPECT_TRUE(r.contains({2, 2}));
  EXPECT_FALSE(r.contains({2, 3}));
  EXPECT_FALSE(r.contains({7, 6}));
  EXPECT_TRUE(r.contains({8, 6}));
}

TEST(ConcreteSet, SetAlgebraPropertyRandom2D) {
  std::mt19937 rng(99);
  auto rand_iv = [&](std::int64_t span) {
    const std::int64_t lo = static_cast<std::int64_t>(rng() % span);
    return ConcreteInterval{lo, lo + static_cast<std::int64_t>(rng() % span),
                            1};
  };
  const std::vector<ConcreteInterval> uni{{0, 24, 1}, {0, 24, 1}};
  for (int trial = 0; trial < 200; ++trial) {
    const ConcreteSection a{{rand_iv(20), rand_iv(20)}};
    const ConcreteSection b{{rand_iv(20), rand_iv(20)}};
    const ConcreteSet diff = ConcreteSet(a).subtract(b);
    const ConcreteSet inter = ConcreteSet(a).intersect(b);
    for (std::int64_t i = 0; i <= 24; ++i)
      for (std::int64_t j = 0; j <= 24; ++j) {
        const bool in_a = a.contains({i, j});
        const bool in_b = b.contains({i, j});
        EXPECT_EQ(diff.contains({i, j}), in_a && !in_b);
        EXPECT_EQ(inter.contains({i, j}), in_a && in_b);
      }
  }
}

TEST(Distribution, BlockOwnership) {
  // n=10, np=4 -> block size 3: owners 0:[0,2] 1:[3,5] 2:[6,8] 3:[9,9]
  EXPECT_EQ(owner_of(DistKind::kBlock, 0, 10, 4), 0);
  EXPECT_EQ(owner_of(DistKind::kBlock, 2, 10, 4), 0);
  EXPECT_EQ(owner_of(DistKind::kBlock, 3, 10, 4), 1);
  EXPECT_EQ(owner_of(DistKind::kBlock, 9, 10, 4), 3);
  for (int p = 0; p < 4; ++p) {
    const auto iv = owned_interval(DistKind::kBlock, p, 10, 4);
    for (std::int64_t j = 0; j < 10; ++j)
      EXPECT_EQ(iv.contains(j), owner_of(DistKind::kBlock, j, 10, 4) == p);
  }
}

TEST(Distribution, CyclicOwnership) {
  for (int p = 0; p < 3; ++p) {
    const auto iv = owned_interval(DistKind::kCyclic, p, 11, 3);
    for (std::int64_t j = 0; j < 11; ++j)
      EXPECT_EQ(iv.contains(j), owner_of(DistKind::kCyclic, j, 11, 3) == p);
  }
}

TEST(Distribution, OwnershipPartitionProperty) {
  // Every index owned by exactly one processor, both kinds, many shapes.
  for (DistKind kind : {DistKind::kBlock, DistKind::kCyclic}) {
    for (int np : {1, 2, 3, 5, 8}) {
      for (std::int64_t n : {1, 7, 16, 33}) {
        for (std::int64_t j = 0; j < n; ++j) {
          int owners = 0;
          for (int p = 0; p < np; ++p)
            if (owned_interval(kind, p, n, np).contains(j)) ++owners;
          EXPECT_EQ(owners, 1) << to_string(kind) << " np=" << np
                               << " n=" << n << " j=" << j;
        }
      }
    }
  }
}

TEST(Layout, ColumnMajorAddressing) {
  ArrayLayout a{"x", 4096, {8, 5}, 8};
  EXPECT_EQ(a.elements(), 40);
  EXPECT_EQ(a.linear({0, 0}), 0);
  EXPECT_EQ(a.linear({1, 0}), 1);
  EXPECT_EQ(a.linear({0, 1}), 8);
  EXPECT_EQ(a.addr_of({2, 3}), 4096 + (2 + 3 * 8) * 8);
}

TEST(Layout, LinearizeMergesFullColumns) {
  ArrayLayout a{"x", 0, {8, 5}, 8};
  // Full columns 1..3: one contiguous run.
  const auto runs =
      linearize(a, ConcreteSection{{{0, 7, 1}, {1, 3, 1}}});
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].addr, 8u * 8u);
  EXPECT_EQ(runs[0].len, 3u * 8u * 8u);
}

TEST(Layout, LinearizePartialColumns) {
  ArrayLayout a{"x", 0, {8, 5}, 8};
  // Rows 2..5 of columns 1..2: two runs.
  const auto runs =
      linearize(a, ConcreteSection{{{2, 5, 1}, {1, 2, 1}}});
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0], (hpf::Run{(2 + 8) * 8, 4 * 8}));
  EXPECT_EQ(runs[1], (hpf::Run{(2 + 16) * 8, 4 * 8}));
  EXPECT_EQ(run_bytes(runs), 64u);
}

TEST(Layout, Linearize3D) {
  ArrayLayout a{"x", 0, {4, 4, 3}, 8};
  // Full planes k=1..2 merge into one run.
  const auto runs = linearize(
      a, ConcreteSection{{{0, 3, 1}, {0, 3, 1}, {1, 2, 1}}});
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].addr, 16u * 8u);
  EXPECT_EQ(runs[0].len, 2u * 16u * 8u);
}

TEST(Layout, BlockAlignInnerShrinks) {
  // Run [100, 612) with 128B blocks -> aligned [128, 512).
  const auto out = block_align_inner({hpf::Run{100, 512}}, 128);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].addr, 128u);
  EXPECT_EQ(out[0].len, 384u);
}

TEST(Layout, BlockAlignInnerDropsSmallRuns) {
  // A run smaller than a block that does not cover one vanishes (the edge
  // case the paper leaves to the default protocol).
  EXPECT_TRUE(block_align_inner({hpf::Run{100, 100}}, 128).empty());
  // Exactly one block survives.
  const auto out = block_align_inner({hpf::Run{128, 128}}, 128);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], (hpf::Run{128, 128}));
}

TEST(Layout, BlockAlignInnerEmptyAfterAlignment) {
  // Crosses a block boundary yet contains no full block: [10, 210) touches
  // blocks 0 and 1 but covers neither — everything stays with the default
  // protocol (the trimmed-edge case the inspector's schedules rely on).
  EXPECT_TRUE(block_align_inner({hpf::Run{10, 200}}, 128).empty());
}

TEST(Layout, BlockAlignInnerSingleBlockFromMidBlockStart) {
  // [120, 260) contains exactly block 1 ([128, 256)).
  const auto out = block_align_inner({hpf::Run{120, 140}}, 128);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], (hpf::Run{128, 128}));
}

TEST(Layout, BlockAlignInnerMidBlockStartLongRun) {
  // [100, 1100): first full block starts at 128, last ends at 1024 — both
  // partial edges trimmed, interior kept as one run.
  const auto out = block_align_inner({hpf::Run{100, 1000}}, 128);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].addr, 128u);
  EXPECT_EQ(out[0].len, 896u);
}

TEST(Layout, BlockAlignInnerPropertyRandom) {
  std::mt19937 rng(5);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t bs = std::size_t{1} << (4 + rng() % 4);  // 16..128
    const hpf::Run r{rng() % 1000, rng() % 2000};
    const auto out = block_align_inner({r}, bs);
    for (const auto& o : out) {
      EXPECT_EQ(o.addr % bs, 0u);
      EXPECT_EQ(o.len % bs, 0u);
      EXPECT_GE(o.addr, r.addr);
      EXPECT_LE(o.addr + o.len, r.addr + r.len);
    }
    // Maximality: one more block on either side would overflow the run.
    if (!out.empty()) {
      EXPECT_LT(out[0].addr, r.addr + bs);
      EXPECT_GT(out[0].addr + out[0].len + bs, r.addr + r.len);
    } else {
      EXPECT_LT(r.len, 2 * bs);  // can only fail to fit if small
    }
  }
}

}  // namespace
}  // namespace fgdsm::hpf
