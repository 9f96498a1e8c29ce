#include "util/rng.h"

#include <gtest/gtest.h>

#include <set>

namespace unicore::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

class BelowBound : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BelowBound, AlwaysInRange) {
  Rng rng(7);
  std::uint64_t bound = GetParam();
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(bound), bound);
}

INSTANTIATE_TEST_SUITE_P(Bounds, BelowBound,
                         ::testing::Values(1ULL, 2ULL, 3ULL, 10ULL, 255ULL,
                                           1'000'000ULL, 1ULL << 40));

TEST(Rng, BelowZeroBoundReturnsZero) {
  Rng rng(7);
  EXPECT_EQ(rng.below(0), 0u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    std::int64_t v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10'000; ++i) {
    double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10'000, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
    EXPECT_FALSE(rng.chance(-1.0));
    EXPECT_TRUE(rng.chance(2.0));
  }
}

TEST(Rng, ChanceFrequency) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 10'000; ++i)
    if (rng.chance(0.25)) ++hits;
  EXPECT_NEAR(hits / 10'000.0, 0.25, 0.02);
}

TEST(Rng, ExponentialMean) {
  Rng rng(19);
  double sum = 0;
  for (int i = 0; i < 20'000; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / 20'000, 5.0, 0.25);
}

TEST(Rng, BytesLengthAndDeterminism) {
  Rng a(23), b(23);
  Bytes x = a.bytes(37);
  Bytes y = b.bytes(37);
  EXPECT_EQ(x.size(), 37u);
  EXPECT_EQ(x, y);
}

TEST(Rng, BytesAtFixedLengthsMatchRecorded) {
  // Each draw fills eight bytes, low byte first; a tail shorter than
  // eight bytes still takes a whole draw.
  struct Recorded {
    std::size_t n;
    std::uint64_t fnv1a;  // of the bytes
    std::uint64_t next_draw;
  };
  constexpr Recorded kRecorded[] = {
      {0, 0xcbf29ce484222325ULL, 0x49d55178ca54cf69ULL},
      {1, 0xaf63e44c8601fa24ULL, 0x9a22115a4d2624dcULL},
      {7, 0x8072a7e51f477e5bULL, 0x9a22115a4d2624dcULL},
      {8, 0x8a515c54267b3896ULL, 0x9a22115a4d2624dcULL},
      {9, 0x83782cfd6360a5beULL, 0xa648b1ccf0bbbbaeULL},
      {63, 0xc37eda878fcc39bdULL, 0x5ccf3d5b1ce60ff9ULL},
      {70'001, 0x4877a78847270af2ULL, 0xa838bff13fef5f0eULL},
  };
  for (const Recorded& recorded : kRecorded) {
    Rng rng(5);
    Bytes bytes = rng.bytes(recorded.n);
    ASSERT_EQ(bytes.size(), recorded.n);
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (std::uint8_t byte : bytes) hash = (hash ^ byte) * 0x100000001b3ULL;
    EXPECT_EQ(hash, recorded.fnv1a) << "n = " << recorded.n;
    EXPECT_EQ(rng.next(), recorded.next_draw) << "n = " << recorded.n;
  }
  EXPECT_EQ(Rng(5).bytes(9),
            (Bytes{0x69, 0xcf, 0x54, 0xca, 0x78, 0x51, 0xd5, 0x49, 0xdc}));
}

TEST(Rng, ForkedStreamsAreIndependent) {
  Rng parent(29);
  Rng child = parent.fork();
  // The child continues deterministically even as the parent advances.
  Rng parent2(29);
  Rng child2 = parent2.fork();
  for (int i = 0; i < 10; ++i) parent.next();
  for (int i = 0; i < 50; ++i) EXPECT_EQ(child.next(), child2.next());
}

}  // namespace
}  // namespace unicore::util
