#include "common/random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_set>
#include <vector>

namespace crimson {
namespace {

TEST(RngTest, DeterministicBySeed) {
  Rng a(99), b(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  Rng c(100);
  bool all_equal = true;
  Rng a2(99);
  for (int i = 0; i < 100; ++i) {
    if (a2.Next() != c.Next()) {
      all_equal = false;
      break;
    }
  }
  EXPECT_FALSE(all_equal);
}

TEST(RngTest, ReseedRestartsStream) {
  Rng a(7);
  uint64_t first = a.Next();
  a.Next();
  a.Reseed(7);
  EXPECT_EQ(a.Next(), first);
}

TEST(RngTest, UniformStaysInRange) {
  Rng rng(1);
  for (uint64_t n : {1ull, 2ull, 7ull, 100ull, 1ull << 40}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.Uniform(n), n);
    }
  }
}

TEST(RngTest, UniformCoversSmallRange) {
  Rng rng(2);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.Uniform(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ExponentialPositiveWithRoughMean) {
  Rng rng(4);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double x = rng.Exponential(2.0);
    EXPECT_GT(x, 0.0);
    sum += x;
  }
  // Mean 1/rate = 0.5; tolerate 5% statistical wiggle.
  EXPECT_NEAR(sum / n, 0.5, 0.025);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(5);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i;
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, orig);
  EXPECT_NE(v, orig);  // astronomically unlikely to be identity
}

class SampleWithoutReplacementTest
    : public ::testing::TestWithParam<std::pair<uint64_t, uint64_t>> {};

TEST_P(SampleWithoutReplacementTest, DistinctAndInRange) {
  auto [n, k] = GetParam();
  Rng rng(6);
  for (int rep = 0; rep < 20; ++rep) {
    std::vector<uint64_t> s = rng.SampleWithoutReplacement(n, k);
    ASSERT_EQ(s.size(), k);
    std::set<uint64_t> uniq(s.begin(), s.end());
    EXPECT_EQ(uniq.size(), k) << "duplicates in sample";
    for (uint64_t x : s) EXPECT_LT(x, n);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, SampleWithoutReplacementTest,
    ::testing::Values(std::make_pair(1ull, 1ull), std::make_pair(10ull, 0ull),
                      std::make_pair(10ull, 10ull),
                      std::make_pair(1000ull, 3ull),   // Floyd path
                      std::make_pair(1000ull, 900ull),  // dense path
                      std::make_pair(100000ull, 64ull)));

// SampleWithoutReplacement as it was before small samples scanned
// their draws and larger ones probed a flat table: Floyd's algorithm
// with a hash set for k < n/4, a partial Fisher-Yates shuffle
// otherwise. The oracle for the scanning and flat-table paths.
std::vector<uint64_t> HashSetSampleWithoutReplacement(Rng* rng, uint64_t n,
                                                      uint64_t k) {
  std::vector<uint64_t> out;
  out.reserve(k);
  if (k == 0) return out;
  if (k < n / 4) {
    std::unordered_set<uint64_t> chosen;
    chosen.reserve(static_cast<size_t>(k) * 2);
    for (uint64_t j = n - k; j < n; ++j) {
      uint64_t t = rng->Uniform(j + 1);
      if (chosen.insert(t).second) {
        out.push_back(t);
      } else {
        chosen.insert(j);
        out.push_back(j);
      }
    }
    return out;
  }
  std::vector<uint64_t> idx(n);
  for (uint64_t i = 0; i < n; ++i) idx[i] = i;
  for (uint64_t i = 0; i < k; ++i) {
    uint64_t j = i + rng->Uniform(n - i);
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

// Four consecutive outputs determine the generator's 256-bit state.
std::vector<uint64_t> RngState(Rng rng) {
  return {rng.Next(), rng.Next(), rng.Next(), rng.Next()};
}

TEST(RngTest, SampleMatchesHashSetOracle) {
  // take runs from 0 to 200, across the 64-draw scan threshold and the
  // k < n/4 switch to the dense path; both generators carry over.
  const uint64_t sizes[] = {1,   2,    3,    7,      64,      255,    256,
                            257, 1000, 4096, 65537, 1000000};
  Rng a(8), b(8);
  for (uint64_t n : sizes) {
    for (uint64_t take = 0; take <= std::min<uint64_t>(n, 200); ++take) {
      for (int rep = 0; rep < 3; ++rep) {
        std::vector<uint64_t> want =
            HashSetSampleWithoutReplacement(&a, n, take);
        ASSERT_EQ(b.SampleWithoutReplacement(n, take), want)
            << "n=" << n << " take=" << take;
        ASSERT_EQ(RngState(b), RngState(a)) << "n=" << n << " take=" << take;
      }
    }
  }
  // Larger takes probe a fuller table.
  for (uint64_t take : {255, 256, 257, 1000, 1200}) {
    std::vector<uint64_t> want = HashSetSampleWithoutReplacement(&a, 1000000,
                                                                 take);
    ASSERT_EQ(b.SampleWithoutReplacement(1000000, take), want)
        << "take=" << take;
    ASSERT_EQ(RngState(b), RngState(a)) << "take=" << take;
  }
}

TEST(RngTest, SampleCoversAllElementsEventually) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int rep = 0; rep < 200; ++rep) {
    for (uint64_t x : rng.SampleWithoutReplacement(10, 3)) seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 10u);
}

}  // namespace
}  // namespace crimson
