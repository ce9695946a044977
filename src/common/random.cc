#include "common/random.h"

#include <algorithm>
#include <unordered_set>

namespace crimson {

namespace {

// Up to this many draws, Floyd's membership test scans the draws so
// far: cheaper than building a hash set (one-leaf pool draws run on
// every time sample).
constexpr uint64_t kScanDraws = 64;

}  // namespace

std::vector<uint64_t> Rng::SampleWithoutReplacement(uint64_t n, uint64_t k) {
  assert(k <= n);
  std::vector<uint64_t> out;
  out.reserve(k);
  if (k == 0) return out;
  // Floyd's algorithm: O(k) expected draws, good when k << n. Step j
  // draws t from [0, j]; t is new or j is, since every earlier draw is
  // below j.
  if (k < n / 4 && k <= kScanDraws) {
    for (uint64_t j = n - k; j < n; ++j) {
      const uint64_t t = Uniform(j + 1);
      out.push_back(std::find(out.begin(), out.end(), t) == out.end() ? t : j);
    }
    return out;
  }
  if (k < n / 4) {
    // The same steps with a hash set for membership.
    std::unordered_set<uint64_t> chosen;
    chosen.reserve(static_cast<size_t>(k) * 2);
    for (uint64_t j = n - k; j < n; ++j) {
      uint64_t t = Uniform(j + 1);
      if (chosen.insert(t).second) {
        out.push_back(t);
      } else {
        chosen.insert(j);
        out.push_back(j);
      }
    }
    return out;
  }
  // Dense case: partial Fisher-Yates over an index array.
  std::vector<uint64_t> idx(n);
  for (uint64_t i = 0; i < n; ++i) idx[i] = i;
  for (uint64_t i = 0; i < k; ++i) {
    uint64_t j = i + Uniform(n - i);
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

}  // namespace crimson
