#include "common/random.h"

#include <algorithm>

namespace crimson {

namespace {

// Up to this many draws, Floyd's membership test scans the draws so
// far: cheaper than setting up a table (one-leaf pool draws run on
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
    // The same steps with a flat open-addressed table for membership:
    // a power of two of at least 2k slots, each draw stored plus one so
    // that 0 marks a free slot, found by multiplicative hashing.
    int bits = 1;
    while ((uint64_t{1} << bits) < 2 * k) ++bits;
    const uint64_t mask = (uint64_t{1} << bits) - 1;
    std::vector<uint64_t> slots(mask + 1, 0);
    // Adds v; false when it was already there.
    auto insert = [&](uint64_t v) {
      uint64_t h = (v * 0x9E3779B97F4A7C15ULL) >> (64 - bits);
      for (; slots[h] != 0; h = (h + 1) & mask) {
        if (slots[h] == v + 1) return false;
      }
      slots[h] = v + 1;
      return true;
    };
    for (uint64_t j = n - k; j < n; ++j) {
      const uint64_t t = Uniform(j + 1);
      if (insert(t)) {
        out.push_back(t);
      } else {
        insert(j);
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
