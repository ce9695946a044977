// Unit tests for the cracked sequence store: piece-map refinement,
// fetch slicing and alignment, missing-name handling, fetch error
// propagation, the MapSequenceSource adapter, and concurrent GetBatch.

#include "cache/cracked_store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <thread>

#include "common/string_util.h"

namespace crimson {
namespace cache {
namespace {

/// A backing "storage" of n species named s000..s{n-1} (zero-padded so
/// lexicographic order equals numeric order), sequence = "SEQ_<name>".
/// Records every fetch so tests can assert slicing behavior.
class FakeBacking {
 public:
  explicit FakeBacking(size_t n) {
    for (size_t i = 0; i < n; ++i) {
      names_.push_back(StrFormat("s%03zu", i));
    }
  }

  const std::vector<std::string>& names() const { return names_; }

  CrackedSequenceStore::FetchFn fetcher() {
    return [this](size_t lo, size_t hi,
                  const CrackedSequenceStore::SinkFn& sink) -> Status {
      std::lock_guard<std::mutex> lock(mu_);
      fetch_calls_.emplace_back(names_.begin() + lo, names_.begin() + hi);
      for (size_t ord = lo; ord < hi; ++ord) {
        const std::string& name = names_[ord];
        if (absent_.count(name)) continue;  // simulated missing sequence
        const std::string sequence = "SEQ_" + name;
        sink(ord, Slice(sequence));
        fetched_total_.fetch_add(1);
      }
      return Status::OK();
    };
  }

  void MarkAbsent(const std::string& name) { absent_.insert(name); }

  size_t fetch_calls() const {
    std::lock_guard<std::mutex> lock(mu_);
    return fetch_calls_.size();
  }
  size_t fetched_total() const { return fetched_total_.load(); }
  std::vector<std::vector<std::string>> calls() const {
    std::lock_guard<std::mutex> lock(mu_);
    return fetch_calls_;
  }

 private:
  std::vector<std::string> names_;
  std::set<std::string> absent_;
  mutable std::mutex mu_;
  std::vector<std::vector<std::string>> fetch_calls_;
  std::atomic<size_t> fetched_total_{0};
};

TEST(MapSequenceSourceTest, ServesPresentAndReportsMissing) {
  std::map<std::string, std::string> backing = {{"a", "AA"}, {"b", "BB"}};
  MapSequenceSource source(&backing);
  auto got = source.GetBatch({"b", "a"});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->at("a"), "AA");
  EXPECT_EQ(got->at("b"), "BB");

  auto missing = source.GetBatch({"a", "ghost"});
  ASSERT_FALSE(missing.ok());
  EXPECT_TRUE(missing.status().IsNotFound());
  EXPECT_NE(missing.status().message().find(
                "no sequence for sampled species 'ghost'"),
            std::string::npos);
}

TEST(CrackedStoreTest, FirstTouchLoadsOnlyTheAlignedSlice) {
  FakeBacking backing(100);
  CrackedSequenceStore store(backing.names(), /*min_piece=*/8,
                             backing.fetcher());
  EXPECT_EQ(store.domain_size(), 100u);

  // Touch ordinals 10 and 11: one fetch, aligned out to [8, 16).
  auto got = store.GetBatch({"s010", "s011"});
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->at("s010"), "SEQ_s010");
  EXPECT_EQ(backing.fetch_calls(), 1u);
  EXPECT_EQ(backing.fetched_total(), 8u);

  CrackedStoreStats stats = store.stats();
  EXPECT_EQ(stats.sequences_resident, 8u);
  EXPECT_EQ(stats.sequences_total, 100u);
  EXPECT_EQ(stats.loaded_pieces, 1u);
  EXPECT_GT(stats.pieces, 1u) << "cracking must have split the domain";
}

TEST(CrackedStoreTest, RepeatQueriesAreServedWithoutFetching) {
  FakeBacking backing(100);
  obs::MetricsRegistry reg;
  CrackedSequenceStore store(backing.names(), 8, backing.fetcher(), &reg);
  ASSERT_TRUE(store.GetBatch({"s010", "s011"}).ok());
  const size_t calls_after_first = backing.fetch_calls();

  for (int i = 0; i < 5; ++i) {
    auto again = store.GetBatch({"s011", "s010", "s012"});
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->size(), 3u);
  }
  EXPECT_EQ(backing.fetch_calls(), calls_after_first)
      << "the touched region is resident; repeats must not re-fetch";
  const obs::MetricsSnapshot m = reg.Snapshot();
  EXPECT_EQ(m.counter("crack.piece_hits"), 5u);
  EXPECT_EQ(m.counter("crack.batches"), 6u);
  EXPECT_EQ(m.counter("crack.fetches"), 1u);
  EXPECT_EQ(m.counter("crack.sequences_loaded"), 8u);
}

TEST(CrackedStoreTest, DisjointTouchesCrackIndependentPieces) {
  FakeBacking backing(100);
  CrackedSequenceStore store(backing.names(), 8, backing.fetcher());

  ASSERT_TRUE(store.GetBatch({"s005"}).ok());
  ASSERT_TRUE(store.GetBatch({"s090"}).ok());
  // Two separated touches: two fetches, nothing in between loaded.
  EXPECT_EQ(backing.fetch_calls(), 2u);
  EXPECT_EQ(backing.fetched_total(), 16u);
  EXPECT_EQ(store.stats().loaded_pieces, 2u);

  // The gap is still cold: touching it fetches, and never re-fetches
  // the flanks (nothing is fetched twice).
  ASSERT_TRUE(store.GetBatch({"s050"}).ok());
  EXPECT_EQ(backing.fetched_total(), 24u);
  std::set<std::string> seen;
  for (const auto& call : backing.calls()) {
    for (const auto& name : call) {
      EXPECT_TRUE(seen.insert(name).second)
          << name << " was fetched more than once";
    }
  }
}

TEST(CrackedStoreTest, ScatteredWorkloadConvergesToFullResidency) {
  FakeBacking backing(64);
  CrackedSequenceStore store(backing.names(), 4, backing.fetcher());
  std::vector<std::string> all = backing.names();
  ASSERT_TRUE(store.GetBatch(all).ok());
  EXPECT_EQ(store.stats().sequences_resident, 64u);
  // Full residency: later batches never fetch again.
  ASSERT_TRUE(store.GetBatch(all).ok());
  EXPECT_EQ(backing.fetched_total(), 64u);
}

TEST(CrackedStoreTest, NameOutsideTheDomainIsNotFound) {
  FakeBacking backing(16);
  CrackedSequenceStore store(backing.names(), 4, backing.fetcher());
  auto got = store.GetBatch({"s001", "zebra"});
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsNotFound());
  EXPECT_NE(
      got.status().message().find("no sequence for sampled species 'zebra'"),
      std::string::npos);
}

TEST(CrackedStoreTest, DomainNameWithNoStoredSequenceIsNotFound) {
  FakeBacking backing(16);
  backing.MarkAbsent("s003");
  CrackedSequenceStore store(backing.names(), 4, backing.fetcher());
  auto got = store.GetBatch({"s003"});
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsNotFound());
  EXPECT_NE(
      got.status().message().find("no sequence for sampled species 's003'"),
      std::string::npos);
  // The miss is remembered: no second fetch for the same piece.
  const size_t calls = backing.fetch_calls();
  EXPECT_FALSE(store.GetBatch({"s003"}).ok());
  EXPECT_EQ(backing.fetch_calls(), calls);
}

TEST(CrackedStoreTest, FetchErrorsPropagateAndDoNotPoisonTheStore) {
  FakeBacking backing(32);
  std::atomic<bool> fail{true};
  CrackedSequenceStore::FetchFn inner = backing.fetcher();
  CrackedSequenceStore store(
      backing.names(), 4,
      [&fail, inner](size_t lo, size_t hi,
                     const CrackedSequenceStore::SinkFn& sink) -> Status {
        if (fail.load()) return Status::Unavailable("backing offline");
        return inner(lo, hi, sink);
      });

  auto got = store.GetBatch({"s010"});
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsUnavailable());

  // The failed slice was not marked loaded; once the backing recovers
  // the same batch succeeds.
  fail.store(false);
  auto retry = store.GetBatch({"s010"});
  ASSERT_TRUE(retry.ok()) << retry.status();
  EXPECT_EQ(retry->at("s010"), "SEQ_s010");
}

TEST(CrackedStoreTest, MinPieceZeroBehavesAsOne) {
  FakeBacking backing(16);
  CrackedSequenceStore store(backing.names(), 0, backing.fetcher());
  ASSERT_TRUE(store.GetBatch({"s007"}).ok());
  EXPECT_EQ(backing.fetched_total(), 1u);
}

TEST(CrackedStoreStressTest, ConcurrentBatchesLoadEachSequenceOnce) {
  FakeBacking backing(200);
  CrackedSequenceStore store(backing.names(), 8, backing.fetcher());
  constexpr int kThreads = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 60; ++i) {
        const size_t base = static_cast<size_t>((t * 31 + i * 7) % 190);
        std::vector<std::string> want = {StrFormat("s%03zu", base),
                                         StrFormat("s%03zu", base + 5)};
        auto got = store.GetBatch(want);
        if (!got.ok() || got->size() != want.size()) failures.fetch_add(1);
        for (const auto& name : want) {
          if (got.ok() && got->at(name) != "SEQ_" + name) failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  // Nothing fetched twice, ever -- even under contention.
  std::set<std::string> seen;
  for (const auto& call : backing.calls()) {
    for (const auto& name : call) {
      EXPECT_TRUE(seen.insert(name).second)
          << name << " was fetched more than once";
    }
  }
  EXPECT_LE(store.stats().sequences_resident, 200u);
}

}  // namespace
}  // namespace cache
}  // namespace crimson
