// Unit tests for the adaptive query cache: cacheability and keying,
// the (generation, epoch) validity stamp protocol around begin /
// commit / abort, 2Q promotion and byte-budget eviction, EraseTree,
// and the zero-budget disabled mode.

#include "cache/query_cache.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace crimson {
namespace cache {
namespace {

/// One cache.* cell's current value.
uint64_t Cell(const obs::MetricsRegistry& reg, const std::string& name) {
  return reg.Snapshot().counter(name);
}

QueryResult LcaResult(const std::string& name) {
  return QueryResult(LcaAnswer{0, name});
}

/// A result whose retained size we can dial: a sample answer carrying
/// one species name of `bytes` characters.
QueryResult ResultOfSize(size_t bytes) {
  SampleAnswer a;
  a.species.push_back(std::string(bytes, 'x'));
  return QueryResult(std::move(a));
}

TEST(CacheabilityTest, SamplingKindsNeverCache) {
  EXPECT_TRUE(QueryCache::IsCacheable(QueryRequest(LcaQuery{"a", "b"})));
  EXPECT_TRUE(QueryCache::IsCacheable(QueryRequest(ProjectQuery{{"a"}})));
  EXPECT_TRUE(QueryCache::IsCacheable(QueryRequest(CladeQuery{{"a"}})));
  EXPECT_TRUE(QueryCache::IsCacheable(QueryRequest(PatternQuery{"(a,b);"})));
  EXPECT_FALSE(QueryCache::IsCacheable(QueryRequest(SampleUniformQuery{3})));
  EXPECT_FALSE(QueryCache::IsCacheable(QueryRequest(SampleTimeQuery{3, 1.0})));
}

TEST(CacheabilityTest, KeysSeparateKindsTreesAndParams) {
  const std::string a = QueryCache::KeyFor("t1", QueryRequest(LcaQuery{"x", "y"}));
  EXPECT_NE(a, QueryCache::KeyFor("t2", QueryRequest(LcaQuery{"x", "y"})));
  EXPECT_NE(a, QueryCache::KeyFor("t1", QueryRequest(LcaQuery{"x", "z"})));
  EXPECT_NE(a, QueryCache::KeyFor("t1", QueryRequest(CladeQuery{{"x", "y"}})));
  EXPECT_EQ(a, QueryCache::KeyFor("t1", QueryRequest(LcaQuery{"x", "y"})));
}

TEST(QueryCacheTest, InsertThenLookupHits) {
  obs::MetricsRegistry reg;
  QueryCache cache(1 << 20, &reg);
  ReadStamp stamp = cache.Stamp("t", 5);
  cache.Insert("t", "k", stamp, LcaResult("root"));
  auto hit = cache.Lookup("t", "k");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(std::get<LcaAnswer>(*hit).name, "root");
  EXPECT_FALSE(cache.Lookup("t", "other").has_value());

  const obs::MetricsSnapshot stats = reg.Snapshot();
  EXPECT_EQ(stats.counter("cache.hits"), 1u);
  EXPECT_EQ(stats.counter("cache.misses"), 1u);
  EXPECT_EQ(stats.counter("cache.insertions"), 1u);
  EXPECT_EQ(stats.counter("cache.entries"), 1u);
  EXPECT_GT(stats.counter("cache.bytes_used"), 0u);
}

TEST(QueryCacheTest, ZeroBudgetDisablesEverything) {
  obs::MetricsRegistry reg;
  QueryCache cache(0, &reg);
  EXPECT_FALSE(cache.enabled());
  ReadStamp stamp = cache.Stamp("t", 1);
  cache.Insert("t", "k", stamp, LcaResult("root"));
  EXPECT_FALSE(cache.Lookup("t", "k").has_value());
  EXPECT_EQ(Cell(reg, "cache.entries"), 0u);
}

TEST(InvalidationTest, CommittedMutationInvalidatesOldStamps) {
  obs::MetricsRegistry reg;
  QueryCache cache(1 << 20, &reg);
  ReadStamp stamp = cache.Stamp("t", 3);
  cache.Insert("t", "k", stamp, LcaResult("old"));

  cache.BeginTreeMutation("t");
  cache.CommitTreeMutation("t", 4);

  EXPECT_FALSE(cache.Lookup("t", "k").has_value());
  EXPECT_EQ(Cell(reg, "cache.invalidations"), 1u);
  // Post-mutation stamps validate again.
  ReadStamp fresh = cache.Stamp("t", 4);
  cache.Insert("t", "k", fresh, LcaResult("new"));
  auto hit = cache.Lookup("t", "k");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(std::get<LcaAnswer>(*hit).name, "new");
}

TEST(InvalidationTest, AbortRestoresTheGeneration) {
  QueryCache cache(1 << 20);
  ReadStamp stamp = cache.Stamp("t", 3);
  cache.Insert("t", "k", stamp, LcaResult("kept"));

  cache.BeginTreeMutation("t");
  cache.AbortTreeMutation("t");

  // The aborted write changed nothing; the entry must survive.
  auto hit = cache.Lookup("t", "k");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(std::get<LcaAnswer>(*hit).name, "kept");
}

TEST(InvalidationTest, StampTakenDuringMutationIsRejectedByEpochBarrier) {
  QueryCache cache(1 << 20);
  // A mutation is in flight; a concurrent reader stamps mid-mutation
  // (it already sees the bumped generation but a pre-commit epoch).
  cache.BeginTreeMutation("t");
  ReadStamp mid = cache.Stamp("t", /*committed_epoch=*/7);
  cache.CommitTreeMutation("t", /*committed_epoch=*/9);

  // Insert still succeeds or skips, but the entry must never be served:
  // the stamp's epoch (7) is below the barrier (9).
  cache.Insert("t", "k", mid, LcaResult("snapshot"));
  EXPECT_FALSE(cache.Lookup("t", "k").has_value());

  // Whereas a stamp at or past the barrier is fine.
  ReadStamp after = cache.Stamp("t", 9);
  cache.Insert("t", "k", after, LcaResult("current"));
  EXPECT_TRUE(cache.Lookup("t", "k").has_value());
}

TEST(InvalidationTest, MutationOnOneTreeLeavesOthersAlone) {
  // Keys are globally unique because KeyFor embeds the tree name; the
  // raw-key tests below follow the same discipline.
  QueryCache cache(1 << 20);
  cache.Insert("a", "a/k", cache.Stamp("a", 1), LcaResult("a"));
  cache.Insert("b", "b/k", cache.Stamp("b", 1), LcaResult("b"));

  cache.BeginTreeMutation("a");
  cache.CommitTreeMutation("a", 2);

  EXPECT_FALSE(cache.Lookup("a", "a/k").has_value());
  EXPECT_TRUE(cache.Lookup("b", "b/k").has_value());
}

TEST(InvalidationTest, EraseTreeDropsEntriesAndState) {
  QueryCache cache(1 << 20);
  cache.Insert("t", "t/k1", cache.Stamp("t", 1), LcaResult("x"));
  cache.Insert("t", "t/k2", cache.Stamp("t", 1), LcaResult("y"));
  cache.Insert("u", "u/k1", cache.Stamp("u", 1), LcaResult("z"));

  cache.EraseTree("t");
  EXPECT_FALSE(cache.Lookup("t", "t/k1").has_value());
  EXPECT_FALSE(cache.Lookup("t", "t/k2").has_value());
  EXPECT_TRUE(cache.Lookup("u", "u/k1").has_value());

  // A re-created tree under the same name starts from a clean slate:
  // generation 0 stamps validate again.
  cache.Insert("t", "t/k1", cache.Stamp("t", 1), LcaResult("fresh"));
  EXPECT_TRUE(cache.Lookup("t", "t/k1").has_value());
}

TEST(StalenessTest, InsertWithAgedStampIsSkipped) {
  obs::MetricsRegistry reg;
  QueryCache cache(1 << 20, &reg);
  ReadStamp stamp = cache.Stamp("t", 1);
  // The mutation lands while the query is still executing.
  cache.BeginTreeMutation("t");
  cache.CommitTreeMutation("t", 2);
  cache.Insert("t", "k", stamp, LcaResult("stale"));

  EXPECT_FALSE(cache.Lookup("t", "k").has_value());
  EXPECT_EQ(Cell(reg, "cache.stale_skips"), 1u);
  EXPECT_EQ(Cell(reg, "cache.insertions"), 0u);
}

TEST(ReplacementTest, BudgetEvictsProbationBeforeProtected) {
  // Budget fits ~4 entries of this size. "hot" is promoted to the
  // protected segment by a re-reference; the cold fill that follows
  // must evict only probation entries.
  obs::MetricsRegistry reg;
  QueryCache cache(4096, &reg);
  const ReadStamp stamp = cache.Stamp("t", 1);
  cache.Insert("t", "hot", stamp, ResultOfSize(500));
  ASSERT_TRUE(cache.Lookup("t", "hot").has_value());  // promote

  for (int i = 0; i < 16; ++i) {
    cache.Insert("t", "cold" + std::to_string(i), stamp, ResultOfSize(500));
  }
  EXPECT_GT(Cell(reg, "cache.evictions"), 0u);
  EXPECT_LE(Cell(reg, "cache.bytes_used"), 4096u);
  EXPECT_TRUE(cache.Lookup("t", "hot").has_value())
      << "a burst of one-shot inserts must not flush the re-referenced entry";
}

TEST(ReplacementTest, OversizedEntryIsRejectedNotLooped) {
  obs::MetricsRegistry reg;
  QueryCache cache(1024, &reg);
  cache.Insert("t", "huge", cache.Stamp("t", 1), ResultOfSize(64 * 1024));
  EXPECT_EQ(Cell(reg, "cache.entries"), 0u);
  EXPECT_FALSE(cache.Lookup("t", "huge").has_value());
}

TEST(ReplacementTest, BypassCounterTracksSamplingKinds) {
  obs::MetricsRegistry reg;
  QueryCache cache(1 << 20, &reg);
  cache.NoteBypass();
  cache.NoteBypass();
  EXPECT_EQ(Cell(reg, "cache.bypassed"), 2u);
}

TEST(QueryCacheStressTest, ConcurrentMixedTrafficStaysConsistent) {
  obs::MetricsRegistry reg;
  QueryCache cache(64 * 1024, &reg);
  constexpr int kThreads = 8;
  constexpr int kOps = 400;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      // One tree per thread: the begin/commit/abort hooks are
      // contract-bound to the single session writer, so no two threads
      // may mutate the same tree -- but all threads share the cache
      // structure, its lists, and its byte budget.
      const std::string tree = "t" + std::to_string(t);
      for (int i = 0; i < kOps; ++i) {
        const std::string key = tree + "/k" + std::to_string(i % 32);
        if (i % 16 == 0) {
          cache.BeginTreeMutation(tree);
          if (i % 32 == 0) {
            cache.CommitTreeMutation(tree, static_cast<uint64_t>(i));
          } else {
            cache.AbortTreeMutation(tree);
          }
        }
        if (auto hit = cache.Lookup(tree, key); !hit.has_value()) {
          cache.Insert(tree, key, cache.Stamp(tree, static_cast<uint64_t>(i)),
                       ResultOfSize(64));
        }
        if (i % 64 == 0) cache.EraseTree(tree);
      }
    });
  }
  for (auto& t : threads) t.join();

  const obs::MetricsSnapshot stats = reg.Snapshot();
  EXPECT_LE(stats.counter("cache.bytes_used"), 64u * 1024u);
  EXPECT_EQ(stats.counter("cache.hits") + stats.counter("cache.misses"),
            static_cast<uint64_t>(kThreads) * kOps);
}

}  // namespace
}  // namespace cache
}  // namespace crimson
