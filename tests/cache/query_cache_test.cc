// Unit tests for the adaptive query cache: cacheability and keying by
// (tree id, request), 2Q promotion and byte-budget eviction, the
// zero-budget disabled mode, and the name-keyed spellings kept for the
// perfbench replay.

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
  const std::string a = QueryCache::KeyFor(1, QueryRequest(LcaQuery{"x", "y"}));
  EXPECT_NE(a, QueryCache::KeyFor(2, QueryRequest(LcaQuery{"x", "y"})));
  EXPECT_NE(a, QueryCache::KeyFor(1, QueryRequest(LcaQuery{"x", "z"})));
  EXPECT_NE(a, QueryCache::KeyFor(1, QueryRequest(CladeQuery{{"x", "y"}})));
  EXPECT_EQ(a, QueryCache::KeyFor(1, QueryRequest(LcaQuery{"x", "y"})));
}

TEST(QueryCacheTest, InsertThenLookupHits) {
  obs::MetricsRegistry reg;
  QueryCache cache(1 << 20, &reg);
  cache.Insert("k", LcaResult("root"));
  auto hit = cache.Lookup("k");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(std::get<LcaAnswer>(*hit).name, "root");
  EXPECT_FALSE(cache.Lookup("other").has_value());

  const obs::MetricsSnapshot stats = reg.Snapshot();
  EXPECT_EQ(stats.counter("cache.hits"), 1u);
  EXPECT_EQ(stats.counter("cache.misses"), 1u);
  EXPECT_EQ(stats.counter("cache.insertions"), 1u);
  EXPECT_EQ(stats.counter("cache.entries"), 1u);
  EXPECT_GT(stats.counter("cache.bytes_used"), 0u);
}

TEST(QueryCacheTest, SecondInsertOfAKeyKeepsTheResidentEntry) {
  obs::MetricsRegistry reg;
  QueryCache cache(1 << 20, &reg);
  cache.Insert("k", LcaResult("first"));
  cache.Insert("k", LcaResult("second"));
  auto hit = cache.Lookup("k");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(std::get<LcaAnswer>(*hit).name, "first");
  EXPECT_EQ(Cell(reg, "cache.insertions"), 1u);
}

TEST(QueryCacheTest, ZeroBudgetDisablesEverything) {
  obs::MetricsRegistry reg;
  QueryCache cache(0, &reg);
  EXPECT_FALSE(cache.enabled());
  cache.Insert("k", LcaResult("root"));
  EXPECT_FALSE(cache.Lookup("k").has_value());
  EXPECT_EQ(Cell(reg, "cache.entries"), 0u);
}

TEST(QueryCacheTest, NameKeyedSpellingsForwardToTheKeyedCache) {
  obs::MetricsRegistry reg;
  QueryCache cache(1 << 20, &reg);
  const QueryRequest request(LcaQuery{"x", "y"});
  const std::string key = QueryCache::KeyFor("t", request);
  EXPECT_EQ(key, "lca?" + EncodeQueryParams("t", request));
  cache.Insert("t", key, cache.Stamp("t", 0), LcaResult("root"));
  auto hit = cache.Lookup("t", key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(std::get<LcaAnswer>(*hit).name, "root");
  EXPECT_TRUE(cache.Lookup(key).has_value());
  EXPECT_EQ(Cell(reg, "cache.hits"), 2u);
}

TEST(ReplacementTest, BudgetEvictsProbationBeforeProtected) {
  // Budget fits ~4 entries of this size. "hot" is promoted to the
  // protected segment by a re-reference; the cold fill that follows
  // must evict only probation entries.
  obs::MetricsRegistry reg;
  QueryCache cache(4096, &reg);
  cache.Insert("hot", ResultOfSize(500));
  ASSERT_TRUE(cache.Lookup("hot").has_value());  // promote

  for (int i = 0; i < 16; ++i) {
    cache.Insert("cold" + std::to_string(i), ResultOfSize(500));
  }
  EXPECT_GT(Cell(reg, "cache.evictions"), 0u);
  EXPECT_LE(Cell(reg, "cache.bytes_used"), 4096u);
  EXPECT_TRUE(cache.Lookup("hot").has_value())
      << "a burst of one-shot inserts must not flush the re-referenced entry";
}

TEST(ReplacementTest, OversizedEntryIsRejectedNotLooped) {
  obs::MetricsRegistry reg;
  QueryCache cache(1024, &reg);
  cache.Insert("huge", ResultOfSize(64 * 1024));
  EXPECT_EQ(Cell(reg, "cache.entries"), 0u);
  EXPECT_FALSE(cache.Lookup("huge").has_value());
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
      // Neighbouring threads share half their keys, so hits, racing
      // inserts of one key, promotion and eviction all interleave on
      // one structure and one byte budget.
      for (int i = 0; i < kOps; ++i) {
        const std::string key =
            QueryCache::KeyFor((t + i % 2) / 2, QueryRequest(LcaQuery{
                                   "a", "s" + std::to_string(i % 97)}));
        if (auto hit = cache.Lookup(key); !hit.has_value()) {
          cache.Insert(key, ResultOfSize(64 + 8 * (i % 7)));
        }
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
