#include "storage/buffer_pool.h"

#include <gtest/gtest.h>

#include <cstring>

namespace crimson {
namespace {

class BufferPoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto r = Pager::Open(NewMemFile());
    ASSERT_TRUE(r.ok());
    pager_ = std::move(r).value();
  }

  /// A pool whose storage.pool.* cells land in this test's registry.
  std::unique_ptr<BufferPool> CountedPool(size_t capacity) {
    return std::make_unique<BufferPool>(pager_.get(), capacity, nullptr,
                                        nullptr, &metrics_);
  }
  uint64_t Cell(const char* name) const {
    return metrics_.Snapshot().counter(name);
  }

  std::unique_ptr<Pager> pager_;
  obs::MetricsRegistry metrics_;
};

TEST_F(BufferPoolTest, NewPageIsZeroedAndPinned) {
  BufferPool pool(pager_.get(), 8);
  PageId id;
  auto g = pool.New(&id);
  ASSERT_TRUE(g.ok());
  EXPECT_NE(id, kInvalidPageId);
  for (size_t i = 0; i < kPageSize; ++i) {
    ASSERT_EQ(g->data()[i], 0);
  }
}

TEST_F(BufferPoolTest, FetchHitAfterNew) {
  auto owned = CountedPool(8);
  BufferPool& pool = *owned;
  PageId id;
  {
    auto g = pool.New(&id);
    ASSERT_TRUE(g.ok());
    memcpy(g->data(), "cached", 6);
    g->MarkDirty();
  }
  auto g2 = pool.Fetch(id);
  ASSERT_TRUE(g2.ok());
  EXPECT_EQ(memcmp(g2->data(), "cached", 6), 0);
  EXPECT_EQ(Cell("storage.pool.hits"), 1u);
  EXPECT_EQ(Cell("storage.pool.misses"), 0u);
}

TEST_F(BufferPoolTest, EvictionWritesBackDirtyPages) {
  auto owned = CountedPool(8);
  BufferPool& pool = *owned;
  std::vector<PageId> ids;
  // Create more pages than frames; earlier ones must be evicted and
  // written back.
  for (int i = 0; i < 20; ++i) {
    PageId id;
    auto g = pool.New(&id);
    ASSERT_TRUE(g.ok());
    snprintf(g->data(), 16, "page-%d", i);
    g->MarkDirty();
    ids.push_back(id);
  }
  EXPECT_GT(Cell("storage.pool.evictions"), 0u);
  EXPECT_GT(Cell("storage.pool.dirty_writebacks"), 0u);
  // Every page still reads back correctly (possibly from disk).
  for (int i = 0; i < 20; ++i) {
    auto g = pool.Fetch(ids[i]);
    ASSERT_TRUE(g.ok());
    char expect[16];
    snprintf(expect, 16, "page-%d", i);
    EXPECT_STREQ(g->data(), expect);
  }
}

TEST_F(BufferPoolTest, LruEvictsLeastRecentlyUsed) {
  auto owned = CountedPool(8);
  BufferPool& pool = *owned;
  std::vector<PageId> ids(8);
  for (int i = 0; i < 8; ++i) {
    auto g = pool.New(&ids[i]);
    ASSERT_TRUE(g.ok());
  }
  // Touch page 0 so page 1 becomes the LRU victim.
  { auto g = pool.Fetch(ids[0]); ASSERT_TRUE(g.ok()); }
  PageId id9;
  { auto g = pool.New(&id9); ASSERT_TRUE(g.ok()); }
  const uint64_t hits = Cell("storage.pool.hits");
  const uint64_t misses = Cell("storage.pool.misses");
  { auto g = pool.Fetch(ids[0]); ASSERT_TRUE(g.ok()); }
  EXPECT_EQ(Cell("storage.pool.hits") - hits, 1u);  // still resident
  EXPECT_EQ(Cell("storage.pool.misses") - misses, 0u);
  { auto g = pool.Fetch(ids[1]); ASSERT_TRUE(g.ok()); }
  EXPECT_EQ(Cell("storage.pool.misses") - misses, 1u);  // was evicted
}

TEST_F(BufferPoolTest, AllFramesPinnedExhaustsPool) {
  BufferPool pool(pager_.get(), 8);
  std::vector<PageGuard> guards;
  for (int i = 0; i < 8; ++i) {
    PageId id;
    auto g = pool.New(&id);
    ASSERT_TRUE(g.ok());
    guards.push_back(std::move(*g));
  }
  PageId id;
  auto g = pool.New(&id);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kResourceExhausted);
  // Releasing one pin frees a frame.
  guards.pop_back();
  auto g2 = pool.New(&id);
  EXPECT_TRUE(g2.ok());
}

TEST_F(BufferPoolTest, PinnedPagesSurviveEvictionPressure) {
  BufferPool pool(pager_.get(), 8);
  PageId keep;
  auto kept = pool.New(&keep);
  ASSERT_TRUE(kept.ok());
  memcpy(kept->data(), "pinned", 6);
  kept->MarkDirty();
  for (int i = 0; i < 30; ++i) {
    PageId id;
    auto g = pool.New(&id);
    ASSERT_TRUE(g.ok());
  }
  EXPECT_EQ(memcmp(kept->data(), "pinned", 6), 0);
}

TEST_F(BufferPoolTest, MoveTransfersPin) {
  BufferPool pool(pager_.get(), 8);
  PageId id;
  auto g = pool.New(&id);
  ASSERT_TRUE(g.ok());
  PageGuard moved = std::move(*g);
  EXPECT_TRUE(moved.valid());
  EXPECT_FALSE(g->valid());
  moved.Release();
  EXPECT_FALSE(moved.valid());
}

TEST_F(BufferPoolTest, FlushAllPersistsEverything) {
  BufferPool pool(pager_.get(), 8);
  PageId id;
  {
    auto g = pool.New(&id);
    ASSERT_TRUE(g.ok());
    memcpy(g->data(), "durable", 7);
    g->MarkDirty();
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  std::vector<char> raw(kPageSize);
  ASSERT_TRUE(pager_->ReadPage(id, raw.data()).ok());
  EXPECT_EQ(memcmp(raw.data(), "durable", 7), 0);
}

TEST_F(BufferPoolTest, FreeRemovesFromCacheAndPager) {
  BufferPool pool(pager_.get(), 8);
  PageId id;
  { auto g = pool.New(&id); ASSERT_TRUE(g.ok()); }
  ASSERT_TRUE(pool.Free(id).ok());
  // The pager hands the id back on the next allocation.
  PageId id2;
  { auto g = pool.New(&id2); ASSERT_TRUE(g.ok()); }
  EXPECT_EQ(id2, id);
}

TEST_F(BufferPoolTest, FreePinnedPageRejected) {
  BufferPool pool(pager_.get(), 8);
  PageId id;
  auto g = pool.New(&id);
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(pool.Free(id).IsFailedPrecondition());
}

}  // namespace
}  // namespace crimson
