#include "storage/btree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <tuple>

#include "common/random.h"
#include "common/string_util.h"
#include "storage/key_codec.h"

namespace crimson {
namespace {

class BTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto p = Pager::Open(NewMemFile());
    ASSERT_TRUE(p.ok());
    pager_ = std::move(p).value();
    pool_ = std::make_unique<BufferPool>(pager_.get(), 256);
    auto t = BTree::Create(pool_.get());
    ASSERT_TRUE(t.ok());
    tree_ = std::make_unique<BTree>(std::move(t).value());
  }

  std::unique_ptr<Pager> pager_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<BTree> tree_;
};

TEST_F(BTreeTest, EmptyTreeBehaviour) {
  std::string v;
  EXPECT_TRUE(tree_->Get(Slice("k"), &v).IsNotFound());
  EXPECT_EQ(*tree_->Count(), 0u);
  auto it = tree_->NewIterator();
  ASSERT_TRUE(it.SeekToFirst().ok());
  EXPECT_FALSE(it.Valid());
}

TEST_F(BTreeTest, SingleInsertGet) {
  ASSERT_TRUE(tree_->Insert(Slice("species"), Slice("42")).ok());
  std::string v;
  ASSERT_TRUE(tree_->Get(Slice("species"), &v).ok());
  EXPECT_EQ(v, "42");
  EXPECT_TRUE(tree_->Get(Slice("specie"), &v).IsNotFound());
  EXPECT_TRUE(tree_->Get(Slice("speciesz"), &v).IsNotFound());
}

TEST_F(BTreeTest, SequentialInsertsSplitCorrectly) {
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    std::string key = StrFormat("key%08d", i);
    ASSERT_TRUE(tree_->Insert(Slice(key), Slice(std::to_string(i))).ok())
        << i;
  }
  EXPECT_EQ(*tree_->Count(), static_cast<uint64_t>(n));
  for (int i = 0; i < n; i += 97) {
    std::string v;
    ASSERT_TRUE(tree_->Get(Slice(StrFormat("key%08d", i)), &v).ok());
    EXPECT_EQ(v, std::to_string(i));
  }
}

TEST_F(BTreeTest, ReverseOrderInserts) {
  const int n = 5000;
  for (int i = n - 1; i >= 0; --i) {
    ASSERT_TRUE(
        tree_->Insert(Slice(StrFormat("k%06d", i)), Slice("v")).ok());
  }
  EXPECT_EQ(*tree_->Count(), static_cast<uint64_t>(n));
  // Iteration yields ascending order.
  auto it = tree_->NewIterator();
  ASSERT_TRUE(it.SeekToFirst().ok());
  std::string prev;
  int count = 0;
  while (it.Valid()) {
    std::string k = it.key().ToString();
    if (count > 0) EXPECT_LT(prev, k);
    prev = k;
    ++count;
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(count, n);
}

// Property: a random workload agrees with std::map exactly.
class BTreeRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(BTreeRandomTest, MatchesStdMap) {
  auto p = Pager::Open(NewMemFile());
  ASSERT_TRUE(p.ok());
  auto pager = std::move(p).value();
  BufferPool pool(pager.get(), 256);
  auto t = BTree::Create(&pool);
  ASSERT_TRUE(t.ok());
  BTree tree = std::move(t).value();

  int n = GetParam();
  Rng rng(777 + static_cast<uint64_t>(n));
  std::map<std::string, std::string> reference;
  for (int i = 0; i < n; ++i) {
    std::string key = StrFormat("k%llu", static_cast<unsigned long long>(
                                              rng.Uniform(1u << 20)));
    std::string value = StrFormat("v%d", i);
    if (reference.emplace(key, value).second) {
      ASSERT_TRUE(tree.Insert(Slice(key), Slice(value), /*unique=*/true).ok());
    } else {
      EXPECT_TRUE(tree.Insert(Slice(key), Slice(value), /*unique=*/true)
                      .IsAlreadyExists());
    }
  }
  // Full-order agreement via iterator.
  auto it = tree.NewIterator();
  ASSERT_TRUE(it.SeekToFirst().ok());
  auto ref_it = reference.begin();
  while (it.Valid()) {
    ASSERT_NE(ref_it, reference.end());
    EXPECT_EQ(it.key().ToString(), ref_it->first);
    EXPECT_EQ(it.value().ToString(), ref_it->second);
    ++ref_it;
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(ref_it, reference.end());
}

INSTANTIATE_TEST_SUITE_P(Sizes, BTreeRandomTest,
                         ::testing::Values(10, 100, 1000, 20000));

TEST_F(BTreeTest, SeekFindsLowerBound) {
  for (int i = 0; i < 100; i += 2) {
    ASSERT_TRUE(
        tree_->Insert(Slice(StrFormat("k%03d", i)), Slice("v")).ok());
  }
  auto it = tree_->NewIterator();
  ASSERT_TRUE(it.Seek(Slice("k005")).ok());
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key().ToString(), "k006");
  ASSERT_TRUE(it.Seek(Slice("k098")).ok());
  EXPECT_EQ(it.key().ToString(), "k098");
  ASSERT_TRUE(it.Seek(Slice("k099")).ok());
  EXPECT_FALSE(it.Valid());
}

TEST_F(BTreeTest, DuplicateKeysAllRetained) {
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(tree_->Insert(Slice("dup"), Slice(std::to_string(i))).ok());
  }
  ASSERT_TRUE(tree_->Insert(Slice("aaa"), Slice("x")).ok());
  ASSERT_TRUE(tree_->Insert(Slice("zzz"), Slice("y")).ok());
  auto it = tree_->NewIterator();
  ASSERT_TRUE(it.Seek(Slice("dup")).ok());
  int count = 0;
  std::set<std::string> values;
  while (it.Valid() && it.key() == Slice("dup")) {
    values.insert(it.value().ToString());
    ++count;
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(count, 500);
  EXPECT_EQ(values.size(), 500u);
}

TEST_F(BTreeTest, DuplicateRunStraddlingSplitsIsFullyVisible) {
  // Regression: a duplicate run long enough to straddle leaf splits
  // (and push equal keys into the subtree LEFT of an equal separator)
  // must still be fully reachable. Read descent has to lower-bound on
  // separators; upper-bound descent used to land mid-run, so Seek
  // returned a suffix and Get/Delete missed leading entries.
  const int kDupes = 2000;
  for (int i = 0; i < kDupes; ++i) {
    ASSERT_TRUE(tree_->Insert(Slice("dupkey"), Slice(U64Key(i))).ok());
  }
  ASSERT_TRUE(tree_->Insert(Slice("aaa"), Slice("x")).ok());
  ASSERT_TRUE(tree_->Insert(Slice("zzz"), Slice("y")).ok());

  auto it = tree_->NewIterator();
  ASSERT_TRUE(it.Seek(Slice("dupkey")).ok());
  int count = 0;
  while (it.Valid() && it.key() == Slice("dupkey")) {
    ++count;
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(count, kDupes);

  // Get finds the run even when its head is left of a separator.
  std::string v;
  EXPECT_TRUE(tree_->Get(Slice("dupkey"), &v).ok());
  // Delete by (key, value) reaches the first-inserted (leftmost) entry.
  std::string first = U64Key(0);
  Slice first_slice(first);
  EXPECT_TRUE(tree_->Delete(Slice("dupkey"), &first_slice).ok());
  ASSERT_TRUE(it.Seek(Slice("dupkey")).ok());
  count = 0;
  while (it.Valid() && it.key() == Slice("dupkey")) {
    ++count;
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(count, kDupes - 1);
}

TEST_F(BTreeTest, DeleteSpecificValueAmongDuplicates) {
  ASSERT_TRUE(tree_->Insert(Slice("d"), Slice("1")).ok());
  ASSERT_TRUE(tree_->Insert(Slice("d"), Slice("2")).ok());
  ASSERT_TRUE(tree_->Insert(Slice("d"), Slice("3")).ok());
  Slice two("2");
  ASSERT_TRUE(tree_->Delete(Slice("d"), &two).ok());
  auto it = tree_->NewIterator();
  ASSERT_TRUE(it.Seek(Slice("d")).ok());
  std::set<std::string> values;
  while (it.Valid() && it.key() == Slice("d")) {
    values.insert(it.value().ToString());
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(values, (std::set<std::string>{"1", "3"}));
  // Deleting an absent value reports NotFound.
  Slice nine("9");
  EXPECT_TRUE(tree_->Delete(Slice("d"), &nine).IsNotFound());
}

TEST_F(BTreeTest, DeleteThenReinsert) {
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(
        tree_->Insert(Slice(StrFormat("k%05d", i)), Slice("v")).ok());
  }
  for (int i = 0; i < 2000; i += 2) {
    ASSERT_TRUE(tree_->Delete(Slice(StrFormat("k%05d", i))).ok());
  }
  EXPECT_EQ(*tree_->Count(), 1000u);
  for (int i = 0; i < 2000; i += 2) {
    ASSERT_TRUE(
        tree_->Insert(Slice(StrFormat("k%05d", i)), Slice("w")).ok());
  }
  EXPECT_EQ(*tree_->Count(), 2000u);
  std::string v;
  ASSERT_TRUE(tree_->Get(Slice("k00002"), &v).ok());
  EXPECT_EQ(v, "w");
}

TEST_F(BTreeTest, OversizedKeyValueRejected) {
  std::string big_key(BTree::kMaxKeySize + 1, 'k');
  std::string big_val(BTree::kMaxValueSize + 1, 'v');
  EXPECT_TRUE(
      tree_->Insert(Slice(big_key), Slice("v")).IsInvalidArgument());
  EXPECT_TRUE(
      tree_->Insert(Slice("k"), Slice(big_val)).IsInvalidArgument());
  // Max sizes are accepted.
  std::string max_key(BTree::kMaxKeySize, 'k');
  std::string max_val(BTree::kMaxValueSize, 'v');
  EXPECT_TRUE(tree_->Insert(Slice(max_key), Slice(max_val)).ok());
}

TEST_F(BTreeTest, LargeKeysForceDeepSplits) {
  // Big cells -> few per page -> a tall tree quickly.
  for (int i = 0; i < 300; ++i) {
    std::string key = StrFormat("%04d-", i) + std::string(500, 'p');
    ASSERT_TRUE(tree_->Insert(Slice(key), Slice(std::string(500, 'q'))).ok());
  }
  EXPECT_EQ(*tree_->Count(), 300u);
  std::string v;
  std::string probe = "0123-" + std::string(500, 'p');
  ASSERT_TRUE(tree_->Get(Slice(probe), &v).ok());
  EXPECT_EQ(v.size(), 500u);
}

TEST_F(BTreeTest, PersistsThroughAnchorAfterReopen) {
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(
        tree_->Insert(Slice(StrFormat("k%05d", i)), Slice("v")).ok());
  }
  PageId anchor = tree_->anchor();
  auto reopened = BTree::Open(pool_.get(), anchor);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(*reopened->Count(), 3000u);
  std::string v;
  EXPECT_TRUE(reopened->Get(Slice("k02999"), &v).ok());
}

// ---------------------------------------------------------------------------
// DeleteRange: one pass over a key range == repeated Delete(key)
// ---------------------------------------------------------------------------

std::vector<std::pair<std::string, std::string>> Dump(const BTree& tree);

/// Two trees fed the same inserts; keys are removed from one with
/// DeleteRange and from the other with Delete(key) until NotFound, for
/// each key in the range.
class BTreeDeleteRangeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto p = Pager::Open(NewMemFile());
    ASSERT_TRUE(p.ok());
    pager_ = std::move(p).value();
    pool_ = std::make_unique<BufferPool>(pager_.get(), 512);
    all_ = std::make_unique<BTree>(std::move(BTree::Create(pool_.get())).value());
    one_ = std::make_unique<BTree>(std::move(BTree::Create(pool_.get())).value());
  }

  void InsertBoth(const std::string& key, const std::string& value) {
    ASSERT_TRUE(all_->Insert(Slice(key), Slice(value)).ok());
    ASSERT_TRUE(one_->Insert(Slice(key), Slice(value)).ok());
  }

  void InsertRun(const std::string& key, int n) {
    for (int i = 0; i < n; ++i) InsertBoth(key, U64Key(i));
  }

  /// Removes [lower, upper) (empty upper = unbounded).
  void DeleteBoth(const std::string& lower, const std::string& upper) {
    std::set<std::string> keys;
    for (const auto& entry : Dump(*one_)) {
      if (entry.first >= lower && (upper.empty() || entry.first < upper)) {
        keys.insert(entry.first);
      }
    }
    uint64_t expected = 0;
    for (const std::string& key : keys) {
      Status s;
      while ((s = one_->Delete(Slice(key))).ok()) ++expected;
      ASSERT_TRUE(s.IsNotFound()) << s;
    }
    auto removed = all_->DeleteRange(Slice(lower), Slice(upper));
    ASSERT_TRUE(removed.ok()) << removed.status();
    EXPECT_EQ(*removed, expected) << lower << " " << upper;
    ExpectTreesAgree();
  }

  /// Removes exactly one key's run.
  void DeleteBoth(const std::string& key) { DeleteBoth(key, key + '\0'); }

  // Scans, and Seek positions and Gets of every key, match on both trees.
  void ExpectTreesAgree() {
    const auto entries = Dump(*one_);
    ASSERT_EQ(Dump(*all_), entries);
    std::set<std::string> keys;
    for (const auto& entry : entries) keys.insert(entry.first);
    auto it_a = all_->NewIterator();
    auto it_b = one_->NewIterator();
    for (const std::string& key : keys) {
      ASSERT_TRUE(it_a.Seek(Slice(key)).ok());
      ASSERT_TRUE(it_b.Seek(Slice(key)).ok());
      ASSERT_TRUE(it_a.Valid() && it_b.Valid());
      EXPECT_EQ(it_a.value().ToString(), it_b.value().ToString()) << key;
      std::string va, vb;
      ASSERT_TRUE(all_->Get(Slice(key), &va).ok()) << key;
      ASSERT_TRUE(one_->Get(Slice(key), &vb).ok()) << key;
      EXPECT_EQ(va, vb) << key;
    }
  }

  std::unique_ptr<Pager> pager_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<BTree> all_, one_;
};

TEST_F(BTreeDeleteRangeTest, DuplicateRunSpanningManyLeaves) {
  InsertRun("aaa", 50);
  InsertRun("dupkey", 5000);  // straddles many leaf splits
  InsertRun("zzz", 50);
  DeleteBoth("dupkey");
  EXPECT_EQ(*all_->Count(), 100u);
  std::string v;
  EXPECT_TRUE(all_->Get(Slice("dupkey"), &v).IsNotFound());
}

TEST_F(BTreeDeleteRangeTest, RunNextToLeavesEmptiedByAnEarlierRun) {
  InsertRun("a", 3000);
  InsertRun("b", 3000);
  InsertRun("c", 3000);
  DeleteBoth("a");
  DeleteBoth("b");  // starts on or after a's emptied leaves
  // The key comes back and goes again; c stays whole.
  InsertRun("a", 1000);
  InsertRun("b", 1000);
  DeleteBoth("b");
  DeleteBoth("a");
  EXPECT_EQ(*all_->Count(), 3000u);
}

TEST_F(BTreeDeleteRangeTest, AbsentKeyAndEmptyTreeRemoveNothing) {
  auto none = all_->DeleteRange(Slice("k"), Slice(""));
  ASSERT_TRUE(none.ok()) << none.status();
  EXPECT_EQ(*none, 0u);
  InsertRun("b", 10);
  InsertRun("d", 10);
  DeleteBoth("a");
  DeleteBoth("c");
  DeleteBoth("e");
  DeleteBoth("b");
  DeleteBoth("b");
  EXPECT_EQ(*all_->Count(), 10u);
}

TEST_F(BTreeDeleteRangeTest, UniqueKeys) {
  for (int i = 0; i < 3000; ++i) InsertBoth(StrFormat("k%05d", i), "v");
  for (int i = 0; i < 3000; i += 97) DeleteBoth(StrFormat("k%05d", i));
  EXPECT_EQ(*all_->Count(), 3000u - 31u);
}

TEST_F(BTreeDeleteRangeTest, RangesOverManyKeysAndPrefixes) {
  // "k1" and its extensions "k1\0", "k10" sort apart from "k2".
  InsertRun("k1", 2000);
  InsertBoth(std::string("k1\0", 3), "x");
  InsertRun("k10", 2000);
  InsertRun("k2", 2000);
  InsertRun("k3", 10);
  DeleteBoth("k1");  // the run of k1 alone
  EXPECT_EQ(*all_->Count(), 4011u);
  DeleteBoth("k1", "k2");  // k1\0 and k10, not k2
  EXPECT_EQ(*all_->Count(), 2010u);
  DeleteBoth("k2", "k2");  // empty range
  DeleteBoth("k3", "k2");  // upper below lower
  DeleteBoth("k2", "");    // to the end
  EXPECT_EQ(*all_->Count(), 0u);
}

/// Random inserts over a small key space, then random keys and key
/// ranges removed whole, interleaved with more inserts.
class BTreeDeleteRangeRandomTest : public BTreeDeleteRangeTest {
 protected:
  void Run(int n, uint64_t seed, uint32_t key_space) {
    Rng rng(seed);
    for (int round = 0; round < 3; ++round) {
      for (int i = 0; i < n; ++i) {
        InsertBoth(StrFormat("k%04u", static_cast<unsigned>(
                                          rng.Uniform(key_space))),
                   StrFormat("v%d.%d", round, i));
        if (HasFatalFailure()) return;
      }
      for (uint32_t i = 0; i < key_space / 3; ++i) {
        const unsigned k = static_cast<unsigned>(rng.Uniform(key_space + 5));
        if (i % 4 == 3) {
          // A range of up to three keys.
          const unsigned end = k + static_cast<unsigned>(rng.Uniform(4));
          DeleteBoth(StrFormat("k%04u", k), StrFormat("k%04u", end));
        } else {
          DeleteBoth(StrFormat("k%04u", k));
        }
        if (HasFatalFailure()) return;
      }
    }
  }
};

TEST_F(BTreeDeleteRangeRandomTest, MatchesRepeatedDelete) {
  Run(4000, 0xDE1A, 24);
}

TEST_F(BTreeDeleteRangeRandomTest, StressLargeRunsMatchRepeatedDelete) {
  // Dialed-up randomized sweep: ctest -C stress -L stress.
  Rng rng(0xDE1B);
  for (int rep = 0; rep < 3; ++rep) {
    Run(20000 + static_cast<int>(rng.Uniform(10000)), rng.Next(),
        rep == 0 ? 8 : 200);
    if (HasFatalFailure()) return;
  }
}

std::vector<std::pair<std::string, std::string>> Dump(const BTree& tree) {
  std::vector<std::pair<std::string, std::string>> out;
  auto it = tree.NewIterator();
  EXPECT_TRUE(it.SeekToFirst().ok());
  while (it.Valid()) {
    out.emplace_back(it.key().ToString(), it.value().ToString());
    EXPECT_TRUE(it.Next().ok());
  }
  return out;
}

TEST(BTreeIteratorCostTest, RunScanFetchesEachLeafOnce) {
  // A 5,000-entry duplicate run between two short runs, scanned the way
  // Table::IndexLookup scans one: Seek, then Next while the key
  // matches. That costs the anchor, one page per level and each leaf
  // of the run once (plus one sibling when the run ends a leaf), not a
  // fetch per entry.
  auto p = Pager::Open(NewMemFile());
  ASSERT_TRUE(p.ok());
  auto pager = std::move(p).value();
  obs::MetricsRegistry metrics;
  BufferPool pool(pager.get(), 256, nullptr, nullptr, &metrics);
  BTree tree = std::move(BTree::Create(&pool)).value();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(tree.Insert(Slice("a"), Slice(StrFormat("%08d", i))).ok());
    ASSERT_TRUE(tree.Insert(Slice("z"), Slice(StrFormat("%08d", i))).ok());
  }
  for (int i = 4999; i >= 0; --i) {
    ASSERT_TRUE(tree.Insert(Slice("run"), Slice(StrFormat("%08d", i))).ok());
  }

  // The fresh file holds only this tree: its shape is read off the page
  // types. Internal pages bound the levels above the leaves.
  uint64_t leaves = 0, internal = 0;
  for (PageId id = 1; id < pager->page_count(); ++id) {
    auto guard = pool.Fetch(id);
    ASSERT_TRUE(guard.ok()) << guard.status();
    PageType type = static_cast<PageType>(guard->data()[0]);
    if (type == PageType::kBTreeLeaf) ++leaves;
    if (type == PageType::kBTreeInternal) ++internal;
  }
  ASSERT_GE(leaves, 10u);
  const uint64_t height = internal + 1;

  auto fetches = [&] {
    obs::MetricsSnapshot snapshot = metrics.Snapshot();
    return snapshot.counter("storage.pool.hits") +
           snapshot.counter("storage.pool.misses");
  };
  const uint64_t before = fetches();
  auto it = tree.NewIterator();
  ASSERT_TRUE(it.Seek(Slice("run")).ok());
  std::set<std::string> seen;
  while (it.Valid() && it.key() == Slice("run")) {
    seen.insert(it.value().ToString());
    ASSERT_TRUE(it.Next().ok());
  }
  const uint64_t fetched = fetches() - before;
  EXPECT_EQ(seen.size(), 5000u);
  EXPECT_LE(fetched, leaves + height + 1)
      << leaves << " leaves, " << internal << " internal pages";
}

TEST_F(BTreeTest, OrderPreservingDoubleKeys) {
  // The time index depends on DoubleKey respecting numeric order.
  std::vector<double> values = {-100.5, -1.0, -0.25, 0.0, 0.125, 3.0, 1e9};
  Rng rng(5);
  std::vector<double> shuffled = values;
  rng.Shuffle(&shuffled);
  for (double x : shuffled) {
    ASSERT_TRUE(tree_->Insert(Slice(DoubleKey(x)), Slice("v")).ok());
  }
  auto it = tree_->NewIterator();
  ASSERT_TRUE(it.SeekToFirst().ok());
  for (double expected : values) {
    ASSERT_TRUE(it.Valid());
    EXPECT_DOUBLE_EQ(DecodeDoubleKey(it.key().data()), expected);
    ASSERT_TRUE(it.Next().ok());
  }
}

}  // namespace
}  // namespace crimson
