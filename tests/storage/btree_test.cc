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
// DeleteAll: one pass over a key's run == repeated Delete(key)
// ---------------------------------------------------------------------------

std::vector<std::pair<std::string, std::string>> Dump(const BTree& tree);

/// Two trees fed the same inserts; keys are removed from one with
/// DeleteAll and from the other with Delete(key) until NotFound.
class BTreeDeleteAllTest : public ::testing::Test {
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

  void DeleteBoth(const std::string& key) {
    uint64_t expected = 0;
    Status s;
    while ((s = one_->Delete(Slice(key))).ok()) ++expected;
    ASSERT_TRUE(s.IsNotFound()) << s;
    auto removed = all_->DeleteAll(Slice(key));
    ASSERT_TRUE(removed.ok()) << removed.status();
    EXPECT_EQ(*removed, expected) << key;
    ExpectTreesAgree();
  }

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

TEST_F(BTreeDeleteAllTest, DuplicateRunSpanningManyLeaves) {
  InsertRun("aaa", 50);
  InsertRun("dupkey", 5000);  // straddles many leaf splits
  InsertRun("zzz", 50);
  DeleteBoth("dupkey");
  EXPECT_EQ(*all_->Count(), 100u);
  std::string v;
  EXPECT_TRUE(all_->Get(Slice("dupkey"), &v).IsNotFound());
}

TEST_F(BTreeDeleteAllTest, RunNextToLeavesEmptiedByAnEarlierRun) {
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

TEST_F(BTreeDeleteAllTest, AbsentKeyAndEmptyTreeRemoveNothing) {
  auto none = all_->DeleteAll(Slice("k"));
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

TEST_F(BTreeDeleteAllTest, UniqueKeys) {
  for (int i = 0; i < 3000; ++i) InsertBoth(StrFormat("k%05d", i), "v");
  for (int i = 0; i < 3000; i += 97) DeleteBoth(StrFormat("k%05d", i));
  EXPECT_EQ(*all_->Count(), 3000u - 31u);
}

/// Random inserts over a small key space, then random keys removed
/// whole, interleaved with more inserts.
class BTreeDeleteAllRandomTest : public BTreeDeleteAllTest {
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
        DeleteBoth(StrFormat("k%04u", static_cast<unsigned>(
                                          rng.Uniform(key_space + 5))));
        if (HasFatalFailure()) return;
      }
    }
  }
};

TEST_F(BTreeDeleteAllRandomTest, MatchesRepeatedDelete) {
  Run(4000, 0xDE1A, 24);
}

TEST_F(BTreeDeleteAllRandomTest, StressLargeRunsMatchRepeatedDelete) {
  // Dialed-up randomized sweep: ctest -C stress -L stress.
  Rng rng(0xDE1B);
  for (int rep = 0; rep < 3; ++rep) {
    Run(20000 + static_cast<int>(rng.Uniform(10000)), rng.Next(),
        rep == 0 ? 8 : 200);
    if (HasFatalFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// Bulk load
// ---------------------------------------------------------------------------

std::vector<std::pair<std::string, std::string>> RandomEntries(
    int n, uint64_t seed, uint32_t key_space) {
  // A small key space forces duplicate keys (with distinct values).
  Rng rng(seed);
  std::vector<std::pair<std::string, std::string>> entries;
  entries.reserve(n);
  for (int i = 0; i < n; ++i) {
    entries.emplace_back(
        StrFormat("k%06u", static_cast<unsigned>(rng.Uniform(key_space))),
        StrFormat("v%d", i));
  }
  return entries;
}

/// Sorts entries for BulkLoad so the result matches an insert-built
/// tree: key ascending, ties in *reverse* arrival order (Insert
/// prepends to a duplicate run).
std::vector<std::pair<std::string, std::string>> SortForBulkLoad(
    const std::vector<std::pair<std::string, std::string>>& entries) {
  std::vector<size_t> order(entries.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (entries[a].first != entries[b].first) {
      return entries[a].first < entries[b].first;
    }
    return a > b;
  });
  std::vector<std::pair<std::string, std::string>> sorted;
  sorted.reserve(entries.size());
  for (size_t i : order) sorted.push_back(entries[i]);
  return sorted;
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

/// Bulk-loaded and insert-loaded trees over the same entries must be
/// observationally identical: full scans, Seek positions, Get results,
/// and iteration after deletes.
void CheckBulkMatchesIncremental(int n, uint64_t seed, uint32_t key_space) {
  auto p = Pager::Open(NewMemFile());
  ASSERT_TRUE(p.ok());
  auto pager = std::move(p).value();
  BufferPool pool(pager.get(), 512);

  std::vector<std::pair<std::string, std::string>> entries =
      RandomEntries(n, seed, key_space);

  BTree incremental = std::move(BTree::Create(&pool)).value();
  for (const auto& [key, value] : entries) {
    ASSERT_TRUE(incremental.Insert(Slice(key), Slice(value)).ok());
  }
  BTree bulk = std::move(BTree::Create(&pool)).value();
  ASSERT_TRUE(bulk.BulkLoad(SortForBulkLoad(entries)).ok());

  EXPECT_EQ(Dump(incremental), Dump(bulk));

  // Seek and Get agree on present and absent probes.
  Rng rng(seed ^ 0xABCD);
  auto it_a = incremental.NewIterator();
  auto it_b = bulk.NewIterator();
  for (int i = 0; i < 200; ++i) {
    std::string probe = StrFormat(
        "k%06u", static_cast<unsigned>(rng.Uniform(key_space + 50)));
    ASSERT_TRUE(it_a.Seek(Slice(probe)).ok());
    ASSERT_TRUE(it_b.Seek(Slice(probe)).ok());
    ASSERT_EQ(it_a.Valid(), it_b.Valid()) << probe;
    if (it_a.Valid()) {
      EXPECT_EQ(it_a.key().ToString(), it_b.key().ToString()) << probe;
      EXPECT_EQ(it_a.value().ToString(), it_b.value().ToString()) << probe;
    }
    std::string va, vb;
    Status sa = incremental.Get(Slice(probe), &va);
    Status sb = bulk.Get(Slice(probe), &vb);
    ASSERT_EQ(sa.ok(), sb.ok()) << probe;
    if (sa.ok()) EXPECT_EQ(va, vb);
  }

  // Delete a random subset (by key+value) from both; iteration must
  // still agree.
  for (size_t i = 0; i < entries.size(); i += 3) {
    Slice value(entries[i].second);
    Status sa = incremental.Delete(Slice(entries[i].first), &value);
    Status sb = bulk.Delete(Slice(entries[i].first), &value);
    ASSERT_EQ(sa.ok(), sb.ok()) << entries[i].first;
  }
  EXPECT_EQ(Dump(incremental), Dump(bulk));
}

class BTreeBulkEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, uint32_t>> {};

TEST_P(BTreeBulkEquivalenceTest, MatchesIncrementalLoad) {
  auto [n, key_space] = GetParam();
  CheckBulkMatchesIncremental(n, 0xB17D + n, key_space);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, BTreeBulkEquivalenceTest,
    ::testing::Values(std::make_tuple(10, 1u << 20),
                      std::make_tuple(1000, 1u << 20),
                      std::make_tuple(1000, 64),      // heavy duplicates
                      std::make_tuple(20000, 1u << 20),
                      std::make_tuple(20000, 512)));

TEST(BTreeBulkStressTest, LargeRandomWorkloadsMatchIncremental) {
  // Dialed-up randomized sweep: ctest -C stress -L stress.
  Rng rng(0x57E55);
  for (int rep = 0; rep < 4; ++rep) {
    int n = 30000 + static_cast<int>(rng.Uniform(30000));
    uint32_t key_space = rep % 2 == 0 ? 1u << 24 : 256;
    CheckBulkMatchesIncremental(n, rng.Next(), key_space);
  }
}

TEST_F(BTreeTest, BulkLoadEdgeCases) {
  // Empty input is a no-op.
  ASSERT_TRUE(
      tree_->BulkLoad(std::vector<std::pair<std::string, std::string>>{})
          .ok());
  EXPECT_EQ(*tree_->Count(), 0u);
  // Unsorted input rejected.
  std::vector<std::pair<std::string, std::string>> unsorted = {
      {"b", "1"}, {"a", "2"}};
  EXPECT_TRUE(tree_->BulkLoad(unsorted).IsInvalidArgument());
  // Oversized key rejected.
  std::vector<std::pair<std::string, std::string>> oversized = {
      {std::string(BTree::kMaxKeySize + 1, 'k'), "v"}};
  EXPECT_TRUE(tree_->BulkLoad(oversized).IsInvalidArgument());
  // Single entry works.
  std::vector<std::pair<std::string, std::string>> one = {{"a", "1"}};
  ASSERT_TRUE(tree_->BulkLoad(one).ok());
  std::string v;
  ASSERT_TRUE(tree_->Get(Slice("a"), &v).ok());
  EXPECT_EQ(v, "1");
  // A non-empty tree refuses a second bulk load.
  EXPECT_TRUE(tree_->BulkLoad(one).IsFailedPrecondition());
}

TEST_F(BTreeTest, BulkLoadedTreeAcceptsFurtherInserts) {
  std::vector<std::pair<std::string, std::string>> entries;
  for (int i = 0; i < 5000; i += 2) {
    entries.emplace_back(StrFormat("k%05d", i), "bulk");
  }
  ASSERT_TRUE(tree_->BulkLoad(entries).ok());
  for (int i = 1; i < 5000; i += 2) {
    ASSERT_TRUE(
        tree_->Insert(Slice(StrFormat("k%05d", i)), Slice("ins")).ok());
  }
  EXPECT_EQ(*tree_->Count(), 5000u);
  auto it = tree_->NewIterator();
  ASSERT_TRUE(it.SeekToFirst().ok());
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(it.Valid()) << i;
    EXPECT_EQ(it.key().ToString(), StrFormat("k%05d", i));
    EXPECT_EQ(it.value().ToString(), i % 2 == 0 ? "bulk" : "ins");
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_FALSE(it.Valid());
}

TEST_F(BTreeTest, LaterInsertsIntoBulkLoadedDuplicateRunsMatchInsertBuilt) {
  // Bulk loading keeps a leaf-sized duplicate run within one leaf (like
  // the insert path's ChooseSplitPoint), so a *later* Insert of that
  // key prepends to the run head exactly as in an insert-built tree.
  auto p = Pager::Open(NewMemFile());
  ASSERT_TRUE(p.ok());
  auto pager = std::move(p).value();
  BufferPool pool(pager.get(), 256);

  // 30 keys x 40 duplicates, shuffled arrival order.
  std::vector<std::pair<std::string, std::string>> entries;
  for (int k = 0; k < 30; ++k) {
    for (int d = 0; d < 40; ++d) {
      entries.emplace_back(StrFormat("key%02d", k), StrFormat("v%d.%d", k, d));
    }
  }
  Rng rng(0xD0D0);
  rng.Shuffle(&entries);

  BTree incremental = std::move(BTree::Create(&pool)).value();
  for (const auto& [key, value] : entries) {
    ASSERT_TRUE(incremental.Insert(Slice(key), Slice(value)).ok());
  }
  BTree bulk = std::move(BTree::Create(&pool)).value();
  ASSERT_TRUE(bulk.BulkLoad(SortForBulkLoad(entries)).ok());
  ASSERT_EQ(Dump(incremental), Dump(bulk));

  // Follow-up duplicate inserts land identically in both trees.
  for (int k = 0; k < 30; k += 2) {
    for (int extra = 0; extra < 3; ++extra) {
      std::string key = StrFormat("key%02d", k);
      std::string value = StrFormat("late%d.%d", k, extra);
      ASSERT_TRUE(incremental.Insert(Slice(key), Slice(value)).ok());
      ASSERT_TRUE(bulk.Insert(Slice(key), Slice(value)).ok());
    }
  }
  EXPECT_EQ(Dump(incremental), Dump(bulk));
}

TEST_F(BTreeTest, BulkLoadLargeCellsBuildTallTree) {
  // Big cells -> few per page -> several stitched internal levels.
  std::vector<std::pair<std::string, std::string>> entries;
  for (int i = 0; i < 400; ++i) {
    entries.emplace_back(StrFormat("%04d-", i) + std::string(500, 'p'),
                         std::string(500, 'q'));
  }
  ASSERT_TRUE(tree_->BulkLoad(entries).ok());
  EXPECT_EQ(*tree_->Count(), 400u);
  for (int i = 0; i < 400; i += 37) {
    std::string v;
    std::string probe = StrFormat("%04d-", i) + std::string(500, 'p');
    ASSERT_TRUE(tree_->Get(Slice(probe), &v).ok()) << i;
    EXPECT_EQ(v.size(), 500u);
  }
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
  std::vector<std::pair<std::string, std::string>> entries;
  for (int i = 0; i < 10; ++i) entries.emplace_back("a", StrFormat("%08d", i));
  for (int i = 0; i < 5000; ++i) {
    entries.emplace_back("run", StrFormat("%08d", i));
  }
  for (int i = 0; i < 10; ++i) entries.emplace_back("z", StrFormat("%08d", i));
  ASSERT_TRUE(tree.BulkLoad(entries).ok());

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
  int seen = 0;
  while (it.Valid() && it.key() == Slice("run")) {
    EXPECT_EQ(it.value().ToString(), StrFormat("%08d", seen));
    ++seen;
    ASSERT_TRUE(it.Next().ok());
  }
  const uint64_t fetched = fetches() - before;
  EXPECT_EQ(seen, 5000);
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
