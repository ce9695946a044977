// Unit tests for the write-ahead log: record framing + CRC, the
// kFreePage encoding of freelist nodes, torn-tail and corruption
// handling in the scanner, rotation across segments, rewind (abort),
// reset generations, and concurrent Sync callers. The CRC itself is
// checked against a bytewise oracle in tests/common/crc32_test.cc.

#include "storage/wal.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fault_injection.h"
#include "storage/pager.h"
#include "storage/recovery.h"

namespace crimson {
namespace {

std::string PageImage(char fill) { return std::string(kPageSize, fill); }

class WalTest : public ::testing::Test {
 protected:
  test::FaultInjectionEnv env_;
  static constexpr const char* kBase = "db-wal";

  std::unique_ptr<Wal> OpenWal(uint64_t segment_bytes = 1 << 20) {
    WalOptions opts;
    opts.segment_bytes = segment_bytes;
    auto r = Wal::Open(kBase, env_.env(), opts);
    EXPECT_TRUE(r.ok()) << r.status();
    return std::move(r).value();
  }
};

TEST_F(WalTest, AppendScanRoundTrip) {
  auto wal = OpenWal();
  std::string img = PageImage('x');
  ASSERT_TRUE(wal->AppendPageImage(7, img.data()).ok());
  ASSERT_TRUE(wal->AppendHeaderImage(9, 3, 2).ok());
  auto commit = wal->AppendCommit(42);
  ASSERT_TRUE(commit.ok());
  ASSERT_TRUE(wal->Sync(*commit).ok());

  WalScanSummary summary;
  auto records = ReadWalRecords(kBase, env_.env(), &summary);
  ASSERT_TRUE(records.ok()) << records.status();
  ASSERT_EQ(records->size(), 3u);
  EXPECT_TRUE(summary.wal_found);
  EXPECT_EQ(summary.commits, 1u);
  EXPECT_EQ(summary.last_commit_lsn, 3u);
  EXPECT_EQ((*records)[0].type, WalRecordType::kPageImage);
  EXPECT_EQ((*records)[0].page, 7u);
  EXPECT_EQ((*records)[0].image, img);
  EXPECT_EQ((*records)[1].type, WalRecordType::kHeaderImage);
  EXPECT_EQ((*records)[1].page_count, 9u);
  EXPECT_EQ((*records)[1].freelist_head, 3u);
  EXPECT_EQ((*records)[1].catalog_root, 2u);
  EXPECT_EQ((*records)[2].type, WalRecordType::kCommit);
  EXPECT_EQ((*records)[2].txn_id, 42u);
}

TEST_F(WalTest, FreeListNodeIsLoggedAsItsLink) {
  // Bare freelist nodes (a link, or the list's end) are logged as their
  // link; a page with any other byte set is logged in full.
  std::string linked(kPageSize, '\0');
  EncodeFreePage(5, linked.data());
  std::string last(kPageSize, '\0');
  EncodeFreePage(kInvalidPageId, last.data());
  std::string stray = linked;
  stray[kPageSize - 1] = 1;
  std::string heap(kPageSize, '\0');
  heap[0] = static_cast<char>(PageType::kHeap);
  const std::vector<std::pair<std::string, WalRecordType>> cases = {
      {linked, WalRecordType::kFreePage},
      {last, WalRecordType::kFreePage},
      {stray, WalRecordType::kPageImage},
      {heap, WalRecordType::kPageImage}};

  auto wal = OpenWal();
  for (size_t i = 0; i < cases.size(); ++i) {
    const uint64_t before = wal->size_bytes();
    ASSERT_TRUE(wal->AppendPageImage(10 + i, cases[i].first.data()).ok());
    const uint64_t body =
        cases[i].second == WalRecordType::kFreePage ? 8 : 4 + kPageSize;
    EXPECT_EQ(wal->size_bytes() - before, kWalRecordHeaderSize + 9 + body);
  }
  auto commit = wal->AppendCommit(1);
  ASSERT_TRUE(commit.ok());
  ASSERT_TRUE(wal->Sync(*commit).ok());

  auto records = ReadWalRecords(kBase, env_.env(), nullptr);
  ASSERT_TRUE(records.ok()) << records.status();
  ASSERT_EQ(records->size(), cases.size() + 1);
  for (size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ((*records)[i].type, cases[i].second);
    EXPECT_EQ((*records)[i].page, 10 + i);
    EXPECT_EQ((*records)[i].image, cases[i].first);
  }

  // Replay writes the rebuilt nodes byte for byte.
  auto db = env_.env().open_file("db");
  ASSERT_TRUE(db.ok());
  auto recovered = RecoverFromWal(kBase, env_.env(), db->get());
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered->pages_replayed, cases.size());
  const std::string file = env_.FileContents("db");
  ASSERT_GE(file.size(), (10 + cases.size()) * kPageSize);
  for (size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(file.substr((10 + i) * kPageSize, kPageSize), cases[i].first)
        << i;
  }
}

TEST_F(WalTest, UncommittedTailIsDiscardedByScan) {
  auto wal = OpenWal();
  std::string img = PageImage('a');
  ASSERT_TRUE(wal->AppendPageImage(1, img.data()).ok());
  auto c1 = wal->AppendCommit(1);
  ASSERT_TRUE(c1.ok());
  // Txn 2 never commits.
  ASSERT_TRUE(wal->AppendPageImage(2, img.data()).ok());
  ASSERT_TRUE(wal->Flush().ok());
  ASSERT_TRUE(wal->Sync(wal->appended_lsn()).ok());

  WalScanSummary summary;
  auto records = ReadWalRecords(kBase, env_.env(), &summary);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(summary.records, 3u);
  EXPECT_EQ(summary.last_commit_lsn, 2u);
  EXPECT_EQ(summary.tail_records_discarded, 1u);
}

TEST_F(WalTest, TornRecordStopsScanAtLastValidPrefix) {
  auto wal = OpenWal();
  std::string img = PageImage('b');
  ASSERT_TRUE(wal->AppendPageImage(1, img.data()).ok());
  auto c1 = wal->AppendCommit(1);
  ASSERT_TRUE(wal->Sync(*c1).ok());
  ASSERT_TRUE(wal->AppendPageImage(2, img.data()).ok());
  auto c2 = wal->AppendCommit(2);
  ASSERT_TRUE(wal->Sync(*c2).ok());
  wal.reset();

  // Tear the last record: chop bytes off the segment's end.
  std::string seg = WalSegmentPath(kBase, 1);
  std::string bytes = env_.FileContents(seg);
  ASSERT_GT(bytes.size(), 10u);
  {
    auto f = env_.env().open_file(seg);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Truncate(bytes.size() - 10).ok());
  }
  WalScanSummary summary;
  ASSERT_TRUE(ReadWalRecords(kBase, env_.env(), &summary).ok());
  // The torn commit (and the page image before it, which precedes a
  // commit that never became valid) drop off; txn 1 survives.
  EXPECT_EQ(summary.last_commit_lsn, 2u);
  EXPECT_EQ(summary.records, 3u);
}

TEST_F(WalTest, CorruptMiddleRecordStopsScan) {
  auto wal = OpenWal();
  std::string img = PageImage('c');
  ASSERT_TRUE(wal->AppendPageImage(1, img.data()).ok());
  auto c1 = wal->AppendCommit(1);
  ASSERT_TRUE(wal->Sync(*c1).ok());
  ASSERT_TRUE(wal->AppendPageImage(2, img.data()).ok());
  auto c2 = wal->AppendCommit(2);
  ASSERT_TRUE(wal->Sync(*c2).ok());
  wal.reset();

  // Flip one byte inside the third record's payload.
  std::string seg = WalSegmentPath(kBase, 1);
  std::string bytes = env_.FileContents(seg);
  size_t victim = kWalSegmentHeaderSize + 2 * kWalRecordHeaderSize +
                  (9 + 4 + kPageSize) + (9 + 8) + kWalRecordHeaderSize + 20;
  ASSERT_LT(victim, bytes.size());
  char flipped = bytes[victim] ^ 0x5A;
  {
    auto f = env_.env().open_file(seg);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Write(victim, &flipped, 1).ok());
  }
  WalScanSummary summary;
  ASSERT_TRUE(ReadWalRecords(kBase, env_.env(), &summary).ok());
  // Everything from the corrupt record on is untrusted.
  EXPECT_EQ(summary.records, 2u);
  EXPECT_EQ(summary.last_commit_lsn, 2u);
}

TEST_F(WalTest, RotationChainsSegments) {
  // Tiny segments force several rotations.
  auto wal = OpenWal(/*segment_bytes=*/2 * kPageSize);
  std::string img = PageImage('r');
  for (uint64_t t = 1; t <= 8; ++t) {
    ASSERT_TRUE(wal->AppendPageImage(static_cast<PageId>(t), img.data()).ok());
    auto c = wal->AppendCommit(t);
    ASSERT_TRUE(c.ok());
    ASSERT_TRUE(wal->Sync(*c).ok());
  }
  auto exists = env_.env().file_exists(WalSegmentPath(kBase, 2));
  ASSERT_TRUE(exists.ok());
  EXPECT_TRUE(*exists) << "expected at least two segments";

  WalScanSummary summary;
  ASSERT_TRUE(ReadWalRecords(kBase, env_.env(), &summary).ok());
  EXPECT_EQ(summary.records, 16u);
  EXPECT_EQ(summary.commits, 8u);
  EXPECT_EQ(summary.last_commit_lsn, 16u);
}

TEST_F(WalTest, RewindDropsAbortedTail) {
  auto wal = OpenWal();
  std::string img = PageImage('d');
  ASSERT_TRUE(wal->AppendPageImage(1, img.data()).ok());
  auto c1 = wal->AppendCommit(1);
  ASSERT_TRUE(wal->Sync(*c1).ok());

  Wal::Mark mark = wal->mark();
  ASSERT_TRUE(wal->AppendPageImage(2, img.data()).ok());
  ASSERT_TRUE(wal->AppendPageImage(3, img.data()).ok());
  ASSERT_TRUE(wal->Rewind(mark).ok());
  EXPECT_EQ(wal->appended_lsn(), 2u);

  // The next transaction reuses the rewound space cleanly.
  ASSERT_TRUE(wal->AppendPageImage(4, img.data()).ok());
  auto c2 = wal->AppendCommit(2);
  ASSERT_TRUE(wal->Sync(*c2).ok());

  WalScanSummary summary;
  auto records = ReadWalRecords(kBase, env_.env(), &summary);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(summary.records, 4u);
  EXPECT_EQ((*records)[2].page, 4u);
  EXPECT_EQ(summary.commits, 2u);
}

TEST_F(WalTest, ResetStartsFreshGenerationAndIgnoresStaleSegments) {
  auto wal = OpenWal(/*segment_bytes=*/2 * kPageSize);
  std::string img = PageImage('e');
  for (uint64_t t = 1; t <= 6; ++t) {
    ASSERT_TRUE(wal->AppendPageImage(static_cast<PageId>(t), img.data()).ok());
    auto c = wal->AppendCommit(t);
    ASSERT_TRUE(wal->Sync(*c).ok());
  }
  uint64_t gen_before = wal->generation();
  // Simulate a crash mid-truncation: keep a stale copy of segment 2,
  // reset, then put the stale segment back.
  std::string stale = env_.FileContents(WalSegmentPath(kBase, 2));
  ASSERT_FALSE(stale.empty());
  ASSERT_TRUE(wal->Reset().ok());
  EXPECT_EQ(wal->generation(), gen_before + 1);
  {
    auto f = env_.env().open_file(WalSegmentPath(kBase, 2));
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Write(0, stale.data(), stale.size()).ok());
  }
  // New-era records in segment 1; stale old-generation segment 2 must
  // not chain.
  ASSERT_TRUE(wal->AppendPageImage(9, img.data()).ok());
  auto c = wal->AppendCommit(9);
  ASSERT_TRUE(wal->Sync(*c).ok());

  WalScanSummary summary;
  auto records = ReadWalRecords(kBase, env_.env(), &summary);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(summary.generation, gen_before + 1);
  EXPECT_EQ(summary.records, 2u);
  EXPECT_EQ((*records)[0].page, 9u);
}

TEST_F(WalTest, ConcurrentSyncCallersAllDurable) {
  auto wal = OpenWal();
  constexpr int kThreads = 8;
  constexpr int kCommitsPerThread = 50;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCommitsPerThread; ++i) {
        auto lsn = wal->AppendCommit(static_cast<uint64_t>(t) * 1000 + i);
        if (!lsn.ok() || !wal->Sync(*lsn).ok()) {
          ++failures;
          return;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(wal->durable_lsn(), wal->appended_lsn());

  WalScanSummary summary;
  ASSERT_TRUE(ReadWalRecords(kBase, env_.env(), &summary).ok());
  EXPECT_EQ(summary.commits,
            static_cast<uint64_t>(kThreads) * kCommitsPerThread);
  EXPECT_EQ(summary.last_commit_lsn, summary.records);
}

TEST_F(WalTest, SyncFailureIsSticky) {
  auto wal = OpenWal();
  std::string img = PageImage('f');
  ASSERT_TRUE(wal->AppendPageImage(1, img.data()).ok());
  auto c = wal->AppendCommit(1);
  ASSERT_TRUE(c.ok());
  env_.ArmFailPoint(env_.ops_performed() + 1);
  EXPECT_FALSE(wal->Sync(*c).ok());
  env_.Disarm();
  // The log refuses further work rather than risking a hole.
  EXPECT_FALSE(wal->AppendCommit(2).ok());
}

}  // namespace
}  // namespace crimson
