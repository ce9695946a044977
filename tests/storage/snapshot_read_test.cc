// MVCC snapshot-read tests: ReadTxn must observe the committed state
// as of its BeginRead -- byte-for-byte -- while a concurrent write
// transaction mutates pages in place.
//
// Covers: snapshots pinned before and during a transaction, snapshots
// held across a commit, version chains spanning several epochs, abort
// semantics (WAL rollback drops captures; durability-off "abort"
// commits visibility-wise), ReadTxn handle hygiene (self-move, double
// End, cross-thread End), crash points through an active snapshot
// (recovery must never see an uncommitted page version), and the
// side-table counters.

#include "storage/database.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "fault_injection.h"

namespace crimson {
namespace {

Schema KvSchema() {
  return Schema({{"id", ColumnType::kInt64}, {"payload", ColumnType::kString}});
}

std::string Payload(int64_t id) {
  return StrFormat("payload-%lld", static_cast<long long>(id));
}

/// Creates the kv table and commits rows [0, n).
void SeedRows(Database* db, int64_t n) {
  auto txn = db->Begin();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(db->CreateTable("kv", KvSchema(),
                              {{"kv_by_id", "id", /*unique=*/true}})
                  .ok());
  auto table = db->OpenTable("kv");
  ASSERT_TRUE(table.ok());
  for (int64_t id = 0; id < n; ++id) {
    ASSERT_TRUE(table->Insert({id, Payload(id)}).ok());
  }
  ASSERT_TRUE(txn->Commit().ok());
}

/// Commits rows [from, to) into the existing kv table.
void CommitRows(Database* db, int64_t from, int64_t to) {
  auto txn = db->Begin();
  ASSERT_TRUE(txn.ok());
  auto table = db->OpenTable("kv");
  ASSERT_TRUE(table.ok());
  for (int64_t id = from; id < to; ++id) {
    ASSERT_TRUE(table->Insert({id, Payload(id)}).ok());
  }
  ASSERT_TRUE(txn->Commit().ok());
}

/// Scans kv and checks it holds exactly rows [0, expect) with intact
/// payloads. Runs on the calling thread (which is what makes it
/// snapshot-sensitive).
void ExpectRows(Database* db, int64_t expect) {
  auto table = db->OpenTable("kv");
  ASSERT_TRUE(table.ok());
  int64_t count = 0;
  int64_t max_id = -1;
  Status s = table->Scan([&](const RecordId&, const Row& row) {
    int64_t id = std::get<int64_t>(row[0]);
    EXPECT_EQ(std::get<std::string>(row[1]), Payload(id));
    if (id > max_id) max_id = id;
    ++count;
    return true;
  });
  ASSERT_TRUE(s.ok()) << s;
  EXPECT_EQ(count, expect);
  if (expect > 0) EXPECT_EQ(max_id, expect - 1);
}

/// Runs posted closures on one dedicated thread. Snapshot resolution
/// is thread-local, so a reader's BeginRead and every scan under it
/// must share a thread while the test's main thread plays the writer.
class ReaderThread {
 public:
  ReaderThread() : thread_([this] { Loop(); }) {}
  ~ReaderThread() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  /// Runs fn on the reader thread; returns once it finished.
  void Run(std::function<void()> fn) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      task_ = std::move(fn);
      busy_ = true;
    }
    cv_.notify_all();
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return !busy_; });
  }

 private:
  void Loop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return stop_ || task_ != nullptr; });
        if (task_ == nullptr) return;  // stop requested, queue drained
        task = std::move(task_);
        task_ = nullptr;
      }
      task();
      {
        std::lock_guard<std::mutex> lock(mu_);
        busy_ = false;
      }
      cv_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::function<void()> task_;
  bool busy_ = false;
  bool stop_ = false;
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// Snapshot visibility
// ---------------------------------------------------------------------------

TEST(SnapshotReadTest, ReaderIgnoresUncommittedWriterAndNeverBlocks) {
  auto db = std::move(Database::OpenInMemory()).value();
  SeedRows(db.get(), 100);

  auto txn = db->Begin();
  ASSERT_TRUE(txn.ok());
  auto table = db->OpenTable("kv");
  ASSERT_TRUE(table.ok());
  for (int64_t id = 100; id < 200; ++id) {
    ASSERT_TRUE(table->Insert({id, Payload(id)}).ok());
  }

  // With the write transaction still open, a reader thread registers a
  // snapshot and scans: it must complete (pre-MVCC this blocked on the
  // writer epoch) and must see only the 100 committed rows.
  ReaderThread reader;
  reader.Run([&] {
    Database::ReadTxn read = db->BeginRead();
    ExpectRows(db.get(), 100);
    read.End();
  });

  // The writer itself reads its own uncommitted rows.
  ExpectRows(db.get(), 200);

  ASSERT_TRUE(txn->Commit().ok());
  reader.Run([&] {
    Database::ReadTxn read = db->BeginRead();
    ExpectRows(db.get(), 200);
  });
}

TEST(SnapshotReadTest, SnapshotPinnedAcrossCommitUntilEnded) {
  auto db = std::move(Database::OpenInMemory()).value();
  SeedRows(db.get(), 100);

  ReaderThread reader;
  Database::ReadTxn read;
  reader.Run([&] {
    read = db->BeginRead();
    ExpectRows(db.get(), 100);
  });

  CommitRows(db.get(), 100, 200);

  // The still-open snapshot predates the commit, so the same reader
  // thread keeps seeing the old state...
  reader.Run([&] { ExpectRows(db.get(), 100); });
  // ...until it releases the snapshot and takes a fresh one.
  reader.Run([&] {
    read.End();
    Database::ReadTxn fresh = db->BeginRead();
    ExpectRows(db.get(), 200);
  });
}

TEST(SnapshotReadTest, VersionChainsServeSnapshotsAcrossSeveralEpochs) {
  auto db = std::move(Database::OpenInMemory()).value();
  SeedRows(db.get(), 80);

  ReaderThread r0;
  ReaderThread r1;
  Database::ReadTxn read0;
  Database::ReadTxn read1;

  r0.Run([&] { read0 = db->BeginRead(); });   // pinned at 80 rows
  CommitRows(db.get(), 80, 160);
  r1.Run([&] { read1 = db->BeginRead(); });   // pinned at 160 rows

  // A third transaction mutates the same pages again and stays open.
  auto txn = db->Begin();
  ASSERT_TRUE(txn.ok());
  {
    auto table = db->OpenTable("kv");
    ASSERT_TRUE(table.ok());
    for (int64_t id = 160; id < 240; ++id) {
      ASSERT_TRUE(table->Insert({id, Payload(id)}).ok());
    }
  }

  // Every snapshot resolves to its own epoch's bytes.
  r0.Run([&] { ExpectRows(db.get(), 80); });
  r1.Run([&] { ExpectRows(db.get(), 160); });
  ASSERT_TRUE(txn->Commit().ok());
  r0.Run([&] { ExpectRows(db.get(), 80); });
  r1.Run([&] { ExpectRows(db.get(), 160); });
  r0.Run([&] {
    read0.End();
    Database::ReadTxn fresh = db->BeginRead();
    ExpectRows(db.get(), 240);
  });
  r1.Run([&] { read1.End(); });

  // All snapshots gone and the epoch sealed: the side table drains.
  EXPECT_EQ(db->live_versions(), 0u);
}

TEST(SnapshotReadTest, StatsCountCapturesAndVersionHits) {
  auto db = std::move(Database::OpenInMemory()).value();
  SeedRows(db.get(), 100);
  // The pages.* counters are cumulative registry cells (seeding
  // already captured pages): measure this test's traffic as deltas.
  const obs::MetricsSnapshot before = db->metrics()->Snapshot();
  auto delta = [&](const char* name) {
    return db->metrics()->Snapshot().counter(name) - before.counter(name);
  };

  ReaderThread reader;
  Database::ReadTxn read;
  reader.Run([&] { read = db->BeginRead(); });

  auto txn = db->Begin();
  ASSERT_TRUE(txn.ok());
  {
    auto table = db->OpenTable("kv");
    ASSERT_TRUE(table.ok());
    for (int64_t id = 100; id < 150; ++id) {
      ASSERT_TRUE(table->Insert({id, Payload(id)}).ok());
    }
  }
  EXPECT_GT(delta("pages.captured_pages"), 0u);
  EXPECT_GT(db->live_versions(), 0u);
  EXPECT_EQ(db->active_snapshots(), 1u);

  reader.Run([&] { ExpectRows(db.get(), 100); });
  EXPECT_GT(delta("pages.version_hits"), 0u);

  ASSERT_TRUE(txn->Commit().ok());
  reader.Run([&] { read.End(); });
  EXPECT_EQ(db->live_versions(), 0u);
  EXPECT_EQ(db->active_snapshots(), 0u);
  EXPECT_GT(delta("pages.versions_dropped"), 0u);
}

// ---------------------------------------------------------------------------
// Abort semantics
// ---------------------------------------------------------------------------

TEST(SnapshotReadTest, WalAbortDropsCapturedVersionsAndRestoresState) {
  constexpr const char* kPath = "/tmp/crimson_snapshot_abort.db";
  test::FaultInjectionEnv env;
  DatabaseOptions opts;
  opts.durability = Durability::kCommit;
  opts.env = env.env();
  auto db = std::move(Database::Open(kPath, opts)).value();
  SeedRows(db.get(), 100);

  ReaderThread reader;
  Database::ReadTxn read;
  reader.Run([&] { read = db->BeginRead(); });

  {
    auto txn = db->Begin();
    ASSERT_TRUE(txn.ok());
    auto table = db->OpenTable("kv");
    ASSERT_TRUE(table.ok());
    for (int64_t id = 100; id < 180; ++id) {
      ASSERT_TRUE(table->Insert({id, Payload(id)}).ok());
    }
    txn->Abort();
  }

  // Rollback restored the frames; both the pinned snapshot and a fresh
  // one see the pre-transaction rows, and the abort dropped its
  // captures instead of leaking them.
  reader.Run([&] { ExpectRows(db.get(), 100); });
  reader.Run([&] {
    read.End();
    Database::ReadTxn fresh = db->BeginRead();
    ExpectRows(db.get(), 100);
  });
  EXPECT_EQ(db->live_versions(), 0u);
}

TEST(SnapshotReadTest, DurabilityOffAbortCommitsVisibilityWise) {
  // Without a WAL there is no rollback: Abort keeps the mutations (the
  // legacy contract). Visibility must agree -- the epoch advances so
  // new readers see the rows, while a snapshot from before the
  // transaction keeps the old state.
  auto db = std::move(Database::OpenInMemory()).value();
  SeedRows(db.get(), 50);

  ReaderThread reader;
  Database::ReadTxn read;
  reader.Run([&] { read = db->BeginRead(); });

  {
    auto txn = db->Begin();
    ASSERT_TRUE(txn.ok());
    auto table = db->OpenTable("kv");
    ASSERT_TRUE(table.ok());
    for (int64_t id = 50; id < 100; ++id) {
      ASSERT_TRUE(table->Insert({id, Payload(id)}).ok());
    }
    txn->Abort();
  }

  reader.Run([&] { ExpectRows(db.get(), 50); });
  reader.Run([&] {
    read.End();
    Database::ReadTxn fresh = db->BeginRead();
    ExpectRows(db.get(), 100);
  });
}

// ---------------------------------------------------------------------------
// ReadTxn handle hygiene
// ---------------------------------------------------------------------------

TEST(SnapshotReadTest, ReadTxnSelfMoveDoubleEndAndMoveTransfer) {
  auto db = std::move(Database::OpenInMemory()).value();
  SeedRows(db.get(), 10);

  Database::ReadTxn read = db->BeginRead();
  EXPECT_TRUE(read.active());

  // Self-move-assignment is a no-op (via a reference so the compiler
  // does not flag the aliasing).
  Database::ReadTxn& alias = read;
  read = std::move(alias);
  EXPECT_TRUE(read.active());
  EXPECT_EQ(db->active_snapshots(), 1u);

  // Move transfers the registration instead of duplicating it.
  Database::ReadTxn moved = std::move(read);
  EXPECT_FALSE(read.active());
  EXPECT_TRUE(moved.active());
  EXPECT_EQ(db->active_snapshots(), 1u);

  // End is idempotent; a second End (and the destructor after it) must
  // not unregister someone else's token.
  moved.End();
  moved.End();
  EXPECT_FALSE(moved.active());
  EXPECT_EQ(db->active_snapshots(), 0u);

  // Move-assigning over a live handle releases the overwritten one.
  Database::ReadTxn a = db->BeginRead();
  Database::ReadTxn b = db->BeginRead();
  EXPECT_EQ(db->active_snapshots(), 2u);
  a = std::move(b);
  EXPECT_EQ(db->active_snapshots(), 1u);
  a.End();
  EXPECT_EQ(db->active_snapshots(), 0u);
}

TEST(SnapshotReadTest, EndFromAnotherThreadReleasesTheSnapshot) {
  auto db = std::move(Database::OpenInMemory()).value();
  SeedRows(db.get(), 20);

  ReaderThread reader;
  Database::ReadTxn read;
  reader.Run([&] {
    read = db->BeginRead();
    ExpectRows(db.get(), 20);
  });

  // Destruction/End on a different thread than BeginRead is allowed:
  // the registration is dropped immediately (GC proceeds), and the
  // origin thread's stale stack slot is purged on its next read.
  read.End();
  EXPECT_EQ(db->active_snapshots(), 0u);

  CommitRows(db.get(), 20, 40);
  reader.Run([&] {
    Database::ReadTxn fresh = db->BeginRead();
    ExpectRows(db.get(), 40);
  });
}

// ---------------------------------------------------------------------------
// Crash points through an active snapshot
// ---------------------------------------------------------------------------

/// One crash-point iteration: commit 60 rows + checkpoint, pin a
/// snapshot, start a transaction of 60 more rows, arm the fail point,
/// try to commit, crash to durable state, reopen, and verify the
/// recovered database holds either exactly the pre-crash rows or the
/// full post-commit rows -- never a page-version or torn hybrid.
/// Returns the ops the failed run performed (to size the sweep).
uint64_t RunCrashPoint(uint64_t fail_at) {
  SCOPED_TRACE(StrFormat("fail_at=%llu", (unsigned long long)fail_at));
  constexpr const char* kPath = "/tmp/crimson_snapshot_crash.db";
  test::FaultInjectionEnv env;
  DatabaseOptions opts;
  opts.durability = Durability::kCommit;
  opts.env = env.env();

  bool committed = false;
  {
    auto db = std::move(Database::Open(kPath, opts)).value();
    SeedRows(db.get(), 60);
    EXPECT_TRUE(db->Checkpoint().ok());

    ReaderThread reader;
    Database::ReadTxn read;
    reader.Run([&] { read = db->BeginRead(); });

    env.ResetOpCount();
    if (fail_at > 0) env.ArmFailPoint(fail_at, /*torn=*/true);

    auto txn = db->Begin();
    EXPECT_TRUE(txn.ok());
    Status s = Status::OK();
    {
      auto table = db->OpenTable("kv");
      EXPECT_TRUE(table.ok());
      for (int64_t id = 60; id < 120 && s.ok(); ++id) {
        s = table->Insert({id, Payload(id)}).status();
      }
    }
    if (s.ok()) s = txn->Commit();
    committed = s.ok();

    // Whatever happened to the writer, the pinned snapshot stays
    // byte-identical to the pre-transaction state.
    reader.Run([&] {
      SCOPED_TRACE("pinned snapshot after commit attempt");
      ExpectRows(db.get(), 60);
    });
    reader.Run([&] { read.End(); });
    env.Disarm();
  }

  env.CrashToDurable();
  uint64_t ops = env.ops_performed();

  auto db = std::move(Database::Open(kPath, opts)).value();
  // Recovery replays only the committed WAL prefix. Uncommitted page
  // versions live purely in memory, so the reopened database holds
  // exactly one of the two consistent states -- never a torn hybrid.
  // A commit reported as successful must be durable. A commit reported
  // as *failed* may still recover as committed when the fault struck
  // after the WAL sync point (late-durable commit): the log record was
  // already on disk, only a post-commit step failed.
  {
    Database::ReadTxn read = db->BeginRead();
    auto table = db->OpenTable("kv");
    EXPECT_TRUE(table.ok());
    int64_t count = 0;
    EXPECT_TRUE(table
                    ->Scan([&](const RecordId&, const Row&) {
                      ++count;
                      return true;
                    })
                    .ok());
    if (committed) {
      EXPECT_EQ(count, 120);
    } else {
      EXPECT_TRUE(count == 60 || count == 120)
          << "recovered a hybrid state: " << count << " rows";
    }
    ExpectRows(db.get(), count);
  }
  return ops;
}

TEST(SnapshotReadTest, CrashPointSweepRecoversCommittedStateOnly) {
  // Unfaulted run first, to learn how many ops the protocol performs.
  uint64_t total_ops = RunCrashPoint(0);
  ASSERT_GT(total_ops, 4u);
  // Sweep a spread of crash points across the transaction + commit
  // window (every point would be O(n^2) test time; a stride covers
  // every phase of the protocol).
  uint64_t stride = total_ops / 16 + 1;
  for (uint64_t fail_at = 1; fail_at <= total_ops + 1; fail_at += stride) {
    RunCrashPoint(fail_at);
  }
}

TEST(SnapshotReadTest, StressCrashPointSweepEveryOp) {
  uint64_t total_ops = RunCrashPoint(0);
  ASSERT_GT(total_ops, 4u);
  for (uint64_t fail_at = 1; fail_at <= total_ops + 1; ++fail_at) {
    RunCrashPoint(fail_at);
  }
}

// ---------------------------------------------------------------------------
// Many readers vs a bulk writer (TSan-friendly stress shape)
// ---------------------------------------------------------------------------

/// Readers continuously snapshot + scan while the writer commits
/// batches; every scan must land exactly on a committed boundary it
/// pinned, never mid-batch.
void RunSnapshotStress(int batches, int batch_size, int reader_threads,
                       int reader_rounds) {
  auto db = std::move(Database::OpenInMemory()).value();
  SeedRows(db.get(), batch_size);

  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  readers.reserve(reader_threads);
  for (int t = 0; t < reader_threads; ++t) {
    readers.emplace_back([&] {
      int64_t last_seen = 0;
      for (int round = 0; round < reader_rounds; ++round) {
        Database::ReadTxn read = db->BeginRead();
        auto table = db->OpenTable("kv");
        if (!table.ok()) {
          ++failures;
          return;
        }
        int64_t count = 0;
        int64_t max_id = -1;
        Status s = table->Scan([&](const RecordId&, const Row& row) {
          int64_t id = std::get<int64_t>(row[0]);
          if (std::get<std::string>(row[1]) != Payload(id)) ++failures;
          if (id > max_id) max_id = id;
          ++count;
          return true;
        });
        read.End();
        if (!s.ok()) ++failures;
        if (count % batch_size != 0) ++failures;
        if (count > 0 && max_id != count - 1) ++failures;
        if (count < last_seen) ++failures;
        last_seen = count;
      }
    });
  }

  for (int b = 1; b <= batches; ++b) {
    CommitRows(db.get(), static_cast<int64_t>(b) * batch_size,
               static_cast<int64_t>(b + 1) * batch_size);
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(db->live_versions(), 0u);
}

TEST(SnapshotReadTest, ReadersAlwaysLandOnCommittedBoundaries) {
  RunSnapshotStress(/*batches=*/20, /*batch_size=*/11, /*reader_threads=*/4,
                    /*reader_rounds=*/40);
}

TEST(SnapshotReadTest, StressReadersAlwaysLandOnCommittedBoundaries) {
  RunSnapshotStress(/*batches=*/80, /*batch_size=*/17, /*reader_threads=*/8,
                    /*reader_rounds=*/120);
}

}  // namespace
}  // namespace crimson
