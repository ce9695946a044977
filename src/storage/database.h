// Database: top of the storage engine. Owns the file, pager, buffer
// pool, write-ahead log, and catalog, and hands out Table handles by
// name.
//
// Durability model (see DESIGN.md "Durability & recovery"):
//  - kOff: no WAL, no transactions; pages are written in place.
//  - kCommit: every mutation runs inside an explicit Txn
//    (Begin/Commit). Commit appends the transaction's page after-images
//    plus a commit record to the WAL and fsyncs it before any data page
//    reaches the database file; commits are serialized by the writer
//    epoch, so each issues exactly one fsync. Database::Open replays
//    the committed WAL prefix left by a crash before reading the
//    header.
//
// Concurrency model (see DESIGN.md "Concurrency"): single writer,
// many readers, MVCC snapshot reads. Begin() opens a *writer epoch*
// (exclusive among writers/Flush/Checkpoint) regardless of durability;
// BeginRead() registers a *read snapshot* pinned at the last committed
// epoch -- it never blocks and never excludes the writer. While a
// transaction mutates pages in place, the buffer pool captures each
// page's committed pre-image into a PageVersions side table; readers
// holding a snapshot resolve Fetch(id, kRead) against it, so they
// observe the committed state as of their BeginRead byte-for-byte even
// mid-StoreTree. Any number of threads may run B+Tree descents, heap
// reads, and table lookups concurrently.

#ifndef CRIMSON_STORAGE_DATABASE_H_
#define CRIMSON_STORAGE_DATABASE_H_

#include <atomic>
#include <memory>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "storage/btree.h"
#include "storage/buffer_pool.h"
#include "storage/page_versions.h"
#include "storage/pager.h"
#include "storage/table.h"
#include "storage/wal.h"

namespace crimson {

/// Commit-durability discipline of a database.
enum class Durability {
  /// No write-ahead log; a crash can corrupt the database (legacy).
  kOff,
  /// Every Txn::Commit fsyncs the log before returning.
  kCommit,
  /// Alias of kCommit, kept only because the frozen benchmark driver
  /// (perfbench/src/main.cc) still spells it; the next change to the
  /// benchmark ports that line and drops the alias.
  kGroupCommit = kCommit,
};

struct DatabaseOptions {
  /// Buffer pool capacity in pages (default 1024 pages = 8 MiB).
  size_t buffer_pool_pages = 1024;
  /// Crash-durability discipline (on-disk databases only).
  Durability durability = Durability::kOff;
  /// Auto-checkpoint once the WAL exceeds this size (0 = only explicit
  /// Checkpoint()/Flush() truncate the log).
  uint64_t wal_checkpoint_bytes = 16ull << 20;
  /// Filesystem hooks; tests substitute fault-injecting environments.
  StorageEnv env = PosixStorageEnv();
  /// Observability registry holding the engine's cumulative counters
  /// (storage.pool.*, storage.wal.*, pages.*); null = the database owns
  /// a private one. Must outlive the database.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Column spec used when creating a table.
struct IndexSpec {
  std::string name;
  std::string column;  // column name in the schema
  bool unique = false;
};

class Database;

/// Move-only transaction handle. Holds the database's writer epoch for
/// its lifetime: readers (BeginRead) are excluded until Commit/Abort.
/// With durability off nothing is logged, but the epoch still applies,
/// so call sites are uniform across modes. Destruction without Commit
/// aborts: the pool discards the transaction's dirty frames, the pager
/// restores its header snapshot, and the WAL rewinds -- the database
/// reverts to the pre-Begin state.
class Txn {
 public:
  Txn() = default;
  Txn(Txn&& other) noexcept { *this = std::move(other); }
  Txn& operator=(Txn&& other) noexcept {
    if (this != &other) {
      Abort();
      db_ = other.db_;
      other.db_ = nullptr;
    }
    return *this;
  }
  ~Txn() { Abort(); }

  Txn(const Txn&) = delete;
  Txn& operator=(const Txn&) = delete;

  /// Makes the transaction durable. After Commit returns OK the
  /// changes survive any crash; after an error before the log sync the
  /// transaction is rolled back. Releases the writer epoch.
  Status Commit();

  /// Rolls the transaction back (idempotent; no-op after Commit).
  void Abort();

  bool active() const { return db_ != nullptr; }

 private:
  friend class Database;
  explicit Txn(Database* db) : db_(db) {}

  Database* db_ = nullptr;
};

/// Embedded single-writer / multi-reader database.
class Database {
 public:
  /// Move-only read snapshot. While alive, page reads issued from the
  /// owning thread observe the committed state as of BeginRead -- a
  /// concurrent writer neither blocks this reader nor becomes visible
  /// to it. Readers never exclude each other or the writer.
  ///
  /// Threading: queries must run on the thread that called BeginRead
  /// (snapshot resolution is thread-local), but End() / destruction is
  /// safe from any thread -- the registry entry is dropped immediately
  /// and the origin thread's stale stack slot is purged lazily.
  /// Self-move-assignment and repeated End() are no-ops.
  class ReadTxn {
   public:
    ReadTxn() = default;
    ReadTxn(ReadTxn&& other) noexcept { *this = std::move(other); }
    ReadTxn& operator=(ReadTxn&& other) noexcept {
      if (this != &other) {
        End();
        db_ = other.db_;
        token_ = other.token_;
        other.db_ = nullptr;
        other.token_ = 0;
      }
      return *this;
    }
    ~ReadTxn() { End(); }

    ReadTxn(const ReadTxn&) = delete;
    ReadTxn& operator=(const ReadTxn&) = delete;

    /// Releases the snapshot (idempotent; any thread).
    void End();

    bool active() const { return db_ != nullptr; }

   private:
    friend class Database;
    explicit ReadTxn(const Database* db) : db_(db) {}

    const Database* db_ = nullptr;
    uint64_t token_ = 0;
  };

  /// Opens (or creates) an on-disk database. With durability on (or a
  /// leftover WAL from a durable run), committed WAL records are
  /// replayed before the header is read. A file of another format
  /// version (page.h kFormatVersion) fails with FailedPrecondition
  /// before any replay, leaving the file and its WAL untouched.
  static Result<std::unique_ptr<Database>> Open(
      const std::string& path, const DatabaseOptions& options = {});

  /// Opens a fully in-memory database (tests, benches). Durability
  /// must be kOff: there is no medium to recover from.
  static Result<std::unique_ptr<Database>> OpenInMemory(
      const DatabaseOptions& options = {});

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Creates a table with the given schema and secondary indexes.
  Result<Table> CreateTable(const std::string& name, const Schema& schema,
                            const std::vector<IndexSpec>& indexes = {});

  /// Opens an existing table.
  Result<Table> OpenTable(const std::string& name) const;

  /// True if the catalog has this table.
  Result<bool> HasTable(const std::string& name) const;

  /// Names of all tables.
  Result<std::vector<std::string>> ListTables() const;

  /// Begins a write transaction, entering the writer epoch. One writer
  /// at a time (a second Begin from another thread waits; from the
  /// same thread it fails -- no nesting). Readers do NOT block the
  /// writer, nor vice versa: live ReadTxns keep resolving against
  /// their snapshots while the transaction mutates. With durability
  /// off the transaction logs nothing but still provides the writer
  /// exclusion.
  [[nodiscard]] Result<Txn> Begin();

  /// Registers a read snapshot pinned at the last committed epoch.
  /// Never blocks -- not even while a write transaction is open (the
  /// snapshot then simply predates that transaction's mutations).
  /// Storage-engine readers (table lookups, scans, tree descents) hold
  /// one of these so their page accesses are snapshot-consistent.
  [[nodiscard]] ReadTxn BeginRead() const;

  /// True while a write transaction is open.
  bool in_txn() const { return writer_active_.load(std::memory_order_acquire); }

  /// True when this database runs with a write-ahead log.
  bool durable() const { return wal_ != nullptr; }

  /// Writes back all dirty pages, then syncs the header -- data pages
  /// always reach the file before the header sync. With durability on
  /// this is a full Checkpoint. Takes the writer epoch.
  Status Flush();

  /// Durable truncation point: flushes everything, fsyncs the database
  /// file, and truncates the WAL. FailedPrecondition inside a Txn.
  Status Checkpoint();

  BufferPool* buffer_pool() { return pool_.get(); }
  Wal* wal() { return wal_.get(); }
  /// The registry holding the engine's counters (options.metrics, or
  /// the private one).
  obs::MetricsRegistry* metrics() const { return metrics_; }
  /// MVCC side-table live levels.
  uint64_t live_versions() const { return versions_.live_versions(); }
  uint64_t active_snapshots() const { return versions_.active_snapshots(); }
  /// The committed epoch (no chain walk; the query cache stamps
  /// entries with it on every cacheable miss).
  uint64_t committed_epoch() const { return versions_.committed_epoch(); }

 private:
  friend class Txn;

  explicit Database(const DatabaseOptions& options);

  static Result<std::unique_ptr<Database>> Build(
      std::unique_ptr<File> file, const DatabaseOptions& options,
      const std::string& path);

  Result<BTree> CatalogTree() const;
  Status CommitTxn();
  void AbortTxn();
  void ReleaseWriterEpoch();

  DatabaseOptions options_;
  /// Backing registry when options.metrics was null; declared before
  /// every component holding its cells.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_;
  std::unique_ptr<Pager> pager_;
  std::unique_ptr<Wal> wal_;
  WalContext wal_ctx_;
  /// MVCC page-version side table; declared before pool_ so it
  /// outlives the pool that captures into / resolves against it.
  mutable PageVersions versions_;
  std::unique_ptr<BufferPool> pool_;
  uint64_t next_txn_id_ = 1;
  Pager::HeaderSnapshot txn_header_snapshot_;
  Wal::Mark txn_wal_mark_;

  /// Serializes writers against each other and against Flush/
  /// Checkpoint. Readers no longer touch it: BeginRead registers a
  /// snapshot in versions_ instead.
  mutable std::shared_mutex epoch_mu_;
  /// Thread currently inside the writer epoch (detects same-thread
  /// nested Begin, which would otherwise self-deadlock).
  std::atomic<std::thread::id> writer_thread_{};
  std::atomic<bool> writer_active_{false};
};

}  // namespace crimson

#endif  // CRIMSON_STORAGE_DATABASE_H_
