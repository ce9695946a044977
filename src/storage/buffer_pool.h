// BufferPool: fixed-capacity page cache with LRU eviction, pin
// counting, and per-frame reader-writer latches. All higher layers
// (heap files, B+Trees) access pages through PageGuard handles obtained
// here.
//
// The paper's "database challenge #1" argues that gold-standard trees are
// huge while individual queries touch small portions, making buffered
// random access (not main-memory structures) the right design; the buffer
// pool is where that trade-off lives, and bench_storage measures it.
//
// Concurrency (see DESIGN.md "Concurrency"):
//  - The frame table (page_table_, LRU list, free list, pin counts,
//    dirty bits, stats) is guarded by an internal mutex held only for
//    short map/list operations.
//  - Every frame carries a reader-writer latch. Fetch(id, kRead) pins
//    the frame and holds the latch shared; Fetch(id, kWrite) (and New)
//    hold it exclusive. Any number of readers share a page; a writer
//    excludes them for that page only.
//  - A cold miss installs the mapping first: the installer claims the
//    victim frame's latch exclusively under the table mutex, then
//    releases the mutex and reads from disk straight into the frame.
//    Misses from different threads overlap (snapshot_session_test's
//    ColdMissesFromTwoThreadsOverlapInThePager pins this) while
//    threads that find the in-flight mapping block on the latch until
//    the content lands.
//  - Structural multi-step mutations (New/Free and the transaction
//    hooks) additionally serialize behind a writer mutex; the engine
//    above already guarantees a single writer via Database's epochs.

#ifndef CRIMSON_STORAGE_BUFFER_POOL_H_
#define CRIMSON_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "storage/page.h"
#include "storage/page_versions.h"
#include "storage/pager.h"
#include "storage/wal.h"

namespace crimson {

class BufferPool;

/// Declared access mode of a page pin. Readers share the frame latch;
/// a writer holds it exclusively (and is the only mode that may call
/// MarkDirty).
enum class PageIntent { kRead, kWrite };

/// Shared WAL/transaction state between the Database (which drives
/// Begin/Commit/Abort) and the BufferPool (which tracks dirty pages
/// and enforces log-before-data). Null wal = durability off, legacy
/// behavior throughout. Mutated only by the single writer; readers
/// that trigger evictions observe it under the Database read epoch,
/// which excludes the writer.
struct WalContext {
  Wal* wal = nullptr;
  bool txn_active = false;
  uint64_t txn_id = 0;
  /// Pages >= this id were allocated by the active transaction: they
  /// are unreachable from the committed on-disk state, so the pool may
  /// spill them to disk mid-transaction (after logging their image)
  /// when a huge transaction -- e.g. a bulk load -- outgrows the pool.
  /// Pre-existing pages dirtied by the transaction must stay resident
  /// until commit (no-steal), preserving the committed bytes on disk.
  uint32_t txn_base_page_count = 0;
  /// Every page the active transaction dirtied (ordered: commit logs
  /// images deterministically).
  std::set<PageId> dirty_pages;
};

/// RAII pin on a cached page. While a PageGuard is alive the frame
/// cannot be evicted and its latch is held in the guard's declared
/// mode. Call MarkDirty() after mutating data() (kWrite guards only).
///
/// A kRead guard may instead be *snapshot-backed*: when the calling
/// thread holds a read snapshot (Database::BeginRead) and the page was
/// mutated since, Fetch returns a guard over the captured committed
/// image -- no frame, no pin, no latch, so it never contends with the
/// writer. Such guards are read-only (MarkDirty asserts).
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferPool* pool, size_t frame_index, PageId page_id,
            PageIntent intent)
      : pool_(pool), frame_(frame_index), page_id_(page_id),
        intent_(intent) {}
  /// Snapshot-backed read guard over a captured page image.
  PageGuard(std::shared_ptr<const std::vector<char>> snapshot, PageId page_id)
      : page_id_(page_id), intent_(PageIntent::kRead),
        snapshot_(std::move(snapshot)) {}
  ~PageGuard() { Release(); }

  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  PageGuard(PageGuard&& other) noexcept { *this = std::move(other); }
  PageGuard& operator=(PageGuard&& other) noexcept {
    if (this != &other) {
      Release();
      pool_ = other.pool_;
      frame_ = other.frame_;
      page_id_ = other.page_id_;
      intent_ = other.intent_;
      snapshot_ = std::move(other.snapshot_);
      other.pool_ = nullptr;
      other.snapshot_.reset();
    }
    return *this;
  }

  bool valid() const { return pool_ != nullptr || snapshot_ != nullptr; }
  PageId page_id() const { return page_id_; }
  PageIntent intent() const { return intent_; }

  char* data();
  const char* data() const;

  /// Records that the caller mutated the page; it will be written back
  /// on eviction or flush. Requires a kWrite guard.
  void MarkDirty();

  /// Drops the latch and pin early (idempotent).
  void Release();

 private:
  BufferPool* pool_ = nullptr;
  size_t frame_ = 0;
  PageId page_id_ = kInvalidPageId;
  PageIntent intent_ = PageIntent::kRead;
  /// Non-null for snapshot-backed guards: the immutable captured image
  /// this guard reads instead of a frame.
  std::shared_ptr<const std::vector<char>> snapshot_;
};

/// Page cache over a Pager. Thread-safe: any number of reader threads
/// may Fetch concurrently (including cold misses); mutations assume
/// the engine's single-writer discipline (Database writer epochs) but
/// are additionally serialized behind an internal writer mutex so
/// pool-level races cannot corrupt the frame table.
///
/// With a WalContext attached, the pool is the WAL capture point:
/// every mutation in the engine flows through PageGuard::MarkDirty, so
/// the context's dirty set is exactly the transaction's write set, and
/// WriteBack enforces the log-before-data rule via per-frame page_lsn
/// (a dirty frame's after-image must be in the durable log before the
/// data page is written).
class BufferPool {
 public:
  /// capacity = number of resident pages. wal_ctx may be null
  /// (durability off) and must outlive the pool. versions may be null
  /// (no snapshot reads: every Fetch sees live frames) and must
  /// outlive the pool; with it attached, the pool is the MVCC capture
  /// and resolution point (see page_versions.h). The cumulative
  /// storage.pool.* counters (hits, misses, evictions,
  /// dirty_writebacks) are cells in `metrics` (null = the process-wide
  /// default registry), which must outlive the pool.
  BufferPool(Pager* pager, size_t capacity, WalContext* wal_ctx = nullptr,
             PageVersions* versions = nullptr,
             obs::MetricsRegistry* metrics = nullptr);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Fetches a page, reading it from disk on miss. The guard pins it
  /// and holds its frame latch in the requested mode; kWrite blocks
  /// until concurrent readers of that page release their guards.
  /// With a PageVersions table attached: a kWrite fetch captures the
  /// page's committed image on the transaction's first take, and a
  /// kRead fetch from a thread holding a read snapshot resolves
  /// against it -- returning a snapshot-backed guard (no frame, no
  /// latch) when the page changed since the snapshot.
  Result<PageGuard> Fetch(PageId id, PageIntent intent = PageIntent::kRead);

  /// Allocates a brand-new page (zeroed) and pins it (kWrite).
  Result<PageGuard> New(PageId* out_id);

  /// Frees a page back to the pager; the page must not be pinned.
  Status Free(PageId id);

  /// Writes back all dirty pages. (Header write + file sync are the
  /// caller's job -- Database::Flush orders data pages first.)
  Status FlushAll();

  /// FailedPrecondition when durability is on but no transaction is
  /// active: mutations outside a Txn would bypass crash recovery.
  /// Mutation entry points (BTree, HeapFile, Table) call this first.
  Status RequireWritable() const;

  // -- transaction hooks (driven by Database) ------------------------------

  /// Appends after-images of the active transaction's dirty pages that
  /// are still resident (spilled pages already logged theirs).
  Status LogTxnPages();

  /// Writes the transaction's resident dirty pages to the database
  /// file (no sync) and marks them clean. Call after the commit record
  /// is durable.
  Status ForceTxnPages(const std::set<PageId>& pages);

  /// Abort: invalidates every frame the transaction dirtied, so later
  /// fetches reread the committed bytes from disk.
  Status DiscardTxnPages();

  size_t capacity() const { return frames_.size(); }
  Pager* pager() { return pager_; }

 private:
  friend class PageGuard;

  struct Frame {
    PageId page_id = kInvalidPageId;
    int pin_count = 0;
    bool dirty = false;
    bool valid = false;
    Lsn page_lsn = 0;  // lsn of the logged image of this content; 0 = none
    std::vector<char> data;
    /// Content latch: shared by kRead guards, exclusive for kWrite.
    /// Uncontended whenever pin_count is 0 (guards hold it while
    /// pinned), so eviction never blocks on it.
    std::unique_ptr<std::shared_mutex> latch;
    std::list<size_t>::iterator lru_pos;  // valid iff pin_count == 0 && valid
    bool in_lru = false;
  };

  void Unpin(size_t frame_index, PageIntent intent);
  void OnDirty(size_t frame_index);
  /// Pins frame `idx` (mu_ held via `lock`), releases the table mutex,
  /// then acquires the frame latch -- so a blocked latch never holds
  /// up unrelated fetches.
  PageGuard PinAndLatch(std::unique_lock<std::mutex> lock, size_t idx,
                        PageId id, PageIntent intent);
  Result<size_t> GetVictimFrameLocked();
  Status WriteBack(Frame& frame);
  bool wal_enabled() const { return wal_ctx_ != nullptr && wal_ctx_->wal; }
  /// True when the frame must stay resident until commit (dirtied
  /// pre-existing page of the active transaction; see WalContext).
  bool PinnedByTxn(const Frame& f) const;
  Result<PageGuard> NewWal(PageId* out_id);
  Status FreeWal(PageId id);
  /// MVCC pre-image capture for a page about to be freed/clobbered
  /// without a kWrite Fetch: copies the committed bytes from the
  /// resident frame, or from disk when not resident.
  Status CaptureBeforeFree(PageId id);
  /// Installs `id` into a victim frame (pinned, not latched) without
  /// reading the file. mu_ must be held.
  Result<size_t> InstallFrameLocked(PageId id);

  Pager* pager_;
  WalContext* wal_ctx_;
  PageVersions* versions_;
  std::vector<Frame> frames_;

  /// Guards the frame table: page_table_, lru_, free_frames_, frame
  /// metadata (pin counts, dirty/valid flags). Held for
  /// map/list operations and for the write-back of a *dirty* eviction
  /// victim (a deliberate simplification: releasing mu_ mid-eviction
  /// would need an "evicting" frame state and a re-check; dirty
  /// evictions are rare on the read paths this PR parallelizes, since
  /// steady-state read working sets are clean). Never held while a
  /// caller computes on page content, and never during a cold-miss
  /// disk read.
  mutable std::mutex mu_;
  /// Serializes multi-step structural mutations (New/Free, transaction
  /// hooks). Always acquired before mu_.
  std::mutex writer_mu_;

  std::unordered_map<PageId, size_t> page_table_;
  std::list<size_t> lru_;        // front = most recent
  std::vector<size_t> free_frames_;
  /// Registry cells (resolved once in the ctor; bumped under mu_).
  obs::Counter* hits_;
  obs::Counter* misses_;
  obs::Counter* evictions_;
  obs::Counter* dirty_writebacks_;
};

}  // namespace crimson

#endif  // CRIMSON_STORAGE_BUFFER_POOL_H_
