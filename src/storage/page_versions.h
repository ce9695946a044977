// PageVersions: the MVCC side table that gives read transactions a
// true snapshot while the single writer mutates pages in place.
//
// Model. Committed state advances in *epochs*: sealing the active
// write transaction bumps committed_epoch. A read transaction
// registers a snapshot pinned at the committed epoch of its BeginRead;
// the writer, on first taking a page exclusively (Fetch kWrite, or a
// Free), captures a copy of that page's last *committed* image into a
// per-page version chain tagged valid_through = the epoch the image
// was current for. A reader at snapshot S resolving page P picks the
// chain entry with the smallest valid_through >= S -- the bytes P held
// when S was the committed state -- and falls back to the live frame
// when no entry qualifies (the page has not changed since S).
//
// Scope and invariants:
//  - Versions are purely in-memory. They never reach the WAL or the
//    data file, so crash recovery replays only committed page images
//    and cannot observe them (snapshot_read_test drives a crash point
//    through an active snapshot to pin this down).
//  - Capture happens before the first mutation of a page per
//    transaction, under that page's exclusive frame latch, so a
//    version is always a committed image, never a torn one.
//  - Pages allocated by the active transaction (id >= the page count
//    at Begin) are unreachable from any snapshot-consistent root and
//    are never captured.
//  - The writer thread bypasses resolution entirely: inside its own
//    transaction it must read its own uncommitted writes.
//  - Snapshots are tracked per thread (a thread-local stack) so the
//    buffer pool can resolve a plain Fetch(id, kRead) with no API
//    change up the stack. Ending a ReadTxn on a different thread than
//    its BeginRead is allowed: the registry entry (which gates
//    visibility and GC) is removed immediately; the origin thread's
//    stale stack entry is purged lazily on its next resolution.
//
// Garbage collection: a chain entry tagged E is needed only while some
// active snapshot S <= E exists or the epoch has not advanced past it;
// Seal/Unregister drop everything older than
// min(active snapshot epochs, committed_epoch).
//
// Thread safety: fully thread-safe; one short internal mutex guards
// the chains, the snapshot registry, and the epoch counter.

#ifndef CRIMSON_STORAGE_PAGE_VERSIONS_H_
#define CRIMSON_STORAGE_PAGE_VERSIONS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "storage/page.h"

namespace crimson {

class PageVersions {
 public:
  /// One registered read snapshot. The token identifies it in the
  /// registry; the epoch is the committed epoch it pinned.
  struct Snapshot {
    uint64_t token = 0;
    uint64_t epoch = 0;
  };

  /// Outcome of resolving a page read against the caller's snapshot.
  enum class Resolution {
    /// No snapshot on this thread (or the caller is the writer):
    /// read the live frame, current semantics.
    kNoSnapshot,
    /// Snapshot active, but the page is unchanged since it: the live
    /// frame (or disk) holds the right bytes.
    kUseFrame,
    /// Snapshot active and the page changed since: use the returned
    /// captured image.
    kUseVersion,
  };

  /// The cumulative counters -- pages.captured_pages (pre-images
  /// copied), pages.version_hits (reads served from a version) and
  /// pages.versions_dropped (GC'd entries) -- are cells in `metrics`,
  /// which must outlive the table.
  explicit PageVersions(obs::MetricsRegistry* metrics);
  PageVersions(const PageVersions&) = delete;
  PageVersions& operator=(const PageVersions&) = delete;

  // -- writer side (driven by Database::Begin/Commit/Abort) ----------------

  /// Opens capture for a write transaction on the calling thread.
  /// Pages >= base_page_count are transaction-new and never captured.
  void BeginTxn(uint32_t base_page_count);

  /// Makes the transaction's mutations visible: bumps the committed
  /// epoch (its captures stay to serve older snapshots) and GCs.
  /// No-op when no transaction is open.
  void SealTxn();

  /// Rolled-back transaction: removes the images it captured (the
  /// engine restores the frames/disk to exactly those bytes, so the
  /// live path is again correct for every snapshot). No-op when no
  /// transaction is open.
  void DropTxn();

  /// Captures `data` (kPageSize bytes, the page's committed image) for
  /// `id` if the active transaction has not captured it yet. No-op
  /// outside a transaction or for transaction-new pages.
  void MaybeCapture(PageId id, const char* data);

  /// True when MaybeCapture(id, ...) would copy -- lets callers that
  /// must fetch the committed bytes from disk first (page frees of
  /// non-resident pages) skip the read when capture is a no-op.
  bool WouldCapture(PageId id);

  // -- reader side ---------------------------------------------------------

  /// Registers a snapshot at the current committed epoch and pushes it
  /// on the calling thread's snapshot stack.
  Snapshot RegisterSnapshot();

  /// Removes a snapshot from the registry (any thread) and from the
  /// calling thread's stack if present there.
  void Unregister(uint64_t token);

  /// Resolves a read of `id` against the calling thread's innermost
  /// live snapshot of this table. On kUseVersion, *out holds the
  /// captured image (shared, immutable).
  Resolution ResolveForThread(PageId id,
                              std::shared_ptr<const std::vector<char>>* out);

  // -- live levels -----------------------------------------------------------

  /// Chain entries currently held (walks the chains).
  uint64_t live_versions() const;
  uint64_t active_snapshots() const;
  /// The current committed epoch (hot-path callers stamping cache
  /// entries use this).
  uint64_t committed_epoch() const {
    std::lock_guard<std::mutex> lock(mu_);
    return committed_epoch_;
  }

 private:
  struct Version {
    /// Last epoch this image was the committed content for.
    uint64_t valid_through = 0;
    std::shared_ptr<const std::vector<char>> data;
  };

  void GcLocked();

  mutable std::mutex mu_;
  uint64_t committed_epoch_ = 0;
  uint64_t next_token_ = 1;
  /// token -> pinned epoch, for every live snapshot.
  std::unordered_map<uint64_t, uint64_t> active_;
  /// Per-page chains, each sorted by valid_through ascending.
  std::unordered_map<PageId, std::vector<Version>> versions_;

  bool txn_active_ = false;
  uint32_t txn_base_page_count_ = 0;
  /// Epoch the active transaction's captures are tagged with (the
  /// committed epoch at its Begin).
  uint64_t capture_epoch_ = 0;
  std::thread::id writer_thread_{};
  std::set<PageId> txn_captured_;

  /// Registry cells (resolved once in the ctor).
  obs::Counter* captured_pages_;
  obs::Counter* version_hits_;
  obs::Counter* versions_dropped_;
};

}  // namespace crimson

#endif  // CRIMSON_STORAGE_PAGE_VERSIONS_H_
