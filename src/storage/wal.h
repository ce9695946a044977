// Write-ahead log: the durability backbone of the storage engine.
//
// The log is a chain of segment files beside the database file
// (`<db>-wal.000001`, `<db>-wal.000002`, ...). Each segment starts with
// a 24-byte header (magic, generation, segment index); records follow:
//
//   [0..4)   payload length (fixed32)
//   [4..8)   CRC32 of the payload (fixed32)
//   [8..)    payload: type (u8) | lsn (fixed64) | body
//
// Record types:
//   kPageImage   body = page id (fixed32) + full kPageSize after-image
//   kHeaderImage body = page_count, freelist head, catalog root (fixed32 x3)
//   kCommit      body = txn id (fixed64)
//   kFreePage    body = page id, next freelist link (fixed32 x2): the
//                after-image is a bare freelist node (EncodeFreePage in
//                pager.h), rebuilt byte for byte on replay
//
// AppendPageImage alone picks between kPageImage and kFreePage, so a
// freed page costs a 25-byte record instead of 8 KiB.
//
// A transaction's records are appended (buffered), terminated by a
// commit record, and made durable with one fdatasync. Recovery replays
// committed after-images in log order, so any record after the last
// valid commit (torn tail, aborted txn, CRC damage) is simply ignored.
//
// The generation stamp increments on every Reset (checkpoint
// truncation); a stale higher-numbered segment left behind by a crash
// mid-truncation carries an older generation and is never chained.
//
// Thread safety: all public methods are thread-safe. Sync(lsn) returns
// once an fdatasync covers `lsn`; a caller that finds one in flight
// waits for it rather than issuing a second. Database commits are
// serialized by the writer epoch, so each commit issues exactly one.

#ifndef CRIMSON_STORAGE_WAL_H_
#define CRIMSON_STORAGE_WAL_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/crc32.h"
#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "storage/file.h"
#include "storage/page.h"

namespace crimson {

/// Log sequence number: 1-based record ordinal, monotone within a
/// generation. 0 means "none".
using Lsn = uint64_t;

enum class WalRecordType : uint8_t {
  kPageImage = 1,
  kHeaderImage = 2,
  kCommit = 3,
  kFreePage = 4,
};

inline constexpr char kWalMagic[8] = {'C', 'R', 'W', 'A', 'L', 'S', 'E', 'G'};
inline constexpr uint32_t kWalSegmentHeaderSize = 24;
inline constexpr uint32_t kWalRecordHeaderSize = 8;  // len + crc
/// Largest legal payload: page image + generous framing slack.
inline constexpr uint32_t kWalMaxPayload = kPageSize + 64;

/// Returns the path of segment `index` (1-based) of the log at `base`.
std::string WalSegmentPath(const std::string& base, uint32_t index);

struct WalOptions {
  /// Rotate to a new segment once the current one exceeds this size.
  uint64_t segment_bytes = 4ull << 20;
};

/// Append-side handle of the log. Opening resets the log to an empty
/// segment 1 with a fresh generation -- recovery (storage/recovery.h)
/// must consume any previous contents first.
class Wal {
 public:
  static Result<std::unique_ptr<Wal>> Open(const std::string& base,
                                           const StorageEnv& env,
                                           const WalOptions& options = {});

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Appends a page's after-image: a kFreePage record when `image` is a
  /// bare freelist node, a full kPageImage otherwise. Buffered; returns
  /// the record lsn.
  Result<Lsn> AppendPageImage(PageId page, const char* image);

  /// Appends the logical database header (what Pager::WriteHeader
  /// persists): page count, freelist head, catalog root.
  Result<Lsn> AppendHeaderImage(uint32_t page_count, PageId freelist_head,
                                PageId catalog_root);

  /// Appends a commit record for txn_id.
  Result<Lsn> AppendCommit(uint64_t txn_id);

  /// Writes buffered records to the segment file (no fsync).
  Status Flush();

  /// Makes every record up to `lsn` durable: returns at once when an
  /// earlier fdatasync already covered it, waits out one in flight,
  /// and otherwise flushes and fdatasyncs (outside the log mutex).
  Status Sync(Lsn lsn);

  /// Restart point for transaction rollback (capture at Begin).
  struct Mark {
    Lsn lsn = 0;               // last appended lsn
    uint32_t segment = 1;      // segment holding the append position
    uint64_t offset = 0;       // byte offset of the append position
  };
  Mark mark() const;

  /// Drops every record appended after `mark` (transaction abort).
  /// Failure is sticky: a log that cannot be rewound refuses all
  /// further appends, leaving the database read-only but consistent.
  Status Rewind(const Mark& mark);

  /// Checkpoint truncation: atomically invalidates the whole log
  /// (truncate+sync segment 1, which heads the chain), deletes higher
  /// segments, and starts an empty segment 1 under generation+1. The
  /// caller must have made the database file durable first.
  Status Reset();

  /// Invalidates and deletes the whole log at `base` (truncate+sync
  /// the chain-head segment first, then remove every segment). Used
  /// when a consumed WAL must not survive a non-durable open.
  static Status RemoveLog(const std::string& base, const StorageEnv& env);

  /// Mirrors cumulative WAL telemetry (storage.wal.appends / .bytes /
  /// .fsyncs counters) into `registry`. Call right after Open, before append
  /// traffic (Database::Build does).
  void BindMetrics(obs::MetricsRegistry* registry);

  Lsn appended_lsn() const;
  Lsn durable_lsn() const;
  uint64_t generation() const;
  /// Total bytes appended in this generation (auto-checkpoint trigger).
  uint64_t size_bytes() const;

 private:
  Wal(std::string base, StorageEnv env, WalOptions options)
      : base_(std::move(base)), env_(std::move(env)), options_(options) {}

  /// Frames `head` + `tail` as one record body straight into pending_.
  Result<Lsn> Append(WalRecordType type, Slice head, Slice tail = Slice());
  /// Truncates+syncs segment 1 (atomically invalidating the chain),
  /// then removes segments >= `first_removed`.
  static Status InvalidateChain(const std::string& base,
                                const StorageEnv& env,
                                uint32_t first_removed);
  Status FlushLocked();
  Status RotateLocked();
  Status ResetLocked(uint64_t new_generation);
  Status OpenSegmentLocked(uint32_t index, bool truncate);

  const std::string base_;
  const StorageEnv env_;
  const WalOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  /// Shared so a syncing caller can keep the file alive while fsyncing
  /// outside mu_ even if a concurrent append rotates segments.
  std::shared_ptr<File> seg_file_;
  uint32_t seg_index_ = 1;
  uint64_t seg_written_ = 0;         // bytes of current segment on file
  std::string pending_;              // appended but not yet written
  Lsn appended_lsn_ = 0;
  Lsn flushed_lsn_ = 0;              // last lsn fully in the file
  Lsn durable_lsn_ = 0;              // last lsn covered by an fdatasync
  uint64_t generation_ = 0;
  uint64_t size_bytes_ = 0;
  bool needs_dir_sync_ = false;      // a segment was created since last sync
  uint64_t segments_created_ = 0;    // guards needs_dir_sync_ against races
  bool sync_in_progress_ = false;
  Status sticky_;                    // first unrecoverable error, if any
  /// Telemetry mirrors (null until BindMetrics).
  obs::Counter* appends_ctr_ = nullptr;
  obs::Counter* bytes_ctr_ = nullptr;
  obs::Counter* fsyncs_ctr_ = nullptr;
};

}  // namespace crimson

#endif  // CRIMSON_STORAGE_WAL_H_
