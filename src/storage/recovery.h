// Crash recovery: scans the write-ahead log left beside a database
// file, discards the torn/uncommitted tail, and replays committed
// page after-images idempotently onto the database file.
//
// Run *before* the Pager loads the header: a crash can tear the header
// page itself, and the replayed kHeaderImage record is what restores
// it, at kFormatVersion (the caller runs CheckFormatVersion first).
// After a successful replay the database file is synced; the caller
// then resets the WAL (Wal::Open does this) so stale records can never
// be replayed over newer state.

#ifndef CRIMSON_STORAGE_RECOVERY_H_
#define CRIMSON_STORAGE_RECOVERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/file.h"
#include "storage/page.h"
#include "storage/wal.h"

namespace crimson {

/// One decoded WAL record (exposed for tests and tooling; recovery
/// itself streams instead of materializing page images).
struct WalRecord {
  WalRecordType type = WalRecordType::kCommit;
  Lsn lsn = 0;
  // kPageImage and kFreePage: the full kPageSize after-image either
  // way (a kFreePage's freelist node is rebuilt from its link)
  PageId page = kInvalidPageId;
  std::string image;
  // kHeaderImage
  uint32_t page_count = 0;
  PageId freelist_head = kInvalidPageId;
  PageId catalog_root = kInvalidPageId;
  // kCommit
  uint64_t txn_id = 0;
};

struct WalScanSummary {
  bool wal_found = false;        // a valid segment 1 header exists
  uint64_t generation = 0;
  Lsn last_lsn = 0;              // last structurally valid record
  Lsn last_commit_lsn = 0;       // 0 = no committed transaction
  uint64_t records = 0;
  uint64_t commits = 0;
  uint64_t bytes_scanned = 0;
  uint64_t tail_records_discarded = 0;  // records after the last commit
};

/// Decodes every structurally valid record of the log at `base`
/// (stopping at the first CRC/framing break). Test/tooling surface.
Result<std::vector<WalRecord>> ReadWalRecords(const std::string& base,
                                              const StorageEnv& env,
                                              WalScanSummary* summary);

struct RecoveryResult {
  WalScanSummary scan;
  bool replayed = false;         // committed records were applied
  uint64_t pages_replayed = 0;
  uint64_t headers_replayed = 0;
};

/// Replays the committed prefix of the log at `base` onto `db_file`
/// and syncs it. Idempotent: replaying the same log twice yields the
/// same file. Does not truncate the log (the caller resets it once the
/// database is durable). No-op when the log is absent or has no commit.
Result<RecoveryResult> RecoverFromWal(const std::string& base,
                                      const StorageEnv& env, File* db_file);

/// True if the log at `base` has any segment-1 file (used to trigger
/// recovery even when the database is opened with durability off).
Result<bool> WalExists(const std::string& base, const StorageEnv& env);

}  // namespace crimson

#endif  // CRIMSON_STORAGE_RECOVERY_H_
