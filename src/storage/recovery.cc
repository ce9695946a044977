#include "storage/recovery.h"

#include <cstring>
#include <functional>

#include "common/coding.h"
#include "common/log.h"
#include "common/string_util.h"
#include "storage/pager.h"

namespace crimson {

namespace {

struct RawRecord {
  WalRecordType type;
  Lsn lsn;
  Slice body;  // points into the scan buffer
  // kPageImage and kFreePage: the page the record restores and its
  // whole after-image (see PageImageOf).
  PageId page = kInvalidPageId;
  const char* image = nullptr;
};

/// The after-image a page record restores: a kPageImage carries it in
/// its body; a kFreePage's bare freelist node is rebuilt into `scratch`
/// (kPageSize bytes), byte for byte what the writer logged.
const char* PageImageOf(const RawRecord& raw, char* scratch) {
  if (raw.type == WalRecordType::kPageImage) return raw.body.data() + 4;
  EncodeFreePage(DecodeFixed32(raw.body.data() + 4), scratch);
  return scratch;
}

/// Streams every structurally valid record in log order, stopping at
/// the first framing/CRC/ordering break (everything after a break was
/// never acknowledged: commit fsyncs persist the whole prefix).
/// fn returning false stops the scan early without error.
Status ScanWal(const std::string& base, const StorageEnv& env,
               WalScanSummary* summary,
               const std::function<bool(const RawRecord&)>& fn) {
  *summary = WalScanSummary();
  const std::string seg1 = WalSegmentPath(base, 1);
  CRIMSON_ASSIGN_OR_RETURN(bool exists, env.file_exists(seg1));
  if (!exists) return Status::OK();

  Lsn next_lsn = 1;
  for (uint32_t idx = 1;; ++idx) {
    CRIMSON_ASSIGN_OR_RETURN(bool seg_exists,
                             env.file_exists(WalSegmentPath(base, idx)));
    if (!seg_exists) return Status::OK();
    CRIMSON_ASSIGN_OR_RETURN(std::unique_ptr<File> file,
                             env.open_file(WalSegmentPath(base, idx)));
    const uint64_t size = file->Size();
    if (size < kWalSegmentHeaderSize) return Status::OK();
    std::vector<char> hdr(kWalSegmentHeaderSize);
    CRIMSON_RETURN_IF_ERROR(file->Read(0, hdr.size(), hdr.data()));
    if (memcmp(hdr.data(), kWalMagic, sizeof(kWalMagic)) != 0) {
      return Status::OK();
    }
    const uint64_t gen = DecodeFixed64(hdr.data() + 8);
    const uint32_t stamped_idx = DecodeFixed32(hdr.data() + 16);
    if (stamped_idx != idx) return Status::OK();
    if (idx == 1) {
      summary->wal_found = true;
      summary->generation = gen;
    } else if (gen != summary->generation) {
      // Stale leftover from before the last truncation; not chained.
      return Status::OK();
    }

    uint64_t off = kWalSegmentHeaderSize;
    std::vector<char> buf;
    std::vector<char> free_image(kPageSize);
    for (;;) {
      if (off + kWalRecordHeaderSize > size) break;  // segment exhausted
      char rh[kWalRecordHeaderSize];
      CRIMSON_RETURN_IF_ERROR(file->Read(off, sizeof(rh), rh));
      const uint32_t len = DecodeFixed32(rh);
      const uint32_t crc = DecodeFixed32(rh + 4);
      if (len < 9 || len > kWalMaxPayload) return Status::OK();
      if (off + kWalRecordHeaderSize + len > size) return Status::OK();
      buf.resize(len);
      CRIMSON_RETURN_IF_ERROR(
          file->Read(off + kWalRecordHeaderSize, len, buf.data()));
      if (Crc32(buf.data(), len) != crc) return Status::OK();

      RawRecord rec;
      const uint8_t type = static_cast<uint8_t>(buf[0]);
      if (type < 1 || type > 4) return Status::OK();
      rec.type = static_cast<WalRecordType>(type);
      rec.lsn = DecodeFixed64(buf.data() + 1);
      if (rec.lsn != next_lsn) return Status::OK();
      rec.body = Slice(buf.data() + 9, len - 9);
      switch (rec.type) {
        case WalRecordType::kPageImage:
          if (rec.body.size() != 4 + kPageSize) return Status::OK();
          break;
        case WalRecordType::kHeaderImage:
          if (rec.body.size() != 12) return Status::OK();
          break;
        case WalRecordType::kCommit:
        case WalRecordType::kFreePage:
          if (rec.body.size() != 8) return Status::OK();
          break;
      }
      if (rec.type == WalRecordType::kPageImage ||
          rec.type == WalRecordType::kFreePage) {
        rec.page = DecodeFixed32(rec.body.data());
        rec.image = PageImageOf(rec, free_image.data());
      }

      ++next_lsn;
      ++summary->records;
      summary->last_lsn = rec.lsn;
      summary->bytes_scanned += kWalRecordHeaderSize + len;
      if (rec.type == WalRecordType::kCommit) {
        ++summary->commits;
        summary->last_commit_lsn = rec.lsn;
      }
      if (!fn(rec)) return Status::OK();
      off += kWalRecordHeaderSize + len;
    }
  }
}

WalRecord DecodeRecord(const RawRecord& raw) {
  WalRecord rec;
  rec.type = raw.type;
  rec.lsn = raw.lsn;
  switch (raw.type) {
    case WalRecordType::kPageImage:
    case WalRecordType::kFreePage:
      rec.page = raw.page;
      rec.image.assign(raw.image, kPageSize);
      break;
    case WalRecordType::kHeaderImage:
      rec.page_count = DecodeFixed32(raw.body.data());
      rec.freelist_head = DecodeFixed32(raw.body.data() + 4);
      rec.catalog_root = DecodeFixed32(raw.body.data() + 8);
      break;
    case WalRecordType::kCommit:
      rec.txn_id = DecodeFixed64(raw.body.data());
      break;
  }
  return rec;
}

}  // namespace

Result<std::vector<WalRecord>> ReadWalRecords(const std::string& base,
                                              const StorageEnv& env,
                                              WalScanSummary* summary) {
  WalScanSummary local;
  if (summary == nullptr) summary = &local;
  std::vector<WalRecord> records;
  CRIMSON_RETURN_IF_ERROR(ScanWal(base, env, summary,
                                  [&](const RawRecord& raw) {
                                    records.push_back(DecodeRecord(raw));
                                    return true;
                                  }));
  summary->tail_records_discarded =
      summary->records -
      static_cast<uint64_t>(summary->last_commit_lsn);  // lsn == ordinal
  return records;
}

Result<bool> WalExists(const std::string& base, const StorageEnv& env) {
  CRIMSON_ASSIGN_OR_RETURN(bool exists,
                           env.file_exists(WalSegmentPath(base, 1)));
  if (!exists) return false;
  CRIMSON_ASSIGN_OR_RETURN(std::unique_ptr<File> f,
                           env.open_file(WalSegmentPath(base, 1)));
  return f->Size() >= kWalSegmentHeaderSize;
}

Result<RecoveryResult> RecoverFromWal(const std::string& base,
                                      const StorageEnv& env, File* db_file) {
  RecoveryResult result;
  // Pass 1: find the last committed record (validates the whole chain).
  CRIMSON_RETURN_IF_ERROR(
      ScanWal(base, env, &result.scan, [](const RawRecord&) { return true; }));
  result.scan.tail_records_discarded =
      result.scan.records - static_cast<uint64_t>(result.scan.last_commit_lsn);
  if (!result.scan.wal_found || result.scan.last_commit_lsn == 0) {
    return result;
  }

  // Pass 2: replay the committed prefix in log order (later images of
  // the same page simply overwrite earlier ones -- idempotent).
  const Lsn limit = result.scan.last_commit_lsn;
  uint32_t final_page_count = 0;
  Status apply_status;
  WalScanSummary replay_summary;
  CRIMSON_RETURN_IF_ERROR(ScanWal(
      base, env, &replay_summary, [&](const RawRecord& raw) {
        if (raw.lsn > limit) return false;
        switch (raw.type) {
          case WalRecordType::kPageImage:
          case WalRecordType::kFreePage:
            apply_status =
                db_file->Write(static_cast<uint64_t>(raw.page) * kPageSize,
                               raw.image, kPageSize);
            if (!apply_status.ok()) return false;
            ++result.pages_replayed;
            break;
          case WalRecordType::kHeaderImage: {
            // The caller checked the file's format version before
            // replay, so the header is rewritten at kFormatVersion.
            DbHeader header;
            header.page_count = DecodeFixed32(raw.body.data());
            header.freelist_head = DecodeFixed32(raw.body.data() + 4);
            header.catalog_root = DecodeFixed32(raw.body.data() + 8);
            final_page_count = header.page_count;
            const std::string hdr = EncodeDbHeader(header);
            apply_status = db_file->Write(0, hdr.data(), kPageSize);
            if (!apply_status.ok()) return false;
            ++result.headers_replayed;
            break;
          }
          case WalRecordType::kCommit:
            break;
        }
        return true;
      }));
  CRIMSON_RETURN_IF_ERROR(apply_status);

  // Trim spilled uncommitted pages past the committed page count (and
  // zero-extend if a committed page image landed short of it).
  if (final_page_count > 0) {
    const uint64_t want = static_cast<uint64_t>(final_page_count) * kPageSize;
    if (db_file->Size() != want) {
      CRIMSON_RETURN_IF_ERROR(db_file->Truncate(want));
    }
  }
  CRIMSON_RETURN_IF_ERROR(db_file->Sync());
  result.replayed = true;
  CRIMSON_LOG(kInfo) << "WAL recovery: replayed " << result.pages_replayed
                     << " page images across " << result.scan.commits
                     << " committed txns (discarded "
                     << result.scan.tail_records_discarded
                     << " uncommitted tail records)";
  return result;
}

}  // namespace crimson
