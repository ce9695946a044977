#include "storage/wal.h"

#include <algorithm>
#include <vector>

#include "common/coding.h"
#include "common/string_util.h"
#include "storage/pager.h"

namespace crimson {

namespace {

/// How many consecutive missing indices the segment prober tolerates
/// while hunting for stale leftovers from an interrupted truncation.
constexpr uint32_t kSegmentProbeWindow = 8;

/// Appends write (without sync) once this many bytes are buffered,
/// bounding memory during large transactions.
constexpr size_t kFlushThresholdBytes = 1 << 20;

}  // namespace

std::string WalSegmentPath(const std::string& base, uint32_t index) {
  return base + StrFormat(".%06u", index);
}

Result<std::unique_ptr<Wal>> Wal::Open(const std::string& base,
                                       const StorageEnv& env,
                                       const WalOptions& options) {
  auto wal = std::unique_ptr<Wal>(new Wal(base, env, options));
  // Find the highest generation stamped on any surviving segment so the
  // new era can never collide with a stale leftover.
  uint64_t max_gen = 0;
  uint32_t misses = 0;
  for (uint32_t idx = 1; misses < kSegmentProbeWindow; ++idx) {
    CRIMSON_ASSIGN_OR_RETURN(bool exists,
                             env.file_exists(WalSegmentPath(base, idx)));
    if (!exists) {
      ++misses;
      continue;
    }
    misses = 0;
    CRIMSON_ASSIGN_OR_RETURN(std::unique_ptr<File> f,
                             env.open_file(WalSegmentPath(base, idx)));
    if (f->Size() >= kWalSegmentHeaderSize) {
      std::vector<char> hdr(kWalSegmentHeaderSize);
      CRIMSON_RETURN_IF_ERROR(f->Read(0, hdr.size(), hdr.data()));
      if (memcmp(hdr.data(), kWalMagic, sizeof(kWalMagic)) == 0) {
        max_gen = std::max(max_gen, DecodeFixed64(hdr.data() + 8));
      }
    }
  }
  std::lock_guard<std::mutex> lock(wal->mu_);
  CRIMSON_RETURN_IF_ERROR(wal->ResetLocked(max_gen + 1));
  return wal;
}

Status Wal::OpenSegmentLocked(uint32_t index, bool truncate) {
  CRIMSON_ASSIGN_OR_RETURN(std::unique_ptr<File> file,
                           env_.open_file(WalSegmentPath(base_, index)));
  seg_file_ = std::move(file);
  if (truncate && seg_file_->Size() > 0) {
    CRIMSON_RETURN_IF_ERROR(seg_file_->Truncate(0));
  }
  std::string hdr;
  hdr.append(kWalMagic, sizeof(kWalMagic));
  PutFixed64(&hdr, generation_);
  PutFixed32(&hdr, index);
  PutFixed32(&hdr, 0);  // reserved
  CRIMSON_RETURN_IF_ERROR(seg_file_->Write(0, hdr.data(), hdr.size()));
  seg_index_ = index;
  seg_written_ = kWalSegmentHeaderSize;
  needs_dir_sync_ = true;
  ++segments_created_;
  return Status::OK();
}

Status Wal::InvalidateChain(const std::string& base, const StorageEnv& env,
                            uint32_t first_removed) {
  // Step 1: atomically invalidate the old chain. Segment 1 heads it, so
  // a zero-length (or torn-header) segment 1 makes recovery see an
  // empty log regardless of what later segments still hold.
  const std::string seg1 = WalSegmentPath(base, 1);
  CRIMSON_ASSIGN_OR_RETURN(bool seg1_exists, env.file_exists(seg1));
  if (seg1_exists) {
    CRIMSON_ASSIGN_OR_RETURN(std::unique_ptr<File> f, env.open_file(seg1));
    if (f->Size() > 0) {
      CRIMSON_RETURN_IF_ERROR(f->Truncate(0));
      CRIMSON_RETURN_IF_ERROR(f->Sync());
    }
  }
  // Step 2: remove stale segments (safe in any order now).
  uint32_t misses = 0;
  for (uint32_t idx = first_removed; misses < kSegmentProbeWindow; ++idx) {
    CRIMSON_ASSIGN_OR_RETURN(bool exists,
                             env.file_exists(WalSegmentPath(base, idx)));
    if (!exists) {
      ++misses;
      continue;
    }
    misses = 0;
    CRIMSON_RETURN_IF_ERROR(env.remove_file(WalSegmentPath(base, idx)));
  }
  return Status::OK();
}

Status Wal::RemoveLog(const std::string& base, const StorageEnv& env) {
  CRIMSON_RETURN_IF_ERROR(InvalidateChain(base, env, /*first_removed=*/2));
  return env.remove_file(WalSegmentPath(base, 1));
}

Status Wal::ResetLocked(uint64_t new_generation) {
  pending_.clear();
  CRIMSON_RETURN_IF_ERROR(InvalidateChain(base_, env_, /*first_removed=*/2));
  // Start the new era in segment 1.
  generation_ = new_generation;
  appended_lsn_ = flushed_lsn_ = durable_lsn_ = 0;
  size_bytes_ = 0;
  return OpenSegmentLocked(1, /*truncate=*/true);
}

Status Wal::Reset() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return !sync_in_progress_; });
  if (!sticky_.ok()) return sticky_;
  Status s = ResetLocked(generation_ + 1);
  if (!s.ok()) sticky_ = s;
  return s;
}

Result<Lsn> Wal::Append(WalRecordType type, Slice head, Slice tail) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!sticky_.ok()) return sticky_;

  const size_t payload_size = 9 + head.size() + tail.size();
  const uint64_t record_size = kWalRecordHeaderSize + payload_size;
  // Rotate at record granularity so records never span segments.
  if (seg_written_ + pending_.size() + record_size > options_.segment_bytes &&
      seg_written_ + pending_.size() > kWalSegmentHeaderSize) {
    Status s = RotateLocked();
    if (!s.ok()) {
      sticky_ = s;
      return s;
    }
  }

  ++appended_lsn_;
  size_bytes_ += record_size;
  if (appends_ctr_) appends_ctr_->Increment();
  if (bytes_ctr_) bytes_ctr_->Add(record_size);
  // Lay the payload out in place, then fill the length and CRC fields
  // in front of it: the page image is copied once, into pending_.
  const size_t start = pending_.size();
  pending_.resize(start + kWalRecordHeaderSize);
  pending_.push_back(static_cast<char>(type));
  PutFixed64(&pending_, appended_lsn_);
  pending_.append(head.data(), head.size());
  pending_.append(tail.data(), tail.size());
  char* record = &pending_[start];
  EncodeFixed32(record, static_cast<uint32_t>(payload_size));
  EncodeFixed32(record + 4,
                Crc32(record + kWalRecordHeaderSize, payload_size));

  if (pending_.size() >= kFlushThresholdBytes) {
    Status s = FlushLocked();
    if (!s.ok()) {
      sticky_ = s;
      return s;
    }
  }
  return appended_lsn_;
}

Result<Lsn> Wal::AppendPageImage(PageId page, const char* image) {
  char body[8];
  EncodeFixed32(body, page);
  PageId next;
  if (DecodeFreePage(image, &next)) {
    EncodeFixed32(body + 4, next);
    return Append(WalRecordType::kFreePage, Slice(body, 8));
  }
  return Append(WalRecordType::kPageImage, Slice(body, 4),
                Slice(image, kPageSize));
}

Result<Lsn> Wal::AppendHeaderImage(uint32_t page_count, PageId freelist_head,
                                   PageId catalog_root) {
  std::string body;
  PutFixed32(&body, page_count);
  PutFixed32(&body, freelist_head);
  PutFixed32(&body, catalog_root);
  return Append(WalRecordType::kHeaderImage, body);
}

Result<Lsn> Wal::AppendCommit(uint64_t txn_id) {
  std::string body;
  PutFixed64(&body, txn_id);
  return Append(WalRecordType::kCommit, body);
}

Status Wal::FlushLocked() {
  if (pending_.empty()) return Status::OK();
  CRIMSON_RETURN_IF_ERROR(
      seg_file_->Write(seg_written_, pending_.data(), pending_.size()));
  seg_written_ += pending_.size();
  pending_.clear();
  flushed_lsn_ = appended_lsn_;
  return Status::OK();
}

Status Wal::RotateLocked() {
  CRIMSON_RETURN_IF_ERROR(FlushLocked());
  // Close out the full segment durably so later Syncs only ever need to
  // touch the current segment (and the directory entry).
  CRIMSON_RETURN_IF_ERROR(seg_file_->Sync());
  if (needs_dir_sync_) {
    CRIMSON_RETURN_IF_ERROR(env_.sync_dir(base_));
    needs_dir_sync_ = false;
  }
  durable_lsn_ = std::max(durable_lsn_, flushed_lsn_);
  return OpenSegmentLocked(seg_index_ + 1, /*truncate=*/true);
}

Status Wal::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!sticky_.ok()) return sticky_;
  Status s = FlushLocked();
  if (!s.ok()) sticky_ = s;
  return s;
}

Status Wal::Sync(Lsn lsn) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (!sticky_.ok()) return sticky_;
    if (durable_lsn_ >= lsn) return Status::OK();
    if (sync_in_progress_) {
      // Another caller's fdatasync is in flight; it may cover us.
      cv_.wait(lock);
      continue;
    }
    Status s = FlushLocked();
    if (!s.ok()) {
      sticky_ = s;
      cv_.notify_all();
      return s;
    }
    const Lsn target = flushed_lsn_;
    // Shared copy: a concurrent append may rotate (and replace)
    // seg_file_ while this fsync runs outside the lock. Records up to
    // `target` are in this file, and a rotation fsyncs the segment it
    // retires, so the durability claim below stays valid either way.
    std::shared_ptr<File> file = seg_file_;
    const bool dir_sync = needs_dir_sync_;
    const uint64_t created_at_capture = segments_created_;
    sync_in_progress_ = true;
    lock.unlock();

    Status sync_status = file->Sync();
    if (fsyncs_ctr_) fsyncs_ctr_->Increment();
    if (sync_status.ok() && dir_sync) sync_status = env_.sync_dir(base_);

    lock.lock();
    sync_in_progress_ = false;
    if (!sync_status.ok()) {
      sticky_ = sync_status;
      cv_.notify_all();
      return sync_status;
    }
    // Only clear the flag if no segment was created while the
    // directory fsync ran -- a fresh segment needs its own.
    if (dir_sync && segments_created_ == created_at_capture) {
      needs_dir_sync_ = false;
    }
    durable_lsn_ = std::max(durable_lsn_, target);
    cv_.notify_all();
    if (durable_lsn_ >= lsn) return Status::OK();
  }
}

void Wal::BindMetrics(obs::MetricsRegistry* registry) {
  std::lock_guard<std::mutex> lock(mu_);
  appends_ctr_ = registry->GetCounter("storage.wal.appends");
  bytes_ctr_ = registry->GetCounter("storage.wal.bytes");
  fsyncs_ctr_ = registry->GetCounter("storage.wal.fsyncs");
}

Wal::Mark Wal::mark() const {
  std::lock_guard<std::mutex> lock(mu_);
  Mark m;
  m.lsn = appended_lsn_;
  m.segment = seg_index_;
  m.offset = seg_written_ + pending_.size();
  return m;
}

Status Wal::Rewind(const Mark& mark) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return !sync_in_progress_; });
  if (!sticky_.ok()) return sticky_;
  auto fail = [&](Status s) {
    sticky_ = s;
    return s;
  };
  if (mark.lsn > appended_lsn_) {
    return fail(Status::Internal("WAL rewind past the append position"));
  }
  if (mark.segment == seg_index_ && mark.offset >= seg_written_) {
    // The whole rewound range is still buffered.
    pending_.resize(mark.offset - seg_written_);
  } else {
    pending_.clear();
    if (mark.segment != seg_index_) {
      // Drop segments created during the aborted transaction.
      for (uint32_t idx = seg_index_; idx > mark.segment; --idx) {
        Status s = env_.remove_file(WalSegmentPath(base_, idx));
        if (!s.ok()) return fail(s);
      }
      Result<std::unique_ptr<File>> reopened =
          env_.open_file(WalSegmentPath(base_, mark.segment));
      if (!reopened.ok()) return fail(reopened.status());
      seg_file_ = std::shared_ptr<File>(std::move(*reopened));
      seg_index_ = mark.segment;
      needs_dir_sync_ = true;
    }
    Status s = seg_file_->Truncate(mark.offset);
    if (!s.ok()) return fail(s);
    seg_written_ = mark.offset;
  }
  appended_lsn_ = mark.lsn;
  flushed_lsn_ = std::min(flushed_lsn_, mark.lsn);
  durable_lsn_ = std::min(durable_lsn_, mark.lsn);
  return Status::OK();
}

Lsn Wal::appended_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return appended_lsn_;
}

Lsn Wal::durable_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return durable_lsn_;
}

uint64_t Wal::generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return generation_;
}

uint64_t Wal::size_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return size_bytes_;
}

}  // namespace crimson
