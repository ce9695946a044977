#include "storage/buffer_pool.h"

#include <cassert>
#include <cstring>

#include "common/coding.h"
#include "common/string_util.h"

namespace crimson {

char* PageGuard::data() {
  assert(valid());
  // Snapshot-backed guards are read-only by contract (kRead intent;
  // MarkDirty asserts): the non-const view exists only because the
  // read paths up the stack take char*.
  if (snapshot_ != nullptr) return const_cast<char*>(snapshot_->data());
  return pool_->frames_[frame_].data.data();
}

const char* PageGuard::data() const {
  assert(valid());
  if (snapshot_ != nullptr) return snapshot_->data();
  return pool_->frames_[frame_].data.data();
}

void PageGuard::MarkDirty() {
  assert(valid());
  assert(snapshot_ == nullptr && "MarkDirty on a snapshot-backed guard");
  assert(intent_ == PageIntent::kWrite &&
         "MarkDirty on a read-latched guard");
  pool_->OnDirty(frame_);
}

void PageGuard::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_, intent_);
    pool_ = nullptr;
  }
  snapshot_.reset();
}

BufferPool::BufferPool(Pager* pager, size_t capacity, WalContext* wal_ctx,
                       PageVersions* versions, obs::MetricsRegistry* metrics)
    : pager_(pager), wal_ctx_(wal_ctx), versions_(versions) {
  assert(capacity >= 8 && "buffer pool needs at least 8 frames");
  if (metrics == nullptr) metrics = &obs::MetricsRegistry::Default();
  hits_ = metrics->GetCounter("storage.pool.hits");
  misses_ = metrics->GetCounter("storage.pool.misses");
  evictions_ = metrics->GetCounter("storage.pool.evictions");
  dirty_writebacks_ = metrics->GetCounter("storage.pool.dirty_writebacks");
  frames_.resize(capacity);
  free_frames_.reserve(capacity);
  for (size_t i = 0; i < capacity; ++i) {
    frames_[i].data.resize(kPageSize);
    frames_[i].latch = std::make_unique<std::shared_mutex>();
    free_frames_.push_back(capacity - 1 - i);  // hand out low indices first
  }
}

void BufferPool::Unpin(size_t frame_index, PageIntent intent) {
  Frame& f = frames_[frame_index];
  // Latch first, pin second: once the pin drops the frame may be
  // evicted and repurposed, and a repurposed frame's latch must be
  // free (eviction only picks pin_count == 0 frames, whose latches
  // are by construction unheld).
  if (intent == PageIntent::kWrite) {
    f.latch->unlock();
  } else {
    f.latch->unlock_shared();
  }
  std::lock_guard<std::mutex> lock(mu_);
  assert(f.pin_count > 0);
  --f.pin_count;
  if (f.pin_count == 0) {
    if (f.valid) {
      lru_.push_front(frame_index);
      f.lru_pos = lru_.begin();
      f.in_lru = true;
    } else {
      // The frame went invalid while pinned (its installer's disk read
      // failed under waiters); the last waiter returns it to the free
      // list.
      free_frames_.push_back(frame_index);
    }
  }
}

void BufferPool::OnDirty(size_t frame_index) {
  std::lock_guard<std::mutex> lock(mu_);
  Frame& f = frames_[frame_index];
  f.dirty = true;
  // Content changed: any previously logged image is stale.
  f.page_lsn = 0;
  if (wal_enabled()) {
    assert(wal_ctx_->txn_active &&
           "page dirtied outside a transaction with durability on");
    if (wal_ctx_->txn_active) wal_ctx_->dirty_pages.insert(f.page_id);
  }
}

Status BufferPool::RequireWritable() const {
  if (wal_enabled() && !wal_ctx_->txn_active) {
    return Status::FailedPrecondition(
        "durability is enabled: mutations must run inside a transaction "
        "(Database::Begin)");
  }
  return Status::OK();
}

bool BufferPool::PinnedByTxn(const Frame& f) const {
  return wal_enabled() && wal_ctx_->txn_active && f.dirty &&
         f.page_id < wal_ctx_->txn_base_page_count;
}

Status BufferPool::WriteBack(Frame& frame) {
  if (!frame.dirty) return Status::OK();
  if (wal_enabled()) {
    // Log-before-data: the frame's after-image must be in the log
    // before the data page hits the file.
    if (frame.page_lsn == 0) {
      CRIMSON_ASSIGN_OR_RETURN(
          frame.page_lsn,
          wal_ctx_->wal->AppendPageImage(frame.page_id, frame.data.data()));
    }
    // ... and durable, unless the page is brand-new in the active
    // transaction (unreachable from the committed header, so a torn
    // write here can never corrupt committed state).
    const bool new_in_txn = wal_ctx_->txn_active &&
                            frame.page_id >= wal_ctx_->txn_base_page_count;
    if (!new_in_txn) {
      CRIMSON_RETURN_IF_ERROR(wal_ctx_->wal->Sync(frame.page_lsn));
    }
  }
  CRIMSON_RETURN_IF_ERROR(pager_->WritePage(frame.page_id, frame.data.data()));
  frame.dirty = false;
  dirty_writebacks_->Increment();
  return Status::OK();
}

Result<size_t> BufferPool::GetVictimFrameLocked() {
  if (!free_frames_.empty()) {
    size_t idx = free_frames_.back();
    free_frames_.pop_back();
    return idx;
  }
  // Scan from the LRU end, skipping frames the active transaction must
  // keep resident (no-steal for pre-existing pages).
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
    size_t idx = *it;
    Frame& f = frames_[idx];
    assert(f.pin_count == 0 && f.valid);
    if (PinnedByTxn(f)) continue;
    CRIMSON_RETURN_IF_ERROR(WriteBack(f));
    lru_.erase(f.lru_pos);
    f.in_lru = false;
    page_table_.erase(f.page_id);
    f.valid = false;
    evictions_->Increment();
    return idx;
  }
  return Status::ResourceExhausted(
      "buffer pool exhausted: all frames pinned or held by the active "
      "transaction");
}

Result<size_t> BufferPool::InstallFrameLocked(PageId id) {
  CRIMSON_ASSIGN_OR_RETURN(size_t idx, GetVictimFrameLocked());
  Frame& f = frames_[idx];
  f.page_id = id;
  f.pin_count = 1;
  f.dirty = false;
  f.page_lsn = 0;
  f.valid = true;
  f.in_lru = false;
  page_table_[id] = idx;
  // The installer claims the content latch exclusively *before* the
  // mapping escapes mu_: a victim frame's latch is by construction
  // free (pin_count was 0), so this cannot block, and any thread that
  // finds the new mapping waits on the latch until the installer has
  // put the content in place (disk read, zero-fill, ...).
  bool latched = f.latch->try_lock();
  assert(latched && "victim frame latch must be free");
  (void)latched;
  return idx;
}

PageGuard BufferPool::PinAndLatch(std::unique_lock<std::mutex> lock,
                                  size_t idx, PageId id, PageIntent intent) {
  Frame& f = frames_[idx];
  if (f.pin_count == 0 && f.in_lru) {
    lru_.erase(f.lru_pos);
    f.in_lru = false;
  }
  ++f.pin_count;
  // The pin keeps the frame from being evicted or repurposed, so the
  // latch can be taken without the table mutex; a kWrite acquisition
  // blocks here until concurrent readers of this page drain.
  lock.unlock();
  if (intent == PageIntent::kWrite) {
    f.latch->lock();
  } else {
    f.latch->lock_shared();
  }
  return PageGuard(this, idx, id, intent);
}

Result<PageGuard> BufferPool::Fetch(PageId id, PageIntent intent) {
  const bool snapshot_reads =
      versions_ != nullptr && intent == PageIntent::kRead;
  if (snapshot_reads) {
    // Lock-free pre-resolution: threads with no snapshot (including the
    // writer) fall straight through to the frame path; a snapshot
    // reader whose page already changed gets the captured image with no
    // frame, pin, or latch at all.
    std::shared_ptr<const std::vector<char>> img;
    if (versions_->ResolveForThread(id, &img) ==
        PageVersions::Resolution::kUseVersion) {
      return PageGuard(std::move(img), id);
    }
  }
  for (;;) {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = page_table_.find(id);
    if (it != page_table_.end()) {
      size_t idx = it->second;
      hits_->Increment();
      PageGuard guard = PinAndLatch(std::move(lock), idx, id, intent);
      // A pinned frame can only go invalid if its installer's disk
      // read failed while this thread waited on the latch (both reads
      // below are ordered by that latch handoff); retry the fetch.
      Frame& f = frames_[idx];
      if (!f.valid || f.page_id != id) continue;  // guard releases
      if (intent == PageIntent::kWrite && versions_ != nullptr) {
        // First exclusive take of a committed page in this transaction:
        // capture its pre-image before the caller mutates it. Under the
        // exclusive latch the content is exactly the committed bytes.
        versions_->MaybeCapture(id, f.data.data());
      } else if (snapshot_reads) {
        // The writer may have captured this page between the pre-
        // resolution above and our shared latch; re-check so a snapshot
        // reader never sees the writer's in-place mutation.
        std::shared_ptr<const std::vector<char>> img;
        if (versions_->ResolveForThread(id, &img) ==
            PageVersions::Resolution::kUseVersion) {
          return PageGuard(std::move(img), id);  // frame guard releases
        }
      }
      return guard;
    }
    misses_->Increment();
    CRIMSON_ASSIGN_OR_RETURN(size_t idx, InstallFrameLocked(id));
    Frame& f = frames_[idx];
    lock.unlock();
    // Disk read with no pool lock held, so cold misses from different
    // threads overlap; the exclusive latch taken at install blocks
    // threads that find the new mapping until the content is in place.
    Status read = pager_->ReadPage(id, f.data.data());
    if (!read.ok()) {
      std::lock_guard<std::mutex> relock(mu_);
      page_table_.erase(id);
      f.valid = false;  // published to waiters by the latch handoff
      f.latch->unlock();
      assert(f.pin_count > 0);
      --f.pin_count;
      if (f.pin_count == 0) free_frames_.push_back(idx);
      return read;
    }
    if (intent == PageIntent::kRead) {
      // std::shared_mutex has no downgrade: release and retake shared.
      // A writer slipping into the gap just means newer content --
      // indistinguishable from arriving a moment later.
      f.latch->unlock();
      f.latch->lock_shared();
      if (snapshot_reads) {
        std::shared_ptr<const std::vector<char>> img;
        if (versions_->ResolveForThread(id, &img) ==
            PageVersions::Resolution::kUseVersion) {
          PageGuard drop(this, idx, id, intent);  // releases frame
          return PageGuard(std::move(img), id);
        }
      }
    } else if (versions_ != nullptr) {
      // Cold-miss write fetch: the bytes just read are the committed
      // image (a no-steal pool never spills a txn-dirtied committed
      // page); capture before the caller mutates.
      versions_->MaybeCapture(id, f.data.data());
    }
    return PageGuard(this, idx, id, intent);
  }
}

Result<PageGuard> BufferPool::NewWal(PageId* out_id) {
  CRIMSON_RETURN_IF_ERROR(RequireWritable());
  if (pager_->freelist_head() != kInvalidPageId) {
    // Pop the freelist through the cache: the head node may have been
    // formatted by this very transaction and exist only in the pool.
    PageId id = pager_->freelist_head();
    CRIMSON_ASSIGN_OR_RETURN(PageGuard guard,
                             Fetch(id, PageIntent::kWrite));
    if (static_cast<PageType>(guard.data()[0]) != PageType::kFree) {
      return Status::Corruption(
          StrFormat("freelist page %u is not marked free", id));
    }
    PageId next = DecodeFixed32(guard.data() + kFreePageLinkOffset);
    CRIMSON_RETURN_IF_ERROR(pager_->DeferredSetFreelistHead(next));
    memset(guard.data(), 0, kPageSize);
    guard.MarkDirty();
    *out_id = id;
    return guard;
  }
  CRIMSON_ASSIGN_OR_RETURN(PageId id, pager_->DeferredAllocateFromExtension());
  std::unique_lock<std::mutex> lock(mu_);
  CRIMSON_ASSIGN_OR_RETURN(size_t idx, InstallFrameLocked(id));
  Frame& f = frames_[idx];
  memset(f.data.data(), 0, kPageSize);
  lock.unlock();
  PageGuard guard(this, idx, id, PageIntent::kWrite);
  guard.MarkDirty();
  *out_id = id;
  return guard;
}

Result<PageGuard> BufferPool::New(PageId* out_id) {
  std::lock_guard<std::mutex> writer(writer_mu_);
  if (wal_enabled()) return NewWal(out_id);
  CRIMSON_ASSIGN_OR_RETURN(PageId id, pager_->AllocatePage());
  std::unique_lock<std::mutex> lock(mu_);
  CRIMSON_ASSIGN_OR_RETURN(size_t idx, InstallFrameLocked(id));
  Frame& f = frames_[idx];
  memset(f.data.data(), 0, kPageSize);
  f.dirty = true;  // zeroed content must reach disk
  lock.unlock();
  *out_id = id;
  return PageGuard(this, idx, id, PageIntent::kWrite);
}

Status BufferPool::CaptureBeforeFree(PageId id) {
  if (versions_ == nullptr || !versions_->WouldCapture(id)) {
    return Status::OK();
  }
  std::vector<char> pre(kPageSize);
  bool have = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = page_table_.find(id);
    if (it != page_table_.end() && frames_[it->second].valid) {
      // No latch needed: the single writer is this thread, so nobody
      // else can be mutating the frame, and its content is the newest
      // committed image (newer than disk if dirty from a prior txn).
      memcpy(pre.data(), frames_[it->second].data.data(), kPageSize);
      have = true;
    }
  }
  if (!have) {
    CRIMSON_RETURN_IF_ERROR(pager_->ReadPage(id, pre.data()));
  }
  versions_->MaybeCapture(id, pre.data());
  return Status::OK();
}

Status BufferPool::FreeWal(PageId id) {
  CRIMSON_RETURN_IF_ERROR(RequireWritable());
  if (id == kHeaderPageId || id >= pager_->page_count()) {
    return Status::InvalidArgument(StrFormat("cannot free page %u", id));
  }
  // The free clobbers the page into a freelist node without a kWrite
  // Fetch of its old content: snapshot its committed image first.
  CRIMSON_RETURN_IF_ERROR(CaptureBeforeFree(id));
  // Format the freelist node in the cache (its old content is
  // irrelevant, so a victim frame is installed without a disk read);
  // the commit logs and force-writes it like any other page.
  size_t idx;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = page_table_.find(id);
    if (it != page_table_.end()) {
      idx = it->second;
      if (frames_[idx].pin_count > 0) {
        return Status::FailedPrecondition(
            StrFormat("freeing pinned page %u", id));
      }
      if (frames_[idx].in_lru) {
        lru_.erase(frames_[idx].lru_pos);
        frames_[idx].in_lru = false;
      }
      ++frames_[idx].pin_count;
      // Resident frame, pin was 0: its latch is free (see
      // InstallFrameLocked, which latches the fresh-install case).
      bool latched = frames_[idx].latch->try_lock();
      assert(latched && "unpinned frame latch must be free");
      (void)latched;
    } else {
      CRIMSON_ASSIGN_OR_RETURN(idx, InstallFrameLocked(id));
    }
  }
  {
    PageGuard guard(this, idx, id, PageIntent::kWrite);
    EncodeFreePage(pager_->freelist_head(), guard.data());
    guard.MarkDirty();
  }
  return pager_->DeferredSetFreelistHead(id);
}

Status BufferPool::Free(PageId id) {
  std::lock_guard<std::mutex> writer(writer_mu_);
  if (wal_enabled()) return FreeWal(id);
  CRIMSON_RETURN_IF_ERROR(CaptureBeforeFree(id));
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = page_table_.find(id);
    if (it != page_table_.end()) {
      Frame& f = frames_[it->second];
      if (f.pin_count > 0) {
        return Status::FailedPrecondition(
            StrFormat("freeing pinned page %u", id));
      }
      if (f.in_lru) {
        lru_.erase(f.lru_pos);
        f.in_lru = false;
      }
      f.valid = false;
      f.dirty = false;
      free_frames_.push_back(it->second);
      page_table_.erase(it);
    }
  }
  return pager_->FreePage(id);
}

Status BufferPool::LogTxnPages() {
  std::lock_guard<std::mutex> writer(writer_mu_);
  if (!wal_enabled() || !wal_ctx_->txn_active) return Status::OK();
  std::lock_guard<std::mutex> lock(mu_);
  for (PageId id : wal_ctx_->dirty_pages) {
    auto it = page_table_.find(id);
    if (it == page_table_.end()) continue;  // spilled: image already logged
    Frame& f = frames_[it->second];
    if (!f.valid || !f.dirty || f.page_lsn != 0) continue;
    CRIMSON_ASSIGN_OR_RETURN(
        f.page_lsn, wal_ctx_->wal->AppendPageImage(id, f.data.data()));
  }
  return Status::OK();
}

Status BufferPool::ForceTxnPages(const std::set<PageId>& pages) {
  std::lock_guard<std::mutex> writer(writer_mu_);
  std::lock_guard<std::mutex> lock(mu_);
  for (PageId id : pages) {
    auto it = page_table_.find(id);
    if (it == page_table_.end()) continue;  // spilled: already on disk
    Frame& f = frames_[it->second];
    if (!f.valid || !f.dirty) continue;
    CRIMSON_RETURN_IF_ERROR(pager_->WritePage(id, f.data.data()));
    f.dirty = false;
    dirty_writebacks_->Increment();
  }
  return Status::OK();
}

Status BufferPool::DiscardTxnPages() {
  std::lock_guard<std::mutex> writer(writer_mu_);
  if (wal_ctx_ == nullptr) return Status::OK();
  std::lock_guard<std::mutex> lock(mu_);
  for (PageId id : wal_ctx_->dirty_pages) {
    auto it = page_table_.find(id);
    if (it == page_table_.end()) continue;
    Frame& f = frames_[it->second];
    if (f.pin_count > 0) {
      return Status::Internal(
          StrFormat("aborting transaction with page %u still pinned", id));
    }
    if (f.in_lru) {
      lru_.erase(f.lru_pos);
      f.in_lru = false;
    }
    f.valid = false;
    f.dirty = false;
    f.page_lsn = 0;
    free_frames_.push_back(it->second);
    page_table_.erase(it);
  }
  return Status::OK();
}

Status BufferPool::FlushAll() {
  std::lock_guard<std::mutex> writer(writer_mu_);
  std::lock_guard<std::mutex> lock(mu_);
  for (Frame& f : frames_) {
    if (f.valid) {
      CRIMSON_RETURN_IF_ERROR(WriteBack(f));
    }
  }
  return Status::OK();
}

}  // namespace crimson
