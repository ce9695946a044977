#include "storage/database.h"

#include "common/log.h"
#include "common/string_util.h"
#include "storage/file.h"
#include "storage/recovery.h"

namespace crimson {

Status Txn::Commit() {
  if (db_ == nullptr) return Status::OK();
  Database* db = db_;
  db_ = nullptr;
  return db->CommitTxn();
}

void Txn::Abort() {
  if (db_ == nullptr) return;
  Database* db = db_;
  db_ = nullptr;
  db->AbortTxn();
}

void Database::ReadTxn::End() {
  if (db_ == nullptr) return;
  const Database* db = db_;
  db_ = nullptr;
  db->versions_.Unregister(token_);
  token_ = 0;
}

Database::Database(const DatabaseOptions& options)
    : options_(options),
      owned_metrics_(options.metrics == nullptr
                         ? std::make_unique<obs::MetricsRegistry>()
                         : nullptr),
      metrics_(options.metrics == nullptr ? owned_metrics_.get()
                                          : options.metrics),
      versions_(metrics_) {}

Result<std::unique_ptr<Database>> Database::Open(
    const std::string& path, const DatabaseOptions& options) {
  CRIMSON_ASSIGN_OR_RETURN(std::unique_ptr<File> file,
                           options.env.open_file(path));
  return Build(std::move(file), options, path);
}

Result<std::unique_ptr<Database>> Database::OpenInMemory(
    const DatabaseOptions& options) {
  if (options.durability != Durability::kOff) {
    return Status::InvalidArgument(
        "in-memory databases cannot be durable; use Database::Open");
  }
  return Build(NewMemFile(), options, /*path=*/"");
}

Result<std::unique_ptr<Database>> Database::Build(
    std::unique_ptr<File> file, const DatabaseOptions& options,
    const std::string& path) {
  auto db = std::unique_ptr<Database>(new Database(options));
  const bool want_wal =
      options.durability != Durability::kOff && !path.empty();
  // A file of another format version fails here, before replay could
  // rewrite its header or the WAL could be reset or removed.
  CRIMSON_RETURN_IF_ERROR(CheckFormatVersion(file.get()));
  if (!path.empty()) {
    // Replay a leftover WAL even when this open is not durable:
    // committed transactions of the previous (durable) run must not be
    // lost just because the reader runs with durability off.
    const std::string wal_base = path + "-wal";
    CRIMSON_ASSIGN_OR_RETURN(bool has_wal,
                             WalExists(wal_base, options.env));
    if (has_wal) {
      CRIMSON_RETURN_IF_ERROR(
          RecoverFromWal(wal_base, options.env, file.get()).status());
    }
    if (want_wal) {
      CRIMSON_ASSIGN_OR_RETURN(db->wal_, Wal::Open(wal_base, options.env));
      db->wal_ctx_.wal = db->wal_.get();
    } else if (has_wal) {
      // The recovered state is in the database file (synced by the
      // replay); drop the log so a later durable open cannot replay it
      // over newer non-WAL writes.
      CRIMSON_RETURN_IF_ERROR(Wal::RemoveLog(wal_base, options.env));
    }
  }
  CRIMSON_ASSIGN_OR_RETURN(
      db->pager_, Pager::Open(std::move(file), /*deferred_header=*/want_wal));
  if (db->wal_) db->wal_->BindMetrics(db->metrics_);
  db->pool_ = std::make_unique<BufferPool>(
      db->pager_.get(), options.buffer_pool_pages,
      db->wal_ ? &db->wal_ctx_ : nullptr, &db->versions_, db->metrics_);
  if (db->pager_->catalog_root() == kInvalidPageId) {
    CRIMSON_ASSIGN_OR_RETURN(Txn txn, db->Begin());
    CRIMSON_ASSIGN_OR_RETURN(BTree catalog, BTree::Create(db->pool_.get()));
    CRIMSON_RETURN_IF_ERROR(db->pager_->SetCatalogRoot(catalog.anchor()));
    CRIMSON_RETURN_IF_ERROR(txn.Commit());
  }
  return db;
}

Result<Txn> Database::Begin() {
  if (writer_thread_.load(std::memory_order_acquire) ==
      std::this_thread::get_id()) {
    return Status::FailedPrecondition(
        "a transaction is already active (no nesting)");
  }
  // Enter the writer epoch: waits for a concurrent transaction /
  // Flush / Checkpoint to finish, then excludes them. Readers are not
  // involved -- they run against snapshots.
  epoch_mu_.lock();
  writer_thread_.store(std::this_thread::get_id(),
                       std::memory_order_release);
  writer_active_.store(true, std::memory_order_release);
  // Open MVCC capture in every durability mode: even a non-durable
  // transaction mutates pages in place, and concurrent snapshot
  // readers must keep seeing the pre-transaction images.
  versions_.BeginTxn(pager_->page_count());
  if (wal_ != nullptr) {
    wal_ctx_.txn_active = true;
    wal_ctx_.txn_id = next_txn_id_++;
    wal_ctx_.txn_base_page_count = pager_->page_count();
    wal_ctx_.dirty_pages.clear();
    txn_header_snapshot_ = pager_->snapshot();
    txn_wal_mark_ = wal_->mark();
  }
  return Txn(this);
}

Database::ReadTxn Database::BeginRead() const {
  PageVersions::Snapshot snap = versions_.RegisterSnapshot();
  ReadTxn txn(this);
  txn.token_ = snap.token;
  return txn;
}

void Database::ReleaseWriterEpoch() {
  writer_active_.store(false, std::memory_order_release);
  writer_thread_.store(std::thread::id(), std::memory_order_release);
  epoch_mu_.unlock();
}

Status Database::CommitTxn() {
  // Non-durable transaction: nothing was logged; the commit just
  // closes the writer epoch (dirty pages reach disk via eviction or
  // Flush, exactly the legacy discipline).
  if (wal_ == nullptr) {
    versions_.SealTxn();
    ReleaseWriterEpoch();
    return Status::OK();
  }
  if (!wal_ctx_.txn_active) {
    versions_.SealTxn();
    ReleaseWriterEpoch();
    return Status::FailedPrecondition("no active transaction to commit");
  }
  // Read-only transaction: nothing to log, nothing to sync.
  if (wal_ctx_.dirty_pages.empty() && !pager_->header_dirty()) {
    wal_ctx_.txn_active = false;
    versions_.SealTxn();
    ReleaseWriterEpoch();
    return Status::OK();
  }
  // 1. Log every after-image plus the header, then the commit record.
  // 2. Make the log durable. Until this point any failure aborts
  //    cleanly.
  Status s = [&]() -> Status {
    CRIMSON_RETURN_IF_ERROR(pool_->LogTxnPages());
    CRIMSON_RETURN_IF_ERROR(
        wal_->AppendHeaderImage(pager_->page_count(), pager_->freelist_head(),
                                pager_->catalog_root())
            .status());
    CRIMSON_ASSIGN_OR_RETURN(Lsn commit_lsn,
                             wal_->AppendCommit(wal_ctx_.txn_id));
    return wal_->Sync(commit_lsn);
  }();
  if (!s.ok()) {
    AbortTxn();
    return s;
  }
  // The transaction is durable from here on, so Commit reports
  // success regardless of what follows: if a data-file write below
  // fails, the pool still holds the dirty frames (a later eviction
  // re-syncs page_lsn and retries), the header stays flagged dirty,
  // and recovery has the redo -- consistency is never at risk.
  wal_ctx_.txn_active = false;
  // Publish to readers: snapshots taken from here on see this
  // transaction's state; older snapshots keep resolving to the
  // captured pre-images.
  versions_.SealTxn();
  std::set<PageId> pages;
  pages.swap(wal_ctx_.dirty_pages);
  Status lazy = pool_->ForceTxnPages(pages);
  if (lazy.ok()) lazy = pager_->WriteHeaderIfDirty();
  // Leave the epoch before a possible auto-checkpoint: Checkpoint
  // re-enters it exclusively on its own.
  ReleaseWriterEpoch();
  if (lazy.ok() && options_.wal_checkpoint_bytes > 0 &&
      wal_->size_bytes() > options_.wal_checkpoint_bytes) {
    lazy = Checkpoint();
  }
  if (!lazy.ok()) {
    CRIMSON_LOG(kWarning)
        << "post-commit writeback deferred (txn is durable): " << lazy;
  }
  return Status::OK();
}

void Database::AbortTxn() {
  if (wal_ == nullptr || !wal_ctx_.txn_active) {
    // Without a WAL there is no rollback: the mutations stick (legacy
    // behavior), so visibility-wise this is a commit -- seal so
    // snapshots taken after it see the mutated state.
    versions_.SealTxn();
    ReleaseWriterEpoch();
    return;
  }
  Status discard = pool_->DiscardTxnPages();
  if (!discard.ok()) {
    CRIMSON_LOG(kError) << "transaction abort: " << discard;
  }
  pager_->Restore(txn_header_snapshot_);
  Status rewind = wal_->Rewind(txn_wal_mark_);
  if (!rewind.ok()) {
    CRIMSON_LOG(kError) << "transaction abort: WAL rewind failed ("
                        << rewind << "); the log is now read-only";
  }
  wal_ctx_.txn_active = false;
  wal_ctx_.dirty_pages.clear();
  // Drop the aborted captures last: until the frames/disk are restored
  // above, concurrent snapshot readers must keep hitting the versions.
  versions_.DropTxn();
  ReleaseWriterEpoch();
}

Result<BTree> Database::CatalogTree() const {
  return BTree::Open(pool_.get(), pager_->catalog_root());
}

Result<Table> Database::CreateTable(const std::string& name,
                                    const Schema& schema,
                                    const std::vector<IndexSpec>& indexes) {
  CRIMSON_ASSIGN_OR_RETURN(BTree catalog, CatalogTree());
  std::string existing;
  Status lookup = catalog.Get(Slice(name), &existing);
  if (lookup.ok()) {
    return Status::AlreadyExists(StrFormat("table %s exists", name.c_str()));
  }
  if (!lookup.IsNotFound()) return lookup;

  TableDef def;
  def.name = name;
  def.schema = schema;
  CRIMSON_ASSIGN_OR_RETURN(HeapFile heap, HeapFile::Create(pool_.get()));
  def.heap_first_page = heap.first_page();
  for (const IndexSpec& spec : indexes) {
    int col = schema.FindColumn(spec.column);
    if (col < 0) {
      return Status::InvalidArgument(
          StrFormat("index %s references unknown column %s",
                    spec.name.c_str(), spec.column.c_str()));
    }
    CRIMSON_ASSIGN_OR_RETURN(BTree tree, BTree::Create(pool_.get()));
    IndexDef idx;
    idx.name = spec.name;
    idx.column = col;
    idx.unique = spec.unique;
    idx.anchor = tree.anchor();
    def.indexes.push_back(std::move(idx));
  }

  std::string encoded;
  def.EncodeTo(&encoded);
  CRIMSON_RETURN_IF_ERROR(
      catalog.Insert(Slice(name), Slice(encoded), /*unique=*/true));
  return Table::Open(pool_.get(), std::move(def));
}

Result<Table> Database::OpenTable(const std::string& name) const {
  CRIMSON_ASSIGN_OR_RETURN(BTree catalog, CatalogTree());
  std::string encoded;
  Status s = catalog.Get(Slice(name), &encoded);
  if (s.IsNotFound()) {
    return Status::NotFound(StrFormat("no table named %s", name.c_str()));
  }
  CRIMSON_RETURN_IF_ERROR(s);
  CRIMSON_ASSIGN_OR_RETURN(TableDef def, TableDef::DecodeFrom(Slice(encoded)));
  return Table::Open(pool_.get(), std::move(def));
}

Result<bool> Database::HasTable(const std::string& name) const {
  CRIMSON_ASSIGN_OR_RETURN(BTree catalog, CatalogTree());
  std::string encoded;
  Status s = catalog.Get(Slice(name), &encoded);
  if (s.ok()) return true;
  if (s.IsNotFound()) return false;
  return s;
}

Result<std::vector<std::string>> Database::ListTables() const {
  CRIMSON_ASSIGN_OR_RETURN(BTree catalog, CatalogTree());
  std::vector<std::string> names;
  BTree::Iterator it = catalog.NewIterator();
  CRIMSON_RETURN_IF_ERROR(it.SeekToFirst());
  while (it.Valid()) {
    names.push_back(it.key().ToString());
    CRIMSON_RETURN_IF_ERROR(it.Next());
  }
  return names;
}

Status Database::Flush() {
  if (wal_ != nullptr) return Checkpoint();
  if (writer_thread_.load(std::memory_order_acquire) ==
      std::this_thread::get_id()) {
    return Status::FailedPrecondition("cannot flush inside a transaction");
  }
  std::unique_lock<std::shared_mutex> epoch(epoch_mu_);
  // Data pages must reach the file before the header sync: a header
  // that advertises pages whose bytes never landed is corruption.
  CRIMSON_RETURN_IF_ERROR(pool_->FlushAll());
  return pager_->Flush();
}

Status Database::Checkpoint() {
  if (writer_thread_.load(std::memory_order_acquire) ==
      std::this_thread::get_id()) {
    return Status::FailedPrecondition(
        "cannot checkpoint inside a transaction");
  }
  std::unique_lock<std::shared_mutex> epoch(epoch_mu_);
  CRIMSON_RETURN_IF_ERROR(pool_->FlushAll());
  CRIMSON_RETURN_IF_ERROR(pager_->Flush());  // header write + fdatasync
  if (wal_ != nullptr) {
    CRIMSON_RETURN_IF_ERROR(wal_->Reset());
  }
  return Status::OK();
}

}  // namespace crimson
