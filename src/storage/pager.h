// Pager: page-granular allocation and I/O over a File, plus the
// database header (page count, freelist, catalog root).

#ifndef CRIMSON_STORAGE_PAGER_H_
#define CRIMSON_STORAGE_PAGER_H_

#include <atomic>
#include <memory>
#include <string>

#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "storage/file.h"
#include "storage/page.h"

namespace crimson {

/// The fields of header page 0 (byte layout in page.h).
struct DbHeader {
  uint32_t format_version = kFormatVersion;
  uint32_t page_count = 1;
  PageId freelist_head = kInvalidPageId;
  PageId catalog_root = kInvalidPageId;
};

/// Lays out a whole header page (kPageSize bytes, zero past the fields).
std::string EncodeDbHeader(const DbHeader& header);

/// Parses the first kHeaderBytes of a header page. Corruption for a bad
/// magic, page size or page count; FailedPrecondition naming both
/// versions when the file's format version is not kFormatVersion.
Result<DbHeader> DecodeDbHeader(Slice page);

/// Fails with DecodeDbHeader's FailedPrecondition when `file` holds a
/// header of another format version. Run before WAL replay, which
/// rewrites the header at kFormatVersion. An empty file or an
/// unreadable magic passes: replay may restore a torn header, and
/// Pager::Open checks the result.
Status CheckFormatVersion(File* file);

/// Lays out a bare freelist node over a whole page: the kFree tag at
/// byte 0, the next freelist page id at [1..5) (kInvalidPageId ends the
/// list), zero past it. The pager's and the buffer pool's frees write
/// exactly these bytes, and the WAL logs such a page as its link alone.
void EncodeFreePage(PageId next, char* page);

/// True when `page` is byte for byte what EncodeFreePage(*next, ...)
/// lays out; sets *next. Any other page (a used page, or a free page
/// with stray bytes past the link) returns false.
bool DecodeFreePage(const char* page, PageId* next);

/// Owns the database file and its header. All page reads/writes go
/// through here; the BufferPool caches on top.
///
/// Two header-write disciplines:
///  - Eager (default, durability off): AllocatePage/FreePage/
///    SetCatalogRoot persist the header immediately -- today's
///    behavior and file format, byte for byte.
///  - Deferred (WAL mode): header mutations only update memory and set
///    a dirty flag; the transaction commit logs a header image and
///    force-writes the page, so a crash mid-transaction leaves the
///    on-disk header (and freelist) at the previous committed state.
///
/// Thread safety: page reads may run concurrently (PosixFile uses
/// pread; MemFile synchronizes internally). Header mutations belong to
/// the single writer -- the Database writer epoch excludes readers --
/// but the in-memory header fields are relaxed atomics so concurrent
/// readers of page_count()/catalog_root() never tear.
class Pager {
 public:
  /// Opens an existing database file or initializes a fresh one.
  /// `deferred_header` selects the WAL-mode write discipline above.
  static Result<std::unique_ptr<Pager>> Open(std::unique_ptr<File> file,
                                             bool deferred_header = false);

  Pager(const Pager&) = delete;
  Pager& operator=(const Pager&) = delete;

  /// Reads page `id` into `buf` (kPageSize bytes).
  Status ReadPage(PageId id, char* buf) const;

  /// Writes page `id` from `buf` (kPageSize bytes).
  Status WritePage(PageId id, const char* buf);

  /// Allocates a page: pops the freelist or extends the file.
  /// The returned page's content is undefined; callers must format it.
  Result<PageId> AllocatePage();

  /// Returns a page to the freelist.
  Status FreePage(PageId id);

  /// Total pages in the file, including header.
  uint32_t page_count() const { return page_count_; }

  /// Catalog root accessors (persisted in the header page).
  PageId catalog_root() const { return catalog_root_; }
  Status SetCatalogRoot(PageId root);

  /// Flushes the header and syncs the file.
  Status Flush();

  // -- WAL-mode (deferred header) surface ----------------------------------

  bool deferred_header() const { return deferred_; }
  bool header_dirty() const { return header_dirty_; }
  PageId freelist_head() const { return freelist_head_; }

  /// Extends the page count without touching the file; the new page's
  /// first write (spill, commit force, or WAL replay) extends it.
  Result<PageId> DeferredAllocateFromExtension();

  /// Relinks the freelist head in memory; the freelist node itself is
  /// formatted as a normal (logged) page by the BufferPool.
  Status DeferredSetFreelistHead(PageId head);

  /// Writes the header page if any deferred mutation is pending. Plain
  /// write, no sync -- the commit already logged the header image.
  Status WriteHeaderIfDirty();

  /// In-memory header state captured at transaction begin and restored
  /// on abort.
  struct HeaderSnapshot {
    DbHeader header;
    bool header_dirty = false;
  };
  HeaderSnapshot snapshot() const { return {header(), header_dirty_}; }
  void Restore(const HeaderSnapshot& snap);

 private:
  explicit Pager(std::unique_ptr<File> file) : file_(std::move(file)) {}

  DbHeader header() const;
  void SetHeader(const DbHeader& header);
  Status WriteHeader();
  Status LoadHeader();

  std::unique_ptr<File> file_;
  std::atomic<uint32_t> page_count_{1};
  std::atomic<PageId> freelist_head_{kInvalidPageId};
  std::atomic<PageId> catalog_root_{kInvalidPageId};
  bool deferred_ = false;
  std::atomic<bool> header_dirty_{false};
};

}  // namespace crimson

#endif  // CRIMSON_STORAGE_PAGER_H_
