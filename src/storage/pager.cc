#include "storage/pager.h"

#include <cstring>
#include <vector>

#include "common/coding.h"
#include "common/string_util.h"

namespace crimson {

Result<std::unique_ptr<Pager>> Pager::Open(std::unique_ptr<File> file,
                                           bool deferred_header) {
  auto pager = std::unique_ptr<Pager>(new Pager(std::move(file)));
  pager->deferred_ = deferred_header;
  CRIMSON_RETURN_IF_ERROR(pager->file_->Size() == 0 ? pager->WriteHeader()
                                                    : pager->LoadHeader());
  return pager;
}

std::string EncodeDbHeader(const DbHeader& header) {
  std::string page(kPageSize, '\0');
  memcpy(&page[kHeaderMagicOffset], kDbMagic, sizeof(kDbMagic));
  EncodeFixed32(&page[kHeaderPageSizeOffset], kPageSize);
  EncodeFixed32(&page[kHeaderPageCountOffset], header.page_count);
  EncodeFixed32(&page[kHeaderFreelistOffset], header.freelist_head);
  EncodeFixed32(&page[kHeaderCatalogRootOffset], header.catalog_root);
  EncodeFixed32(&page[kHeaderFormatVersionOffset], header.format_version);
  return page;
}

Result<DbHeader> DecodeDbHeader(Slice page) {
  if (page.size() < kHeaderBytes ||
      memcmp(page.data() + kHeaderMagicOffset, kDbMagic, sizeof(kDbMagic)) !=
          0) {
    return Status::Corruption("bad database magic");
  }
  DbHeader header;
  header.format_version =
      DecodeFixed32(page.data() + kHeaderFormatVersionOffset);
  if (header.format_version != kFormatVersion) {
    return Status::FailedPrecondition(StrFormat(
        "database file has format version %u, this build reads format "
        "version %u; load the trees into a new database",
        header.format_version, kFormatVersion));
  }
  const uint32_t page_size = DecodeFixed32(page.data() + kHeaderPageSizeOffset);
  if (page_size != kPageSize) {
    return Status::Corruption(
        StrFormat("page size mismatch: file has %u, build expects %u",
                  page_size, kPageSize));
  }
  header.page_count = DecodeFixed32(page.data() + kHeaderPageCountOffset);
  header.freelist_head = DecodeFixed32(page.data() + kHeaderFreelistOffset);
  header.catalog_root = DecodeFixed32(page.data() + kHeaderCatalogRootOffset);
  if (header.page_count == 0) return Status::Corruption("zero page count");
  return header;
}

void EncodeFreePage(PageId next, char* page) {
  memset(page, 0, kPageSize);
  page[0] = static_cast<char>(PageType::kFree);
  EncodeFixed32(page + kFreePageLinkOffset, next);
}

bool DecodeFreePage(const char* page, PageId* next) {
  static const char kZeros[kPageSize] = {};
  constexpr uint32_t kBodyOffset = kFreePageLinkOffset + 4;
  if (static_cast<PageType>(page[0]) != PageType::kFree ||
      memcmp(page + kBodyOffset, kZeros, kPageSize - kBodyOffset) != 0) {
    return false;
  }
  *next = DecodeFixed32(page + kFreePageLinkOffset);
  return true;
}

Status CheckFormatVersion(File* file) {
  if (file->Size() < kHeaderBytes) return Status::OK();
  char buf[kHeaderBytes];
  CRIMSON_RETURN_IF_ERROR(file->Read(0, kHeaderBytes, buf));
  Status s = DecodeDbHeader(Slice(buf, kHeaderBytes)).status();
  return s.IsFailedPrecondition() ? s : Status::OK();
}

DbHeader Pager::header() const {
  DbHeader header;
  header.page_count = page_count_;
  header.freelist_head = freelist_head_;
  header.catalog_root = catalog_root_;
  return header;
}

void Pager::SetHeader(const DbHeader& header) {
  page_count_ = header.page_count;
  freelist_head_ = header.freelist_head;
  catalog_root_ = header.catalog_root;
}

Status Pager::LoadHeader() {
  char buf[kHeaderBytes];
  CRIMSON_RETURN_IF_ERROR(file_->Read(0, kHeaderBytes, buf));
  CRIMSON_ASSIGN_OR_RETURN(DbHeader header,
                           DecodeDbHeader(Slice(buf, kHeaderBytes)));
  SetHeader(header);
  return Status::OK();
}

Status Pager::WriteHeader() {
  return file_->Write(0, EncodeDbHeader(header()).data(), kPageSize);
}

Status Pager::ReadPage(PageId id, char* buf) const {
  if (id >= page_count_) {
    return Status::OutOfRange(
        StrFormat("read of page %u beyond page count %u", id,
                  page_count_.load()));
  }
  return file_->Read(static_cast<uint64_t>(id) * kPageSize, kPageSize, buf);
}

Status Pager::WritePage(PageId id, const char* buf) {
  if (id >= page_count_) {
    return Status::OutOfRange(
        StrFormat("write of page %u beyond page count %u", id,
                  page_count_.load()));
  }
  return file_->Write(static_cast<uint64_t>(id) * kPageSize, buf, kPageSize);
}

Result<PageId> Pager::AllocatePage() {
  if (deferred_) {
    return Status::Internal(
        "AllocatePage bypasses the WAL; use the BufferPool in deferred mode");
  }
  if (freelist_head_ != kInvalidPageId) {
    PageId id = freelist_head_;
    std::vector<char> buf(kPageSize);
    CRIMSON_RETURN_IF_ERROR(ReadPage(id, buf.data()));
    if (static_cast<PageType>(buf[0]) != PageType::kFree) {
      return Status::Corruption(
          StrFormat("freelist page %u is not marked free", id));
    }
    freelist_head_ = DecodeFixed32(buf.data() + kFreePageLinkOffset);
    CRIMSON_RETURN_IF_ERROR(WriteHeader());
    return id;
  }
  PageId id = page_count_;
  ++page_count_;
  // Extend the file with a zero page so later reads succeed.
  std::vector<char> zero(kPageSize, 0);
  CRIMSON_RETURN_IF_ERROR(
      file_->Write(static_cast<uint64_t>(id) * kPageSize, zero.data(),
                   kPageSize));
  CRIMSON_RETURN_IF_ERROR(WriteHeader());
  return id;
}

Status Pager::FreePage(PageId id) {
  if (deferred_) {
    return Status::Internal(
        "FreePage bypasses the WAL; use the BufferPool in deferred mode");
  }
  if (id == kHeaderPageId || id >= page_count_) {
    return Status::InvalidArgument(StrFormat("cannot free page %u", id));
  }
  std::vector<char> buf(kPageSize);
  EncodeFreePage(freelist_head_, buf.data());
  CRIMSON_RETURN_IF_ERROR(WritePage(id, buf.data()));
  freelist_head_ = id;
  return WriteHeader();
}

Status Pager::SetCatalogRoot(PageId root) {
  catalog_root_ = root;
  if (deferred_) {
    header_dirty_ = true;
    return Status::OK();
  }
  return WriteHeader();
}

Status Pager::Flush() {
  CRIMSON_RETURN_IF_ERROR(WriteHeader());
  header_dirty_ = false;
  return file_->Sync();
}

Result<PageId> Pager::DeferredAllocateFromExtension() {
  if (!deferred_) {
    return Status::Internal("deferred allocation requires deferred mode");
  }
  PageId id = page_count_;
  ++page_count_;
  header_dirty_ = true;
  return id;
}

Status Pager::DeferredSetFreelistHead(PageId head) {
  if (!deferred_) {
    return Status::Internal("deferred freelist relink requires deferred mode");
  }
  freelist_head_ = head;
  header_dirty_ = true;
  return Status::OK();
}

Status Pager::WriteHeaderIfDirty() {
  if (!header_dirty_) return Status::OK();
  CRIMSON_RETURN_IF_ERROR(WriteHeader());
  header_dirty_ = false;
  return Status::OK();
}

void Pager::Restore(const HeaderSnapshot& snap) {
  SetHeader(snap.header);
  header_dirty_ = snap.header_dirty;
}

}  // namespace crimson
