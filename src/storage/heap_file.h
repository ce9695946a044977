// HeapFile: unordered record storage over chained slotted pages, with
// overflow chains for records larger than a page (species sequences can
// run to thousands of characters; paper §1).
//
// Page layout (kHeap):
//   [0]      page type
//   [1]      unused
//   [2..4)   num_slots            (fixed16)
//   [4..6)   record_area_start    (fixed16; records grow down from kPageSize)
//   [6..8)   unused
//   [8..12)  next heap page id    (fixed32; 0 terminates the chain)
//   [12..)   slot directory, 4 bytes per slot: offset fixed16, len fixed16
//            - offset == 0xffff        -> tombstone (deleted record)
//            - len & 0x8000           -> overflow stub (12-byte payload:
//                                        first overflow page fixed32 +
//                                        total length fixed64)
//
// Overflow page layout (kOverflow):
//   [0]      page type
//   [1..5)   next overflow page id (fixed32)
//   [5..7)   payload length        (fixed16)
//   [7..)    payload bytes

#ifndef CRIMSON_STORAGE_HEAP_FILE_H_
#define CRIMSON_STORAGE_HEAP_FILE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "storage/buffer_pool.h"

namespace crimson {

/// Stable address of a heap record.
struct RecordId {
  PageId page = kInvalidPageId;
  uint16_t slot = 0;

  bool operator==(const RecordId& o) const {
    return page == o.page && slot == o.slot;
  }
  bool valid() const { return page != kInvalidPageId; }

  /// 48-bit packing used when record ids are stored inside index values.
  uint64_t Pack() const {
    return (static_cast<uint64_t>(page) << 16) | slot;
  }
  static RecordId Unpack(uint64_t v) {
    RecordId r;
    r.page = static_cast<PageId>(v >> 16);
    r.slot = static_cast<uint16_t>(v & 0xffff);
    return r;
  }
};

/// Unordered record file. Get/Scan are safe from any number of
/// threads under the buffer pool's shared frame latches; mutations
/// belong to the single writer (Database writer epoch).
class HeapFile {
 public:
  static constexpr uint32_t kOverflowHeaderSize = 7;
  /// Record bytes one overflow page holds: a record over
  /// kMaxInlineRecord bytes fills ceil(size / kOverflowCapacity) pages.
  static constexpr uint32_t kOverflowCapacity = kPageSize - kOverflowHeaderSize;

  /// Creates a new heap file; returns its first page id (the handle that
  /// must be remembered, e.g. in the catalog).
  static Result<HeapFile> Create(BufferPool* pool);

  /// Opens an existing heap file rooted at first_page.
  static Result<HeapFile> Open(BufferPool* pool, PageId first_page);

  HeapFile(HeapFile&& other) noexcept
      : pool_(other.pool_),
        first_page_(other.first_page_),
        tail_page_(other.tail_page_),
        record_count_(other.record_count_.load(std::memory_order_relaxed)) {}
  HeapFile& operator=(HeapFile&& other) noexcept {
    pool_ = other.pool_;
    first_page_ = other.first_page_;
    tail_page_ = other.tail_page_;
    record_count_.store(other.record_count_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    return *this;
  }

  PageId first_page() const { return first_page_; }

  /// Appends a record; any size is accepted (large records spill to
  /// overflow pages).
  Result<RecordId> Insert(const Slice& record);

  /// Reads a record into *out. NotFound for tombstones/invalid ids.
  Status Get(const RecordId& id, std::string* out) const;

  /// Tombstones the record and releases any overflow chain.
  Status Delete(const RecordId& id);

  /// Calls fn(id, record) for every live record, in page order.
  /// Iteration stops early if fn returns false.
  Status Scan(
      const std::function<bool(const RecordId&, const Slice&)>& fn) const;

  /// Number of live records (maintained in memory; recomputed on
  /// Open). Atomic so readers may poll it while the single writer
  /// inserts/deletes concurrently.
  uint64_t record_count() const {
    return record_count_.load(std::memory_order_relaxed);
  }

 private:
  HeapFile(BufferPool* pool, PageId first_page)
      : pool_(pool), first_page_(first_page) {}

  static constexpr uint32_t kHeaderSize = 12;
  static constexpr uint32_t kSlotSize = 4;
  static constexpr uint16_t kOverflowFlag = 0x8000;
  static constexpr uint16_t kTombstoneOffset = 0xffff;
  static constexpr uint32_t kOverflowStubSize = 12;
  // Records up to this size are stored inline in a heap page.
  static constexpr uint32_t kMaxInlineRecord = 2048;

  static void FormatHeapPage(char* data);
  Result<RecordId> InsertPayload(const char* payload, uint16_t len,
                                 bool overflow_stub);
  Result<PageId> WriteOverflowChain(const Slice& record);
  Status FreeOverflowChain(PageId first);

  BufferPool* pool_;
  PageId first_page_;
  PageId tail_page_ = kInvalidPageId;  // append hint (writer-only)
  std::atomic<uint64_t> record_count_{0};
};

}  // namespace crimson

#endif  // CRIMSON_STORAGE_HEAP_FILE_H_
