// Page constants and the database file header layout.
//
// A Crimson database file is an array of fixed-size pages. Page 0 is the
// header page; all other pages are heap pages, B+Tree pages, or free
// pages chained on a freelist.

#ifndef CRIMSON_STORAGE_PAGE_H_
#define CRIMSON_STORAGE_PAGE_H_

#include <cstdint>

namespace crimson {

/// Fixed page size. 8 KiB balances record fan-out against buffer-pool
/// granularity; the value is baked into database files.
inline constexpr uint32_t kPageSize = 8192;

/// Page identifier (index into the file). kInvalidPageId doubles as
/// "null pointer" in on-page links.
using PageId = uint32_t;
inline constexpr PageId kInvalidPageId = 0;  // page 0 is the header page
inline constexpr PageId kHeaderPageId = 0;

/// On-page type tag (first byte of every non-header page).
enum class PageType : uint8_t {
  kFree = 0,
  kHeap = 1,
  kBTreeLeaf = 2,
  kBTreeInternal = 3,
  kOverflow = 4,
  kBTreeAnchor = 5,
};

/// A free page is a freelist node: the kFree tag at byte 0, the next
/// free page id (fixed32) here, zero past it (EncodeFreePage in
/// pager.h lays it out).
inline constexpr uint32_t kFreePageLinkOffset = 1;

/// Database file header (stored at offset 0 of page 0; the rest of the
/// page is zero). EncodeDbHeader/DecodeDbHeader in pager.h are the only
/// code that lays it out.
///   [0..8)   magic "CRIMSON1"
///   [8..12)  page size
///   [12..16) page count (including header)
///   [16..20) freelist head page id (0 = empty)
///   [20..24) catalog btree root page id (0 = absent)
///   [24..28) format version (kFormatVersion; files written before the
///            field existed read as 0)
inline constexpr char kDbMagic[8] = {'C', 'R', 'I', 'M', 'S', 'O', 'N', '1'};
inline constexpr uint32_t kHeaderMagicOffset = 0;
inline constexpr uint32_t kHeaderPageSizeOffset = 8;
inline constexpr uint32_t kHeaderPageCountOffset = 12;
inline constexpr uint32_t kHeaderFreelistOffset = 16;
inline constexpr uint32_t kHeaderCatalogRootOffset = 20;
inline constexpr uint32_t kHeaderFormatVersionOffset = 24;
inline constexpr uint32_t kHeaderBytes = 28;

/// On-disk format version of every byte a database file holds: the
/// table set, index key encoding, blob codecs and history params. Any
/// change to them bumps it; there is no in-place upgrade, so a file of
/// another version fails to open and its trees must be loaded again.
/// The version also covers the WAL beside the file: recovery checks it
/// before replay, so a build never reads a log with record types it
/// does not know. Version 2 dropped the per-node `nodes` table (a tree
/// is three rows); version 3 stores species data as chunk rows
/// (`species_chunks`), not one `species` row per species; version 4
/// logs a freed page as a kFreePage record (page id and freelist link),
/// not a full page image.
inline constexpr uint32_t kFormatVersion = 4;

/// FNV-1a 64-bit hash. Pages carry no checksum; test fixtures use it
/// to fingerprint page payloads and stored blobs.
inline uint64_t Fnv1a64(const char* data, size_t n, uint64_t seed = 0xcbf29ce484222325ULL) {
  uint64_t h = seed;
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<uint8_t>(data[i]);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace crimson

#endif  // CRIMSON_STORAGE_PAGE_H_
