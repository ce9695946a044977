// B+Tree index over the buffer pool. Variable-length keys and values,
// duplicate keys allowed (callers may enforce uniqueness), range scans
// via Iterator.
//
// A tree is addressed by a stable *anchor page* that stores the current
// root page id; root splits update the anchor so handles never change.
//
// Node layout (kBTreeLeaf / kBTreeInternal):
//   [0]      page type
//   [1]      unused
//   [2..4)   num_cells        (fixed16)
//   [4..6)   cell_area_start  (fixed16; cells grow down from kPageSize)
//   [6..8)   dead_bytes       (fixed16; fragmentation from deletions)
//   [8..12)  leaf: right sibling page id / internal: rightmost child
//   [12..)   slot directory, 2 bytes per cell (offset of cell)
//
// Cell format:
//   leaf:     varint32 klen | key | varint32 vlen | value
//   internal: varint32 klen | key | fixed32 child
// Internal semantics: cell (k_i, c_i) routes keys < k_i into c_i after
// all earlier cells failed; i.e. search picks the first i with
// key < k_i and descends c_i, falling back to the rightmost child.
// Deletion is lazy (no merging); pages never shrink but slots are
// reclaimed by in-page compaction.

#ifndef CRIMSON_STORAGE_BTREE_H_
#define CRIMSON_STORAGE_BTREE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "storage/buffer_pool.h"

namespace crimson {

/// B+Tree handle. Read operations (Get/Empty/Count/Iterator) are safe
/// from any number of threads under the buffer pool's shared frame
/// latches; mutations belong to the single writer (Database writer
/// epoch) and take exclusive latches on the pages they touch.
class BTree {
 public:
  /// Maximum key/value sizes, chosen so several cells fit per page.
  static constexpr size_t kMaxKeySize = 1024;
  static constexpr size_t kMaxValueSize = 1024;

  /// Creates an empty tree; returns the anchor page id as the handle.
  static Result<BTree> Create(BufferPool* pool);

  /// Opens an existing tree by its anchor page id.
  static Result<BTree> Open(BufferPool* pool, PageId anchor);

  BTree(BTree&&) = default;
  BTree& operator=(BTree&&) = default;

  PageId anchor() const { return anchor_; }

  /// Inserts a key/value pair. With unique=true fails with AlreadyExists
  /// if the key is present.
  Status Insert(const Slice& key, const Slice& value, bool unique = false);

  /// Fetches the first value with exactly this key.
  Status Get(const Slice& key, std::string* value) const;

  /// Removes the first entry with exactly this key (and, if `value` is
  /// given, matching value). NotFound if absent.
  Status Delete(const Slice& key, const Slice* value = nullptr);

  /// Removes every entry with key in [lower, upper) (empty upper =
  /// unbounded): one descent, then one walk right over the range.
  /// Returns the number removed (0 if none). The entries of exactly
  /// one key k are the range [k, k + '\0').
  Result<uint64_t> DeleteRange(const Slice& lower, const Slice& upper);

  /// Number of entries (maintained lazily via full scan).
  Result<uint64_t> Count() const;

  /// Forward iterator over key order. Copies each leaf it visits once
  /// and serves that leaf's entries from the copy, so a scan of L
  /// leaves costs the descent plus L - 1 sibling fetches. It holds no
  /// pin or latch between calls: callers may run arbitrary code (even
  /// mutations) between steps, and see the leaf as it was when the
  /// iterator reached it. key() and value() stay valid until the next
  /// Seek/SeekToFirst/Next.
  class Iterator {
   public:
    // Move-only: key_ and value_ point into leaf_'s buffer.
    Iterator(Iterator&&) = default;
    Iterator& operator=(Iterator&&) = default;

    /// Positions at the first entry with key >= target.
    Status Seek(const Slice& target);
    /// Positions at the smallest key.
    Status SeekToFirst();
    bool Valid() const { return valid_; }
    /// Advances; invalidates at end.
    Status Next();
    Slice key() const { return key_; }
    Slice value() const { return value_; }

   private:
    friend class BTree;
    explicit Iterator(const BTree* tree) : tree_(tree) {}

    /// Settles on entry pos_, crossing to right siblings while pos_ is
    /// past the end of the copied leaf.
    Status LoadPosition();
    Status DescendToLeaf(const Slice* target);

    const BTree* tree_;
    std::vector<char> leaf_;  // image of the current leaf page
    int pos_ = 0;
    bool valid_ = false;
    Slice key_;    // into leaf_
    Slice value_;  // into leaf_
  };

  Iterator NewIterator() const { return Iterator(this); }

 private:
  BTree(BufferPool* pool, PageId anchor) : pool_(pool), anchor_(anchor) {}

  struct SplitResult {
    std::string separator;   // first key of the right node (leaf) or
                             // promoted middle key (internal)
    PageId right = kInvalidPageId;
  };

  Result<PageId> Root() const;
  Status SetRoot(PageId root);

  /// Descends (write intent) to the leaf holding the first entry >= key.
  Result<PageGuard> FetchLeafForWrite(const Slice& key);

  /// Recursive insert; fills *split when the child overflowed.
  Status InsertInto(PageId node, const Slice& key, const Slice& value,
                    bool unique, std::optional<SplitResult>* split);

  Status SplitLeaf(PageGuard* guard, SplitResult* out);
  Status SplitInternal(PageGuard* guard, SplitResult* out);

  BufferPool* pool_;
  PageId anchor_;
};

}  // namespace crimson

#endif  // CRIMSON_STORAGE_BTREE_H_
