#include "storage/btree.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/coding.h"
#include "common/string_util.h"

namespace crimson {

namespace {

constexpr uint32_t kNodeHeaderSize = 12;
constexpr uint32_t kSlotSize = 2;

PageType NodeType(const char* d) { return static_cast<PageType>(d[0]); }
void SetNodeType(char* d, PageType t) { d[0] = static_cast<char>(t); }
uint16_t NumCells(const char* d) { return DecodeFixed16(d + 2); }
void SetNumCells(char* d, uint16_t n) { EncodeFixed16(d + 2, n); }
uint16_t CellAreaStart(const char* d) { return DecodeFixed16(d + 4); }
void SetCellAreaStart(char* d, uint16_t v) { EncodeFixed16(d + 4, v); }
uint16_t DeadBytes(const char* d) { return DecodeFixed16(d + 6); }
void SetDeadBytes(char* d, uint16_t v) { EncodeFixed16(d + 6, v); }
// Leaf: right sibling. Internal: rightmost child.
PageId Link(const char* d) { return DecodeFixed32(d + 8); }
void SetLink(char* d, PageId id) { EncodeFixed32(d + 8, id); }

uint16_t CellOffset(const char* d, int i) {
  return DecodeFixed16(d + kNodeHeaderSize + kSlotSize * i);
}
void SetCellOffset(char* d, int i, uint16_t off) {
  EncodeFixed16(d + kNodeHeaderSize + kSlotSize * i, off);
}

void FormatNode(char* d, PageType type) {
  memset(d, 0, kPageSize);
  SetNodeType(d, type);
  SetNumCells(d, 0);
  SetCellAreaStart(d, static_cast<uint16_t>(kPageSize));
  SetDeadBytes(d, 0);
  SetLink(d, kInvalidPageId);
}

struct LeafCell {
  Slice key;
  Slice value;
  uint32_t size = 0;  // total encoded size
};

struct InternalCell {
  Slice key;
  PageId child = kInvalidPageId;
  uint32_t size = 0;
};

LeafCell ParseLeafCell(const char* d, uint16_t off) {
  LeafCell c;
  Slice in(d + off, kPageSize - off);
  const char* begin = in.data();
  uint32_t klen = 0, vlen = 0;
  GetVarint32(&in, &klen);
  c.key = Slice(in.data(), klen);
  in.remove_prefix(klen);
  GetVarint32(&in, &vlen);
  c.value = Slice(in.data(), vlen);
  in.remove_prefix(vlen);
  c.size = static_cast<uint32_t>(in.data() - begin);
  return c;
}

InternalCell ParseInternalCell(const char* d, uint16_t off) {
  InternalCell c;
  Slice in(d + off, kPageSize - off);
  const char* begin = in.data();
  uint32_t klen = 0;
  GetVarint32(&in, &klen);
  c.key = Slice(in.data(), klen);
  in.remove_prefix(klen);
  c.child = DecodeFixed32(in.data());
  in.remove_prefix(4);
  c.size = static_cast<uint32_t>(in.data() - begin);
  return c;
}

Slice CellKey(const char* d, int i) {
  uint16_t off = CellOffset(d, i);
  if (NodeType(d) == PageType::kBTreeLeaf) return ParseLeafCell(d, off).key;
  return ParseInternalCell(d, off).key;
}

/// First index i in [0, n) with cell_key(i) >= key; n if none.
int LowerBound(const char* d, const Slice& key) {
  int lo = 0, hi = NumCells(d);
  while (lo < hi) {
    int mid = (lo + hi) / 2;
    if (CellKey(d, mid).compare(key) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// First index i with cell_key(i) > key; n if none.
int UpperBound(const char* d, const Slice& key) {
  int lo = 0, hi = NumCells(d);
  while (lo < hi) {
    int mid = (lo + hi) / 2;
    if (CellKey(d, mid).compare(key) <= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// Child to descend into when *inserting* `key`: first cell with
/// key < cell_key routes left; otherwise the rightmost child. Keys equal
/// to a separator go right, so duplicate inserts append to the run.
int ChildIndexFor(const char* d, const Slice& key) {
  return UpperBound(d, key);
}

/// Child to descend into when *searching* for the first entry >= `key`.
/// A duplicate run that straddled a split leaves keys equal to the
/// separator in the left subtree, so reads must take the leftmost child
/// whose separator is >= key (LowerBound), not the insert route --
/// otherwise Seek/Get/Delete skip the run's leading entries.
int SeekChildIndexFor(const char* d, const Slice& key) {
  return LowerBound(d, key);
}

PageId ChildAt(const char* d, int idx) {
  if (idx >= NumCells(d)) return Link(d);
  return ParseInternalCell(d, CellOffset(d, idx)).child;
}

uint32_t FreeContiguous(const char* d) {
  return CellAreaStart(d) -
         (kNodeHeaderSize + kSlotSize * NumCells(d));
}

void EncodeLeafCellTo(const Slice& key, const Slice& value,
                      std::string* cell) {
  cell->clear();
  PutVarint32(cell, static_cast<uint32_t>(key.size()));
  cell->append(key.data(), key.size());
  PutVarint32(cell, static_cast<uint32_t>(value.size()));
  cell->append(value.data(), value.size());
}

std::string EncodeLeafCell(const Slice& key, const Slice& value) {
  std::string cell;
  EncodeLeafCellTo(key, value, &cell);
  return cell;
}

void EncodeInternalCellTo(const Slice& key, PageId child, std::string* cell) {
  cell->clear();
  PutVarint32(cell, static_cast<uint32_t>(key.size()));
  cell->append(key.data(), key.size());
  PutFixed32(cell, child);
}

std::string EncodeInternalCell(const Slice& key, PageId child) {
  std::string cell;
  EncodeInternalCellTo(key, child, &cell);
  return cell;
}

/// Rewrites the cell area tightly, reclaiming dead bytes.
void CompactNode(char* d) {
  uint16_t n = NumCells(d);
  std::vector<std::string> cells(n);
  bool leaf = NodeType(d) == PageType::kBTreeLeaf;
  for (int i = 0; i < n; ++i) {
    uint16_t off = CellOffset(d, i);
    uint32_t size = leaf ? ParseLeafCell(d, off).size
                         : ParseInternalCell(d, off).size;
    cells[i].assign(d + off, size);
  }
  uint16_t write = static_cast<uint16_t>(kPageSize);
  for (int i = 0; i < n; ++i) {
    write = static_cast<uint16_t>(write - cells[i].size());
    memcpy(d + write, cells[i].data(), cells[i].size());
    SetCellOffset(d, i, write);
  }
  SetCellAreaStart(d, write);
  SetDeadBytes(d, 0);
}

/// Inserts an encoded cell at slot position pos. Returns false if the
/// node lacks space even after compaction.
bool InsertCellInPlace(char* d, int pos, const std::string& cell) {
  uint32_t needed = static_cast<uint32_t>(cell.size()) + kSlotSize;
  if (FreeContiguous(d) < needed) {
    if (FreeContiguous(d) + DeadBytes(d) < needed) return false;
    CompactNode(d);
    if (FreeContiguous(d) < needed) return false;
  }
  uint16_t n = NumCells(d);
  uint16_t write = static_cast<uint16_t>(CellAreaStart(d) - cell.size());
  memcpy(d + write, cell.data(), cell.size());
  // Shift the slot directory to open position pos.
  memmove(d + kNodeHeaderSize + kSlotSize * (pos + 1),
          d + kNodeHeaderSize + kSlotSize * pos,
          kSlotSize * (n - pos));
  SetCellOffset(d, pos, write);
  SetNumCells(d, static_cast<uint16_t>(n + 1));
  SetCellAreaStart(d, write);
  return true;
}

/// Removes cells [begin, end) of a leaf; their bytes become dead space.
void RemoveLeafCells(char* d, int begin, int end) {
  uint16_t n = NumCells(d);
  uint32_t size = 0;
  for (int i = begin; i < end; ++i) {
    size += ParseLeafCell(d, CellOffset(d, i)).size;
  }
  memmove(d + kNodeHeaderSize + kSlotSize * begin,
          d + kNodeHeaderSize + kSlotSize * end, kSlotSize * (n - end));
  SetNumCells(d, static_cast<uint16_t>(n - (end - begin)));
  SetDeadBytes(d, static_cast<uint16_t>(DeadBytes(d) + size));
}

/// Rewrites a leaf from scratch with the given entries.
void RebuildLeaf(char* d, const std::vector<std::pair<std::string, std::string>>& entries,
                 PageId sibling) {
  FormatNode(d, PageType::kBTreeLeaf);
  SetLink(d, sibling);
  for (size_t i = 0; i < entries.size(); ++i) {
    std::string cell = EncodeLeafCell(entries[i].first, entries[i].second);
    bool ok = InsertCellInPlace(d, static_cast<int>(i), cell);
    assert(ok);
    (void)ok;
  }
}

void RebuildInternal(char* d,
                     const std::vector<std::pair<std::string, PageId>>& entries,
                     PageId rightmost) {
  FormatNode(d, PageType::kBTreeInternal);
  SetLink(d, rightmost);
  for (size_t i = 0; i < entries.size(); ++i) {
    std::string cell = EncodeInternalCell(entries[i].first, entries[i].second);
    bool ok = InsertCellInPlace(d, static_cast<int>(i), cell);
    assert(ok);
    (void)ok;
  }
}

/// Chooses a split point in [1, n-1] near n/2, preferring not to break a
/// run of equal keys across the boundary (so duplicate runs stay within
/// one node whenever possible).
size_t ChooseSplitPoint(const std::vector<std::string>& keys) {
  size_t n = keys.size();
  assert(n >= 2);
  size_t mid = std::max<size_t>(1, n / 2);
  for (size_t cut = mid; cut <= n - 1; ++cut) {
    if (keys[cut - 1] != keys[cut]) return cut;
  }
  for (size_t cut = mid; cut >= 1; --cut) {
    if (keys[cut - 1] != keys[cut]) return cut;
  }
  return mid;  // every key equal: a straddle is unavoidable
}

}  // namespace

// ---------------------------------------------------------------------------
// Construction / anchor management
// ---------------------------------------------------------------------------

Result<BTree> BTree::Create(BufferPool* pool) {
  CRIMSON_RETURN_IF_ERROR(pool->RequireWritable());
  PageId root_id;
  {
    CRIMSON_ASSIGN_OR_RETURN(PageGuard root, pool->New(&root_id));
    FormatNode(root.data(), PageType::kBTreeLeaf);
    root.MarkDirty();
  }
  PageId anchor_id;
  {
    CRIMSON_ASSIGN_OR_RETURN(PageGuard anchor, pool->New(&anchor_id));
    char* d = anchor.data();
    memset(d, 0, kPageSize);
    SetNodeType(d, PageType::kBTreeAnchor);
    EncodeFixed32(d + 1, root_id);
    anchor.MarkDirty();
  }
  return BTree(pool, anchor_id);
}

Result<BTree> BTree::Open(BufferPool* pool, PageId anchor) {
  CRIMSON_ASSIGN_OR_RETURN(PageGuard guard, pool->Fetch(anchor));
  if (NodeType(guard.data()) != PageType::kBTreeAnchor) {
    return Status::Corruption(
        StrFormat("page %u is not a btree anchor", anchor));
  }
  return BTree(pool, anchor);
}

Result<PageId> BTree::Root() const {
  CRIMSON_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(anchor_));
  if (NodeType(guard.data()) != PageType::kBTreeAnchor) {
    return Status::Corruption("btree anchor corrupted");
  }
  return static_cast<PageId>(DecodeFixed32(guard.data() + 1));
}

Status BTree::SetRoot(PageId root) {
  CRIMSON_ASSIGN_OR_RETURN(PageGuard guard,
                           pool_->Fetch(anchor_, PageIntent::kWrite));
  EncodeFixed32(guard.data() + 1, root);
  guard.MarkDirty();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Insert
// ---------------------------------------------------------------------------

Status BTree::Insert(const Slice& key, const Slice& value, bool unique) {
  CRIMSON_RETURN_IF_ERROR(pool_->RequireWritable());
  if (key.size() > kMaxKeySize) {
    return Status::InvalidArgument(
        StrFormat("key too large (%zu > %zu)", key.size(), kMaxKeySize));
  }
  if (value.size() > kMaxValueSize) {
    return Status::InvalidArgument(
        StrFormat("value too large (%zu > %zu)", value.size(), kMaxValueSize));
  }
  CRIMSON_ASSIGN_OR_RETURN(PageId root, Root());
  std::optional<SplitResult> split;
  CRIMSON_RETURN_IF_ERROR(InsertInto(root, key, value, unique, &split));
  if (split.has_value()) {
    // Grow a new root above the old one.
    PageId new_root_id;
    CRIMSON_ASSIGN_OR_RETURN(PageGuard new_root, pool_->New(&new_root_id));
    FormatNode(new_root.data(), PageType::kBTreeInternal);
    SetLink(new_root.data(), split->right);
    std::string cell = EncodeInternalCell(split->separator, root);
    bool ok = InsertCellInPlace(new_root.data(), 0, cell);
    if (!ok) return Status::Internal("new root cell does not fit");
    new_root.MarkDirty();
    CRIMSON_RETURN_IF_ERROR(SetRoot(new_root_id));
  }
  return Status::OK();
}

Status BTree::InsertInto(PageId node, const Slice& key, const Slice& value,
                         bool unique, std::optional<SplitResult>* split) {
  // Write intent even for routing nodes: a child split mutates them.
  CRIMSON_ASSIGN_OR_RETURN(PageGuard guard,
                           pool_->Fetch(node, PageIntent::kWrite));
  char* d = guard.data();

  if (NodeType(d) == PageType::kBTreeLeaf) {
    int pos = LowerBound(d, key);
    if (unique && pos < NumCells(d) && CellKey(d, pos) == key) {
      return Status::AlreadyExists("duplicate key");
    }
    std::string cell = EncodeLeafCell(key, value);
    if (InsertCellInPlace(d, pos, cell)) {
      guard.MarkDirty();
      return Status::OK();
    }
    // Overflow: gather, insert, redistribute across two leaves.
    uint16_t n = NumCells(d);
    std::vector<std::pair<std::string, std::string>> entries;
    entries.reserve(n + 1);
    for (int i = 0; i < n; ++i) {
      LeafCell c = ParseLeafCell(d, CellOffset(d, i));
      entries.emplace_back(c.key.ToString(), c.value.ToString());
    }
    entries.insert(entries.begin() + pos,
                   {key.ToString(), value.ToString()});
    std::vector<std::string> keys;
    keys.reserve(entries.size());
    for (auto& e : entries) keys.push_back(e.first);
    size_t cut = ChooseSplitPoint(keys);

    PageId right_id;
    CRIMSON_ASSIGN_OR_RETURN(PageGuard right, pool_->New(&right_id));
    PageId old_sibling = Link(d);
    std::vector<std::pair<std::string, std::string>> left_entries(
        entries.begin(), entries.begin() + cut);
    std::vector<std::pair<std::string, std::string>> right_entries(
        entries.begin() + cut, entries.end());
    RebuildLeaf(d, left_entries, right_id);
    RebuildLeaf(right.data(), right_entries, old_sibling);
    guard.MarkDirty();
    right.MarkDirty();
    SplitResult r;
    r.separator = right_entries.front().first;
    r.right = right_id;
    *split = std::move(r);
    return Status::OK();
  }

  if (NodeType(d) != PageType::kBTreeInternal) {
    return Status::Corruption(StrFormat("page %u is not a btree node", node));
  }

  int child_idx = ChildIndexFor(d, key);
  PageId child = ChildAt(d, child_idx);
  std::optional<SplitResult> child_split;
  CRIMSON_RETURN_IF_ERROR(
      InsertInto(child, key, value, unique, &child_split));
  if (!child_split.has_value()) return Status::OK();

  // The child split into (child=left, right) with separator s: route
  // keys < s to left by inserting cell (s, left) at child_idx, and point
  // the old slot at right.
  if (child_idx >= NumCells(d)) {
    SetLink(d, child_split->right);
  } else {
    uint16_t off = CellOffset(d, child_idx);
    InternalCell c = ParseInternalCell(d, off);
    // Child pointer is the trailing fixed32 of the cell.
    EncodeFixed32(d + off + (c.size - 4), child_split->right);
  }
  std::string cell = EncodeInternalCell(child_split->separator, child);
  if (InsertCellInPlace(d, child_idx, cell)) {
    guard.MarkDirty();
    return Status::OK();
  }

  // Internal node overflow: gather entries, insert, split, promote middle.
  uint16_t n = NumCells(d);
  std::vector<std::pair<std::string, PageId>> entries;
  entries.reserve(n + 1);
  for (int i = 0; i < n; ++i) {
    InternalCell c = ParseInternalCell(d, CellOffset(d, i));
    entries.emplace_back(c.key.ToString(), c.child);
  }
  entries.insert(entries.begin() + child_idx,
                 {child_split->separator, child});
  PageId rightmost = Link(d);

  size_t mid = entries.size() / 2;
  std::string promoted = entries[mid].first;
  PageId mid_child = entries[mid].second;

  std::vector<std::pair<std::string, PageId>> left_entries(
      entries.begin(), entries.begin() + mid);
  std::vector<std::pair<std::string, PageId>> right_entries(
      entries.begin() + mid + 1, entries.end());

  PageId right_id;
  CRIMSON_ASSIGN_OR_RETURN(PageGuard right, pool_->New(&right_id));
  RebuildInternal(d, left_entries, mid_child);
  RebuildInternal(right.data(), right_entries, rightmost);
  guard.MarkDirty();
  right.MarkDirty();

  SplitResult r;
  r.separator = std::move(promoted);
  r.right = right_id;
  *split = std::move(r);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Get / Delete / Count
// ---------------------------------------------------------------------------

Status BTree::Get(const Slice& key, std::string* value) const {
  CRIMSON_ASSIGN_OR_RETURN(PageId node, Root());
  while (true) {
    CRIMSON_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(node));
    const char* d = guard.data();
    if (NodeType(d) == PageType::kBTreeInternal) {
      node = ChildAt(d, SeekChildIndexFor(d, key));
      continue;
    }
    if (NodeType(d) != PageType::kBTreeLeaf) {
      return Status::Corruption("not a btree node");
    }
    // The leaf holding the first entry >= key may end before the key
    // (the subtree left of an equal separator); hop to the sibling.
    PageGuard lg = std::move(guard);
    int pos = LowerBound(lg.data(), key);
    while (true) {
      const char* ld = lg.data();
      if (pos >= NumCells(ld)) {
        PageId next = Link(ld);
        if (next == kInvalidPageId) return Status::NotFound("key not in index");
        CRIMSON_ASSIGN_OR_RETURN(lg, pool_->Fetch(next));
        pos = 0;
        continue;
      }
      LeafCell c = ParseLeafCell(ld, CellOffset(ld, pos));
      if (c.key != key) return Status::NotFound("key not in index");
      value->assign(c.value.data(), c.value.size());
      return Status::OK();
    }
  }
}

Result<PageGuard> BTree::FetchLeafForWrite(const Slice& key) {
  CRIMSON_RETURN_IF_ERROR(pool_->RequireWritable());
  CRIMSON_ASSIGN_OR_RETURN(PageId node, Root());
  // Write intent throughout: the fetched node may turn out to be the
  // leaf the caller mutates.
  while (true) {
    CRIMSON_ASSIGN_OR_RETURN(PageGuard guard,
                             pool_->Fetch(node, PageIntent::kWrite));
    const char* d = guard.data();
    if (NodeType(d) == PageType::kBTreeInternal) {
      node = ChildAt(d, SeekChildIndexFor(d, key));
      continue;
    }
    if (NodeType(d) != PageType::kBTreeLeaf) {
      return Status::Corruption("not a btree node");
    }
    return guard;
  }
}

Status BTree::Delete(const Slice& key, const Slice* value) {
  CRIMSON_ASSIGN_OR_RETURN(PageGuard lg, FetchLeafForWrite(key));
  // Scan this leaf and right siblings while keys match.
  int pos = LowerBound(lg.data(), key);
  while (true) {
    char* ld = lg.data();
    if (pos >= NumCells(ld)) {
      PageId next = Link(ld);
      if (next == kInvalidPageId) return Status::NotFound("key not found");
      CRIMSON_ASSIGN_OR_RETURN(lg, pool_->Fetch(next, PageIntent::kWrite));
      pos = 0;
      continue;
    }
    LeafCell c = ParseLeafCell(ld, CellOffset(ld, pos));
    if (c.key != key) return Status::NotFound("key not found");
    if (value == nullptr || c.value == *value) {
      RemoveLeafCells(ld, pos, pos + 1);
      lg.MarkDirty();
      return Status::OK();
    }
    ++pos;
  }
}

Result<uint64_t> BTree::DeleteRange(const Slice& lower, const Slice& upper) {
  CRIMSON_ASSIGN_OR_RETURN(PageGuard lg, FetchLeafForWrite(lower));
  uint64_t removed = 0;
  int pos = LowerBound(lg.data(), lower);
  while (true) {
    char* ld = lg.data();
    const int n = NumCells(ld);
    int end = pos;
    while (end < n && (upper.empty() || CellKey(ld, end).compare(upper) < 0)) {
      ++end;
    }
    if (end > pos) {
      RemoveLeafCells(ld, pos, end);
      lg.MarkDirty();
      removed += static_cast<uint64_t>(end - pos);
    }
    // A key at or past upper on this leaf ends the range; otherwise it
    // may continue on the right sibling (emptied leaves are crossed,
    // not unlinked).
    PageId next = Link(ld);
    if (end < n || next == kInvalidPageId) return removed;
    CRIMSON_ASSIGN_OR_RETURN(lg, pool_->Fetch(next, PageIntent::kWrite));
    pos = 0;
  }
}

Result<uint64_t> BTree::Count() const {
  uint64_t n = 0;
  Iterator it = NewIterator();
  CRIMSON_RETURN_IF_ERROR(it.SeekToFirst());
  while (it.Valid()) {
    ++n;
    CRIMSON_RETURN_IF_ERROR(it.Next());
  }
  return n;
}

// ---------------------------------------------------------------------------
// Iterator
// ---------------------------------------------------------------------------

Status BTree::Iterator::DescendToLeaf(const Slice* target) {
  valid_ = false;
  CRIMSON_ASSIGN_OR_RETURN(PageId node, tree_->Root());
  while (true) {
    CRIMSON_ASSIGN_OR_RETURN(PageGuard guard, tree_->pool_->Fetch(node));
    const char* d = guard.data();
    if (NodeType(d) == PageType::kBTreeInternal) {
      int idx = target ? SeekChildIndexFor(d, *target) : 0;
      node = ChildAt(d, idx);
      continue;
    }
    if (NodeType(d) != PageType::kBTreeLeaf) {
      return Status::Corruption("not a btree node");
    }
    leaf_.assign(d, d + kPageSize);
    pos_ = target ? LowerBound(d, *target) : 0;
    return Status::OK();
  }
}

Status BTree::Iterator::LoadPosition() {
  while (pos_ >= NumCells(leaf_.data())) {
    PageId next = Link(leaf_.data());
    if (next == kInvalidPageId) {
      valid_ = false;
      return Status::OK();
    }
    CRIMSON_ASSIGN_OR_RETURN(PageGuard guard, tree_->pool_->Fetch(next));
    const char* d = guard.data();
    if (NodeType(d) != PageType::kBTreeLeaf) {
      return Status::Corruption("btree leaf chain reaches a non-leaf page");
    }
    leaf_.assign(d, d + kPageSize);
    pos_ = 0;
  }
  LeafCell c = ParseLeafCell(leaf_.data(), CellOffset(leaf_.data(), pos_));
  key_ = c.key;
  value_ = c.value;
  valid_ = true;
  return Status::OK();
}

Status BTree::Iterator::Seek(const Slice& target) {
  CRIMSON_RETURN_IF_ERROR(DescendToLeaf(&target));
  return LoadPosition();
}

Status BTree::Iterator::SeekToFirst() {
  CRIMSON_RETURN_IF_ERROR(DescendToLeaf(nullptr));
  return LoadPosition();
}

Status BTree::Iterator::Next() {
  if (!valid_) return Status::FailedPrecondition("iterator not valid");
  ++pos_;
  return LoadPosition();
}

}  // namespace crimson
