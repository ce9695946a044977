// NameIndex: interned name -> NodeId open-addressing hash built once
// over a PhyloTree's packed name arena. Replaces the O(n) FindByName
// scan on every name-addressed query (ResolveSpecies, pattern leaf
// anchoring, NEXUS taxa export, species resolution on append).
//
// The index stores (offset, len) spans into the tree's name arena, not
// string copies, so building it allocates only the slot table. Lookups
// therefore take the tree as a parameter: an index is valid exactly for
// the tree it was built from (or a bit-identical copy) and goes stale
// if that tree is mutated.
//
// Duplicate-name semantics mirror the pre-index behaviour byte for
// byte: Find() returns the first node in arena order bearing the name
// (FindByName parity) and FindLeaf() the first leaf in arena order
// (parity with the pattern matcher's old keep-first leaf_by_name_ map).
// Empty names are not indexed; Find/FindLeaf fall back to a linear scan
// for them, matching FindByName("").

#ifndef CRIMSON_TREE_NAME_INDEX_H_
#define CRIMSON_TREE_NAME_INDEX_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "tree/phylo_tree.h"

namespace crimson {

class NameIndex {
 public:
  NameIndex() = default;

  /// Builds the index over all non-empty node names in `tree`.
  static NameIndex Build(const PhyloTree& tree);

  /// First node in arena order named `name`; kNoNode if none.
  /// Exact FindByName parity, O(1) amortized.
  NodeId Find(const PhyloTree& tree, std::string_view name) const;

  /// First leaf in arena order named `name`; kNoNode if no leaf bears
  /// it (even when an internal node does).
  NodeId FindLeaf(const PhyloTree& tree, std::string_view name) const;

  /// True if two distinct leaves share a name. Queries against such a
  /// tree resolve deterministically to the first leaf in arena order.
  bool has_duplicate_leaf_names() const {
    return !duplicate_leaf_names_.empty();
  }

  /// Sorted unique list of leaf names that occur on more than one leaf.
  std::vector<std::string> DuplicateLeafNames(const PhyloTree& tree) const;

  /// Number of distinct non-empty names in the tree.
  size_t distinct_names() const { return used_; }

  /// True if some leaf has an empty name (such leaves are not indexed).
  bool has_unnamed_leaf() const { return has_unnamed_leaf_; }

 private:
  struct Slot {
    uint32_t offset = 0;
    uint32_t len = 0;
    NodeId first_node = kNoNode;  // kNoNode marks an empty slot
    NodeId first_leaf = kNoNode;
  };

  const Slot* Probe(const PhyloTree& tree, std::string_view name) const;

  std::vector<Slot> slots_;
  size_t used_ = 0;
  uint64_t mask_ = 0;  // slots_.size() - 1 (power-of-two table)
  bool has_unnamed_leaf_ = false;
  // Arena offsets of leaf names seen on >1 leaf (one entry per name).
  std::vector<uint32_t> duplicate_leaf_names_;
};

}  // namespace crimson

#endif  // CRIMSON_TREE_NAME_INDEX_H_
