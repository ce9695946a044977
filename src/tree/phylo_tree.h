// PhyloTree: the in-memory phylogenetic tree model. Packed
// structure-of-arrays arena (indices, not pointers) so trees with
// millions of nodes stay compact and traversals stay cache-friendly:
// parallel parent/first_child/next_sibling/edge_length vectors plus one
// contiguous NUL-terminated name arena addressed by byte offsets. Edge
// lengths live on the child node (the edge to its parent), matching
// Newick semantics.
//
// Phylogenetic trees differ from XML documents in exactly the ways the
// paper stresses: they are deep (simulation trees average depth > 1000
// and can reach 10^6 levels) and queried by structure, not by path.
//
// Name invariants: names are C strings inside the arena — they cannot
// contain an embedded NUL byte (ingest paths reject it). `name()`
// returns a std::string_view into the arena; the view is invalidated by
// any mutation of the tree (AddChild/set_name may grow the arena) and
// by destruction/assignment of the tree, like iterators of a vector.

#ifndef CRIMSON_TREE_PHYLO_TREE_H_
#define CRIMSON_TREE_PHYLO_TREE_H_

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"

namespace crimson {

/// Node handle; index into the tree's arena.
using NodeId = uint32_t;
inline constexpr NodeId kNoNode = std::numeric_limits<NodeId>::max();

/// Rooted tree with named leaves and weighted edges.
class PhyloTree {
 public:
  PhyloTree() = default;

  PhyloTree(PhyloTree&&) = default;
  PhyloTree& operator=(PhyloTree&&) = default;
  PhyloTree(const PhyloTree&) = default;
  PhyloTree& operator=(const PhyloTree&) = default;

  // -- construction ---------------------------------------------------------

  /// Creates the root. Must be called exactly once, first.
  NodeId AddRoot(std::string_view name = {}, double edge_length = 0.0);

  /// Adds a child under `parent` with the length of the edge
  /// (parent -> child). Children keep insertion order.
  NodeId AddChild(NodeId parent, std::string_view name = {},
                  double edge_length = 0.0);

  /// Reserves arena capacity (perf knob for big builds): `n` node slots
  /// and `name_bytes` of label payload (NUL terminators are added on
  /// top automatically).
  void Reserve(size_t n, size_t name_bytes = 0);

  /// Drops the transient append accelerator and trims vector slack.
  /// Call after a bulk build; AddChild stays valid afterwards (the
  /// accelerator is rebuilt lazily).
  void ShrinkToFit();

  /// Rebuilds a tree from its packed representation without
  /// re-interning names: `parents[0]` must be kNoNode and every other
  /// parent must precede its child; `name_offsets[i]` indexes a
  /// NUL-terminated label inside `name_arena` (offset 0 = the shared
  /// empty name; `name_arena[0]` must be NUL). first_child/next_sibling
  /// links are derived in O(n) because children-in-insertion-order is
  /// node order.
  static Result<PhyloTree> FromPacked(std::vector<NodeId> parents,
                                      std::vector<double> edge_lengths,
                                      std::vector<uint32_t> name_offsets,
                                      std::string name_arena);

  // -- basic accessors ------------------------------------------------------

  bool empty() const { return parent_.empty(); }
  size_t size() const { return parent_.size(); }
  NodeId root() const { return parent_.empty() ? kNoNode : 0; }

  NodeId parent(NodeId n) const { return parent_[n]; }
  NodeId first_child(NodeId n) const { return first_child_[n]; }
  NodeId next_sibling(NodeId n) const { return next_sibling_[n]; }
  bool is_leaf(NodeId n) const { return first_child_[n] == kNoNode; }
  std::string_view name(NodeId n) const {
    // Arena labels are NUL-terminated; offset 0 is the shared "".
    return std::string_view(name_arena_.c_str() + name_offset_[n]);
  }
  double edge_length(NodeId n) const { return edge_length_[n]; }

  void set_name(NodeId n, std::string_view name);
  void set_edge_length(NodeId n, double len) { edge_length_[n] = len; }

  /// Number of children (O(degree)).
  uint32_t OutDegree(NodeId n) const;

  /// Children of n in order (O(degree) allocation; prefer the sibling
  /// chain in hot loops).
  std::vector<NodeId> Children(NodeId n) const;

  // -- traversal ------------------------------------------------------------

  /// Pre-order visit of the subtree rooted at `start` (default: root).
  /// fn returns false to stop early. Takes any callable — no
  /// std::function indirection on hot traversals.
  template <typename Fn>
  void PreOrder(Fn&& fn, NodeId start = 0) const {
    if (parent_.empty()) return;
    // Sibling-chain trick: visiting n pushes its next sibling (resuming
    // the parent's child list later) and then its first child, so no
    // per-node child vector is materialized.
    std::vector<NodeId> stack = {start};
    while (!stack.empty()) {
      NodeId n = stack.back();
      stack.pop_back();
      if (!fn(n)) return;
      if (n != start && next_sibling_[n] != kNoNode) {
        stack.push_back(next_sibling_[n]);
      }
      if (first_child_[n] != kNoNode) {
        stack.push_back(first_child_[n]);
      }
    }
  }

  /// Post-order visit (children before parent).
  template <typename Fn>
  void PostOrder(Fn&& fn, NodeId start = 0) const {
    if (parent_.empty()) return;
    // Two-phase iterative post-order using the sibling-chain trick: an
    // unexpanded node pushes (sibling, unexpanded), (self, expanded),
    // (first child, unexpanded); every child subtree completes above
    // the expanded marker.
    std::vector<std::pair<NodeId, bool>> stack = {{start, false}};
    while (!stack.empty()) {
      auto [n, expanded] = stack.back();
      stack.pop_back();
      if (expanded) {
        if (!fn(n)) return;
        continue;
      }
      if (n != start && next_sibling_[n] != kNoNode) {
        stack.push_back({next_sibling_[n], false});
      }
      stack.push_back({n, true});
      if (first_child_[n] != kNoNode) {
        stack.push_back({first_child_[n], false});
      }
    }
  }

  /// Pre-order ranks for all nodes: rank[n] = position of n in preorder.
  std::vector<uint32_t> PreOrderRanks() const;

  /// Depth in edges from the root, for all nodes.
  std::vector<uint32_t> Depths() const;

  /// Sum of edge lengths from the root, for all nodes.
  std::vector<double> RootPathWeights() const;

  /// All leaf ids in pre-order.
  std::vector<NodeId> Leaves() const;

  /// Leaf count.
  size_t LeafCount() const;

  /// Maximum depth in edges.
  uint32_t MaxDepth() const;

  /// Finds the first node with this name (linear scan); kNoNode if
  /// none. Kept as the oracle for NameIndex; use a NameIndex for
  /// anything hot.
  NodeId FindByName(std::string_view name) const;

  // -- packed representation ------------------------------------------------

  /// Raw name arena (offset-addressed, NUL-terminated labels). Exposed
  /// for the storage codec and the name index.
  const std::string& name_arena() const { return name_arena_; }

  /// Byte offset of node n's label inside name_arena() (0 = empty).
  uint32_t name_offset(NodeId n) const { return name_offset_[n]; }

  /// Parent vector view, for the storage codec.
  const std::vector<NodeId>& parents() const { return parent_; }

  /// Edge-length vector view, for the storage codec.
  const std::vector<double>& edge_lengths() const { return edge_length_; }

  /// Name-offset vector view, for the storage codec.
  const std::vector<uint32_t>& name_offsets() const { return name_offset_; }

  /// Allocated bytes of the packed representation (vector capacities +
  /// name arena + transient append accelerator). Used by
  /// bench_tree_footprint and cache accounting.
  size_t MemoryFootprintBytes() const;

  // -- structural helpers ---------------------------------------------------

  /// Naive LCA by parent walks (baseline for the labeling schemes).
  NodeId NaiveLca(NodeId a, NodeId b) const;

  /// True if `anc` is an ancestor of (or equal to) `n`.
  bool IsAncestorOrSelf(NodeId anc, NodeId n) const;

  /// Checks structural equality including names and edge lengths
  /// (within eps), respecting child order if ordered=true, otherwise
  /// comparing as unordered trees (children matched by canonical form).
  static bool Equal(const PhyloTree& a, const PhyloTree& b, double eps = 1e-9,
                    bool ordered = false);

  /// Validates internal invariants (parent/child agreement, single root,
  /// acyclicity). Used by tests and the loader.
  Status Validate() const;

 private:
  /// Appends `name` to the arena NUL-terminated and returns its offset
  /// (0 for the shared empty label).
  uint32_t InternName(std::string_view name);

  /// Recomputes last_child_ from the sibling chains (the last child of
  /// p is its highest-id child because children append in node order).
  void RebuildLastChild();

  // Packed per-node columns: 4+4+4+8+4 = 24 fixed bytes per node.
  std::vector<NodeId> parent_;
  std::vector<NodeId> first_child_;
  std::vector<NodeId> next_sibling_;
  std::vector<double> edge_length_;
  std::vector<uint32_t> name_offset_;

  // One contiguous buffer of NUL-terminated labels; byte 0 is the
  // shared empty label. Lazily seeded on first node.
  std::string name_arena_;

  // Transient O(1)-append accelerator: last child per node. Dropped by
  // ShrinkToFit() and rebuilt lazily on the next AddChild.
  std::vector<NodeId> last_child_;
};

/// Packed tree image: the one tree codec, used for the stored
/// `tree_blobs` rows and for projection trees in wire query results.
/// Layout: varint version (kPackedTreeVersion), varint node count,
/// varint arena size, then the parent, edge-length and name-offset
/// columns (fixed32 / double / fixed32 each) and the raw name arena.
/// Re-encoding a decoded tree reproduces the input bytes exactly. A
/// layout change bumps kPackedTreeVersion, the database kFormatVersion
/// (storage/page.h) and the wire kProtocolVersion; decoders reject
/// unknown versions.
inline constexpr uint32_t kPackedTreeVersion = 1;

/// Appends the packed image of `tree` to *dst.
void EncodePackedTree(const PhyloTree& tree, std::string* dst);

/// Decodes one packed image from the front of *in and advances past
/// it (trailing bytes are the caller's). InvalidArgument for any
/// malformed or truncated image; a node count the remaining bytes
/// cannot hold is rejected before anything is allocated.
Result<PhyloTree> DecodePackedTree(Slice* in);

}  // namespace crimson

#endif  // CRIMSON_TREE_PHYLO_TREE_H_
