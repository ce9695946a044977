// Layered Dewey labeling -- Crimson's core contribution (paper §2.1).
//
// Plain Dewey labels grow with depth, which hurts on phylogenetic
// simulation trees (average depth > 1000, up to 10^6 levels). Crimson
// bounds label size by a constant f: the tree is decomposed into
// subtrees of bounded depth ("layer 0"); a "layer 1" tree is built with
// one node per layer-0 subtree (edges mirroring the subtree
// relationships); layers are built recursively until one subtree
// remains. Every node gets a Dewey label *local to its subtree* (length
// < f), plus its subtree id.
//
// Decomposition rule (calibrated against the paper's Figure 4, where
// f=3 splits the sample tree into {root,Syn,P,Bha,Bsu} and {x,Lla,Spy}):
// a node whose local depth would reach f-1 starts a new subtree if it
// is internal; leaves may sit at local depth f-1. Hence every subtree
// spans at most f levels and every local label has < f components.
//
// Each split-off subtree records its "source node": the parent (in the
// layer below) of the subtree's root -- the dotted 6 -> 3 edge in
// Figure 4. LCA across subtrees recurses one layer up, then descends
// through source links, exactly the paper's algorithm.

#ifndef CRIMSON_LABELING_LAYERED_DEWEY_H_
#define CRIMSON_LABELING_LAYERED_DEWEY_H_

#include <cstdint>
#include <vector>

#include "labeling/dewey_label.h"
#include "labeling/scheme.h"

namespace crimson {

class LayeredDeweyScheme final : public LabelingScheme {
 public:
  /// f = maximum levels per subtree (>= 2). The paper's Figure 4 uses 3.
  explicit LayeredDeweyScheme(uint32_t f = 8);

  std::string name() const override;
  Status Build(const PhyloTree& tree) override;
  Result<NodeId> Lca(NodeId a, NodeId b) const override;
  Result<bool> IsAncestorOrSelf(NodeId anc, NodeId n) const override;
  size_t LabelBytes(NodeId n) const override;
  size_t node_count() const override {
    return layers_.empty() ? 0 : layers_[0].parent.size();
  }

  uint32_t f() const { return f_; }

  /// Number of layers (1 for trees shallower than f).
  uint32_t num_layers() const { return static_cast<uint32_t>(layers_.size()); }

  /// Layer-0 subtree id of a tree node.
  uint32_t SubtreeOf(NodeId n) const { return layers_[0].subtree[n]; }

  /// Number of subtrees in a layer.
  uint32_t NumSubtrees(uint32_t layer) const {
    return layers_[layer].num_subtrees;
  }

  /// The source node of a layer-0 subtree: the tree node from which the
  /// subtree was split off (parent of the subtree root); kNoNode for the
  /// subtree containing the tree root.
  NodeId SourceOfSubtree(uint32_t subtree) const {
    uint32_t s = layers_[0].subtree_source[subtree];
    return s == kNoItem ? kNoNode : s;
  }

  /// Local (within-subtree) Dewey label of a node; < f components.
  DeweyLabel LocalLabel(NodeId n) const;

  /// Depth of node n within its subtree (0 = subtree root).
  uint32_t LocalDepth(NodeId n) const { return layers_[0].local_depth[n]; }

  /// Serializes the built scheme (all layers) so a stored tree can be
  /// bound again without a fresh Build. The encoding is canonical: two
  /// schemes built over the same tree with the same f encode to the
  /// same bytes.
  void EncodeTo(std::string* dst) const;

  /// Restores a scheme previously written by EncodeTo, replacing any
  /// current state. Corruption on malformed input.
  Status DecodeFrom(Slice input);

 private:
  static constexpr uint32_t kNoItem = 0xffffffffu;

  /// One layer. Items are tree nodes at layer 0, and layer-(k-1)
  /// subtrees at layer k.
  struct Layer {
    std::vector<uint32_t> parent;       // parent item in the layer tree
    std::vector<uint32_t> ordinal;      // 1-based child ordinal
    std::vector<uint32_t> subtree;      // subtree id
    std::vector<uint32_t> local_depth;  // depth within the subtree
    std::vector<uint32_t> subtree_source;  // per subtree: parent item of root
    std::vector<uint32_t> subtree_root;    // per subtree: its root item
    uint32_t num_subtrees = 0;
  };

  /// Decomposes a layer tree (parent[] already set, parent < child)
  /// into subtrees; fills the remaining Layer fields.
  void DecomposeLayer(Layer* layer) const;

  /// LCA of two items within one layer (recursing upward as needed).
  uint32_t LcaAtLayer(uint32_t layer, uint32_t a, uint32_t b) const;

  /// LCA of two items known to share a subtree: O(f) parent walk.
  uint32_t WithinSubtreeLca(const Layer& layer, uint32_t a, uint32_t b) const;

  /// Ancestor-or-self of item `a` that lies inside subtree `target`
  /// (which must contain an ancestor-or-self of `a`). Runs in
  /// O(f * layers) by recursing up the layer hierarchy rather than
  /// walking the source chain one subtree at a time.
  uint32_t ClimbIntoSubtree(uint32_t layer, uint32_t a, uint32_t target) const;

  /// The ancestor-or-self `c` of `item` with parent[layer][c] == anc;
  /// `anc` must be a proper ancestor of `item` in the layer tree.
  uint32_t ChildOfAncestor(uint32_t layer, uint32_t item, uint32_t anc) const;

  uint32_t f_;
  std::vector<Layer> layers_;
};

}  // namespace crimson

#endif  // CRIMSON_LABELING_LAYERED_DEWEY_H_
