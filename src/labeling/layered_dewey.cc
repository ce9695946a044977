#include "labeling/layered_dewey.h"

#include <cassert>

#include "common/coding.h"
#include "common/string_util.h"

namespace crimson {

// f < 3 is rejected: with f = 2 every internal node becomes its own
// subtree, so a pure chain's layer tree shrinks by only one node per
// layer and the recursion never converges. With f >= 3 a subtree root
// (always internal) keeps all its depth-1 children, so each layer has
// at most half the items of the one below and the layer count is
// logarithmic.
LayeredDeweyScheme::LayeredDeweyScheme(uint32_t f) : f_(f < 3 ? 3 : f) {}

std::string LayeredDeweyScheme::name() const {
  return StrFormat("layered_dewey(f=%u)", f_);
}

void LayeredDeweyScheme::DecomposeLayer(Layer* layer) const {
  size_t n = layer->parent.size();
  layer->ordinal.assign(n, 0);
  layer->subtree.assign(n, 0);
  layer->local_depth.assign(n, 0);
  layer->subtree_source.clear();
  layer->subtree_root.clear();

  // Child ordinals and leaf detection in one pass (parent < child).
  std::vector<uint32_t> child_count(n, 0);
  std::vector<uint32_t> next_ordinal(n, 0);
  for (size_t i = 1; i < n; ++i) ++child_count[layer->parent[i]];
  for (size_t i = 1; i < n; ++i) {
    layer->ordinal[i] = ++next_ordinal[layer->parent[i]];
  }

  // Root starts subtree 0.
  layer->subtree_source.push_back(kNoItem);
  layer->subtree_root.push_back(0);
  layer->num_subtrees = 1;

  for (size_t i = 1; i < n; ++i) {
    uint32_t p = layer->parent[i];
    uint32_t candidate_depth = layer->local_depth[p] + 1;
    bool internal = child_count[i] > 0;
    if (candidate_depth >= f_ - 1 && internal) {
      // Start a new subtree rooted here; remember the split point.
      layer->subtree[i] = layer->num_subtrees++;
      layer->local_depth[i] = 0;
      layer->subtree_source.push_back(p);
      layer->subtree_root.push_back(static_cast<uint32_t>(i));
    } else {
      layer->subtree[i] = layer->subtree[p];
      layer->local_depth[i] = candidate_depth;
    }
  }
}

Status LayeredDeweyScheme::Build(const PhyloTree& tree) {
  layers_.clear();
  if (tree.empty()) return Status::OK();

  // Layer 0: items are tree nodes; the arena guarantees parent < child.
  Layer base;
  base.parent.resize(tree.size());
  base.parent[0] = kNoItem;
  for (NodeId nid = 1; nid < tree.size(); ++nid) {
    base.parent[nid] = tree.parent(nid);
  }
  DecomposeLayer(&base);
  layers_.push_back(std::move(base));

  // Higher layers until a single subtree remains.
  while (layers_.back().num_subtrees > 1) {
    const Layer& below = layers_.back();
    Layer up;
    up.parent.resize(below.num_subtrees);
    up.parent[0] = kNoItem;
    for (uint32_t s = 1; s < below.num_subtrees; ++s) {
      // Parent subtree = subtree containing the source item. Subtree
      // ids increase along preorder of their roots, so parent < child.
      up.parent[s] = below.subtree[below.subtree_source[s]];
      assert(up.parent[s] < s);
    }
    DecomposeLayer(&up);
    layers_.push_back(std::move(up));
    if (layers_.size() > 64) {
      return Status::Internal("layered dewey: runaway layer recursion");
    }
  }
  return Status::OK();
}

namespace {

void PutU32Vector(std::string* dst, const std::vector<uint32_t>& v) {
  PutVarint32(dst, static_cast<uint32_t>(v.size()));
  for (uint32_t x : v) PutVarint32(dst, x);
}

bool GetU32Vector(Slice* input, std::vector<uint32_t>* v) {
  uint32_t n = 0;
  if (!GetVarint32(input, &n)) return false;
  // Sanity bound: every element needs at least one encoded byte.
  if (n > input->size()) return false;
  v->resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (!GetVarint32(input, &(*v)[i])) return false;
  }
  return true;
}

constexpr uint32_t kLayeredDeweyFormatVersion = 1;

}  // namespace

void LayeredDeweyScheme::EncodeTo(std::string* dst) const {
  PutVarint32(dst, kLayeredDeweyFormatVersion);
  PutVarint32(dst, f_);
  PutVarint32(dst, static_cast<uint32_t>(layers_.size()));
  for (const Layer& layer : layers_) {
    PutU32Vector(dst, layer.parent);
    PutU32Vector(dst, layer.ordinal);
    PutU32Vector(dst, layer.subtree);
    PutU32Vector(dst, layer.local_depth);
    PutU32Vector(dst, layer.subtree_source);
    PutU32Vector(dst, layer.subtree_root);
    PutVarint32(dst, layer.num_subtrees);
  }
}

Status LayeredDeweyScheme::DecodeFrom(Slice input) {
  uint32_t version = 0, f = 0, n_layers = 0;
  if (!GetVarint32(&input, &version) ||
      version != kLayeredDeweyFormatVersion) {
    return Status::Corruption("layered dewey blob: bad version");
  }
  if (!GetVarint32(&input, &f) || f < 3) {
    return Status::Corruption("layered dewey blob: bad f");
  }
  if (!GetVarint32(&input, &n_layers) || n_layers > 64) {
    return Status::Corruption("layered dewey blob: bad layer count");
  }
  std::vector<Layer> layers(n_layers);
  for (Layer& layer : layers) {
    if (!GetU32Vector(&input, &layer.parent) ||
        !GetU32Vector(&input, &layer.ordinal) ||
        !GetU32Vector(&input, &layer.subtree) ||
        !GetU32Vector(&input, &layer.local_depth) ||
        !GetU32Vector(&input, &layer.subtree_source) ||
        !GetU32Vector(&input, &layer.subtree_root) ||
        !GetVarint32(&input, &layer.num_subtrees)) {
      return Status::Corruption("layered dewey blob: truncated layer");
    }
    size_t n = layer.parent.size();
    if (layer.ordinal.size() != n || layer.subtree.size() != n ||
        layer.local_depth.size() != n ||
        layer.subtree_source.size() != layer.num_subtrees ||
        layer.subtree_root.size() != layer.num_subtrees) {
      return Status::Corruption("layered dewey blob: inconsistent layer");
    }
  }
  if (!input.empty()) {
    return Status::Corruption("layered dewey blob: trailing bytes");
  }
  // Value/structure validation, so a parsable-but-corrupt blob (bit
  // flips on disk) surfaces as Corruption here -- failing OpenTree --
  // rather than out-of-bounds indexing at query time. Build's
  // invariants: parents precede children, subtree ids are dense and in
  // range, local depths are bounded by f, each layer has one item per
  // subtree of the layer below, and the top layer is a single subtree.
  for (size_t li = 0; li < layers.size(); ++li) {
    const Layer& layer = layers[li];
    size_t n = layer.parent.size();
    if (n == 0 || layer.num_subtrees == 0 || layer.num_subtrees > n) {
      return Status::Corruption("layered dewey blob: bad layer shape");
    }
    if (layer.parent[0] != kNoItem || layer.subtree_source[0] != kNoItem) {
      return Status::Corruption("layered dewey blob: bad layer root");
    }
    for (size_t i = 1; i < n; ++i) {
      if (layer.parent[i] >= i) {
        return Status::Corruption("layered dewey blob: parent out of range");
      }
    }
    for (size_t i = 0; i < n; ++i) {
      if (layer.subtree[i] >= layer.num_subtrees || layer.local_depth[i] >= f) {
        return Status::Corruption("layered dewey blob: label out of range");
      }
    }
    for (uint32_t s = 0; s < layer.num_subtrees; ++s) {
      if ((s > 0 && layer.subtree_source[s] >= n) ||
          layer.subtree_root[s] >= n) {
        return Status::Corruption("layered dewey blob: subtree out of range");
      }
    }
    if (li + 1 < layers.size()) {
      if (layers[li + 1].parent.size() != layer.num_subtrees) {
        return Status::Corruption("layered dewey blob: layer size mismatch");
      }
    } else if (layer.num_subtrees != 1) {
      return Status::Corruption("layered dewey blob: unterminated top layer");
    }
  }
  f_ = f;
  layers_ = std::move(layers);
  return Status::OK();
}

uint32_t LayeredDeweyScheme::WithinSubtreeLca(const Layer& layer, uint32_t a,
                                              uint32_t b) const {
  // Equalize local depths, then walk in lockstep; at most 2(f-1) steps.
  while (layer.local_depth[a] > layer.local_depth[b]) a = layer.parent[a];
  while (layer.local_depth[b] > layer.local_depth[a]) b = layer.parent[b];
  while (a != b) {
    a = layer.parent[a];
    b = layer.parent[b];
  }
  return a;
}

uint32_t LayeredDeweyScheme::ChildOfAncestor(uint32_t layer_idx,
                                             uint32_t item,
                                             uint32_t anc) const {
  const Layer& layer = layers_[layer_idx];
  if (layer.subtree[item] == layer.subtree[anc]) {
    // Both inside one bounded-depth subtree: at most f parent steps.
    while (layer.parent[item] != anc) item = layer.parent[item];
    return item;
  }
  // anc lives in a strictly higher subtree. Find, one layer up, the
  // child of anc's subtree on the path from item's subtree (recursion
  // terminates at the top layer, which has a single subtree).
  uint32_t s_star = ChildOfAncestor(layer_idx + 1, layer.subtree[item],
                                    layer.subtree[anc]);
  // s_star's source is the entry point inside anc's subtree.
  uint32_t src = layer.subtree_source[s_star];
  if (src == anc) return layer.subtree_root[s_star];
  while (layer.parent[src] != anc) src = layer.parent[src];
  return src;
}

uint32_t LayeredDeweyScheme::ClimbIntoSubtree(uint32_t layer_idx, uint32_t a,
                                              uint32_t target) const {
  const Layer& layer = layers_[layer_idx];
  if (layer.subtree[a] == target) return a;
  // At layer k+1, `target` is an item and a proper ancestor of a's
  // subtree; the child of `target` on that path is the subtree whose
  // source is the entry point we want.
  uint32_t s_star =
      ChildOfAncestor(layer_idx + 1, layer.subtree[a], target);
  return layer.subtree_source[s_star];
}

uint32_t LayeredDeweyScheme::LcaAtLayer(uint32_t layer_idx, uint32_t a,
                                        uint32_t b) const {
  const Layer& layer = layers_[layer_idx];
  if (layer.subtree[a] == layer.subtree[b]) {
    return WithinSubtreeLca(layer, a, b);
  }
  // Different subtrees: find the LCA subtree one layer up (items of
  // layer k+1 are exactly the subtrees of layer k), then bring both
  // nodes into that subtree through their source links (paper §2.1),
  // jumping whole layers at a time.
  uint32_t lca_subtree =
      LcaAtLayer(layer_idx + 1, layer.subtree[a], layer.subtree[b]);
  uint32_t a2 = ClimbIntoSubtree(layer_idx, a, lca_subtree);
  uint32_t b2 = ClimbIntoSubtree(layer_idx, b, lca_subtree);
  return WithinSubtreeLca(layer, a2, b2);
}

Result<NodeId> LayeredDeweyScheme::Lca(NodeId a, NodeId b) const {
  if (layers_.empty()) return Status::FailedPrecondition("not built");
  if (a >= node_count() || b >= node_count()) {
    return Status::InvalidArgument("node out of range");
  }
  return static_cast<NodeId>(LcaAtLayer(0, a, b));
}

Result<bool> LayeredDeweyScheme::IsAncestorOrSelf(NodeId anc, NodeId n) const {
  CRIMSON_ASSIGN_OR_RETURN(NodeId l, Lca(anc, n));
  return l == anc;
}

DeweyLabel LayeredDeweyScheme::LocalLabel(NodeId n) const {
  const Layer& layer = layers_[0];
  std::vector<uint32_t> comps(layer.local_depth[n]);
  uint32_t cur = n;
  for (size_t i = comps.size(); i > 0; --i) {
    comps[i - 1] = layer.ordinal[cur];
    cur = layer.parent[cur];
  }
  return DeweyLabel(std::move(comps));
}

size_t LayeredDeweyScheme::LabelBytes(NodeId n) const {
  // Stored label = (subtree id, local Dewey label); the local part has
  // < f components, which is the paper's boundedness claim.
  const Layer& layer = layers_[0];
  size_t bytes = VarintLength(layer.subtree[n]);
  bytes += VarintLength(layer.local_depth[n]);
  uint32_t cur = n;
  for (uint32_t i = 0; i < layer.local_depth[n]; ++i) {
    bytes += VarintLength(layer.ordinal[cur]);
    cur = layer.parent[cur];
  }
  return bytes;
}

}  // namespace crimson
