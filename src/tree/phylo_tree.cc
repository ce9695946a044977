#include "tree/phylo_tree.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

#include "common/coding.h"
#include "common/string_util.h"

namespace crimson {

uint32_t PhyloTree::InternName(std::string_view name) {
  if (name_arena_.empty()) name_arena_.push_back('\0');
  if (name.empty()) return 0;
  uint32_t off = static_cast<uint32_t>(name_arena_.size());
  name_arena_.append(name.data(), name.size());
  name_arena_.push_back('\0');
  return off;
}

NodeId PhyloTree::AddRoot(std::string_view name, double edge_length) {
  assert(parent_.empty() && "AddRoot on non-empty tree");
  uint32_t off = InternName(name);
  parent_.push_back(kNoNode);
  first_child_.push_back(kNoNode);
  next_sibling_.push_back(kNoNode);
  edge_length_.push_back(edge_length);
  name_offset_.push_back(off);
  last_child_.push_back(kNoNode);
  return 0;
}

NodeId PhyloTree::AddChild(NodeId parent, std::string_view name,
                           double edge_length) {
  assert(parent < parent_.size());
  if (last_child_.size() != parent_.size()) RebuildLastChild();
  NodeId id = static_cast<NodeId>(parent_.size());
  uint32_t off = InternName(name);
  parent_.push_back(parent);
  first_child_.push_back(kNoNode);
  next_sibling_.push_back(kNoNode);
  edge_length_.push_back(edge_length);
  name_offset_.push_back(off);
  last_child_.push_back(kNoNode);
  if (first_child_[parent] == kNoNode) {
    first_child_[parent] = id;
  } else {
    next_sibling_[last_child_[parent]] = id;
  }
  last_child_[parent] = id;
  return id;
}

void PhyloTree::RebuildLastChild() {
  last_child_.assign(parent_.size(), kNoNode);
  // Children append in node order, so a node's last child is simply its
  // highest-id child.
  for (size_t i = 1; i < parent_.size(); ++i) {
    last_child_[parent_[i]] = static_cast<NodeId>(i);
  }
}

void PhyloTree::Reserve(size_t n, size_t name_bytes) {
  parent_.reserve(n);
  first_child_.reserve(n);
  next_sibling_.reserve(n);
  edge_length_.reserve(n);
  name_offset_.reserve(n);
  last_child_.reserve(n);
  if (name_bytes > 0) {
    // +1 for the shared empty label at offset 0, +n NUL terminators.
    name_arena_.reserve(1 + name_bytes + n);
  }
}

void PhyloTree::ShrinkToFit() {
  parent_.shrink_to_fit();
  first_child_.shrink_to_fit();
  next_sibling_.shrink_to_fit();
  edge_length_.shrink_to_fit();
  name_offset_.shrink_to_fit();
  name_arena_.shrink_to_fit();
  last_child_.clear();
  last_child_.shrink_to_fit();
}

void PhyloTree::set_name(NodeId n, std::string_view name) {
  uint32_t off = name_offset_[n];
  if (name.empty()) {
    if (name_arena_.empty()) name_arena_.push_back('\0');
    name_offset_[n] = 0;
    return;
  }
  if (off != 0 && name.size() <= std::strlen(name_arena_.c_str() + off)) {
    // Overwrite in place when the new label fits (renames during
    // simulation rewrites hit this path); shorter labels re-terminate.
    std::memcpy(&name_arena_[off], name.data(), name.size());
    name_arena_[off + name.size()] = '\0';
    return;
  }
  name_offset_[n] = InternName(name);
}

Result<PhyloTree> PhyloTree::FromPacked(std::vector<NodeId> parents,
                                        std::vector<double> edge_lengths,
                                        std::vector<uint32_t> name_offsets,
                                        std::string name_arena) {
  size_t n = parents.size();
  if (edge_lengths.size() != n || name_offsets.size() != n) {
    return Status::InvalidArgument("packed tree: column length mismatch");
  }
  if (n == 0) {
    if (name_arena.empty()) return PhyloTree();
    return Status::InvalidArgument("packed tree: name arena without nodes");
  }
  if (name_arena.empty() || name_arena[0] != '\0' ||
      name_arena.back() != '\0') {
    return Status::InvalidArgument("packed tree: malformed name arena");
  }
  if (parents[0] != kNoNode) {
    return Status::InvalidArgument("packed tree: root has a parent");
  }
  for (size_t i = 1; i < n; ++i) {
    if (parents[i] >= i) {
      return Status::InvalidArgument(
          "packed tree: parent does not precede child");
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (name_offsets[i] >= name_arena.size()) {
      return Status::InvalidArgument(
          "packed tree: name offset out of bounds");
    }
  }
  PhyloTree tree;
  tree.parent_ = std::move(parents);
  tree.edge_length_ = std::move(edge_lengths);
  tree.name_offset_ = std::move(name_offsets);
  tree.name_arena_ = std::move(name_arena);
  tree.first_child_.assign(n, kNoNode);
  tree.next_sibling_.assign(n, kNoNode);
  // Children-in-insertion-order is node order, so one ascending pass
  // threading each child after its parent's current last child rebuilds
  // both link columns.
  std::vector<NodeId> last(n, kNoNode);
  for (size_t i = 1; i < n; ++i) {
    NodeId p = tree.parent_[i];
    NodeId id = static_cast<NodeId>(i);
    if (tree.first_child_[p] == kNoNode) {
      tree.first_child_[p] = id;
    } else {
      tree.next_sibling_[last[p]] = id;
    }
    last[p] = id;
  }
  return tree;
}

void EncodePackedTree(const PhyloTree& tree, std::string* dst) {
  const size_t n = tree.size();
  PutVarint32(dst, kPackedTreeVersion);
  PutVarint64(dst, n);
  PutVarint64(dst, tree.name_arena().size());
  dst->reserve(dst->size() + n * 16 + tree.name_arena().size());
  for (NodeId p : tree.parents()) PutFixed32(dst, p);
  for (double e : tree.edge_lengths()) PutDouble(dst, e);
  for (uint32_t off : tree.name_offsets()) PutFixed32(dst, off);
  dst->append(tree.name_arena());
}

Result<PhyloTree> DecodePackedTree(Slice* in) {
  uint32_t version = 0;
  uint64_t count = 0, arena_size = 0;
  if (!GetVarint32(in, &version) || !GetVarint64(in, &count) ||
      !GetVarint64(in, &arena_size)) {
    return Status::InvalidArgument("packed tree: truncated header");
  }
  if (version != kPackedTreeVersion) {
    return Status::InvalidArgument(
        StrFormat("packed tree: unknown version %u", version));
  }
  // Fixed-width columns let the size check precede any allocation;
  // dividing instead of multiplying keeps a hostile count from
  // overflowing past it.
  if (count > in->size() / 16 || arena_size > in->size() - count * 16) {
    return Status::InvalidArgument("packed tree: sizes exceed the input");
  }
  std::vector<NodeId> parents(count);
  std::vector<double> edges(count);
  std::vector<uint32_t> offsets(count);
  for (uint64_t i = 0; i < count; ++i) GetFixed32(in, &parents[i]);
  for (uint64_t i = 0; i < count; ++i) GetDouble(in, &edges[i]);
  for (uint64_t i = 0; i < count; ++i) GetFixed32(in, &offsets[i]);
  std::string arena(in->data(), arena_size);
  in->remove_prefix(arena_size);
  return PhyloTree::FromPacked(std::move(parents), std::move(edges),
                               std::move(offsets), std::move(arena));
}

uint32_t PhyloTree::OutDegree(NodeId n) const {
  uint32_t d = 0;
  for (NodeId c = first_child_[n]; c != kNoNode; c = next_sibling_[c]) {
    ++d;
  }
  return d;
}

std::vector<NodeId> PhyloTree::Children(NodeId n) const {
  std::vector<NodeId> out;
  for (NodeId c = first_child_[n]; c != kNoNode; c = next_sibling_[c]) {
    out.push_back(c);
  }
  return out;
}

std::vector<uint32_t> PhyloTree::PreOrderRanks() const {
  std::vector<uint32_t> rank(parent_.size(), 0);
  uint32_t next = 0;
  PreOrder([&](NodeId n) {
    rank[n] = next++;
    return true;
  });
  return rank;
}

std::vector<uint32_t> PhyloTree::Depths() const {
  std::vector<uint32_t> depth(parent_.size(), 0);
  // Arena order guarantees parents precede children.
  for (size_t i = 1; i < parent_.size(); ++i) {
    depth[i] = depth[parent_[i]] + 1;
  }
  return depth;
}

std::vector<double> PhyloTree::RootPathWeights() const {
  std::vector<double> w(parent_.size(), 0.0);
  for (size_t i = 1; i < parent_.size(); ++i) {
    w[i] = w[parent_[i]] + edge_length_[i];
  }
  return w;
}

std::vector<NodeId> PhyloTree::Leaves() const {
  std::vector<NodeId> out;
  PreOrder([&](NodeId n) {
    if (is_leaf(n)) out.push_back(n);
    return true;
  });
  return out;
}

size_t PhyloTree::LeafCount() const {
  size_t n = 0;
  for (size_t i = 0; i < first_child_.size(); ++i) {
    if (first_child_[i] == kNoNode) ++n;
  }
  return n;
}

uint32_t PhyloTree::MaxDepth() const {
  uint32_t best = 0;
  std::vector<uint32_t> d = Depths();
  for (uint32_t v : d) best = std::max(best, v);
  return best;
}

NodeId PhyloTree::FindByName(std::string_view name) const {
  for (size_t i = 0; i < parent_.size(); ++i) {
    if (this->name(static_cast<NodeId>(i)) == name) {
      return static_cast<NodeId>(i);
    }
  }
  return kNoNode;
}

size_t PhyloTree::MemoryFootprintBytes() const {
  return parent_.capacity() * sizeof(NodeId) +
         first_child_.capacity() * sizeof(NodeId) +
         next_sibling_.capacity() * sizeof(NodeId) +
         edge_length_.capacity() * sizeof(double) +
         name_offset_.capacity() * sizeof(uint32_t) +
         last_child_.capacity() * sizeof(NodeId) + name_arena_.capacity();
}

NodeId PhyloTree::NaiveLca(NodeId a, NodeId b) const {
  std::vector<uint32_t> depth = Depths();
  while (a != b) {
    if (depth[a] >= depth[b]) {
      a = parent_[a];
    } else {
      b = parent_[b];
    }
  }
  return a;
}

bool PhyloTree::IsAncestorOrSelf(NodeId anc, NodeId n) const {
  while (n != kNoNode) {
    if (n == anc) return true;
    n = parent_[n];
  }
  return false;
}

namespace {

/// Canonical string of a subtree: name, edge length (rounded), and the
/// sorted canonical forms of children. Used for unordered comparison.
std::string Canonical(const PhyloTree& t, NodeId n, double eps) {
  std::vector<std::string> kids;
  for (NodeId c = t.first_child(n); c != kNoNode; c = t.next_sibling(c)) {
    kids.push_back(Canonical(t, c, eps));
  }
  std::sort(kids.begin(), kids.end());
  // Quantize the edge length by eps so nearly-equal weights compare equal.
  long long q = eps > 0 ? std::llround(t.edge_length(n) / eps) : 0;
  std::string out = "(";
  out += t.name(n);
  out += ":";
  out += std::to_string(q);
  for (const std::string& k : kids) out += k;
  out += ")";
  return out;
}

bool OrderedEqual(const PhyloTree& a, NodeId na, const PhyloTree& b, NodeId nb,
                  double eps) {
  if (a.name(na) != b.name(nb)) return false;
  if (std::fabs(a.edge_length(na) - b.edge_length(nb)) > eps) return false;
  NodeId ca = a.first_child(na), cb = b.first_child(nb);
  while (ca != kNoNode && cb != kNoNode) {
    if (!OrderedEqual(a, ca, b, cb, eps)) return false;
    ca = a.next_sibling(ca);
    cb = b.next_sibling(cb);
  }
  return ca == kNoNode && cb == kNoNode;
}

}  // namespace

bool PhyloTree::Equal(const PhyloTree& a, const PhyloTree& b, double eps,
                      bool ordered) {
  if (a.empty() || b.empty()) return a.empty() == b.empty();
  if (a.size() != b.size()) return false;
  if (ordered) return OrderedEqual(a, a.root(), b, b.root(), eps);
  return Canonical(a, a.root(), eps) == Canonical(b, b.root(), eps);
}

Status PhyloTree::Validate() const {
  if (parent_.empty()) return Status::OK();
  if (parent_[0] != kNoNode) {
    return Status::Corruption("root has a parent");
  }
  size_t reachable = 0;
  PreOrder([&](NodeId) {
    ++reachable;
    return true;
  });
  if (reachable != parent_.size()) {
    return Status::Corruption(
        StrFormat("%zu of %zu nodes reachable from root", reachable,
                  parent_.size()));
  }
  // Child lists must agree with parent pointers.
  for (size_t i = 0; i < parent_.size(); ++i) {
    for (NodeId c = first_child_[i]; c != kNoNode; c = next_sibling_[c]) {
      if (parent_[c] != static_cast<NodeId>(i)) {
        return Status::Corruption("child/parent pointer mismatch");
      }
    }
  }
  // Name offsets must land inside the arena.
  for (size_t i = 0; i < name_offset_.size(); ++i) {
    if (name_offset_[i] >= name_arena_.size()) {
      return Status::Corruption("name offset out of arena bounds");
    }
  }
  return Status::OK();
}

}  // namespace crimson
