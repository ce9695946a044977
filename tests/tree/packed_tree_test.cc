// Differential tests for the packed structure-of-arrays PhyloTree:
// every observable behaviour (traversal orders, child order, names,
// serialization bytes, persistence) is checked against an independent
// reference implementation that stores children as per-node vectors --
// the shape of the pre-refactor layout. Randomized cases run over
// Yule / birth-death / random-attachment trees; *Stress* variants dial
// the sizes up and run under `ctest -C stress -L stress`.

#include "tree/phylo_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "common/random.h"
#include "crimson/repositories.h"
#include "labeling/layered_dewey.h"
#include "sim/tree_sim.h"
#include "tree/newick.h"
#include "tree/nexus.h"
#include "tree/tree_builders.h"

namespace crimson {
namespace {

// ---------------------------------------------------------------------------
// Reference implementation: per-node child vectors, heap-string names.
// Traversals use the textbook algorithms (explicit child lists), not the
// packed tree's sibling-chain trick, so agreement is meaningful.

struct RefTree {
  struct Node {
    std::string name;
    double edge = 0.0;
    NodeId parent = kNoNode;
    std::vector<NodeId> children;
  };
  std::vector<Node> nodes;

  NodeId AddRoot(std::string name, double edge) {
    nodes.push_back({std::move(name), edge, kNoNode, {}});
    return 0;
  }
  NodeId AddChild(NodeId parent, std::string name, double edge) {
    NodeId id = static_cast<NodeId>(nodes.size());
    nodes.push_back({std::move(name), edge, parent, {}});
    nodes[parent].children.push_back(id);
    return id;
  }

  std::vector<NodeId> PreOrderFrom(NodeId start) const {
    std::vector<NodeId> out, stack = {start};
    while (!stack.empty()) {
      NodeId n = stack.back();
      stack.pop_back();
      out.push_back(n);
      const auto& ch = nodes[n].children;
      for (auto it = ch.rbegin(); it != ch.rend(); ++it) stack.push_back(*it);
    }
    return out;
  }

  std::vector<NodeId> PostOrderFrom(NodeId start) const {
    // Reverse of the preorder that pushes children in forward order.
    std::vector<NodeId> out, stack = {start};
    while (!stack.empty()) {
      NodeId n = stack.back();
      stack.pop_back();
      out.push_back(n);
      for (NodeId c : nodes[n].children) stack.push_back(c);
    }
    std::reverse(out.begin(), out.end());
    return out;
  }
};

/// Builds a random tree through both implementations with identical
/// calls: random attachment biased toward recent nodes (deep chains),
/// names drawn from a small pool including duplicates and empties.
void BuildRandomPair(uint32_t n_nodes, Rng* rng, PhyloTree* packed,
                     RefTree* ref) {
  auto pick_name = [&]() -> std::string {
    switch (rng->Uniform(5)) {
      case 0:
        return "";  // unnamed internal/leaf
      case 1:
        return "dup";  // deliberately duplicated
      default:
        return "taxon_" + std::to_string(rng->Uniform(n_nodes));
    }
  };
  packed->AddRoot("root", 0.0);
  ref->AddRoot("root", 0.0);
  for (uint32_t i = 1; i < n_nodes; ++i) {
    // Bias toward recent ids so trees get deep, not star-shaped.
    NodeId parent = rng->OneIn(3)
                        ? static_cast<NodeId>(rng->Uniform(i))
                        : static_cast<NodeId>(i - 1 - rng->Uniform(
                              std::min<uint64_t>(i, 4)));
    std::string name = pick_name();
    double edge = static_cast<double>(rng->Uniform(1000)) / 256.0;
    NodeId a = packed->AddChild(parent, name, edge);
    NodeId b = ref->AddChild(parent, std::move(name), edge);
    ASSERT_EQ(a, b);
  }
}

/// Derives the reference view of an already-built packed tree (children
/// in node order -- the documented insertion order invariant).
RefTree MirrorFromParents(const PhyloTree& t) {
  RefTree ref;
  ref.nodes.resize(t.size());
  for (NodeId n = 0; n < t.size(); ++n) {
    ref.nodes[n].name = std::string(t.name(n));
    ref.nodes[n].edge = t.edge_length(n);
    ref.nodes[n].parent = t.parent(n);
    if (n != 0) ref.nodes[t.parent(n)].children.push_back(n);
  }
  return ref;
}

std::vector<NodeId> CollectPre(const PhyloTree& t, NodeId start = 0) {
  std::vector<NodeId> out;
  t.PreOrder(
      [&](NodeId n) {
        out.push_back(n);
        return true;
      },
      start);
  return out;
}

std::vector<NodeId> CollectPost(const PhyloTree& t, NodeId start = 0) {
  std::vector<NodeId> out;
  t.PostOrder(
      [&](NodeId n) {
        out.push_back(n);
        return true;
      },
      start);
  return out;
}

void ExpectParity(const PhyloTree& packed, const RefTree& ref, Rng* rng) {
  ASSERT_EQ(packed.size(), ref.nodes.size());
  EXPECT_EQ(CollectPre(packed), ref.PreOrderFrom(0));
  EXPECT_EQ(CollectPost(packed), ref.PostOrderFrom(0));
  for (NodeId n = 0; n < packed.size(); ++n) {
    EXPECT_EQ(packed.parent(n), ref.nodes[n].parent);
    EXPECT_EQ(packed.name(n), ref.nodes[n].name);
    EXPECT_DOUBLE_EQ(packed.edge_length(n), ref.nodes[n].edge);
    EXPECT_EQ(packed.Children(n), ref.nodes[n].children);
    EXPECT_EQ(packed.OutDegree(n), ref.nodes[n].children.size());
    EXPECT_EQ(packed.is_leaf(n), ref.nodes[n].children.empty());
  }
  // Subtree traversals from a handful of random interior starts.
  for (int i = 0; i < 8; ++i) {
    NodeId start = static_cast<NodeId>(rng->Uniform(packed.size()));
    EXPECT_EQ(CollectPre(packed, start), ref.PreOrderFrom(start));
    EXPECT_EQ(CollectPost(packed, start), ref.PostOrderFrom(start));
  }
}

void RunTraversalParity(int n_trees, uint32_t max_nodes, uint64_t seed) {
  Rng rng(seed);
  for (int i = 0; i < n_trees; ++i) {
    PhyloTree packed;
    RefTree ref;
    uint32_t n = 2 + static_cast<uint32_t>(rng.Uniform(max_nodes));
    BuildRandomPair(n, &rng, &packed, &ref);
    ASSERT_TRUE(packed.Validate().ok());
    ExpectParity(packed, ref, &rng);
    // The same tree after ShrinkToFit (accelerator dropped) and after a
    // post-shrink append (accelerator rebuilt lazily) must still agree.
    packed.ShrinkToFit();
    ExpectParity(packed, ref, &rng);
    NodeId p = static_cast<NodeId>(rng.Uniform(packed.size()));
    packed.AddChild(p, "late", 1.0);
    ref.AddChild(p, "late", 1.0);
    ExpectParity(packed, ref, &rng);
  }
}

TEST(PackedTreeDifferential, TraversalParityRandomTrees) {
  RunTraversalParity(/*n_trees=*/25, /*max_nodes=*/200, 0xD1FF);
}

TEST(PackedTreeDifferential, TraversalParityStress) {
  RunTraversalParity(/*n_trees=*/40, /*max_nodes=*/5000, 0x57E55);
}

TEST(PackedTreeDifferential, SimulatedTreesMatchReferenceTraversals) {
  Rng rng(0x51A1);
  YuleOptions yule;
  yule.n_leaves = 500;
  auto yt = SimulateYule(yule, &rng);
  ASSERT_TRUE(yt.ok());
  BirthDeathOptions bd;
  bd.n_leaves = 300;
  auto bt = SimulateBirthDeath(bd, &rng);
  ASSERT_TRUE(bt.ok());
  for (const PhyloTree* t : {&*yt, &*bt}) {
    RefTree ref = MirrorFromParents(*t);
    EXPECT_EQ(CollectPre(*t), ref.PreOrderFrom(0));
    EXPECT_EQ(CollectPost(*t), ref.PostOrderFrom(0));
    // Leaves() is preorder-ordered leaf extraction.
    std::vector<NodeId> ref_leaves;
    for (NodeId n : ref.PreOrderFrom(0)) {
      if (ref.nodes[n].children.empty()) ref_leaves.push_back(n);
    }
    EXPECT_EQ(t->Leaves(), ref_leaves);
    std::vector<uint32_t> ranks = t->PreOrderRanks();
    std::vector<NodeId> pre = ref.PreOrderFrom(0);
    for (uint32_t r = 0; r < pre.size(); ++r) EXPECT_EQ(ranks[pre[r]], r);
  }
}

TEST(PackedTreeDifferential, EarlyExitStopsTraversal) {
  PhyloTree t = MakeBalancedBinary(4);
  int pre_seen = 0;
  t.PreOrder([&](NodeId) { return ++pre_seen < 5; });
  EXPECT_EQ(pre_seen, 5);
  int post_seen = 0;
  t.PostOrder([&](NodeId) { return ++post_seen < 3; });
  EXPECT_EQ(post_seen, 3);
}

TEST(PackedTreeDifferential, VisitorsAreTemplated) {
  // The visitors must accept arbitrary callables (no std::function in
  // the signature) and OutDegree must be the packed uint32_t.
  PhyloTree t = MakePaperFigure1Tree();
  static_assert(std::is_same_v<decltype(t.OutDegree(0)), uint32_t>,
                "OutDegree must return uint32_t");
  struct Counter {
    int* n;
    bool operator()(NodeId) const {
      ++*n;
      return true;
    }
  };
  int visits = 0;
  t.PreOrder(Counter{&visits});
  EXPECT_EQ(visits, static_cast<int>(t.size()));
}

// ---------------------------------------------------------------------------
// Serialization byte-identity.

TEST(PackedTreeDifferential, NewickRoundTripByteIdentical) {
  Rng rng(0x4E3);
  YuleOptions yule;
  yule.n_leaves = 200;
  auto t = SimulateYule(yule, &rng);
  ASSERT_TRUE(t.ok());
  // Mix in names that need quoting.
  t->set_name(*t->Leaves().begin(), "needs space");
  t->set_name(t->Leaves().back(), "quote's");
  const std::string once = WriteNewick(*t);
  auto reparsed = ParseNewick(once);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(WriteNewick(*reparsed), once);
  EXPECT_TRUE(PhyloTree::Equal(*t, *reparsed, 1e-9, /*ordered=*/true));
}

TEST(PackedTreeDifferential, NexusRoundTripByteIdentical) {
  NexusDocument doc;
  doc.taxa = {"Bha", "Lla", "Spy", "Syn", "Bsu"};
  doc.trees.push_back({"fig1", MakePaperFigure1Tree()});
  doc.sequences["Bha"] = "ACGT";
  doc.sequences["Lla"] = "ACGA";
  const std::string once = WriteNexus(doc);
  auto reparsed = ParseNexus(once);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(WriteNexus(*reparsed), once);
}

// ---------------------------------------------------------------------------
// Packed construction, mutation, and codec paths.

TEST(PackedTree, FromPackedRoundTrip) {
  Rng rng(0xF00D);
  PhyloTree t;
  RefTree ref;
  BuildRandomPair(300, &rng, &t, &ref);
  auto rebuilt = PhyloTree::FromPacked(
      t.parents(), t.edge_lengths(), t.name_offsets(),
      std::string(t.name_arena()));
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  ASSERT_TRUE(rebuilt->Validate().ok());
  EXPECT_TRUE(PhyloTree::Equal(t, *rebuilt, 1e-12, /*ordered=*/true));
  EXPECT_EQ(CollectPre(t), CollectPre(*rebuilt));
  EXPECT_EQ(rebuilt->name_arena(), t.name_arena());
}

TEST(PackedTree, FromPackedRejectsMalformedInput) {
  std::string arena("\0ok\0", 4);
  // Root with a parent.
  EXPECT_FALSE(
      PhyloTree::FromPacked({0, 0}, {0, 1}, {0, 1}, arena).ok());
  // Parent does not precede child.
  EXPECT_FALSE(
      PhyloTree::FromPacked({kNoNode, 2, 0}, {0, 1, 1}, {0, 1, 0}, arena)
          .ok());
  // Name offset out of bounds.
  EXPECT_FALSE(
      PhyloTree::FromPacked({kNoNode, 0}, {0, 1}, {0, 99}, arena).ok());
  // Arena not NUL-framed.
  EXPECT_FALSE(PhyloTree::FromPacked({kNoNode, 0}, {0, 1}, {0, 1},
                                     std::string("\0ok", 3))
                   .ok());
  // Arena byte 0 not NUL (offset 0 must be the shared empty name).
  EXPECT_FALSE(PhyloTree::FromPacked({kNoNode, 0}, {0, 1}, {0, 1},
                                     std::string("xok\0", 4))
                   .ok());
  // Well-formed input still accepted.
  EXPECT_TRUE(
      PhyloTree::FromPacked({kNoNode, 0}, {0, 1}, {0, 1}, arena).ok());
}

TEST(PackedTree, SetNameInPlaceAndGrowPaths) {
  PhyloTree t;
  t.AddRoot("root");
  NodeId a = t.AddChild(0, "alpha", 1.0);
  NodeId b = t.AddChild(0, "beta", 1.0);
  // Shorter or equal: overwritten in place, neighbours untouched.
  t.set_name(a, "al");
  EXPECT_EQ(t.name(a), "al");
  EXPECT_EQ(t.name(0), "root");
  EXPECT_EQ(t.name(b), "beta");
  // Longer: re-interned at the arena tail.
  t.set_name(a, "alphabetical");
  EXPECT_EQ(t.name(a), "alphabetical");
  EXPECT_EQ(t.name(b), "beta");
  // Clearing maps to the shared empty name at offset 0.
  t.set_name(b, "");
  EXPECT_EQ(t.name(b), "");
  EXPECT_EQ(t.name_offset(b), 0u);
  EXPECT_TRUE(t.Validate().ok());
}

TEST(PackedTree, ReserveCoversNameBytes) {
  PhyloTree t;
  t.Reserve(100, 2000);
  EXPECT_GE(t.name_arena().capacity(), 2000u);
  const char* arena_before = t.name_arena().data();
  t.AddRoot("r");
  for (int i = 0; i < 99; ++i) {
    t.AddChild(0, "leaf_number_" + std::to_string(i), 1.0);
  }
  // Under-budget build must not have reallocated the arena.
  EXPECT_EQ(t.name_arena().data(), arena_before);
  EXPECT_EQ(t.size(), 100u);
  EXPECT_TRUE(t.Validate().ok());
}

TEST(PackedTree, FootprintIsAtLeastFixedColumns) {
  PhyloTree t = MakeBalancedBinary(6);
  EXPECT_GE(t.MemoryFootprintBytes(), t.size() * 24);
}

void RunCodecRoundTrip(uint32_t n_nodes, uint64_t seed) {
  Rng rng(seed);
  PhyloTree t;
  RefTree ref;
  BuildRandomPair(n_nodes, &rng, &t, &ref);
  t.ShrinkToFit();
  std::string blob;
  EncodePackedTree(t, &blob);
  Slice in(blob);
  auto back = DecodePackedTree(&in);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_TRUE(in.empty());
  EXPECT_TRUE(PhyloTree::Equal(t, *back, 1e-12, /*ordered=*/true));
  EXPECT_EQ(back->name_arena(), t.name_arena());
  for (NodeId n = 0; n < t.size(); ++n) {
    EXPECT_EQ(back->name_offset(n), t.name_offset(n));
  }
}

TEST(PackedTreeCodec, RoundTrip) { RunCodecRoundTrip(400, 0xC0DE); }

TEST(PackedTreeCodec, RoundTripStress) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    RunCodecRoundTrip(3000, 0xC0DE00 + seed);
  }
}

TEST(PackedTreeCodec, RejectsCorruptBlobs) {
  PhyloTree t = MakePaperFigure1Tree();
  std::string blob;
  EncodePackedTree(t, &blob);
  // Truncations at every boundary-ish point must fail cleanly, never
  // crash or return a malformed tree.
  for (size_t len : {size_t{0}, size_t{1}, blob.size() / 2,
                     blob.size() - 1}) {
    Slice in(blob.data(), len);
    auto r = DecodePackedTree(&in);
    EXPECT_FALSE(r.ok()) << "len=" << len;
  }
  // Flipping the trailing arena byte (the final NUL) breaks framing.
  std::string bad = blob;
  bad.back() = 'x';
  Slice in(bad);
  EXPECT_FALSE(DecodePackedTree(&in).ok());
}

// ---------------------------------------------------------------------------
// Persistence: labels survive a store/load cycle byte-identically via
// the packed blob (no re-interning).

TEST(PackedTreePersistence, StoredLabelsReopenByteIdentical) {
  auto db = Database::OpenInMemory();
  ASSERT_TRUE(db.ok());
  auto trees = TreeRepository::Open(db->get());
  ASSERT_TRUE(trees.ok());

  Rng rng(0x5709E);
  PhyloTree t;
  RefTree ref;
  BuildRandomPair(250, &rng, &t, &ref);
  // StoreTree rejects duplicate leaf names, so repeated leaf names are
  // renamed; internal nodes keep theirs, and the dead bytes the renames
  // leave in the arena must survive the round trip too.
  std::set<std::string> seen;
  for (NodeId n = 0; n < t.size(); ++n) {
    if (t.is_leaf(n) && !t.name(n).empty() &&
        !seen.insert(std::string(t.name(n))).second) {
      t.set_name(n, "leaf_" + std::to_string(n));
    }
  }
  t.ShrinkToFit();
  LayeredDeweyScheme scheme(4);
  ASSERT_TRUE(scheme.Build(t).ok());
  auto id = (*trees)->StoreTree("packed", t, scheme);
  ASSERT_TRUE(id.ok()) << id.status();

  auto loaded = (*trees)->LoadTree(*id);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(PhyloTree::Equal(t, *loaded, 1e-12, /*ordered=*/true));
  // The blob fast path hands back the arena bytes exactly as stored.
  EXPECT_EQ(loaded->name_arena(), t.name_arena());
  for (NodeId n = 0; n < t.size(); ++n) {
    EXPECT_EQ(loaded->name_offset(n), t.name_offset(n));
  }
}

}  // namespace
}  // namespace crimson
