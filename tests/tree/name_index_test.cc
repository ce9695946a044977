// NameIndex differential tests: every lookup must agree byte-for-byte
// with the linear-scan oracles it replaced (PhyloTree::FindByName and a
// keep-first leaf map), including the awkward cases -- duplicate names,
// internal/leaf name collisions, empty names, missing names. *Stress*
// variants run many randomized trees with small name pools so
// collisions are dense.

#include "tree/name_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "sim/tree_sim.h"
#include "tree/tree_builders.h"

namespace crimson {
namespace {

/// Oracle for FindLeaf: first leaf in node (= arena) order per name.
std::map<std::string, NodeId> KeepFirstLeafMap(const PhyloTree& t) {
  std::map<std::string, NodeId> out;
  for (NodeId n = 0; n < t.size(); ++n) {
    if (!t.is_leaf(n) || t.name(n).empty()) continue;
    out.emplace(std::string(t.name(n)), n);  // keeps the first
  }
  return out;
}

/// All distinct names in the tree plus a few guaranteed misses.
std::vector<std::string> ProbeNames(const PhyloTree& t) {
  std::set<std::string> names;
  for (NodeId n = 0; n < t.size(); ++n) {
    names.insert(std::string(t.name(n)));
  }
  std::vector<std::string> out(names.begin(), names.end());
  out.push_back("definitely-not-a-taxon");
  out.push_back("Taxon_miss");
  out.push_back("");
  return out;
}

void ExpectOracleParity(const PhyloTree& t) {
  NameIndex index = NameIndex::Build(t);
  std::map<std::string, NodeId> leaf_oracle = KeepFirstLeafMap(t);
  for (const std::string& name : ProbeNames(t)) {
    EXPECT_EQ(index.Find(t, name), t.FindByName(name)) << "'" << name << "'";
    auto it = leaf_oracle.find(name);
    NodeId want = it == leaf_oracle.end() ? kNoNode : it->second;
    if (!name.empty()) {
      EXPECT_EQ(index.FindLeaf(t, name), want) << "'" << name << "'";
    }
  }
}

TEST(NameIndex, FindMatchesFindByNameOnFigure1) {
  PhyloTree t = MakePaperFigure1Tree();
  ExpectOracleParity(t);
  NameIndex index = NameIndex::Build(t);
  EXPECT_EQ(index.Find(t, "Nope"), kNoNode);
  EXPECT_FALSE(index.has_duplicate_leaf_names());
  EXPECT_FALSE(index.has_unnamed_leaf());
}

TEST(NameIndex, FirstOccurrenceSemanticsUnderDuplicates) {
  // dup appears as an internal node (first), then two leaves.
  PhyloTree t;
  t.AddRoot("root");
  NodeId inner = t.AddChild(0, "dup", 1.0);        // node 1, internal
  NodeId leaf_a = t.AddChild(inner, "dup", 1.0);   // node 2, first leaf
  NodeId leaf_b = t.AddChild(0, "dup", 1.0);       // node 3, second leaf
  t.AddChild(0, "solo", 1.0);
  NameIndex index = NameIndex::Build(t);

  // Find == FindByName: the first *node* bearing the name.
  EXPECT_EQ(index.Find(t, "dup"), inner);
  EXPECT_EQ(t.FindByName("dup"), inner);
  // FindLeaf: the first *leaf*, skipping the internal occurrence.
  EXPECT_EQ(index.FindLeaf(t, "dup"), leaf_a);
  EXPECT_NE(index.FindLeaf(t, "dup"), leaf_b);

  EXPECT_TRUE(index.has_duplicate_leaf_names());
  EXPECT_EQ(index.DuplicateLeafNames(t),
            std::vector<std::string>{"dup"});
}

TEST(NameIndex, InternalOnlyNameIsNotALeafMatch) {
  PhyloTree t;
  t.AddRoot("root");
  NodeId clade = t.AddChild(0, "Clade9", 1.0);
  t.AddChild(clade, "A", 1.0);
  t.AddChild(clade, "B", 1.0);
  NameIndex index = NameIndex::Build(t);
  EXPECT_EQ(index.Find(t, "Clade9"), clade);
  EXPECT_EQ(index.FindLeaf(t, "Clade9"), kNoNode);
  EXPECT_FALSE(index.has_duplicate_leaf_names());
}

TEST(NameIndex, EmptyNamesFallBackToLinearScanSemantics) {
  PhyloTree t;
  t.AddRoot("");  // unnamed root
  t.AddChild(0, "A", 1.0);
  NodeId unnamed_leaf = t.AddChild(0, "", 1.0);
  NameIndex index = NameIndex::Build(t);
  // FindByName("") returns the first node with an empty name (the
  // root); the index must preserve that exactly.
  EXPECT_EQ(index.Find(t, ""), t.FindByName(""));
  EXPECT_EQ(index.Find(t, ""), 0u);
  EXPECT_TRUE(index.has_unnamed_leaf());
  EXPECT_EQ(unnamed_leaf, 2u);
}

TEST(NameIndex, SortedLeafNamesMatchesManualScan) {
  Rng rng(0x1EAF);
  BirthDeathOptions bd;
  bd.n_leaves = 200;
  auto t = SimulateBirthDeath(bd, &rng);
  ASSERT_TRUE(t.ok());
  t->set_name(t->Leaves()[3], "");  // one unnamed leaf
  NameIndex index = NameIndex::Build(*t);

  std::set<std::string> manual;
  for (NodeId leaf : t->Leaves()) manual.insert(std::string(t->name(leaf)));
  std::vector<std::string> want(manual.begin(), manual.end());
  ASSERT_EQ(want.front(), "");
  EXPECT_EQ(index.SortedLeafNames(*t), want);
  EXPECT_TRUE(index.has_unnamed_leaf());
}

TEST(NameIndex, DistinctNamesCountsUniqueNonEmpty) {
  PhyloTree t;
  t.AddRoot("");
  t.AddChild(0, "A", 1.0);
  t.AddChild(0, "A", 1.0);
  t.AddChild(0, "B", 1.0);
  NameIndex index = NameIndex::Build(t);
  EXPECT_EQ(index.distinct_names(), 2u);
}

TEST(NameIndex, SurvivesTreeMove) {
  // The index stores offsets, not pointers into a specific tree object:
  // lookups against the moved-to tree must keep working.
  PhyloTree t = MakePaperFigure1Tree();
  NameIndex index = NameIndex::Build(t);
  PhyloTree moved = std::move(t);
  EXPECT_EQ(index.Find(moved, "Lla"), moved.FindByName("Lla"));
  EXPECT_EQ(index.FindLeaf(moved, "Bsu"), moved.FindByName("Bsu"));
}

void RunRandomizedParity(int n_trees, uint32_t max_leaves, uint64_t seed) {
  Rng rng(seed);
  for (int i = 0; i < n_trees; ++i) {
    YuleOptions yule;
    yule.n_leaves = 2 + static_cast<uint32_t>(rng.Uniform(max_leaves));
    auto t = SimulateYule(yule, &rng);
    ASSERT_TRUE(t.ok());
    // Rename leaves from a small pool so duplicates are common; leave
    // some leaves unnamed and some internals named.
    std::vector<NodeId> leaves = t->Leaves();
    for (NodeId leaf : leaves) {
      switch (rng.Uniform(6)) {
        case 0:
          t->set_name(leaf, "");
          break;
        case 1:
          t->set_name(leaf, "shared");
          break;
        default:
          t->set_name(leaf,
                      "pool_" + std::to_string(rng.Uniform(max_leaves / 2)));
      }
    }
    for (NodeId n = 0; n < t->size(); ++n) {
      if (!t->is_leaf(n) && rng.OneIn(4)) {
        t->set_name(n, "pool_" + std::to_string(rng.Uniform(max_leaves / 2)));
      }
    }
    ExpectOracleParity(*t);

    // Duplicate reporting parity: names on >1 leaf, sorted unique.
    NameIndex index = NameIndex::Build(*t);
    std::map<std::string, int> leaf_counts;
    for (NodeId leaf : t->Leaves()) {
      if (!t->name(leaf).empty()) {
        ++leaf_counts[std::string(t->name(leaf))];
      }
    }
    std::vector<std::string> want_dups;
    for (const auto& [name, count] : leaf_counts) {
      if (count > 1) want_dups.push_back(name);
    }
    EXPECT_EQ(index.DuplicateLeafNames(*t), want_dups);
    EXPECT_EQ(index.has_duplicate_leaf_names(), !want_dups.empty());
  }
}

TEST(NameIndex, RandomizedOracleParity) {
  RunRandomizedParity(/*n_trees=*/10, /*max_leaves=*/120, 0xAB5);
}

TEST(NameIndex, RandomizedOracleParityStress) {
  RunRandomizedParity(/*n_trees=*/30, /*max_leaves=*/1500, 0xAB50);
}

}  // namespace
}  // namespace crimson
