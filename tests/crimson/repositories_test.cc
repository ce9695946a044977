#include "crimson/repositories.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/tree_sim.h"
#include "storage/file.h"
#include "tree/name_index.h"
#include "tree/tree_builders.h"

namespace crimson {
namespace {

class RepositoriesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = Database::OpenInMemory();
    ASSERT_TRUE(db.ok());
    db_ = std::move(db).value();
    auto trees = TreeRepository::Open(db_.get());
    ASSERT_TRUE(trees.ok()) << trees.status();
    trees_ = std::move(trees).value();
    auto species = SpeciesRepository::Open(db_.get());
    ASSERT_TRUE(species.ok());
    species_ = std::move(species).value();
    auto queries = QueryRepository::Open(db_.get());
    ASSERT_TRUE(queries.ok());
    queries_ = std::move(queries).value();
  }

  int64_t StoreFig1(const std::string& name = "fig1") {
    PhyloTree t = MakePaperFigure1Tree();
    LayeredDeweyScheme scheme(3);
    EXPECT_TRUE(scheme.Build(t).ok());
    auto id = trees_->StoreTree(name, t, scheme);
    EXPECT_TRUE(id.ok()) << id.status();
    return *id;
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<TreeRepository> trees_;
  std::unique_ptr<SpeciesRepository> species_;
  std::unique_ptr<QueryRepository> queries_;
};

TEST_F(RepositoriesTest, StoreAndLoadRoundTrip) {
  int64_t id = StoreFig1();
  auto info = trees_->GetTreeInfo("fig1");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->tree_id, id);
  EXPECT_EQ(info->n_nodes, 8);
  EXPECT_EQ(info->n_leaves, 5);
  EXPECT_EQ(info->f, 3);
  EXPECT_EQ(info->max_depth, 3);

  auto loaded = trees_->LoadTree(id);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(PhyloTree::Equal(*loaded, MakePaperFigure1Tree(), 1e-9,
                               /*ordered=*/true));
}

TEST_F(RepositoriesTest, FindNodeByName) {
  int64_t id = StoreFig1();
  PhyloTree t = MakePaperFigure1Tree();
  for (const char* name : {"Bha", "Lla", "Spy", "Syn", "Bsu"}) {
    auto node = trees_->FindNodeByName(id, name);
    ASSERT_TRUE(node.ok()) << name;
    EXPECT_EQ(*node, t.FindByName(name));
  }
  EXPECT_TRUE(trees_->FindNodeByName(id, "Nope").status().IsNotFound());
}

TEST_F(RepositoriesTest, NamesScopedPerTree) {
  int64_t id1 = StoreFig1("first");
  int64_t id2 = StoreFig1("second");
  ASSERT_NE(id1, id2);
  auto n1 = trees_->FindNodeByName(id1, "Lla");
  auto n2 = trees_->FindNodeByName(id2, "Lla");
  ASSERT_TRUE(n1.ok() && n2.ok());
  EXPECT_EQ(*n1, *n2);  // same position in identical trees
  auto list = trees_->ListTrees();
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->size(), 2u);
}

TEST_F(RepositoriesTest, DuplicateTreeNameRejected) {
  StoreFig1("dup");
  PhyloTree t = MakePaperFigure1Tree();
  LayeredDeweyScheme scheme(3);
  ASSERT_TRUE(scheme.Build(t).ok());
  EXPECT_TRUE(trees_->StoreTree("dup", t, scheme).status().IsAlreadyExists());
}

TEST_F(RepositoriesTest, StoreTreeRejectsDuplicateLeafNames) {
  // Every stored tree passes through StoreTree, so no stored tree can
  // have two leaves answering to one name.
  PhyloTree t;
  t.AddRoot("root");
  NodeId inner = t.AddChild(0, "", 1.0);
  t.AddChild(inner, "Dup", 1.0);
  t.AddChild(inner, "C", 1.0);
  t.AddChild(0, "Dup", 2.0);
  LayeredDeweyScheme scheme(3);
  ASSERT_TRUE(scheme.Build(t).ok());
  auto stored = trees_->StoreTree("dups", t, scheme);
  ASSERT_TRUE(stored.status().IsInvalidArgument()) << stored.status();
  EXPECT_NE(stored.status().ToString().find(
                "tree 'dups' has 1 duplicate leaf name (e.g. 'Dup')"),
            std::string::npos)
      << stored.status();
  EXPECT_TRUE(trees_->GetTreeInfo("dups").status().IsNotFound());
  auto all = trees_->ListTrees();
  ASSERT_TRUE(all.ok());
  EXPECT_TRUE(all->empty());
}

TEST_F(RepositoriesTest, GetNodePointAccess) {
  int64_t id = StoreFig1();
  PhyloTree t = MakePaperFigure1Tree();
  NodeId lla = t.FindByName("Lla");
  auto row = trees_->GetNode(id, lla);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->name, "Lla");
  EXPECT_EQ(row->parent, t.parent(lla));
  EXPECT_DOUBLE_EQ(row->edge_length, 1.0);
  EXPECT_DOUBLE_EQ(row->root_weight, 2.25);
  EXPECT_EQ(row->subtree, 1u);  // Figure 4: Lla is in the split subtree
  EXPECT_TRUE(trees_->GetNode(id, 999).status().IsNotFound());
}

TEST_F(RepositoriesTest, TimeRangeQueryUsesWeightIndex) {
  int64_t id = StoreFig1();
  PhyloTree t = MakePaperFigure1Tree();
  // Nodes with weight in [1.0, 2.4): x(1.25), Bsu(1.25), Bha(2.25),
  // Lla(2.25), Spy(2.25).
  auto nodes = trees_->NodesInTimeRange(id, 1.0, 2.4);
  ASSERT_TRUE(nodes.ok());
  EXPECT_EQ(nodes->size(), 5u);
  // Upper bound excluded: Syn at 2.5 is out.
  for (NodeId n : *nodes) EXPECT_NE(n, t.FindByName("Syn"));
}

TEST_F(RepositoriesTest, DropTreeRemovesEverything) {
  int64_t id = StoreFig1("doomed");
  ASSERT_TRUE(trees_->DropTree(id).ok());
  EXPECT_TRUE(trees_->GetTreeInfo("doomed").status().IsNotFound());
  EXPECT_TRUE(trees_->LoadTree(id).status().IsNotFound());
  EXPECT_TRUE(trees_->FindNodeByName(id, "Lla").status().IsNotFound());
}

TEST_F(RepositoriesTest, SpeciesRepositoryRoundTrip) {
  int64_t id = StoreFig1();
  ASSERT_TRUE(species_->Put(id, "Bha", 5, "ACGTACGT").ok());
  ASSERT_TRUE(species_->Put(id, "Lla", 6, "TTTTACGT").ok());
  auto seq = species_->GetSequence("Bha");
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(*seq, "ACGTACGT");
  EXPECT_TRUE(species_->GetSequence("Zzz").status().IsNotFound());
  auto all = species_->SequencesForTree(id);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 2u);
  auto subset = species_->SequencesFor({"Lla"});
  ASSERT_TRUE(subset.ok());
  EXPECT_EQ(subset->at("Lla"), "TTTTACGT");
  EXPECT_TRUE(species_->SequencesFor({"Lla", "Zzz"}).status().IsNotFound());
  EXPECT_EQ(*species_->Count(), 2u);
}

TEST_F(RepositoriesTest, LongSequencesSpillToOverflowPages) {
  int64_t id = StoreFig1();
  std::string genome(200000, 'A');
  for (size_t i = 0; i < genome.size(); ++i) genome[i] = "ACGT"[i % 4];
  ASSERT_TRUE(species_->Put(id, "Bha", 5, genome).ok());
  auto seq = species_->GetSequence("Bha");
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(*seq, genome);
}

TEST_F(RepositoriesTest, QueryRepositoryHistoryOrder) {
  for (int i = 0; i < 5; ++i) {
    auto id = queries_->Record("lca", "a=x&b=y", "result " + std::to_string(i));
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(*id, i + 1);
  }
  auto history = queries_->History(3);
  ASSERT_TRUE(history.ok());
  ASSERT_EQ(history->size(), 3u);
  EXPECT_EQ((*history)[0].query_id, 5);  // newest first
  EXPECT_EQ((*history)[2].query_id, 3);
  auto one = queries_->Get(2);
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one->summary, "result 1");
  EXPECT_TRUE(queries_->Get(99).status().IsNotFound());
}

TEST(RepositoriesPersistenceTest, SurvivesReopen) {
  std::string path = testing::TempDir() + "/crimson_repo_test.db";
  RemoveFile(path);
  int64_t tree_id;
  {
    auto db = Database::Open(path);
    ASSERT_TRUE(db.ok());
    auto trees = TreeRepository::Open(db->get());
    ASSERT_TRUE(trees.ok());
    PhyloTree t = MakePaperFigure1Tree();
    LayeredDeweyScheme scheme(3);
    ASSERT_TRUE(scheme.Build(t).ok());
    auto id = (*trees)->StoreTree("persisted", t, scheme);
    ASSERT_TRUE(id.ok());
    tree_id = *id;
    auto species = SpeciesRepository::Open(db->get());
    ASSERT_TRUE(species.ok());
    ASSERT_TRUE((*species)->Put(tree_id, "Bha", 5, "ACGT").ok());
    ASSERT_TRUE((*db)->Flush().ok());
  }
  {
    auto db = Database::Open(path);
    ASSERT_TRUE(db.ok());
    auto trees = TreeRepository::Open(db->get());
    ASSERT_TRUE(trees.ok());
    auto loaded = (*trees)->LoadTree(tree_id);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    EXPECT_TRUE(PhyloTree::Equal(*loaded, MakePaperFigure1Tree(), 1e-9,
                                 /*ordered=*/true));
    auto species = SpeciesRepository::Open(db->get());
    ASSERT_TRUE(species.ok());
    EXPECT_EQ(*(*species)->GetSequence("Bha"), "ACGT");
  }
  RemoveFile(path);
}

// ---------------------------------------------------------------------------
// Persisted label index + bulk-load path
// ---------------------------------------------------------------------------

TEST_F(RepositoriesTest, PersistedLabelsByteMatchFreshRelabel) {
  Rng rng(0x1AB31);
  YuleOptions opts;
  opts.n_leaves = 800;
  auto t = SimulateYule(opts, &rng);
  ASSERT_TRUE(t.ok());
  LayeredDeweyScheme fresh(8);
  ASSERT_TRUE(fresh.Build(*t).ok());
  auto id = trees_->StoreTree("labeled", *t, fresh);
  ASSERT_TRUE(id.ok());

  auto loaded = trees_->LoadScheme(*id);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  std::string fresh_bytes, loaded_bytes;
  fresh.EncodeTo(&fresh_bytes);
  loaded->EncodeTo(&loaded_bytes);
  EXPECT_EQ(loaded_bytes, fresh_bytes);
  EXPECT_EQ(loaded->f(), fresh.f());
  EXPECT_EQ(loaded->node_count(), t->size());

  // The deserialized scheme answers queries like the fresh one.
  for (int i = 0; i < 200; ++i) {
    NodeId a = static_cast<NodeId>(rng.Uniform(t->size()));
    NodeId b = static_cast<NodeId>(rng.Uniform(t->size()));
    EXPECT_EQ(*loaded->Lca(a, b), *fresh.Lca(a, b));
  }
}

TEST_F(RepositoriesTest, LabelsRemovedWithTree) {
  int64_t id = StoreFig1("doomed_labels");
  ASSERT_TRUE(trees_->LoadScheme(id).ok());
  ASSERT_TRUE(trees_->DropTree(id).ok());
  EXPECT_TRUE(trees_->LoadScheme(id).status().IsNotFound());
}

/// Every repository read path answers from storage exactly what the
/// in-memory tree says: GetNode against parent/name/edge length/
/// RootPathWeights/the scheme's subtree and local depth,
/// FindNodeByName against NameIndex, and NodesInTimeRange against a
/// brute-force filter. The tree is stored after a neighbor tree, so
/// its rows land in already-populated indexes.
void CheckStoreMatchesInMemoryTree(uint32_t n_leaves, uint64_t seed) {
  Rng rng(seed);
  YuleOptions opts;
  opts.n_leaves = n_leaves;
  auto t = SimulateYule(opts, &rng);
  ASSERT_TRUE(t.ok());
  LayeredDeweyScheme scheme(8);
  ASSERT_TRUE(scheme.Build(*t).ok());

  auto db = std::move(Database::OpenInMemory()).value();
  auto trees = std::move(TreeRepository::Open(db.get())).value();
  const PhyloTree neighbor = MakePaperFigure1Tree();
  LayeredDeweyScheme neighbor_scheme(3);
  ASSERT_TRUE(neighbor_scheme.Build(neighbor).ok());
  auto neighbor_id = trees->StoreTree("fig1", neighbor, neighbor_scheme);
  ASSERT_TRUE(neighbor_id.ok()) << neighbor_id.status();
  auto id = trees->StoreTree("yule", *t, scheme);
  ASSERT_TRUE(id.ok()) << id.status();

  auto loaded = trees->LoadTree(*id);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(PhyloTree::Equal(*loaded, *t, 1e-9, /*ordered=*/true));
  auto loaded_neighbor = trees->LoadTree(*neighbor_id);
  ASSERT_TRUE(loaded_neighbor.ok());
  EXPECT_TRUE(
      PhyloTree::Equal(*loaded_neighbor, neighbor, 1e-9, /*ordered=*/true));

  const std::vector<double> weights = t->RootPathWeights();
  for (NodeId n = 0; n < t->size(); ++n) {
    auto row = trees->GetNode(*id, n);
    ASSERT_TRUE(row.ok()) << "node " << n << ": " << row.status();
    EXPECT_EQ(row->parent, t->parent(n)) << n;
    EXPECT_EQ(row->name, t->name(n)) << n;
    EXPECT_EQ(row->edge_length, t->edge_length(n)) << n;
    EXPECT_EQ(row->root_weight, weights[n]) << n;
    EXPECT_EQ(row->subtree, scheme.SubtreeOf(n)) << n;
    EXPECT_EQ(row->local_depth, scheme.LocalDepth(n)) << n;
  }
  EXPECT_TRUE(trees->GetNode(*id, static_cast<NodeId>(t->size()))
                  .status()
                  .IsNotFound());

  const NameIndex names = NameIndex::Build(*t);
  for (NodeId n = 0; n < t->size(); ++n) {
    const std::string name(t->name(n));
    if (name.empty()) continue;
    auto found = trees->FindNodeByName(*id, name);
    ASSERT_TRUE(found.ok()) << name << ": " << found.status();
    EXPECT_EQ(*found, names.Find(*t, name)) << name;
  }
  // Names of the neighbor tree do not leak into this one.
  EXPECT_TRUE(trees->FindNodeByName(*id, "Lla").status().IsNotFound());

  const std::pair<double, double> ranges[] = {
      {0.0, 0.25}, {0.5, 2.0}, {1.0, 1e9}, {weights[1], weights[1]}};
  for (const auto& [lo, hi] : ranges) {
    std::vector<NodeId> expected;
    for (NodeId n = 0; n < t->size(); ++n) {
      if (weights[n] >= lo && weights[n] < hi) expected.push_back(n);
    }
    auto got = trees->NodesInTimeRange(*id, lo, hi);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(*got, expected) << "[" << lo << ", " << hi << ")";
  }
}

TEST(RepositoriesStoreTest, SmallTreeMatchesInMemoryTree) {
  // Under 512 nodes: such trees once took a separate per-row path.
  CheckStoreMatchesInMemoryTree(120, 0x5A11);
}

TEST(RepositoriesStoreTest, StoreMatchesInMemoryTree) {
  CheckStoreMatchesInMemoryTree(700, 0xB0B0);
}

TEST(RepositoriesStoreStressTest, LargeStoresMatchInMemoryTree) {
  // Dialed-up version: ctest -C stress -L stress.
  Rng rng(0x57E5);
  for (int rep = 0; rep < 2; ++rep) {
    CheckStoreMatchesInMemoryTree(4000 + static_cast<uint32_t>(
                                             rng.Uniform(4000)),
                                  rng.Next());
  }
}

TEST(RepositoriesPersistenceTest, LabelsSurviveReopen) {
  std::string path = testing::TempDir() + "/crimson_labels_test.db";
  RemoveFile(path);
  int64_t tree_id;
  std::string stored_bytes;
  {
    auto db = Database::Open(path);
    ASSERT_TRUE(db.ok());
    auto trees = TreeRepository::Open(db->get());
    ASSERT_TRUE(trees.ok());
    Rng rng(0xD15C);
    YuleOptions opts;
    opts.n_leaves = 300;
    auto t = SimulateYule(opts, &rng);
    ASSERT_TRUE(t.ok());
    LayeredDeweyScheme scheme(5);
    ASSERT_TRUE(scheme.Build(*t).ok());
    auto id = (*trees)->StoreTree("persisted_labels", *t, scheme);
    ASSERT_TRUE(id.ok());
    tree_id = *id;
    scheme.EncodeTo(&stored_bytes);
    ASSERT_TRUE((*db)->Flush().ok());
  }
  {
    auto db = Database::Open(path);
    ASSERT_TRUE(db.ok());
    auto trees = TreeRepository::Open(db->get());
    ASSERT_TRUE(trees.ok());
    auto scheme = (*trees)->LoadScheme(tree_id);
    ASSERT_TRUE(scheme.ok()) << scheme.status();
    std::string reloaded_bytes;
    scheme->EncodeTo(&reloaded_bytes);
    EXPECT_EQ(reloaded_bytes, stored_bytes);
    EXPECT_EQ(scheme->f(), 5u);
  }
  RemoveFile(path);
}

TEST(RepositoriesScaleTest, ThousandLeafTreeRoundTrip) {
  auto db = Database::OpenInMemory();
  ASSERT_TRUE(db.ok());
  auto trees = TreeRepository::Open(db->get());
  ASSERT_TRUE(trees.ok());
  Rng rng(314);
  YuleOptions opts;
  opts.n_leaves = 1000;
  auto t = SimulateYule(opts, &rng);
  ASSERT_TRUE(t.ok());
  LayeredDeweyScheme scheme(8);
  ASSERT_TRUE(scheme.Build(*t).ok());
  auto id = (*trees)->StoreTree("yule1k", *t, scheme);
  ASSERT_TRUE(id.ok());
  auto loaded = (*trees)->LoadTree(*id);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(PhyloTree::Equal(*loaded, *t, 1e-9, /*ordered=*/true));
  // Point access against the big nodes table.
  auto node = (*trees)->FindNodeByName(*id, "S500");
  ASSERT_TRUE(node.ok());
  EXPECT_EQ(t->name(*node), "S500");
}

}  // namespace
}  // namespace crimson
