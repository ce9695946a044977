#include "crimson/repositories.h"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "crimson/crimson.h"
#include "crimson/data_loader.h"
#include "sim/tree_sim.h"
#include "storage/file.h"
#include "storage/page.h"
#include "tree/name_index.h"
#include "tree/tree_builders.h"
#include "../storage/fault_injection.h"

namespace crimson {
namespace {

/// One short sequence per name (the rows' bytes, not biology, matter).
std::map<std::string, std::string> SequencesFor(
    const std::vector<std::string>& names) {
  std::map<std::string, std::string> out;
  for (const std::string& name : names) out[name] = "ACGT" + name;
  return out;
}

std::vector<std::string> LeafNames(const PhyloTree& tree) {
  std::vector<std::string> out;
  for (NodeId n : tree.Leaves()) out.emplace_back(tree.name(n));
  return out;
}

/// species -> node column of a tree's stored species rows, read
/// straight from the species table.
std::map<std::string, int64_t> StoredSpeciesNodes(Database* db,
                                                  int64_t tree_id) {
  std::map<std::string, int64_t> out;
  auto table = db->OpenTable("species");
  EXPECT_TRUE(table.ok()) << table.status();
  if (!table.ok()) return out;
  auto rids = table->IndexLookup("species_by_tree", tree_id);
  EXPECT_TRUE(rids.ok()) << rids.status();
  if (!rids.ok()) return out;
  for (const RecordId& rid : *rids) {
    Row row;
    EXPECT_TRUE(table->Get(rid, &row).ok());
    out[std::get<std::string>(row[1])] = std::get<int64_t>(row[2]);
  }
  return out;
}

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

TEST_F(RepositoriesTest, AppendSpeciesWritesEachSpeciesNode) {
  int64_t id = StoreFig1();
  PhyloTree t = MakePaperFigure1Tree();
  DataLoader loader(trees_.get(), species_.get());
  const std::vector<std::string> names = {"Bha", "Lla", "Spy", "Syn", "Bsu"};
  auto report = loader.AppendSpecies("fig1", SequencesFor(names));
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->species_loaded, names.size());
  std::map<std::string, int64_t> nodes = StoredSpeciesNodes(db_.get(), id);
  ASSERT_EQ(nodes.size(), names.size());
  for (const std::string& name : names) {
    EXPECT_EQ(nodes[name], static_cast<int64_t>(t.FindByName(name))) << name;
  }

  // An unknown species fails the whole batch before any row is written.
  auto missing = loader.AppendSpecies("fig1", SequencesFor({"Lla", "Nope"}));
  ASSERT_TRUE(missing.status().IsNotFound()) << missing.status();
  EXPECT_NE(missing.status().ToString().find("species 'Nope' not in tree"),
            std::string::npos)
      << missing.status();
  EXPECT_EQ(*species_->CountForTree(id), names.size());
}

TEST_F(RepositoriesTest, NamesScopedPerTree) {
  // Two trees share every leaf name but place them differently: each
  // tree's species rows point at its own nodes.
  int64_t id1 = StoreFig1("first");
  PhyloTree mirrored;
  mirrored.AddRoot("");
  NodeId inner = mirrored.AddChild(0, "", 1.0);
  for (const char* name : {"Syn", "Spy", "Lla"}) {
    mirrored.AddChild(inner, name, 1.0);
  }
  mirrored.AddChild(0, "Bsu", 1.0);
  mirrored.AddChild(0, "Bha", 1.0);
  LayeredDeweyScheme scheme(3);
  ASSERT_TRUE(scheme.Build(mirrored).ok());
  auto id2 = trees_->StoreTree("second", mirrored, scheme);
  ASSERT_TRUE(id2.ok()) << id2.status();
  ASSERT_NE(id1, *id2);

  DataLoader loader(trees_.get(), species_.get());
  const std::vector<std::string> names = {"Bha", "Lla", "Spy", "Syn", "Bsu"};
  ASSERT_TRUE(loader.AppendSpecies("first", SequencesFor(names)).ok());
  ASSERT_TRUE(loader.AppendSpecies("second", SequencesFor(names)).ok());
  const PhyloTree first = MakePaperFigure1Tree();
  std::map<std::string, int64_t> nodes1 = StoredSpeciesNodes(db_.get(), id1);
  std::map<std::string, int64_t> nodes2 = StoredSpeciesNodes(db_.get(), *id2);
  ASSERT_EQ(nodes1.size(), names.size());
  ASSERT_EQ(nodes2.size(), names.size());
  for (const std::string& name : names) {
    EXPECT_EQ(nodes1[name], static_cast<int64_t>(first.FindByName(name)));
    EXPECT_EQ(nodes2[name], static_cast<int64_t>(mirrored.FindByName(name)));
  }
  EXPECT_NE(nodes1["Lla"], nodes2["Lla"]);
  auto list = trees_->ListTrees();
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->size(), 2u);
}

TEST_F(RepositoriesTest, AmbiguousSpeciesNameTakesFirstNodeInArenaOrder) {
  // Leaf names are unique, but an internal node may share a leaf's
  // name: the species row takes the first node in arena order, the
  // node the session resolves that name to for queries.
  PhyloTree t;
  t.AddRoot("X");
  NodeId a = t.AddChild(0, "A", 1.0);
  t.AddChild(a, "A", 1.0);
  t.AddChild(a, "B", 1.0);
  t.AddChild(0, "X", 1.0);
  LayeredDeweyScheme scheme(3);
  ASSERT_TRUE(scheme.Build(t).ok());
  auto id = trees_->StoreTree("ambiguous", t, scheme);
  ASSERT_TRUE(id.ok()) << id.status();
  DataLoader loader(trees_.get(), species_.get());
  ASSERT_TRUE(loader.AppendSpecies("ambiguous", SequencesFor({"A", "X"})).ok());
  std::map<std::string, int64_t> nodes = StoredSpeciesNodes(db_.get(), *id);
  EXPECT_EQ(nodes["A"], static_cast<int64_t>(a));
  EXPECT_EQ(nodes["X"], 0);
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

/// Rows a tree id still has in each per-tree table.
std::map<std::string, size_t> RowsForTree(Database* db, int64_t tree_id) {
  std::map<std::string, size_t> out;
  const std::pair<const char*, const char*> indexes[] = {
      {"trees", "trees_by_id"},
      {"labels", "labels_by_tree"},
      {"tree_blobs", "tree_blobs_by_tree"},
      {"species", "species_by_tree"}};
  for (const auto& [table_name, index] : indexes) {
    auto table = db->OpenTable(table_name);
    EXPECT_TRUE(table.ok()) << table_name << ": " << table.status();
    if (!table.ok()) continue;
    auto rids = table->IndexLookup(index, tree_id);
    EXPECT_TRUE(rids.ok()) << rids.status();
    if (rids.ok()) out[table_name] = rids->size();
  }
  return out;
}

TEST_F(RepositoriesTest, DropTreeRemovesEverything) {
  int64_t kept = StoreFig1("kept");
  int64_t id = StoreFig1("doomed");
  DataLoader loader(trees_.get(), species_.get());
  const PhyloTree fig1 = MakePaperFigure1Tree();
  ASSERT_TRUE(loader.AppendSpecies("kept", SequencesFor(LeafNames(fig1))).ok());
  ASSERT_TRUE(
      loader.AppendSpecies("doomed", SequencesFor(LeafNames(fig1))).ok());
  ASSERT_TRUE(trees_->DropTree(id).ok());
  ASSERT_TRUE(species_->DropForTree(id).ok());
  EXPECT_TRUE(trees_->GetTreeInfo("doomed").status().IsNotFound());
  EXPECT_TRUE(trees_->LoadTree(id).status().IsNotFound());
  const std::map<std::string, size_t> none = {
      {"labels", 0}, {"species", 0}, {"tree_blobs", 0}, {"trees", 0}};
  EXPECT_EQ(RowsForTree(db_.get(), id), none);
  const std::map<std::string, size_t> whole = {
      {"labels", 1}, {"species", 5}, {"tree_blobs", 1}, {"trees", 1}};
  EXPECT_EQ(RowsForTree(db_.get(), kept), whole);
  // Dropping again removes nothing and is not an error.
  EXPECT_TRUE(trees_->DropTree(id).ok());
  EXPECT_TRUE(species_->DropForTree(id).ok());
  EXPECT_EQ(RowsForTree(db_.get(), kept), whole);
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
/// in-memory tree says: LoadTree and LoadScheme against the tree and
/// scheme stored, and the node each species row gets from AppendSpecies
/// against NameIndex. The tree is stored after a neighbor tree that
/// shares no names, so its rows land in already-populated indexes.
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
  auto species = std::move(SpeciesRepository::Open(db.get())).value();
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

  auto loaded_scheme = trees->LoadScheme(*id);
  ASSERT_TRUE(loaded_scheme.ok()) << loaded_scheme.status();
  std::string stored_bytes, loaded_bytes;
  scheme.EncodeTo(&stored_bytes);
  loaded_scheme->EncodeTo(&loaded_bytes);
  EXPECT_EQ(loaded_bytes, stored_bytes);

  DataLoader loader(trees.get(), species.get());
  std::vector<std::string> names;
  for (NodeId n = 0; n < t->size(); ++n) {
    if (!t->name(n).empty()) names.emplace_back(t->name(n));
  }
  auto appended = loader.AppendSpecies("yule", SequencesFor(names));
  ASSERT_TRUE(appended.ok()) << appended.status();
  const NameIndex index = NameIndex::Build(*t);
  std::map<std::string, int64_t> nodes = StoredSpeciesNodes(db.get(), *id);
  ASSERT_EQ(nodes.size(), names.size());
  for (const std::string& name : names) {
    EXPECT_EQ(nodes[name], static_cast<int64_t>(index.Find(*t, name))) << name;
  }
  // Names of the neighbor tree do not leak into this one.
  EXPECT_TRUE(loader.AppendSpecies("yule", SequencesFor({"Lla"}))
                  .status()
                  .IsNotFound());
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
  auto species = SpeciesRepository::Open(db->get());
  ASSERT_TRUE(species.ok());
  DataLoader loader(trees->get(), species->get());
  ASSERT_TRUE(loader.AppendSpecies("yule1k", SequencesFor({"S500"})).ok());
  std::map<std::string, int64_t> nodes = StoredSpeciesNodes(db->get(), *id);
  ASSERT_EQ(nodes.size(), 1u);
  EXPECT_EQ(t->name(static_cast<NodeId>(nodes["S500"])), "S500");
}

// ---------------------------------------------------------------------------
// Session DropTree: crash consistency and cost
// ---------------------------------------------------------------------------

constexpr const char* kDropDbPath = "drop.db";
constexpr const char* kVictim = "victim";
const char* const kResidents[] = {"resident0", "resident1"};

enum class CrashPolicy { kKeepAllWrites, kDropUnsynced };

CrimsonOptions DropSessionOptions(test::FaultInjectionEnv* env) {
  CrimsonOptions opts;
  opts.db_path = kDropDbPath;
  opts.storage_env = env->env();
  opts.durability = Durability::kCommit;
  opts.buffer_pool_pages = 64;  // small pool: the drop spills pages
  opts.batch_workers = 1;
  return opts;
}

/// Two residents and the victim, all with "S<i>" leaves, so species
/// names are shared keys in the species_by_name index.
std::vector<std::pair<std::string, PhyloTree>> MakeDropTrees(
    uint64_t seed, uint32_t victim_leaves) {
  Rng rng(seed);
  std::vector<std::pair<std::string, PhyloTree>> out;
  for (const char* name : kResidents) {
    YuleOptions opts;
    opts.n_leaves = 24 + static_cast<uint32_t>(rng.Uniform(16));
    out.emplace_back(name, std::move(SimulateYule(opts, &rng)).value());
  }
  YuleOptions opts;
  opts.n_leaves = victim_leaves;
  out.emplace_back(kVictim, std::move(SimulateYule(opts, &rng)).value());
  return out;
}

/// Loads every tree with one sequence per leaf and closes cleanly.
void LoadDropTrees(test::FaultInjectionEnv* env,
                   const std::vector<std::pair<std::string, PhyloTree>>& trees) {
  auto session = Crimson::Open(DropSessionOptions(env));
  ASSERT_TRUE(session.ok()) << session.status();
  for (const auto& [name, tree] : trees) {
    ASSERT_TRUE((*session)->LoadTree(name, tree).ok());
    ASSERT_TRUE(
        (*session)->AppendSpeciesData(name, SequencesFor(LeafNames(tree)))
            .ok());
  }
}

/// What a stored tree answers: its metadata, packed image, labels blob,
/// species rows (with their node column) and three session queries.
/// "gone" when no tree has the name.
std::string StoredTreeState(Crimson* session, const std::string& name) {
  auto trees = TreeRepository::Open(session->database());
  auto species = SpeciesRepository::Open(session->database());
  EXPECT_TRUE(trees.ok() && species.ok());
  if (!trees.ok() || !species.ok()) return "<open failed>";
  auto info = (*trees)->GetTreeInfo(name);
  if (info.status().IsNotFound()) return "gone";
  EXPECT_TRUE(info.ok()) << info.status();
  if (!info.ok()) return "<no info>";
  std::ostringstream out;
  out << "id=" << info->tree_id << " nodes=" << info->n_nodes
      << " leaves=" << info->n_leaves << " f=" << info->f << "\n";
  auto tree = (*trees)->LoadTree(info->tree_id);
  EXPECT_TRUE(tree.ok()) << tree.status();
  if (!tree.ok()) return "<no tree>";
  std::string image;
  EncodePackedTree(*tree, &image);
  out << "image " << image.size() << " " << Fnv1a64(image.data(), image.size())
      << "\n";
  auto labels = (*trees)->LoadSchemeBlob(info->tree_id);
  EXPECT_TRUE(labels.ok()) << labels.status();
  if (labels.ok()) {
    out << "labels " << Fnv1a64(labels->data(), labels->size()) << "\n";
  }
  out << "species " << *(*species)->CountForTree(info->tree_id) << "\n";
  auto sequences = (*species)->SequencesForTree(info->tree_id);
  EXPECT_TRUE(sequences.ok());
  if (sequences.ok()) {
    for (const auto& [species_name, sequence] : *sequences) {
      out << species_name << "=" << sequence << " ";
    }
  }
  for (const auto& [species_name, node] :
       StoredSpeciesNodes(session->database(), info->tree_id)) {
    out << species_name << "@" << node << " ";
  }
  out << "\n";
  auto ref = session->OpenTree(name);
  EXPECT_TRUE(ref.ok()) << ref.status();
  if (!ref.ok()) return out.str();
  const std::vector<std::string> leaves = LeafNames(*tree);
  const std::vector<QueryRequest> requests = {
      LcaQuery{leaves.front(), leaves.back()},
      ProjectQuery{{leaves[0], leaves[1], leaves[2], leaves[3]}},
      CladeQuery{{leaves[1], leaves[3], leaves[5]}}};
  for (const QueryRequest& request : requests) {
    auto result = session->Execute(*ref, request);
    EXPECT_TRUE(result.ok()) << result.status();
    if (result.ok()) out << RenderResult(*result) << "\n";
  }
  return out.str();
}

/// Crashes a session DropTree of the victim at every write/sync point
/// of the WAL and the data file (every `fault_step`-th), reopens, and
/// requires the victim to be wholly present or wholly gone while the
/// residents answer as before.
void RunDropCrashSuite(uint64_t seed, uint32_t victim_leaves,
                       CrashPolicy policy, bool torn, uint64_t fault_step) {
  const auto trees = MakeDropTrees(seed, victim_leaves);
  std::map<std::string, std::string> gold;
  int64_t victim_id = 0;
  {
    test::FaultInjectionEnv env;
    LoadDropTrees(&env, trees);
    auto session = Crimson::Open(DropSessionOptions(&env));
    ASSERT_TRUE(session.ok()) << session.status();
    for (const auto& [name, tree] : trees) {
      gold[name] = StoredTreeState(session->get(), name);
    }
    auto info = (*session)->ListTrees();
    ASSERT_TRUE(info.ok());
    for (const TreeInfo& t : *info) {
      if (t.name == kVictim) victim_id = t.tree_id;
    }
  }
  ASSERT_GT(victim_id, 0);

  uint64_t present = 0;
  uint64_t gone = 0;
  bool completed_without_fault = false;
  for (uint64_t fault = 1; !completed_without_fault; fault += fault_step) {
    ASSERT_LT(fault, 100000u) << "crash loop failed to terminate";
    SCOPED_TRACE("fault point " + std::to_string(fault));
    test::FaultInjectionEnv env;
    LoadDropTrees(&env, trees);
    env.ResetOpCount();
    env.ArmFailPoint(fault, torn);
    {
      auto session = Crimson::Open(DropSessionOptions(&env));
      // The drop fails at the crash point or succeeds past it.
      if (session.ok()) {
        Status dropped = (*session)->DropTree(kVictim);
        if (!env.triggered()) EXPECT_TRUE(dropped.ok()) << dropped;
      }
    }
    completed_without_fault = !env.triggered();
    env.Disarm();
    if (policy == CrashPolicy::kDropUnsynced) env.CrashToDurable();

    auto session = Crimson::Open(DropSessionOptions(&env));
    ASSERT_TRUE(session.ok()) << session.status();
    for (const char* resident : kResidents) {
      ASSERT_EQ(StoredTreeState(session->get(), resident), gold[resident]);
    }
    const std::string victim = StoredTreeState(session->get(), kVictim);
    if (victim == "gone") {
      ++gone;
      EXPECT_TRUE((*session)->OpenTree(kVictim).status().IsNotFound());
      const std::map<std::string, size_t> none = {
          {"labels", 0}, {"species", 0}, {"tree_blobs", 0}, {"trees", 0}};
      ASSERT_EQ(RowsForTree((*session)->database(), victim_id), none);
    } else {
      ++present;
      ASSERT_EQ(victim, gold[kVictim]);
    }
    if (completed_without_fault) {
      EXPECT_EQ(victim, "gone") << "a fault-free drop must land";
    }
  }
  // The sweep saw both sides of the commit point.
  EXPECT_GT(present, 0u);
  EXPECT_GT(gone, 0u);
}

TEST(DropCrashPoints, DropUnsynced) {
  RunDropCrashSuite(0xD209, /*victim_leaves=*/40, CrashPolicy::kDropUnsynced,
                    /*torn=*/false, /*fault_step=*/1);
}

TEST(DropCrashPoints, TornWrites) {
  RunDropCrashSuite(0xD20A, /*victim_leaves=*/40, CrashPolicy::kKeepAllWrites,
                    /*torn=*/true, /*fault_step=*/1);
}

TEST(DropCrashPointsStress, SeedSweep) {
  // Victims up to 2.8k leaves, whose drop dirties most of the 64-page
  // pool, every policy, every fault point.
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunDropCrashSuite(seed, 350 * static_cast<uint32_t>(seed),
                      seed % 2 == 0 ? CrashPolicy::kKeepAllWrites
                                    : CrashPolicy::kDropUnsynced,
                      /*torn=*/seed % 4 == 0, /*fault_step=*/1);
  }
}

/// Buffer-pool page fetches so far (hits + misses).
uint64_t PoolFetches(const Crimson& session) {
  obs::MetricsSnapshot snapshot = session.metrics()->Snapshot();
  return snapshot.counter("storage.pool.hits") +
         snapshot.counter("storage.pool.misses");
}

TEST(DropCostTest, DropFetchesDoNotGrowWithEarlierDrops) {
  // Six load/append/drop cycles of one seeded 5k-leaf tree beside two
  // residents: a drop touches the dropped tree's rows, so the sixth
  // fetches about the pages of the first. Counts pages, takes no time.
  CrimsonOptions opts;
  opts.batch_workers = 1;
  auto session = Crimson::Open(opts);
  ASSERT_TRUE(session.ok()) << session.status();
  Rng rng(0xC7C1E);
  YuleOptions yule;
  yule.n_leaves = 5000;
  for (const char* name : kResidents) {
    PhyloTree resident = std::move(SimulateYule(yule, &rng)).value();
    ASSERT_TRUE((*session)->LoadTree(name, resident).ok());
    ASSERT_TRUE((*session)
                    ->AppendSpeciesData(name, SequencesFor(LeafNames(resident)))
                    .ok());
  }
  const PhyloTree cycle_tree = std::move(SimulateYule(yule, &rng)).value();
  const auto sequences = SequencesFor(LeafNames(cycle_tree));
  std::vector<uint64_t> fetched;
  for (int cycle = 0; cycle < 6; ++cycle) {
    ASSERT_TRUE((*session)->LoadTree("cycle", cycle_tree).ok());
    ASSERT_TRUE((*session)->AppendSpeciesData("cycle", sequences).ok());
    const uint64_t before = PoolFetches(**session);
    ASSERT_TRUE((*session)->DropTree("cycle").ok());
    fetched.push_back(PoolFetches(**session) - before);
  }
  std::ostringstream counts;
  for (uint64_t f : fetched) counts << f << " ";
  ASSERT_GT(fetched[0], 0u);
  EXPECT_LE(fetched[5] * 2, fetched[0] * 3) << "pages per drop: " << counts.str();
}

}  // namespace
}  // namespace crimson
