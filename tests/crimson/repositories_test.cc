#include "crimson/repositories.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "crimson/crimson.h"
#include "crimson/data_loader.h"
#include "common/coding.h"
#include "sim/tree_sim.h"
#include "storage/file.h"
#include "storage/heap_file.h"
#include "storage/page.h"
#include "storage/recovery.h"
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

/// The tree's sequences by ordinal, through the cracked store's range
/// read over the whole domain.
std::map<size_t, std::string> StoredByOrdinal(const SpeciesRepository& species,
                                              int64_t tree_id,
                                              uint32_t domain_size) {
  std::map<size_t, std::string> out;
  Status s = species.ForEachInRange(
      tree_id, 0, domain_size, [&](size_t ordinal, Slice sequence) {
        EXPECT_TRUE(out.emplace(ordinal, sequence.ToString()).second)
            << "ordinal " << ordinal << " reported twice";
      });
  EXPECT_TRUE(s.ok()) << s;
  return out;
}

/// What StoredByOrdinal must return: each species of `sequences` that
/// names a leaf, at its position in the tree's domain.
std::map<size_t, std::string> ByDomainOrdinal(
    const PhyloTree& tree, const std::map<std::string, std::string>& sequences) {
  const std::vector<std::string> domain =
      NameIndex::Build(tree).SortedLeafNames(tree);
  std::map<size_t, std::string> out;
  for (size_t i = 0; i < domain.size(); ++i) {
    auto it = sequences.find(domain[i]);
    if (it != sequences.end()) out[i] = it->second;
  }
  return out;
}

uint32_t DomainSize(const PhyloTree& tree) {
  return static_cast<uint32_t>(
      NameIndex::Build(tree).SortedLeafNames(tree).size());
}

/// The stored tree named `name`, found through ListTrees; NotFound
/// when there is none.
Result<TreeInfo> TreeNamed(const TreeRepository& trees,
                           const std::string& name) {
  CRIMSON_ASSIGN_OR_RETURN(std::vector<TreeInfo> all, trees.ListTrees());
  for (const TreeInfo& info : all) {
    if (info.name == name) return info;
  }
  return Status::NotFound("no tree named '" + name + "'");
}

/// Appends through the loader against stored tree `id` as read back
/// from `trees`, the way the session appends against a bound handle.
Result<LoadReport> AppendTo(DataLoader& loader, const TreeRepository& trees,
                            int64_t id,
                            const std::map<std::string, std::string>& seqs) {
  CRIMSON_ASSIGN_OR_RETURN(PhyloTree tree, trees.LoadTree(id));
  return loader.AppendSpecies(id, tree, NameIndex::Build(tree), seqs);
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
  auto info = TreeNamed(*trees_, "fig1");
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

TEST_F(RepositoriesTest, AppendSpeciesStoresEachSpeciesAtItsOrdinal) {
  int64_t id = StoreFig1();
  PhyloTree t = MakePaperFigure1Tree();
  DataLoader loader(trees_.get(), species_.get());
  const std::vector<std::string> names = {"Bha", "Lla", "Spy", "Syn", "Bsu"};
  const auto sequences = SequencesFor(names);
  auto report = AppendTo(loader, *trees_, id, sequences);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->species_loaded, names.size());
  EXPECT_EQ(*species_->SequencesForTree(id), sequences);
  EXPECT_EQ(StoredByOrdinal(*species_, id, DomainSize(t)),
            ByDomainOrdinal(t, sequences));

  // An unknown species fails the whole batch before any row is written.
  std::map<std::string, std::string> bad = {{"Bha", "TT"}, {"Nope", "TT"}};
  auto missing = AppendTo(loader, *trees_, id, bad);
  ASSERT_TRUE(missing.status().IsNotFound()) << missing.status();
  EXPECT_NE(missing.status().ToString().find("species 'Nope' not in tree"),
            std::string::npos)
      << missing.status();
  EXPECT_EQ(*species_->SequencesForTree(id), sequences);
}

TEST_F(RepositoriesTest, NamesScopedPerTree) {
  // Two trees share every leaf name but place them differently: each
  // tree's species data is its own.
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
  std::map<std::string, std::string> first = SequencesFor(names);
  std::map<std::string, std::string> second;
  for (const std::string& name : {"Lla", "Bsu"}) second[name] = "TT" + name;
  ASSERT_TRUE(AppendTo(loader, *trees_, id1, first).ok());
  ASSERT_TRUE(AppendTo(loader, *trees_, *id2, second).ok());
  EXPECT_EQ(*species_->SequencesForTree(id1), first);
  EXPECT_EQ(*species_->SequencesForTree(*id2), second);
  EXPECT_EQ(StoredByOrdinal(*species_, *id2, DomainSize(mirrored)),
            ByDomainOrdinal(mirrored, second));
  auto list = trees_->ListTrees();
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->size(), 2u);
}

TEST_F(RepositoriesTest, LeafNamesAreOrdinalsAndInternalNamesTrail) {
  // An internal node may share a leaf's name ("A"): the species is
  // that leaf's. A name only internal nodes carry ("R") is stored past
  // the domain: listed by SequencesForTree, never fetched by ordinal.
  PhyloTree t;
  t.AddRoot("R");
  NodeId a = t.AddChild(0, "A", 1.0);
  t.AddChild(a, "A", 1.0);
  t.AddChild(a, "B", 1.0);
  t.AddChild(0, "X", 1.0);
  LayeredDeweyScheme scheme(3);
  ASSERT_TRUE(scheme.Build(t).ok());
  auto id = trees_->StoreTree("ambiguous", t, scheme);
  ASSERT_TRUE(id.ok()) << id.status();
  DataLoader loader(trees_.get(), species_.get());
  const auto sequences = SequencesFor({"A", "R", "X"});
  ASSERT_TRUE(AppendTo(loader, *trees_, *id, sequences).ok());
  EXPECT_EQ(*species_->SequencesForTree(*id), sequences);
  const std::map<size_t, std::string> by_ordinal = {{0, "ACGTA"},
                                                    {2, "ACGTX"}};
  EXPECT_EQ(StoredByOrdinal(*species_, *id, DomainSize(t)), by_ordinal);
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
  EXPECT_TRUE(TreeNamed(*trees_, "dups").status().IsNotFound());
  auto all = trees_->ListTrees();
  ASSERT_TRUE(all.ok());
  EXPECT_TRUE(all->empty());
}

/// Rows a tree id still has in each per-tree table; species chunks
/// are the chunk_key range [tree_id << 32, (tree_id + 1) << 32).
std::map<std::string, size_t> RowsForTree(Database* db, int64_t tree_id) {
  std::map<std::string, size_t> out;
  const std::pair<const char*, const char*> indexes[] = {
      {"trees", "trees_by_id"},
      {"labels", "labels_by_tree"},
      {"tree_blobs", "tree_blobs_by_tree"}};
  for (const auto& [table_name, index] : indexes) {
    auto table = db->OpenTable(table_name);
    EXPECT_TRUE(table.ok()) << table_name << ": " << table.status();
    if (!table.ok()) continue;
    auto rids = table->IndexLookup(index, tree_id);
    EXPECT_TRUE(rids.ok()) << rids.status();
    if (rids.ok()) out[table_name] = rids->size();
  }
  auto chunks = db->OpenTable("species_chunks");
  EXPECT_TRUE(chunks.ok()) << chunks.status();
  if (!chunks.ok()) return out;
  std::string lower, upper;
  EXPECT_TRUE(chunks->EncodeKeyFor("species_chunks_by_key", tree_id << 32,
                                   &lower)
                  .ok());
  EXPECT_TRUE(chunks->EncodeKeyFor("species_chunks_by_key",
                                   (tree_id + 1) << 32, &upper)
                  .ok());
  size_t n = 0;
  EXPECT_TRUE(chunks
                  ->IndexRangeScan("species_chunks_by_key", lower, upper,
                                   [&](const Slice&, RecordId) {
                                     ++n;
                                     return true;
                                   })
                  .ok());
  out["species_chunks"] = n;
  return out;
}

TEST_F(RepositoriesTest, DropTreeRemovesEverything) {
  int64_t kept = StoreFig1("kept");
  int64_t id = StoreFig1("doomed");
  DataLoader loader(trees_.get(), species_.get());
  const PhyloTree fig1 = MakePaperFigure1Tree();
  ASSERT_TRUE(AppendTo(loader, *trees_, kept, SequencesFor(LeafNames(fig1))).ok());
  ASSERT_TRUE(
      AppendTo(loader, *trees_, id, SequencesFor(LeafNames(fig1))).ok());
  ASSERT_TRUE(trees_->DropTree(id).ok());
  ASSERT_TRUE(species_->DropForTree(id).ok());
  EXPECT_TRUE(TreeNamed(*trees_, "doomed").status().IsNotFound());
  EXPECT_TRUE(trees_->LoadTree(id).status().IsNotFound());
  const std::map<std::string, size_t> none = {{"labels", 0},
                                              {"species_chunks", 0},
                                              {"tree_blobs", 0},
                                              {"trees", 0}};
  EXPECT_EQ(RowsForTree(db_.get(), id), none);
  // Five short sequences are one chunk.
  const std::map<std::string, size_t> whole = {{"labels", 1},
                                               {"species_chunks", 1},
                                               {"tree_blobs", 1},
                                               {"trees", 1}};
  EXPECT_EQ(RowsForTree(db_.get(), kept), whole);
  // Dropping again removes nothing and is not an error.
  EXPECT_TRUE(trees_->DropTree(id).ok());
  EXPECT_TRUE(species_->DropForTree(id).ok());
  EXPECT_EQ(RowsForTree(db_.get(), kept), whole);
}

TEST_F(RepositoriesTest, SpeciesRepositoryRoundTrip) {
  int64_t id = StoreFig1();
  EXPECT_FALSE(*species_->HasSpecies(id));
  // fig1's domain: Bha Bsu Lla Spy Syn; "Root" names an internal node.
  ASSERT_TRUE(species_
                  ->Append(id, 5,
                           {{0, "Bha", "ACGTACGT"},
                            {2, "Lla", ""},
                            {5, "Root", "GG"}})
                  .ok());
  EXPECT_TRUE(*species_->HasSpecies(id));
  const std::map<std::string, std::string> want = {
      {"Bha", "ACGTACGT"}, {"Lla", ""}, {"Root", "GG"}};
  EXPECT_EQ(*species_->SequencesForTree(id), want);
  const std::map<size_t, std::string> by_ordinal = {{0, "ACGTACGT"},
                                                    {2, ""}};
  EXPECT_EQ(StoredByOrdinal(*species_, id, 5), by_ordinal);
  const std::map<size_t, std::string> middle = {{2, ""}};
  std::map<size_t, std::string> got;
  ASSERT_TRUE(species_
                  ->ForEachInRange(id, 1, 3,
                                   [&](size_t ordinal, Slice sequence) {
                                     got[ordinal] = sequence.ToString();
                                   })
                  .ok());
  EXPECT_EQ(got, middle);

  // Stored species keep their sequence; new ones join them.
  ASSERT_TRUE(
      species_->Append(id, 5, {{0, "Bha", "TTTT"}, {4, "Syn", "CC"}}).ok());
  auto after = species_->SequencesForTree(id);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->at("Bha"), "ACGTACGT");
  EXPECT_EQ(after->at("Syn"), "CC");
  EXPECT_EQ(after->size(), 4u);
  EXPECT_FALSE(*species_->HasSpecies(id + 1));
}

TEST_F(RepositoriesTest, LongSequencesSpillToOverflowPages) {
  int64_t id = StoreFig1();
  std::string genome(200000, 'A');
  for (size_t i = 0; i < genome.size(); ++i) genome[i] = "ACGT"[i % 4];
  ASSERT_TRUE(species_->Append(id, 5, {{0, "Bha", genome}}).ok());
  const std::map<size_t, std::string> want = {{0, genome}};
  EXPECT_EQ(StoredByOrdinal(*species_, id, 5), want);
}

TEST_F(RepositoriesTest, ChunkRowsFillTheirPagesAndAppendsTouchOnlyTheirs) {
  // 4,000 leaves with 128-site sequences are ~520 KB: about one chunk
  // row per overflow page, not one row per species.
  Rng rng(0xC4A2);
  YuleOptions opts;
  opts.n_leaves = 4000;
  auto t = SimulateYule(opts, &rng);
  ASSERT_TRUE(t.ok());
  LayeredDeweyScheme scheme(8);
  ASSERT_TRUE(scheme.Build(*t).ok());
  auto id = trees_->StoreTree("chunky", *t, scheme);
  ASSERT_TRUE(id.ok());
  std::vector<std::string> names = LeafNames(*t);
  std::sort(names.begin(), names.end());
  std::map<std::string, std::string> sequences;
  size_t bytes = 0;
  // Every other leaf now, so a later append lands inside chunks.
  for (size_t i = 0; i < names.size(); i += 2) {
    sequences[names[i]] = std::string(128, "ACGT"[i % 4]);
    bytes += 128 + names[i].size() + 1 + 2 * 4;
  }
  DataLoader loader(trees_.get(), species_.get());
  ASSERT_TRUE(AppendTo(loader, *trees_, *id, sequences).ok());

  auto table = db_->OpenTable("species_chunks");
  ASSERT_TRUE(table.ok()) << table.status();
  auto chunk_rows = [&] {
    std::map<int64_t, uint64_t> out;  // chunk_key -> packed record id
    EXPECT_TRUE(table
                    ->Scan([&](const RecordId& rid, const Row& row) {
                      out[std::get<int64_t>(row[0])] = rid.Pack();
                      return true;
                    })
                    .ok());
    return out;
  };
  const std::map<int64_t, uint64_t> before = chunk_rows();
  const size_t page = HeapFile::kOverflowCapacity;
  EXPECT_LE(before.size(), bytes / page + 2) << bytes << " bytes";
  EXPECT_GE(before.size(), bytes / page) << bytes << " bytes";

  // Appending the missing neighbours of the first species rewrites only
  // the first chunk (which may split); re-appending stored species
  // rewrites nothing.
  std::map<std::string, std::string> more = {{names[1], "C"}, {names[3], "G"}};
  ASSERT_TRUE(AppendTo(loader, *trees_, *id, more).ok());
  ASSERT_TRUE(AppendTo(loader, *trees_, *id, SequencesFor({names[0]})).ok());
  const std::map<int64_t, uint64_t> after = chunk_rows();
  size_t kept = 0;
  for (const auto& [key, rid] : before) {
    auto it = after.find(key);
    if (it != after.end() && it->second == rid) ++kept;
  }
  EXPECT_EQ(kept, before.size() - 1);
  EXPECT_LE(after.size(), before.size() + 1);
  auto stored = species_->SequencesForTree(*id);
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(stored->size(), sequences.size() + 2);
  EXPECT_EQ(stored->at(names[0]), sequences[names[0]]);
  EXPECT_EQ(stored->at(names[3]), "G");
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
    ASSERT_TRUE((*species)->Append(tree_id, 5, {{0, "Bha", "ACGT"}}).ok());
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
    const std::map<std::string, std::string> want = {{"Bha", "ACGT"}};
    EXPECT_EQ(*(*species)->SequencesForTree(tree_id), want);
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
/// scheme stored, and the species AppendSpecies stores, by name and by
/// domain ordinal. The tree is stored after a neighbor tree that
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
  const auto sequences = SequencesFor(names);
  auto appended = AppendTo(loader, *trees, *id, sequences);
  ASSERT_TRUE(appended.ok()) << appended.status();
  EXPECT_EQ(*species->SequencesForTree(*id), sequences);
  EXPECT_EQ(StoredByOrdinal(*species, *id, DomainSize(*t)),
            ByDomainOrdinal(*t, sequences));
  // Names of the neighbor tree do not leak into this one.
  EXPECT_TRUE(AppendTo(loader, *trees, *id, SequencesFor({"Lla"}))
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
  const auto sequences = SequencesFor({"S500"});
  ASSERT_TRUE(AppendTo(loader, **trees, *id, sequences).ok());
  const std::map<size_t, std::string> by_ordinal =
      StoredByOrdinal(**species, *id, DomainSize(*t));
  ASSERT_EQ(by_ordinal.size(), 1u);
  EXPECT_EQ(by_ordinal, ByDomainOrdinal(*t, sequences));
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

/// Two residents and the victim, all with "S<i>" leaves, so the trees
/// share species names.
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
/// species data (by name and by ordinal) and three session queries.
/// "gone" when no tree has the name.
std::string StoredTreeState(Crimson* session, const std::string& name) {
  auto trees = TreeRepository::Open(session->database());
  auto species = SpeciesRepository::Open(session->database());
  EXPECT_TRUE(trees.ok() && species.ok());
  if (!trees.ok() || !species.ok()) return "<open failed>";
  auto info = TreeNamed(**trees, name);
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
  out << "species " << *(*species)->HasSpecies(info->tree_id) << "\n";
  auto sequences = (*species)->SequencesForTree(info->tree_id);
  EXPECT_TRUE(sequences.ok());
  if (sequences.ok()) {
    for (const auto& [species_name, sequence] : *sequences) {
      out << species_name << "=" << sequence << " ";
    }
  }
  for (const auto& [ordinal, sequence] :
       StoredByOrdinal(**species, info->tree_id, DomainSize(*tree))) {
    out << ordinal << "@" << sequence << " ";
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

/// A database file's freelist, walked from the header.
std::vector<PageId> FreeListChain(const std::string& file) {
  std::vector<PageId> out;
  std::set<PageId> seen;
  const uint64_t pages = file.size() / kPageSize;
  for (PageId id = DecodeFixed32(file.data() + kHeaderFreelistOffset);
       id != kInvalidPageId;) {
    if (id >= pages || !seen.insert(id).second) {
      ADD_FAILURE() << "freelist leaves the file or loops at page " << id;
      break;
    }
    out.push_back(id);
    const char* page = file.data() + static_cast<uint64_t>(id) * kPageSize;
    EXPECT_EQ(static_cast<PageType>(page[0]), PageType::kFree) << id;
    id = DecodeFixed32(page + kFreePageLinkOffset);
  }
  return out;
}

std::set<PageId> FreeListPages(const std::string& file) {
  const std::vector<PageId> chain = FreeListChain(file);
  return std::set<PageId>(chain.begin(), chain.end());
}

/// The header's page count and the freelist in walk order: what a
/// recovered file must agree on with the fault-free file.
std::string PageAccounting(const std::string& file) {
  std::ostringstream out;
  out << "pages=" << DecodeFixed32(file.data() + kHeaderPageCountOffset)
      << " free=";
  for (PageId id : FreeListChain(file)) out << id << ",";
  return out.str();
}

/// Crashes a session DropTree of the victim at every write/sync point
/// of the WAL and the data file (every `fault_step`-th), reopens, and
/// requires the victim to be wholly present or wholly gone while the
/// residents answer as before, and the recovered file's page count and
/// freelist to be the fault-free file's on the same side of the commit.
void RunDropCrashSuite(uint64_t seed, uint32_t victim_leaves,
                       CrashPolicy policy, bool torn, uint64_t fault_step) {
  const auto trees = MakeDropTrees(seed, victim_leaves);
  std::map<std::string, std::string> gold;
  int64_t victim_id = 0;
  std::string pages_present, pages_gone;
  {
    test::FaultInjectionEnv env;
    LoadDropTrees(&env, trees);
    pages_present = PageAccounting(env.FileContents(kDropDbPath));
    {
      test::FaultInjectionEnv dropped_env;
      LoadDropTrees(&dropped_env, trees);
      auto session = Crimson::Open(DropSessionOptions(&dropped_env));
      ASSERT_TRUE(session.ok()) << session.status();
      ASSERT_TRUE((*session)->DropTree(kVictim).ok());
      session->reset();
      pages_gone = PageAccounting(dropped_env.FileContents(kDropDbPath));
    }
    EXPECT_NE(pages_present, pages_gone) << "the drop frees no page";
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
    // Read before the checks below run queries, whose history rows
    // the session may write back.
    const std::string pages = PageAccounting(env.FileContents(kDropDbPath));
    for (const char* resident : kResidents) {
      ASSERT_EQ(StoredTreeState(session->get(), resident), gold[resident]);
    }
    const std::string victim = StoredTreeState(session->get(), kVictim);
    ASSERT_EQ(pages, victim == "gone" ? pages_gone : pages_present);
    if (victim == "gone") {
      ++gone;
      EXPECT_TRUE((*session)->OpenTree(kVictim).status().IsNotFound());
      const std::map<std::string, size_t> none = {{"labels", 0},
                                                  {"species_chunks", 0},
                                                  {"tree_blobs", 0},
                                                  {"trees", 0}};
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
  RunDropCrashSuite(0xD209, /*victim_leaves=*/300, CrashPolicy::kDropUnsynced,
                    /*torn=*/false, /*fault_step=*/1);
}

TEST(DropCrashPoints, TornWrites) {
  RunDropCrashSuite(0xD20A, /*victim_leaves=*/300, CrashPolicy::kKeepAllWrites,
                    /*torn=*/true, /*fault_step=*/1);
}

TEST(TreeIdTest, DroppedTreeIdIsNeverReissued) {
  // Store a, store b, drop b, store c: c must not take b's id. The
  // newest id is then dropped before a clean close; after the durable
  // reopen the next store still gets a fresh one.
  test::FaultInjectionEnv env;
  YuleOptions yule;
  yule.n_leaves = 12;
  Rng rng(0x1D5);
  const PhyloTree tree = std::move(SimulateYule(yule, &rng)).value();
  int64_t newest = 0;
  {
    auto session = Crimson::Open(DropSessionOptions(&env));
    ASSERT_TRUE(session.ok()) << session.status();
    auto a = (*session)->LoadTree("a", tree);
    auto b = (*session)->LoadTree("b", tree);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_NE(a->tree_id, b->tree_id);
    ASSERT_TRUE((*session)->DropTree("b").ok());
    auto c = (*session)->LoadTree("c", tree);
    ASSERT_TRUE(c.ok()) << c.status();
    EXPECT_NE(c->tree_id, a->tree_id);
    EXPECT_NE(c->tree_id, b->tree_id);
    newest = std::max({a->tree_id, b->tree_id, c->tree_id});
    EXPECT_EQ(newest, c->tree_id);
    ASSERT_TRUE((*session)->DropTree("c").ok());
  }
  auto session = Crimson::Open(DropSessionOptions(&env));
  ASSERT_TRUE(session.ok()) << session.status();
  auto again = (*session)->LoadTree("b", tree);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_GT(again->tree_id, newest);
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

// ---------------------------------------------------------------------------
// Session AppendSpeciesData: crash consistency
// ---------------------------------------------------------------------------

/// A few hundred sites per species, so the victim's data spans chunks.
std::map<std::string, std::string> LongSequencesFor(
    const std::vector<std::string>& names, char salt) {
  std::map<std::string, std::string> out;
  for (const std::string& name : names) {
    std::string& sequence = out[name];
    while (sequence.size() < 300) sequence += salt + name;
  }
  return out;
}

/// Crashes a session AppendSpeciesData of the victim at every
/// write/sync point of the WAL and the data file, reopens, and requires
/// the victim's species data to be wholly as before or wholly as after
/// the append while the residents answer as before. With `reappend`,
/// half the victim's species are stored first, so the append rewrites
/// the chunks it reaches and must keep those species' sequences.
void RunAppendCrashSuite(uint64_t seed, uint32_t victim_leaves,
                         CrashPolicy policy, bool torn, bool reappend) {
  const auto trees = MakeDropTrees(seed, victim_leaves);
  const std::vector<std::string> names = LeafNames(trees.back().second);
  const std::vector<std::string> half(names.begin(),
                                      names.begin() + names.size() / 2);
  auto set_up = [&](test::FaultInjectionEnv* env) {
    auto session = Crimson::Open(DropSessionOptions(env));
    ASSERT_TRUE(session.ok()) << session.status();
    for (const auto& [name, tree] : trees) {
      ASSERT_TRUE((*session)->LoadTree(name, tree).ok());
      if (name == kVictim) continue;
      ASSERT_TRUE(
          (*session)->AppendSpeciesData(name, SequencesFor(LeafNames(tree)))
              .ok());
    }
    if (reappend) {
      ASSERT_TRUE(
          (*session)->AppendSpeciesData(kVictim, LongSequencesFor(half, 'a'))
              .ok());
    }
  };
  const auto batch = LongSequencesFor(names, 'b');
  std::map<std::string, std::string> gold;
  std::string appended;
  {
    test::FaultInjectionEnv env;
    set_up(&env);
    auto session = Crimson::Open(DropSessionOptions(&env));
    ASSERT_TRUE(session.ok()) << session.status();
    for (const auto& [name, tree] : trees) {
      gold[name] = StoredTreeState(session->get(), name);
    }
    ASSERT_TRUE((*session)->AppendSpeciesData(kVictim, batch).ok());
    appended = StoredTreeState(session->get(), kVictim);
  }
  ASSERT_NE(appended, gold[kVictim]);

  uint64_t before = 0;
  uint64_t after = 0;
  bool completed_without_fault = false;
  for (uint64_t fault = 1; !completed_without_fault; ++fault) {
    ASSERT_LT(fault, 100000u) << "crash loop failed to terminate";
    SCOPED_TRACE("fault point " + std::to_string(fault));
    test::FaultInjectionEnv env;
    set_up(&env);
    env.ResetOpCount();
    env.ArmFailPoint(fault, torn);
    {
      auto session = Crimson::Open(DropSessionOptions(&env));
      if (session.ok()) {
        auto result = (*session)->AppendSpeciesData(kVictim, batch);
        if (!env.triggered()) EXPECT_TRUE(result.ok()) << result.status();
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
    if (victim == gold[kVictim]) {
      ++before;
    } else {
      ++after;
      ASSERT_EQ(victim, appended);
    }
    if (completed_without_fault) {
      EXPECT_EQ(victim, appended) << "a fault-free append must land";
    }
  }
  EXPECT_GT(before, 0u);
  EXPECT_GT(after, 0u);
}

TEST(AppendCrashPoints, FirstAppend) {
  RunAppendCrashSuite(0xA991, 40, CrashPolicy::kKeepAllWrites,
                      /*torn=*/false, /*reappend=*/false);
  RunAppendCrashSuite(0xA992, 40, CrashPolicy::kKeepAllWrites,
                      /*torn=*/true, /*reappend=*/false);
  RunAppendCrashSuite(0xA993, 40, CrashPolicy::kDropUnsynced,
                      /*torn=*/false, /*reappend=*/false);
}

TEST(AppendCrashPoints, ReappendRewritesTouchedChunks) {
  RunAppendCrashSuite(0xA994, 40, CrashPolicy::kKeepAllWrites,
                      /*torn=*/false, /*reappend=*/true);
  RunAppendCrashSuite(0xA995, 40, CrashPolicy::kKeepAllWrites,
                      /*torn=*/true, /*reappend=*/true);
  RunAppendCrashSuite(0xA996, 40, CrashPolicy::kDropUnsynced,
                      /*torn=*/false, /*reappend=*/true);
}

TEST(AppendCrashPointsStress, SeedSweep) {
  // Victims up to 1.6k leaves (~500 KB of sequences), every policy and
  // fault point, first appends and re-appends.
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunAppendCrashSuite(seed, 200 * static_cast<uint32_t>(seed),
                        seed % 3 == 0 ? CrashPolicy::kDropUnsynced
                                      : CrashPolicy::kKeepAllWrites,
                        /*torn=*/seed % 3 == 1, /*reappend=*/seed % 2 == 0);
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

/// Runs `refuse` (loads the session must reject) in a durable session
/// holding 20 stored trees and two buffered history entries, and checks
/// that the refusals fetched no page, drained no history, moved no
/// history.* counter and left the stored trees as they were.
void ExpectRefusalsFetchNoPage(const std::function<void(Crimson*)>& refuse) {
  test::FaultInjectionEnv env;
  auto session = Crimson::Open(DropSessionOptions(&env));
  ASSERT_TRUE(session.ok()) << session.status();
  Rng rng(0x10AD);
  YuleOptions yule;
  yule.n_leaves = 200;
  TreeRef ref;
  for (int i = 0; i < 20; ++i) {
    PhyloTree tree = std::move(SimulateYule(yule, &rng)).value();
    auto loaded = (*session)->LoadTree("stored" + std::to_string(i), tree);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    ref = loaded->ref;
  }
  // Two buffered history entries a drain would carry.
  ASSERT_TRUE((*session)->Execute(ref, SampleUniformQuery{3}).ok());
  ASSERT_TRUE((*session)->Execute(ref, SampleUniformQuery{4}).ok());
  auto stored_before = (*session)->ListTrees();
  ASSERT_TRUE(stored_before.ok());
  auto history_counters = [&] {
    std::map<std::string, uint64_t> out;
    for (const auto& [key, value] :
         (*session)->SnapshotMetrics().counters) {
      if (key.rfind("history.", 0) == 0) out[key] = value;
    }
    return out;
  };
  const auto counters_before = history_counters();

  const uint64_t before = PoolFetches(**session);
  refuse(session->get());
  EXPECT_EQ(PoolFetches(**session) - before, 0u);

  EXPECT_EQ(history_counters(), counters_before);
  auto stored_after = (*session)->ListTrees();
  ASSERT_TRUE(stored_after.ok());
  ASSERT_EQ(stored_after->size(), stored_before->size());
  for (size_t i = 0; i < stored_after->size(); ++i) {
    EXPECT_EQ((*stored_after)[i].tree_id, (*stored_before)[i].tree_id);
    EXPECT_EQ((*stored_after)[i].name, (*stored_before)[i].name);
  }
  Database::ReadTxn read = (*session)->database()->BeginRead();
  auto queries = (*session)->database()->OpenTable("queries");
  ASSERT_TRUE(queries.ok()) << queries.status();
  EXPECT_EQ(queries->row_count(), 0u) << "a rejected load drained history";
  read.End();
  auto history = (*session)->QueryHistory(10);
  ASSERT_TRUE(history.ok()) << history.status();
  EXPECT_EQ(history->size(), 2u);
}

TEST(LoadCostTest, RejectedLoadFetchesNoPage) {
  // A load is parsed and mode-checked before the session takes its
  // writer lock. A rejected one therefore begins no transaction: it
  // drains no buffered history and, durable, reopens no repository --
  // with 20 stored trees that reopen alone fetched dozens of pages.
  ExpectRefusalsFetchNoPage([](Crimson* session) {
    EXPECT_TRUE(session->LoadNewick("bad", "((A,B);").status()
                    .IsInvalidArgument());
    EXPECT_TRUE(session
                    ->LoadNewick("append", "(A,B);",
                                 LoadMode::kAppendSpeciesData)
                    .status()
                    .IsInvalidArgument());
    EXPECT_FALSE(session->LoadNexus("nexus", "#NEXUS\nBEGIN TREES;").ok());
  });
}

TEST(LoadCostTest, DuplicateLeafNamesAndStoredNameFetchNoPage) {
  // Duplicate leaf names and a name already stored are refused before
  // the writer lock too, so neither begins (and aborts) a transaction.
  ExpectRefusalsFetchNoPage([](Crimson* session) {
    auto duplicates = session->LoadNewick("dupes", "((A:1,B:1):1,A:2);");
    EXPECT_TRUE(duplicates.status().IsInvalidArgument()) << duplicates.status();
    auto stored = session->LoadNewick("stored3", "(C:1,D:1);");
    EXPECT_TRUE(stored.status().IsAlreadyExists()) << stored.status();
    auto nexus = session->LoadNexus(
        "stored7",
        "#NEXUS\nBEGIN TREES;\n  TREE t = (C:1,D:1);\nEND;\n",
        LoadMode::kTreeStructureOnly);
    EXPECT_TRUE(nexus.status().IsAlreadyExists()) << nexus.status();
  });
}

TEST(DropCostTest, SpeciesLessDropFetchesEachBlobPageOnce) {
  // labels and tree_blobs each have one index, which DeleteWhere
  // removes as a run: a drop frees their overflow pages without first
  // reading the blobs back, so it fetches each of those pages once.
  CrimsonOptions opts;
  opts.batch_workers = 1;
  auto session = Crimson::Open(opts);
  ASSERT_TRUE(session.ok()) << session.status();
  Rng rng(0xB10B);
  YuleOptions yule;
  yule.n_leaves = 10000;
  const PhyloTree tree = std::move(SimulateYule(yule, &rng)).value();
  ASSERT_TRUE((*session)->LoadTree("bare", tree).ok());
  auto trees = TreeRepository::Open((*session)->database());
  ASSERT_TRUE(trees.ok());
  auto info = TreeNamed(**trees, "bare");
  ASSERT_TRUE(info.ok());
  auto labels = (*trees)->LoadSchemeBlob(info->tree_id);
  ASSERT_TRUE(labels.ok());
  std::string image;
  EncodePackedTree(tree, &image);
  const size_t page = HeapFile::kOverflowCapacity;
  const uint64_t blob_pages =
      (labels->size() + page - 1) / page + (image.size() + page - 1) / page;
  ASSERT_GT(blob_pages, 60u);

  const uint64_t before = PoolFetches(**session);
  ASSERT_TRUE((*session)->DropTree("bare").ok());
  const uint64_t fetched = PoolFetches(**session) - before;
  EXPECT_GE(fetched, blob_pages);
  // Index descents and heap stub pages; reading the blobs back would
  // add another blob_pages.
  EXPECT_LE(fetched, blob_pages + 40) << blob_pages << " blob pages";
}

TEST(DropCostTest, SpeciesDropFetchesEachChunkPageOnce) {
  // species_chunks has one index, on chunk_key, and a tree's chunks are
  // one range of it: dropping them frees their overflow pages without
  // reading the chunks back, so the species add about one fetch per
  // chunk page to the drop of the same tree without species.
  CrimsonOptions opts;
  opts.batch_workers = 1;
  auto session = Crimson::Open(opts);
  ASSERT_TRUE(session.ok()) << session.status();
  Rng rng(0xC4D0);
  YuleOptions yule;
  yule.n_leaves = 10000;
  const PhyloTree tree = std::move(SimulateYule(yule, &rng)).value();
  std::map<std::string, std::string> sequences;
  for (const std::string& name : LeafNames(tree)) {
    sequences[name] = std::string(128, 'A');
  }
  auto drop_fetches = [&](bool with_species) -> uint64_t {
    EXPECT_TRUE((*session)->LoadTree("t", tree).ok());
    if (with_species) {
      EXPECT_TRUE((*session)->AppendSpeciesData("t", sequences).ok());
    }
    const uint64_t before = PoolFetches(**session);
    EXPECT_TRUE((*session)->DropTree("t").ok());
    return PoolFetches(**session) - before;
  };
  const uint64_t bare = drop_fetches(false);

  // Load with species again and count the pages its chunks take.
  ASSERT_TRUE((*session)->LoadTree("t", tree).ok());
  ASSERT_TRUE((*session)->AppendSpeciesData("t", sequences).ok());
  auto chunks = (*session)->database()->OpenTable("species_chunks");
  ASSERT_TRUE(chunks.ok()) << chunks.status();
  const size_t page = HeapFile::kOverflowCapacity;
  uint64_t chunk_pages = 0, rows = 0;
  ASSERT_TRUE(chunks
                  ->Scan([&](const RecordId&, const Row& row) {
                    chunk_pages +=
                        std::get<std::string>(row[1]).size() / page + 1;
                    ++rows;
                    return true;
                  })
                  .ok());
  ASSERT_GT(chunk_pages, 100u);
  ASSERT_TRUE((*session)->DropTree("t").ok());

  const uint64_t with_species = drop_fetches(true);
  EXPECT_GE(with_species, bare + chunk_pages - rows);
  // Plus one stub-page fetch per row and the index range; reading the
  // chunks back would add those again.
  EXPECT_LE(with_species, bare + chunk_pages + rows + 40)
      << chunk_pages << " chunk pages in " << rows << " rows";
}

TEST(AppendCostTest, BoundAppendFetchesNoTreeBlobOrLabelsPage) {
  // Appending to a bound tree resolves species against the handle's
  // in-memory tree and name index, so it reads back neither the packed
  // tree image (tree_blobs) nor the labels: three sequences cost a
  // 10k-leaf tree the fetches they cost an 8-leaf one. Reading either
  // blob, as a lookup of the stored tree by name would, adds more
  // pages than the slack.
  CrimsonOptions opts;
  opts.batch_workers = 1;
  auto session = Crimson::Open(opts);
  ASSERT_TRUE(session.ok()) << session.status();
  Rng rng(0xA99E);
  YuleOptions yule;
  yule.n_leaves = 8;
  const PhyloTree small = std::move(SimulateYule(yule, &rng)).value();
  yule.n_leaves = 10000;
  const PhyloTree big = std::move(SimulateYule(yule, &rng)).value();
  ASSERT_TRUE((*session)->LoadTree("small", small).ok());
  auto loaded = (*session)->LoadTree("big", big);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  auto trees = TreeRepository::Open((*session)->database());
  ASSERT_TRUE(trees.ok());
  auto labels = (*trees)->LoadSchemeBlob(loaded->tree_id);
  ASSERT_TRUE(labels.ok());
  std::string image;
  EncodePackedTree(big, &image);
  const size_t page = HeapFile::kOverflowCapacity;
  const uint64_t label_pages = (labels->size() + page - 1) / page;
  const uint64_t image_pages = (image.size() + page - 1) / page;
  constexpr uint64_t kSlack = 4;
  ASSERT_GT(std::min(label_pages, image_pages), kSlack);

  // Three neighbours in the leaf-name domain, so one chunk row each
  // time. The name-keyed spelling opens the bound ref and appends
  // through it.
  auto append_fetches = [&](const std::string& name, const PhyloTree& tree) {
    std::vector<std::string> names = LeafNames(tree);
    std::sort(names.begin(), names.end());
    names.resize(3);
    const auto sequences = SequencesFor(names);
    const uint64_t before = PoolFetches(**session);
    EXPECT_TRUE((*session)->AppendSpeciesData(name, sequences).ok());
    return PoolFetches(**session) - before;
  };
  const uint64_t small_fetches = append_fetches("small", small);
  const uint64_t big_fetches = append_fetches("big", big);
  EXPECT_LE(big_fetches, small_fetches + kSlack)
      << label_pages << " label pages, " << image_pages << " image pages";
}

TEST(DropCostTest, DropLogsEachFreedPageAsItsFreeListLink) {
  // A durable drop of a tree with species frees its blob, chunk and
  // overflow pages. Its log holds no full image of any of them: one
  // kFreePage record each, whose rebuilt image is the page the commit
  // force-wrote to the data file.
  test::FaultInjectionEnv env;
  CrimsonOptions opts = DropSessionOptions(&env);
  opts.buffer_pool_pages = CrimsonOptions().buffer_pool_pages;
  opts.wal_checkpoint_bytes = 0;  // the log keeps the drop until read
  auto session = Crimson::Open(opts);
  ASSERT_TRUE(session.ok()) << session.status();
  for (const auto& [name, tree] : MakeDropTrees(0xF2EE, 2000)) {
    ASSERT_TRUE((*session)->LoadTree(name, tree).ok());
    ASSERT_TRUE((*session)
                    ->AppendSpeciesData(name,
                                        LongSequencesFor(LeafNames(tree), 's'))
                    .ok());
  }
  ASSERT_TRUE((*session)->Checkpoint().ok());
  const std::set<PageId> free_before =
      FreeListPages(env.FileContents(kDropDbPath));

  ASSERT_TRUE((*session)->DropTree(kVictim).ok());
  WalScanSummary summary;
  auto records = ReadWalRecords(std::string(kDropDbPath) + "-wal", env.env(),
                                &summary);
  ASSERT_TRUE(records.ok()) << records.status();
  EXPECT_EQ(summary.commits, 1u);
  const std::string file = env.FileContents(kDropDbPath);
  std::set<PageId> freed;
  for (PageId id : FreeListPages(file)) {
    if (free_before.count(id) == 0) freed.insert(id);
  }
  // 2,000 species of 300+ bytes span ~80 overflow pages.
  ASSERT_GT(freed.size(), 80u);

  uint64_t free_records = 0;
  uint64_t image_records = 0;
  for (const WalRecord& rec : *records) {
    if (rec.type == WalRecordType::kPageImage) {
      ++image_records;
      EXPECT_EQ(freed.count(rec.page), 0u)
          << "freed page " << rec.page << " logged as a full image";
    } else if (rec.type == WalRecordType::kFreePage) {
      ++free_records;
      EXPECT_EQ(freed.count(rec.page), 1u) << rec.page;
      EXPECT_EQ(rec.image,
                file.substr(static_cast<uint64_t>(rec.page) * kPageSize,
                            kPageSize))
          << "page " << rec.page;
    }
  }
  EXPECT_EQ(free_records, freed.size());
  EXPECT_GT(image_records, 0u);
}

TEST(DropCostTest, FreedPagesAreReusedAcrossCycles) {
  // Twenty load/append/drop cycles of one 5k-leaf tree beside two
  // residents in a durable session: each store takes the pages the
  // last drop freed, so the checkpointed file stays near its size
  // after the first cycle.
  test::FaultInjectionEnv env;
  CrimsonOptions opts = DropSessionOptions(&env);
  opts.buffer_pool_pages = CrimsonOptions().buffer_pool_pages;
  auto session = Crimson::Open(opts);
  ASSERT_TRUE(session.ok()) << session.status();
  Rng rng(0xF11E);
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
  size_t after_one = 0;
  for (int cycle = 1; cycle <= 20; ++cycle) {
    ASSERT_TRUE((*session)->LoadTree("cycle", cycle_tree).ok());
    ASSERT_TRUE((*session)->AppendSpeciesData("cycle", sequences).ok());
    ASSERT_TRUE((*session)->DropTree("cycle").ok());
    ASSERT_TRUE((*session)->Checkpoint().ok());
    if (cycle == 1) after_one = env.FileContents(kDropDbPath).size();
  }
  const size_t after_twenty = env.FileContents(kDropDbPath).size();
  ASSERT_GT(after_one, 0u);
  EXPECT_LE(after_twenty * 5, after_one * 6)
      << "file after 1 cycle " << after_one << " B, after 20 "
      << after_twenty << " B";
}

}  // namespace
}  // namespace crimson
