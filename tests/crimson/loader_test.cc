#include "crimson/data_loader.h"

#include <gtest/gtest.h>

#include "tree/name_index.h"
#include "tree/newick.h"
#include "tree/tree_builders.h"

namespace crimson {
namespace {

constexpr char kNexusWithData[] = R"(#NEXUS
BEGIN TAXA;
  TAXLABELS A B C;
END;
BEGIN DATA;
  MATRIX
    A ACGT
    B ACGA
    C TTTT
  ;
END;
BEGIN TREES;
  TREE gold = ((A:1,B:1):1,C:2);
END;
)";

class LoaderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = Database::OpenInMemory();
    ASSERT_TRUE(db.ok());
    db_ = std::move(db).value();
    auto trees = TreeRepository::Open(db_.get());
    ASSERT_TRUE(trees.ok());
    trees_ = std::move(trees).value();
    auto species = SpeciesRepository::Open(db_.get());
    ASSERT_TRUE(species.ok());
    species_ = std::move(species).value();
    loader_ = std::make_unique<DataLoader>(trees_.get(), species_.get(), 4);
  }

  /// Stored trees named `name` (0 or 1), with their metadata.
  std::vector<TreeInfo> Named(const std::string& name) {
    auto all = trees_->ListTrees();
    EXPECT_TRUE(all.ok()) << all.status();
    std::vector<TreeInfo> out;
    if (!all.ok()) return out;
    for (const TreeInfo& info : *all) {
      if (info.name == name) out.push_back(info);
    }
    return out;
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<TreeRepository> trees_;
  std::unique_ptr<SpeciesRepository> species_;
  std::unique_ptr<DataLoader> loader_;
};

TEST_F(LoaderTest, LoadNewickStructure) {
  auto report = loader_->LoadNewick("fig1", "((Bha:1.5,(Lla:1,Spy:1):0.5):0.75,Syn:2.5);");
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->nodes_loaded, 7u);
  EXPECT_EQ(report->species_loaded, 0u);
  const std::vector<TreeInfo> info = Named("fig1");
  ASSERT_EQ(info.size(), 1u);
  EXPECT_EQ(info[0].tree_id, report->tree_id);
  EXPECT_EQ(info[0].n_leaves, 4);
}

TEST_F(LoaderTest, NewickParseErrorsSurface) {
  auto report = loader_->LoadNewick("bad", "((A,B);");
  EXPECT_TRUE(report.status().IsInvalidArgument());
  EXPECT_TRUE(Named("bad").empty());
}

TEST_F(LoaderTest, NewickCannotAppendSpecies) {
  EXPECT_TRUE(loader_
                  ->LoadNewick("t", "(A,B);",
                               LoadMode::kAppendSpeciesData)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(LoaderTest, LoadNexusWithSpeciesData) {
  auto report = loader_->LoadNexus("gold", kNexusWithData,
                                   LoadMode::kTreeWithSpeciesData);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->nodes_loaded, 5u);
  EXPECT_EQ(report->species_loaded, 3u);
  auto sequences = species_->SequencesForTree(report->tree_id);
  ASSERT_TRUE(sequences.ok()) << sequences.status();
  EXPECT_EQ(sequences->at("A"), "ACGT");
}

TEST_F(LoaderTest, LoadNexusStructureOnlySkipsSequences) {
  auto report =
      loader_->LoadNexus("gold", kNexusWithData, LoadMode::kTreeStructureOnly);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->species_loaded, 0u);
  EXPECT_FALSE(*species_->HasSpecies(report->tree_id));
}

TEST_F(LoaderTest, AppendSpeciesDataToExistingTree) {
  // The loader appends against the tree its caller holds (the session
  // passes its bound handle's; SessionAppendTest covers that path).
  auto loaded =
      loader_->LoadNexus("gold", kNexusWithData, LoadMode::kTreeStructureOnly);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const NexusDocument doc = std::move(ParseNexus(kNexusWithData)).value();
  auto tree = trees_->LoadTree(loaded->tree_id);
  ASSERT_TRUE(tree.ok()) << tree.status();
  auto report = loader_->AppendSpecies(loaded->tree_id, *tree,
                                       NameIndex::Build(*tree), doc.sequences);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->species_loaded, 3u);
  EXPECT_EQ(report->tree_id, loaded->tree_id);
  auto sequences = species_->SequencesForTree(report->tree_id);
  ASSERT_TRUE(sequences.ok()) << sequences.status();
  EXPECT_EQ(sequences->at("C"), "TTTT");
}

TEST_F(LoaderTest, AppendToUnknownTreeFails) {
  auto report = loader_->LoadNexus("ghost", kNexusWithData,
                                   LoadMode::kAppendSpeciesData);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(Named("ghost").empty());
}

TEST_F(LoaderTest, NexusAppendNeedsTheSession) {
  // Appending to a stored tree takes the tree the caller holds; the
  // session's LoadNexus does that (SessionAppendTest), the loader's
  // document load refuses the mode before parsing or writing.
  ASSERT_TRUE(
      loader_->LoadNexus("gold", kNexusWithData, LoadMode::kTreeStructureOnly)
          .ok());
  auto report = loader_->LoadNexus("gold", kNexusWithData,
                                   LoadMode::kAppendSpeciesData);
  EXPECT_TRUE(report.status().IsInvalidArgument()) << report.status();
  EXPECT_EQ(Named("gold").size(), 1u);
  EXPECT_FALSE(*species_->HasSpecies(Named("gold")[0].tree_id));
}

TEST_F(LoaderTest, AppendUnknownSpeciesFails) {
  auto report = loader_->LoadNewick("small", "(A:1,B:1);");
  ASSERT_TRUE(report.ok());
  const PhyloTree tree = std::move(ParseNewick("(A:1,B:1);")).value();
  std::map<std::string, std::string> seqs = {{"A", "ACGT"}, {"Z", "ACGT"}};
  EXPECT_TRUE(loader_
                  ->AppendSpecies(report->tree_id, tree,
                                  NameIndex::Build(tree), seqs)
                  .status()
                  .IsNotFound());
  EXPECT_FALSE(*species_->HasSpecies(report->tree_id));
}

TEST_F(LoaderTest, LoadPrebuiltTree) {
  PhyloTree t = MakePaperFigure1Tree();
  auto report = loader_->LoadTree("fig1", t);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->nodes_loaded, 8u);
  auto loaded = trees_->LoadTree(report->tree_id);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(PhyloTree::Equal(*loaded, t, 1e-9, /*ordered=*/true));
}

TEST_F(LoaderTest, DuplicateLeafNamesRejectedAtIngest) {
  // Duplicate leaf names would make name-addressed queries ambiguous;
  // ingest rejects them before anything is written.
  auto report = loader_->LoadNewick("dups", "((A:1,A:1):1,B:2);");
  ASSERT_TRUE(report.status().IsInvalidArgument());
  EXPECT_NE(report.status().ToString().find("duplicate leaf name"),
            std::string::npos);
  EXPECT_NE(report.status().ToString().find("'A'"), std::string::npos);
  EXPECT_TRUE(Named("dups").empty());
  // Internal-node names may repeat leaf names freely.
  EXPECT_TRUE(loader_->LoadNewick("ok", "((A:1,B:1)A:1,C:2);").ok());
}

TEST_F(LoaderTest, NexusWithoutTreesRejected) {
  const char* no_trees = "#NEXUS\nBEGIN TAXA;\nTAXLABELS A B;\nEND;\n";
  EXPECT_TRUE(loader_->LoadNexus("x", no_trees, LoadMode::kTreeStructureOnly)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace crimson
