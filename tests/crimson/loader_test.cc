#include "crimson/data_loader.h"

#include <gtest/gtest.h>

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
  auto info = trees_->GetTreeInfo("fig1");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->n_leaves, 4);
}

TEST_F(LoaderTest, NewickParseErrorsSurface) {
  auto report = loader_->LoadNewick("bad", "((A,B);");
  EXPECT_TRUE(report.status().IsInvalidArgument());
  EXPECT_TRUE(trees_->GetTreeInfo("bad").status().IsNotFound());
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
  ASSERT_TRUE(
      loader_->LoadNexus("gold", kNexusWithData, LoadMode::kTreeStructureOnly)
          .ok());
  auto report = loader_->LoadNexus("gold", kNexusWithData,
                                   LoadMode::kAppendSpeciesData);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->species_loaded, 3u);
  auto sequences = species_->SequencesForTree(report->tree_id);
  ASSERT_TRUE(sequences.ok()) << sequences.status();
  EXPECT_EQ(sequences->at("C"), "TTTT");
}

TEST_F(LoaderTest, AppendToUnknownTreeFails) {
  auto report = loader_->LoadNexus("ghost", kNexusWithData,
                                   LoadMode::kAppendSpeciesData);
  EXPECT_TRUE(report.status().IsNotFound());
}

TEST_F(LoaderTest, AppendUnknownSpeciesFails) {
  ASSERT_TRUE(loader_->LoadNewick("small", "(A:1,B:1);").ok());
  std::map<std::string, std::string> seqs = {{"A", "ACGT"}, {"Z", "ACGT"}};
  EXPECT_TRUE(loader_->AppendSpecies("small", seqs).status().IsNotFound());
}

TEST_F(LoaderTest, ProgressCallbackInvoked) {
  std::vector<std::string> phases;
  auto report = loader_->LoadNewick(
      "t", "(A:1,B:2);", LoadMode::kTreeStructureOnly,
      [&](const std::string& phase, uint64_t) { phases.push_back(phase); });
  ASSERT_TRUE(report.ok());
  ASSERT_GE(phases.size(), 3u);
  EXPECT_EQ(phases.front(), "parsing");
  EXPECT_EQ(phases.back(), "done");
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
  EXPECT_TRUE(trees_->GetTreeInfo("dups").status().IsNotFound());
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
