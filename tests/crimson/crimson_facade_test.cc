#include "crimson/crimson.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <utility>

#include "sim/seq_evolve.h"
#include "storage/file.h"
#include "tree/newick.h"
#include "tree/nexus.h"
#include "tree/tree_builders.h"

namespace crimson {
namespace {

constexpr char kFig1Newick[] =
    "(Syn:2.5,((Lla:1,Spy:1):0.5,Bha:1.5):0.75,Bsu:1.25)root;";

class CrimsonFacadeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CrimsonOptions opts;
    opts.f = 3;
    auto c = Crimson::Open(opts);
    ASSERT_TRUE(c.ok()) << c.status();
    crimson_ = std::move(c).value();
    auto report = crimson_->LoadNewick("fig1", kFig1Newick);
    ASSERT_TRUE(report.ok()) << report.status();
    ref_ = report->ref;
  }

  Result<QueryResult> Run(const QueryRequest& request) {
    return crimson_->Execute(ref_, request);
  }

  std::unique_ptr<Crimson> crimson_;
  TreeRef ref_;
};

TEST_F(CrimsonFacadeTest, ListAndGetTree) {
  auto list = crimson_->ListTrees();
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 1u);
  EXPECT_EQ((*list)[0].name, "fig1");
  EXPECT_EQ((*list)[0].n_nodes, 8);
  auto tree = crimson_->GetTree(ref_);
  ASSERT_TRUE(tree.ok());
  EXPECT_TRUE(PhyloTree::Equal(**tree, MakePaperFigure1Tree(), 1e-9,
                               /*ordered=*/false));
}

TEST_F(CrimsonFacadeTest, LcaQuery) {
  auto a = Run(LcaQuery{"Lla", "Spy"});
  ASSERT_TRUE(a.ok()) << a.status();
  auto tree = crimson_->GetTree(ref_);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(std::get<LcaAnswer>(*a).node,
            (*tree)->parent((*tree)->FindByName("Lla")));
  auto b = Run(LcaQuery{"Lla", "Syn"});
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(std::get<LcaAnswer>(*b).name, "root");
  EXPECT_TRUE(Run(LcaQuery{"Lla", "Zzz"}).status().IsNotFound());
  EXPECT_TRUE(crimson_->OpenTree("ghost").status().IsNotFound());
}

TEST_F(CrimsonFacadeTest, ProjectQueryMatchesFigure2) {
  auto proj = Run(ProjectQuery{{"Bha", "Lla", "Syn"}});
  ASSERT_TRUE(proj.ok()) << proj.status();
  auto expected = ParseNewick("((Lla:1.5,Bha:1.5):0.75,Syn:2.5)root;");
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(PhyloTree::Equal(std::get<ProjectAnswer>(*proj).projection,
                               *expected, 1e-9, /*ordered=*/false));
}

TEST_F(CrimsonFacadeTest, SamplingQueries) {
  auto uniform = Run(SampleUniformQuery{3});
  ASSERT_TRUE(uniform.ok());
  EXPECT_EQ(std::get<SampleAnswer>(*uniform).species.size(), 3u);
  auto timed = Run(SampleTimeQuery{4, 1.0});
  ASSERT_TRUE(timed.ok());
  const std::vector<std::string>& drawn =
      std::get<SampleAnswer>(*timed).species;
  std::set<std::string> names(drawn.begin(), drawn.end());
  EXPECT_TRUE(names.count("Bha"));
  EXPECT_TRUE(names.count("Syn"));
  EXPECT_TRUE(names.count("Bsu"));
}

TEST_F(CrimsonFacadeTest, CladeQuery) {
  auto clade = Run(CladeQuery{{"Lla", "Spy"}});
  ASSERT_TRUE(clade.ok());
  EXPECT_EQ(std::get<CladeAnswer>(*clade).node_count, 3u);
  EXPECT_EQ(std::get<CladeAnswer>(*clade).leaf_count, 2u);
  auto wide = Run(CladeQuery{{"Lla", "Bsu"}});
  ASSERT_TRUE(wide.ok());
  EXPECT_EQ(std::get<CladeAnswer>(*wide).node_count, 8u);
}

TEST_F(CrimsonFacadeTest, PatternMatchQuery) {
  auto hit = Run(PatternQuery{"((Bha:1.5,Lla:1.5):0.75,Syn:2.5);",
                              /*match_weights=*/true});
  ASSERT_TRUE(hit.ok()) << hit.status();
  EXPECT_TRUE(std::get<PatternAnswer>(*hit).exact);
  // Non-match with 4 leaves so unrooted RF is informative (3-leaf
  // unrooted trees have no non-trivial splits).
  auto miss = Run(PatternQuery{"((Bha:1,Lla:1):1,(Spy:1,Syn:1):1);",
                               /*match_weights=*/false});
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(std::get<PatternAnswer>(*miss).exact);
  EXPECT_GT(std::get<PatternAnswer>(*miss).rf_normalized, 0.0);
}

TEST_F(CrimsonFacadeTest, QueryHistoryRecordsEverything) {
  ASSERT_TRUE(Run(LcaQuery{"Lla", "Spy"}).ok());
  ASSERT_TRUE(Run(ProjectQuery{{"Bha", "Syn"}}).ok());
  ASSERT_TRUE(Run(SampleUniformQuery{2}).ok());
  auto history = crimson_->QueryHistory();
  ASSERT_TRUE(history.ok());
  ASSERT_EQ(history->size(), 3u);
  EXPECT_EQ((*history)[0].kind, "sample_uniform");
  EXPECT_EQ((*history)[1].kind, "project");
  EXPECT_EQ((*history)[2].kind, "lca");
  EXPECT_FALSE((*history)[2].summary.empty());
}

TEST_F(CrimsonFacadeTest, RerunQueryReproducesAnswers) {
  auto first = Run(LcaQuery{"Lla", "Syn"});
  ASSERT_TRUE(first.ok());
  auto history = crimson_->QueryHistory(1);
  ASSERT_TRUE(history.ok());
  int64_t qid = (*history)[0].query_id;
  auto rerun = crimson_->RerunQuery(qid);
  ASSERT_TRUE(rerun.ok()) << rerun.status();
  EXPECT_NE(rerun->find("root"), std::string::npos);
  // Projection reruns return Newick.
  ASSERT_TRUE(Run(ProjectQuery{{"Bha", "Lla", "Syn"}}).ok());
  history = crimson_->QueryHistory(1);
  auto proj_rerun = crimson_->RerunQuery((*history)[0].query_id);
  ASSERT_TRUE(proj_rerun.ok());
  auto reparsed = ParseNewick(*proj_rerun);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->LeafCount(), 3u);
}

TEST_F(CrimsonFacadeTest, ExecuteAndBatchShareOnePipeline) {
  // Execute and a one-request ExecuteBatch produce identical history
  // entries -- they run the same per-query pipeline.
  ASSERT_TRUE(Run(LcaQuery{"Lla", "Spy"}).ok());
  const std::vector<QueryRequest> one = {LcaQuery{"Lla", "Spy"}};
  auto batch = crimson_->ExecuteBatch(ref_, one);
  ASSERT_EQ(batch.size(), 1u);
  ASSERT_TRUE(batch[0].ok());
  auto history = crimson_->QueryHistory(2);
  ASSERT_TRUE(history.ok());
  ASSERT_EQ(history->size(), 2u);
  EXPECT_EQ((*history)[0].kind, (*history)[1].kind);
  EXPECT_EQ((*history)[0].params, (*history)[1].params);
  EXPECT_EQ((*history)[0].summary, (*history)[1].summary);
}

/// One NJ cell over a uniform k-species sample, one replicate.
ExperimentSpec NjSpec(size_t k) {
  ExperimentSpec spec;
  spec.algorithms = {"nj"};
  SelectionSpec sel;
  sel.kind = SelectionSpec::Kind::kUniform;
  sel.k = k;
  spec.selections = {sel};
  spec.replicates = 1;
  return spec;
}

TEST_F(CrimsonFacadeTest, ExperimentRequiresSpeciesData) {
  EXPECT_TRUE(crimson_->RunExperiment(ref_, NjSpec(4))
                  .status()
                  .IsFailedPrecondition());
}

TEST_F(CrimsonFacadeTest, ExperimentWithLoadedSequences) {
  // Attach simulated sequences, then evaluate NJ end to end.
  auto tree = crimson_->GetTree(ref_);
  ASSERT_TRUE(tree.ok());
  SeqEvolveOptions opts;
  opts.seq_length = 400;
  auto ev = SequenceEvolver::Create(opts);
  ASSERT_TRUE(ev.ok());
  Rng rng(5);
  auto seqs = ev->EvolveLeaves(**tree, &rng);
  ASSERT_TRUE(seqs.ok());
  ASSERT_TRUE(crimson_->AppendSpeciesData("fig1", *seqs).ok());

  auto report = crimson_->RunExperiment(ref_, NjSpec(5));
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->runs.size(), 1u);
  const BenchmarkRun& run = report->runs[0];
  EXPECT_EQ(run.algorithm, "neighbor_joining");
  EXPECT_EQ(run.sample_size, 5u);
  EXPECT_EQ(run.reconstructed.LeafCount(), 5u);
}

TEST(CrimsonPersistenceTest, OnDiskLifecycle) {
  std::string path = testing::TempDir() + "/crimson_facade.db";
  RemoveFile(path);
  {
    CrimsonOptions opts;
    opts.db_path = path;
    opts.f = 3;
    auto c = Crimson::Open(opts);
    ASSERT_TRUE(c.ok());
    auto load = (*c)->LoadNewick("fig1", kFig1Newick);
    ASSERT_TRUE(load.ok());
    ASSERT_TRUE((*c)->Execute(load->ref, LcaQuery{"Lla", "Spy"}).ok());
    ASSERT_TRUE((*c)->Flush().ok());
  }
  {
    CrimsonOptions opts;
    opts.db_path = path;
    auto c = Crimson::Open(opts);
    ASSERT_TRUE(c.ok());
    auto list = (*c)->ListTrees();
    ASSERT_TRUE(list.ok());
    ASSERT_EQ(list->size(), 1u);
    // Query history survived.
    auto history = (*c)->QueryHistory();
    ASSERT_TRUE(history.ok());
    ASSERT_EQ(history->size(), 1u);
    EXPECT_EQ((*history)[0].kind, "lca");
    // And the tree still answers queries.
    auto ref = (*c)->OpenTree("fig1");
    ASSERT_TRUE(ref.ok());
    auto a = (*c)->Execute(*ref, LcaQuery{"Lla", "Syn"});
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(std::get<LcaAnswer>(*a).name, "root");
  }
  RemoveFile(path);
}

TEST(CrimsonOptionsTest, DuplicateLoadRejected) {
  auto c = Crimson::Open();
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE((*c)->LoadNewick("t", "(A:1,B:1);").ok());
  EXPECT_TRUE((*c)->LoadNewick("t", "(C:1,D:1);").status().IsAlreadyExists());
}

}  // namespace
}  // namespace crimson

namespace crimson {
namespace {

TEST(CrimsonViewerTest, ExportNexusAndRender) {
  CrimsonOptions opts;
  opts.f = 3;
  auto c = Crimson::Open(opts);
  ASSERT_TRUE(c.ok());
  auto load =
      (*c)->LoadNewick("fig1",
                       "(Syn:2.5,((Lla:1,Spy:1):0.5,Bha:1.5):0.75,Bsu:1.25)"
                       "root;");
  ASSERT_TRUE(load.ok());
  std::map<std::string, std::string> seqs = {{"Syn", "ACGT"},
                                             {"Bha", "TTTT"}};
  ASSERT_TRUE((*c)->AppendSpeciesData("fig1", seqs).ok());

  auto nexus = (*c)->ExportNexus(load->ref);
  ASSERT_TRUE(nexus.ok()) << nexus.status();
  EXPECT_NE(nexus->find("#NEXUS"), std::string::npos);
  EXPECT_NE(nexus->find("TAXLABELS"), std::string::npos);
  EXPECT_NE(nexus->find("ACGT"), std::string::npos);
  EXPECT_NE(nexus->find("TREE fig1"), std::string::npos);
  // The exported document reparses to an equal tree.
  auto doc = ParseNexus(*nexus);
  ASSERT_TRUE(doc.ok()) << doc.status();
  ASSERT_EQ(doc->trees.size(), 1u);
  EXPECT_TRUE(PhyloTree::Equal(doc->trees[0].tree, MakePaperFigure1Tree(),
                               1e-9, /*ordered=*/false));

  auto art = (*c)->RenderTree(load->ref);
  ASSERT_TRUE(art.ok());
  EXPECT_NE(art->find("Lla:1"), std::string::npos);
  EXPECT_NE(art->find("└──"), std::string::npos);
  EXPECT_TRUE((*c)->OpenTree("ghost").status().IsNotFound());
}

// Every stored tree carries a labels row and a tree_blobs row. OpenTree
// decodes both and never relabels or rebuilds from node rows, so a
// damaged row fails the bind with Corruption naming the tree.
enum class Damage { kDeleteRow, kGarbage, kOtherTreesRow };

void DamageRowThenOpen(const std::string& table_name, Damage damage) {
  const std::string db_path =
      testing::TempDir() + "/damaged_" + table_name + ".db";
  std::remove(db_path.c_str());
  {
    CrimsonOptions opts;
    opts.db_path = db_path;
    auto c = Crimson::Open(opts);
    ASSERT_TRUE(c.ok()) << c.status();
    ASSERT_TRUE((*c)->LoadNewick("fig1", kFig1Newick).ok());
    ASSERT_TRUE((*c)->LoadNewick("small", "((A:1,B:1):1,C:2)r;").ok());
  }
  {
    auto db = Database::Open(db_path, {});
    ASSERT_TRUE(db.ok()) << db.status();
    auto table = (*db)->OpenTable(table_name);
    ASSERT_TRUE(table.ok()) << table.status();
    // Tree ids follow load order: fig1 is 1, small is 2.
    std::map<int64_t, std::pair<RecordId, std::string>> rows;
    ASSERT_TRUE(table
                    ->Scan([&](const RecordId& rid, const Row& row) {
                      rows[std::get<int64_t>(row[0])] = {
                          rid, std::get<std::string>(row[1])};
                      return true;
                    })
                    .ok());
    ASSERT_EQ(rows.size(), 2u);
    ASSERT_TRUE(table->Delete(rows[1].first).ok());
    if (damage == Damage::kGarbage) {
      std::string garbage = rows[1].second;
      garbage.resize(garbage.size() / 2);
      ASSERT_TRUE(table->Insert({int64_t{1}, garbage}).ok());
    } else if (damage == Damage::kOtherTreesRow) {
      ASSERT_TRUE(table->Insert({int64_t{1}, rows[2].second}).ok());
    }
    ASSERT_TRUE((*db)->Checkpoint().ok());
  }
  CrimsonOptions opts;
  opts.db_path = db_path;
  auto c = Crimson::Open(opts);
  ASSERT_TRUE(c.ok()) << c.status();
  auto ref = (*c)->OpenTree("fig1");
  ASSERT_TRUE(ref.status().IsCorruption()) << ref.status();
  EXPECT_NE(ref.status().ToString().find("'fig1'"), std::string::npos)
      << ref.status();
  // The undamaged tree still binds.
  EXPECT_TRUE((*c)->OpenTree("small").ok());
  c->reset();
  std::remove(db_path.c_str());
}

TEST(CrimsonStoredRows, MissingLabelsRowIsCorruption) {
  DamageRowThenOpen("labels", Damage::kDeleteRow);
}

TEST(CrimsonStoredRows, TruncatedLabelsRowIsCorruption) {
  DamageRowThenOpen("labels", Damage::kGarbage);
}

TEST(CrimsonStoredRows, LabelsOfAnotherTreeAreCorruption) {
  // Decodes fine, but covers 5 nodes where fig1 has 8.
  DamageRowThenOpen("labels", Damage::kOtherTreesRow);
}

TEST(CrimsonStoredRows, MissingTreeBlobRowIsCorruption) {
  DamageRowThenOpen("tree_blobs", Damage::kDeleteRow);
}

TEST(CrimsonStoredRows, TruncatedTreeBlobRowIsCorruption) {
  DamageRowThenOpen("tree_blobs", Damage::kGarbage);
}

}  // namespace
}  // namespace crimson
