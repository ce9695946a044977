// Integration test: the full Crimson pipeline of the paper.
//   1. Simulate a gold-standard tree (birth-death, clock broken) and
//      sequences along it (substitute for the CIPRes mega-tree).
//   2. Load tree + species data into an on-disk relational database.
//   3. Reopen, run structure queries through the facade.
//   4. Evaluate NJ and UPGMA on sampled projections in one experiment
//      and verify the expected ordering (NJ is at least as accurate
//      without a clock).

#include <gtest/gtest.h>

#include "crimson/crimson.h"
#include "sim/seq_evolve.h"
#include "sim/tree_sim.h"
#include "storage/file.h"
#include "tree/newick.h"

namespace crimson {
namespace {

class EndToEndTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kLeaves = 200;

  void SetUp() override {
    path_ = testing::TempDir() + "/crimson_e2e.db";
    RemoveFile(path_);

    Rng rng(20260612);
    BirthDeathOptions tree_opts;
    tree_opts.n_leaves = kLeaves;
    tree_opts.death_rate = 0.25;
    auto gold = SimulateBirthDeath(tree_opts, &rng);
    ASSERT_TRUE(gold.ok());
    gold_ = std::move(gold).value();
    // Normalize height to ~0.8 expected substitutions root-to-leaf and
    // break the molecular clock so UPGMA has something to lose.
    double max_w = 0;
    for (double w : gold_.RootPathWeights()) max_w = std::max(max_w, w);
    for (NodeId n = 1; n < gold_.size(); ++n) {
      gold_.set_edge_length(n, gold_.edge_length(n) / max_w * 0.8);
    }
    PerturbBranchRates(&gold_, 3.0, &rng);

    SeqEvolveOptions seq_opts;
    seq_opts.model = SubstModel::kHKY85;
    seq_opts.kappa = 2.5;
    seq_opts.base_freqs = {0.3, 0.2, 0.2, 0.3};
    seq_opts.seq_length = 1200;
    auto ev = SequenceEvolver::Create(seq_opts);
    ASSERT_TRUE(ev.ok());
    auto seqs = ev->EvolveLeaves(gold_, &rng);
    ASSERT_TRUE(seqs.ok());
    seqs_ = std::move(seqs).value();
  }

  void TearDown() override { RemoveFile(path_); }

  std::string path_;
  PhyloTree gold_;
  std::map<std::string, std::string> seqs_;
};

TEST_F(EndToEndTest, FullPipeline) {
  // ---- load into an on-disk database --------------------------------
  {
    CrimsonOptions opts;
    opts.db_path = path_;
    opts.f = 8;
    auto c = Crimson::Open(opts);
    ASSERT_TRUE(c.ok());
    auto report = (*c)->LoadTree("gold", gold_);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(report->nodes_loaded, gold_.size());
    auto append = (*c)->AppendSpeciesData("gold", seqs_);
    ASSERT_TRUE(append.ok()) << append.status();
    EXPECT_EQ(append->species_loaded, kLeaves);
    ASSERT_TRUE((*c)->Flush().ok());
  }

  // ---- reopen and query ----------------------------------------------
  CrimsonOptions opts;
  opts.db_path = path_;
  opts.seed = 99;
  auto c = Crimson::Open(opts);
  ASSERT_TRUE(c.ok());

  auto ref = (*c)->OpenTree("gold");
  ASSERT_TRUE(ref.ok()) << ref.status();
  auto tree = (*c)->GetTree(*ref);
  ASSERT_TRUE(tree.ok());
  EXPECT_TRUE(PhyloTree::Equal(**tree, gold_, 1e-9, /*ordered=*/true));

  // LCA sanity against the in-memory oracle.
  auto lca = (*c)->Execute(*ref, LcaQuery{"S0", "S100"});
  ASSERT_TRUE(lca.ok());
  EXPECT_EQ(std::get<LcaAnswer>(*lca).node,
            gold_.NaiveLca(gold_.FindByName("S0"), gold_.FindByName("S100")));

  // Projection of a handful of species is a valid tree over them.
  auto proj =
      (*c)->Execute(*ref, ProjectQuery{{"S1", "S7", "S42", "S99", "S150"}});
  ASSERT_TRUE(proj.ok());
  const PhyloTree& projection = std::get<ProjectAnswer>(*proj).projection;
  EXPECT_EQ(projection.LeafCount(), 5u);
  EXPECT_TRUE(projection.Validate().ok());

  // Time sampling draws below the frontier.
  auto sample = (*c)->Execute(*ref, SampleTimeQuery{32, 0.1});
  ASSERT_TRUE(sample.ok()) << sample.status();
  EXPECT_EQ(std::get<SampleAnswer>(*sample).species.size(), 32u);

  // ---- evaluate both algorithms ---------------------------------------
  // One spec: {nj, upgma} x one uniform selection x 3 replicates.
  const size_t kReps = 3;
  ExperimentSpec spec;
  spec.algorithms = {"nj", "upgma"};
  SelectionSpec sel;
  sel.kind = SelectionSpec::Kind::kUniform;
  sel.k = 48;
  spec.selections = {sel};
  spec.replicates = kReps;
  auto report = (*c)->RunExperiment(*ref, spec);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->runs.size(), 2 * kReps);
  double nj_total = 0, upgma_total = 0;
  for (const BenchmarkRun& run : report->runs) {
    EXPECT_EQ(run.reference.LeafCount(), sel.k);
    EXPECT_EQ(run.reconstructed.LeafCount(), sel.k);
    if (run.algorithm == "neighbor_joining") {
      nj_total += run.rf.normalized;
    } else {
      ASSERT_EQ(run.algorithm, "upgma");
      upgma_total += run.rf.normalized;
    }
  }
  // The paper's benchmarking purpose: the harness distinguishes
  // algorithms. Without a clock NJ must not be worse than UPGMA.
  EXPECT_LE(nj_total, upgma_total + 1e-9);
  // And with 1200 sites NJ should be respectable in absolute terms.
  EXPECT_LT(nj_total / kReps, 0.45);

  // ---- history captured the whole session ------------------------------
  // Three structure queries, then the experiment as one entry.
  auto history = (*c)->QueryHistory(100);
  ASSERT_TRUE(history.ok());
  ASSERT_EQ(history->size(), 4u);
  EXPECT_EQ((*history)[0].kind, "experiment");
  EXPECT_EQ((*history)[3].kind, "lca");
}

TEST_F(EndToEndTest, NexusExportImportCycle) {
  // Round-trip the gold standard through NEXUS, as the demo's
  // loading/visualizing story requires.
  NexusDocument doc;
  for (NodeId n : gold_.Leaves()) doc.taxa.emplace_back(gold_.name(n));
  for (const auto& [name, seq] : seqs_) doc.sequences[name] = seq;
  NexusTree nt;
  nt.name = "gold";
  nt.tree = gold_;
  doc.trees.push_back(std::move(nt));
  std::string text = WriteNexus(doc);

  auto c = Crimson::Open();
  ASSERT_TRUE(c.ok());
  auto report =
      (*c)->LoadNexus("gold", text, LoadMode::kTreeWithSpeciesData);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->nodes_loaded, gold_.size());
  EXPECT_EQ(report->species_loaded, kLeaves);
  auto tree = (*c)->GetTree(report->ref);
  ASSERT_TRUE(tree.ok());
  EXPECT_TRUE(PhyloTree::Equal(**tree, gold_, 1e-6, /*ordered=*/true));
}

}  // namespace
}  // namespace crimson
