// Tests for the typed, handle-based Experiment API: spec round-trips,
// the algorithm registry, worker-count byte identity,
// persistence + exact replay on a reopened database, evaluation-state
// caching, and replay of "experiment" history entries.

#include "crimson/experiment_spec.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "crimson/crimson.h"
#include "sim/seq_evolve.h"
#include "sim/tree_sim.h"
#include "tree/newick.h"

namespace crimson {
namespace {

void RemoveFile(const std::string& path) { std::remove(path.c_str()); }

/// Deterministic gold standard shared by the tests: a small Yule tree
/// plus JC69 sequences for every leaf.
struct Gold {
  PhyloTree tree;
  std::map<std::string, std::string> sequences;
};

const Gold& SharedGold() {
  static const Gold* gold = [] {
    auto* g = new Gold();
    Rng rng(0xE11);
    YuleOptions opts;
    opts.n_leaves = 48;
    g->tree = std::move(SimulateYule(opts, &rng)).value();
    SeqEvolveOptions seq_opts;
    seq_opts.seq_length = 160;
    auto evolver = SequenceEvolver::Create(seq_opts);
    g->sequences = std::move(evolver->EvolveLeaves(g->tree, &rng)).value();
    return g;
  }();
  return *gold;
}

std::unique_ptr<Crimson> OpenSessionWithGold(uint64_t seed, size_t workers) {
  CrimsonOptions opts;
  opts.seed = seed;
  opts.batch_workers = workers;
  auto session = std::move(Crimson::Open(opts)).value();
  EXPECT_TRUE(session->LoadTree("gold", SharedGold().tree).ok());
  EXPECT_TRUE(
      session->AppendSpeciesData("gold", SharedGold().sequences).ok());
  return session;
}

ExperimentSpec GridSpec() {
  ExperimentSpec spec;
  spec.algorithms = {"nj", "upgma"};
  SelectionSpec uniform;
  uniform.kind = SelectionSpec::Kind::kUniform;
  uniform.k = 8;
  SelectionSpec timed;
  timed.kind = SelectionSpec::Kind::kWithRespectToTime;
  timed.k = 6;
  timed.time = 0.5;
  spec.selections = {uniform, timed};
  spec.replicates = 2;
  spec.compute_triplets = true;
  return spec;
}

/// Everything about a run except wall-clock timings.
void ExpectRunsEqual(const BenchmarkRun& a, const BenchmarkRun& b,
                     const std::string& context) {
  EXPECT_EQ(a.algorithm, b.algorithm) << context;
  EXPECT_EQ(a.sample_size, b.sample_size) << context;
  EXPECT_EQ(a.rf.distance, b.rf.distance) << context;
  EXPECT_EQ(a.rf.splits_a, b.rf.splits_a) << context;
  EXPECT_EQ(a.rf.splits_b, b.rf.splits_b) << context;
  EXPECT_EQ(a.rf.normalized, b.rf.normalized) << context;
  EXPECT_EQ(a.triplets.total, b.triplets.total) << context;
  EXPECT_EQ(a.triplets.differing, b.triplets.differing) << context;
  EXPECT_EQ(WriteNewick(a.reference), WriteNewick(b.reference)) << context;
  EXPECT_EQ(WriteNewick(a.reconstructed), WriteNewick(b.reconstructed))
      << context;
}

// -- spec (de)serialization -------------------------------------------------

TEST(ExperimentSpecTest, EncodeDecodeRoundTrip) {
  ExperimentSpec spec;
  spec.algorithms = {"nj", "upgma", "my_algo"};
  SelectionSpec uniform;
  uniform.kind = SelectionSpec::Kind::kUniform;
  uniform.k = 32;
  SelectionSpec timed;
  timed.kind = SelectionSpec::Kind::kWithRespectToTime;
  timed.k = 16;
  timed.time = 0.125;
  SelectionSpec list;
  list.kind = SelectionSpec::Kind::kUserList;
  list.species = {"Syn", "Lla", "Bsu"};
  spec.selections = {uniform, timed, list};
  spec.replicates = 7;
  spec.compute_triplets = false;

  auto decoded = DecodeExperimentSpec(EncodeExperimentSpec(spec));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->algorithms, spec.algorithms);
  EXPECT_EQ(decoded->replicates, spec.replicates);
  EXPECT_EQ(decoded->compute_triplets, spec.compute_triplets);
  ASSERT_EQ(decoded->selections.size(), 3u);
  EXPECT_EQ(decoded->selections[0].kind, SelectionSpec::Kind::kUniform);
  EXPECT_EQ(decoded->selections[0].k, 32u);
  EXPECT_EQ(decoded->selections[1].kind,
            SelectionSpec::Kind::kWithRespectToTime);
  EXPECT_EQ(decoded->selections[1].k, 16u);
  EXPECT_EQ(decoded->selections[1].time, 0.125);
  EXPECT_EQ(decoded->selections[2].kind, SelectionSpec::Kind::kUserList);
  EXPECT_EQ(decoded->selections[2].species, list.species);
}

TEST(ExperimentSpecTest, DecodeRejectsMalformedSpecs) {
  EXPECT_FALSE(DecodeExperimentSpec("").ok());
  EXPECT_FALSE(DecodeExperimentSpec("algs=nj").ok());          // no sels
  EXPECT_FALSE(DecodeExperimentSpec("sels=u:8").ok());         // no algs
  EXPECT_FALSE(DecodeExperimentSpec("algs=nj;sels=x:8").ok()); // bad kind
  EXPECT_FALSE(DecodeExperimentSpec("algs=nj;sels=t:8").ok()); // no time
  EXPECT_FALSE(DecodeExperimentSpec("algs=nj;reps=0;sels=u:8").ok());
}

TEST(ExperimentSpecTest, ValidateRejectsEmptyAndUnencodable) {
  ExperimentSpec empty;
  EXPECT_TRUE(ValidateExperimentSpec(empty).IsInvalidArgument());
  ExperimentSpec bad_name = GridSpec();
  bad_name.algorithms = {"a;b"};
  EXPECT_TRUE(ValidateExperimentSpec(bad_name).IsInvalidArgument());
  // '&' would corrupt the k=v&k=v history params the spec embeds in.
  ExperimentSpec amp_name = GridSpec();
  amp_name.algorithms = {"a&b"};
  EXPECT_TRUE(ValidateExperimentSpec(amp_name).IsInvalidArgument());
  ExperimentSpec bad_species = GridSpec();
  SelectionSpec list;
  list.kind = SelectionSpec::Kind::kUserList;
  list.species = {"has|pipe"};
  bad_species.selections = {list};
  EXPECT_TRUE(ValidateExperimentSpec(bad_species).IsInvalidArgument());
}

TEST(ExperimentSpecTest, HistoryParamsCarryTheExperimentId) {
  auto id = DecodeExperimentId("tree=gold&id=7&spec=algs%3Dnj");
  ASSERT_TRUE(id.ok()) << id.status();
  EXPECT_EQ(*id, 7);
  EXPECT_TRUE(DecodeExperimentId("tree=gold&algorithm=nj&k=16")
                  .status()
                  .IsInvalidArgument());
}

// -- the algorithm registry -------------------------------------------------

TEST(AlgorithmRegistryTest, BuiltinsArePreRegistered) {
  auto& registry = AlgorithmRegistry::Global();
  EXPECT_TRUE(registry.Contains("nj"));
  EXPECT_TRUE(registry.Contains("upgma"));
  // name() is what run rows report, not a registry name.
  EXPECT_FALSE(registry.Contains("neighbor_joining"));
  auto nj = registry.Create("nj");
  ASSERT_TRUE(nj.ok());
  EXPECT_EQ((*nj)->name(), "neighbor_joining");
  EXPECT_TRUE(registry.Create("ghost_algorithm").status().IsNotFound());
}

TEST(AlgorithmRegistryTest, UserFactoriesRegisterOnce) {
  auto& registry = AlgorithmRegistry::Global();
  ASSERT_TRUE(registry
                  .Register("registry_test_nj",
                            [] { return MakeNjAlgorithm(); })
                  .ok());
  EXPECT_TRUE(registry
                  .Register("registry_test_nj",
                            [] { return MakeNjAlgorithm(); })
                  .IsAlreadyExists());
  EXPECT_TRUE(
      registry.Register("nj", [] { return MakeNjAlgorithm(); })
          .IsAlreadyExists());
  auto created = registry.Create("registry_test_nj");
  ASSERT_TRUE(created.ok());
  EXPECT_EQ((*created)->name(), "neighbor_joining");
}

// -- RunExperiment ----------------------------------------------------------

TEST(ExperimentTest, WorkerCountDoesNotChangeResults) {
  const ExperimentSpec spec = GridSpec();
  auto one = OpenSessionWithGold(/*seed=*/5, /*workers=*/1);
  auto many = OpenSessionWithGold(/*seed=*/5, /*workers=*/8);
  auto ref_one = one->OpenTree("gold");
  auto ref_many = many->OpenTree("gold");
  ASSERT_TRUE(ref_one.ok());
  ASSERT_TRUE(ref_many.ok());
  auto r1 = one->RunExperiment(*ref_one, spec);
  auto r8 = many->RunExperiment(*ref_many, spec);
  ASSERT_TRUE(r1.ok()) << r1.status();
  ASSERT_TRUE(r8.ok()) << r8.status();
  ASSERT_EQ(r1->runs.size(), spec.job_count());
  ASSERT_EQ(r8->runs.size(), spec.job_count());
  EXPECT_GT(r1->experiment_id, 0);
  for (size_t i = 0; i < r1->runs.size(); ++i) {
    ExpectRunsEqual(r1->runs[i], r8->runs[i], "job " + std::to_string(i));
  }

  // The aggregates cover every cell of the grid.
  ASSERT_EQ(r8->cells.size(),
            spec.algorithms.size() * spec.selections.size());
  for (const ExperimentCell& cell : r8->cells) {
    EXPECT_EQ(cell.replicates, spec.replicates);
    EXPECT_GE(cell.max_rf_normalized, cell.min_rf_normalized);
  }
}

TEST(ExperimentTest, RejectsBadSpecsAndUnknownAlgorithms) {
  auto session = OpenSessionWithGold(/*seed=*/3, /*workers=*/2);
  auto ref = session->OpenTree("gold");
  ASSERT_TRUE(ref.ok());
  ExperimentSpec empty;
  EXPECT_TRUE(
      session->RunExperiment(*ref, empty).status().IsInvalidArgument());
  ExperimentSpec unknown = GridSpec();
  unknown.algorithms = {"ghost_algorithm"};
  EXPECT_TRUE(session->RunExperiment(*ref, unknown).status().IsNotFound());
  EXPECT_TRUE(
      session->RunExperiment(TreeRef(), GridSpec()).status()
          .IsInvalidArgument());
}

TEST(ExperimentTest, PersistsAndReplaysOnReopenedDatabase) {
  std::string path = testing::TempDir() + "/crimson_experiment.db";
  RemoveFile(path);
  const ExperimentSpec spec = GridSpec();
  ExperimentReport original;
  {
    CrimsonOptions opts;
    opts.db_path = path;
    opts.seed = 11;
    auto session = std::move(Crimson::Open(opts)).value();
    ASSERT_TRUE(session->LoadTree("gold", SharedGold().tree).ok());
    ASSERT_TRUE(
        session->AppendSpeciesData("gold", SharedGold().sequences).ok());
    auto ref = session->OpenTree("gold");
    ASSERT_TRUE(ref.ok());
    auto report = session->RunExperiment(*ref, spec);
    ASSERT_TRUE(report.ok()) << report.status();
    original = std::move(*report);
    ASSERT_TRUE(session->Flush().ok());
  }
  {
    // Different session seed: the replay must use the experiment's
    // stored RNG provenance, not the session's.
    CrimsonOptions opts;
    opts.db_path = path;
    opts.seed = 999;
    auto session = std::move(Crimson::Open(opts)).value();

    auto listed = session->ListExperiments();
    ASSERT_TRUE(listed.ok());
    ASSERT_EQ(listed->size(), 1u);
    EXPECT_EQ((*listed)[0].experiment_id, original.experiment_id);
    EXPECT_EQ((*listed)[0].tree_name, "gold");
    EXPECT_EQ((*listed)[0].spec, EncodeExperimentSpec(spec));

    auto replay = session->RerunExperiment(original.experiment_id);
    ASSERT_TRUE(replay.ok()) << replay.status();
    EXPECT_EQ(replay->experiment_id, original.experiment_id);
    ASSERT_EQ(replay->runs.size(), original.runs.size());
    for (size_t i = 0; i < original.runs.size(); ++i) {
      ExpectRunsEqual(original.runs[i], replay->runs[i],
                      "job " + std::to_string(i));
    }

    // The persisted run rows carry the same scores the report did.
    auto repo = ExperimentRepository::Open(session->database());
    ASSERT_TRUE(repo.ok());
    auto rows = (*repo)->RunsFor(original.experiment_id);
    ASSERT_TRUE(rows.ok());
    ASSERT_EQ(rows->size(), original.runs.size());
    for (size_t i = 0; i < rows->size(); ++i) {
      const auto& row = (*rows)[i];
      const BenchmarkRun& run = original.runs[i];
      EXPECT_EQ(row.ordinal, static_cast<int64_t>(i));
      EXPECT_EQ(row.algorithm, run.algorithm);
      EXPECT_EQ(row.sample_size, static_cast<int64_t>(run.sample_size));
      EXPECT_EQ(row.rf_distance, static_cast<int64_t>(run.rf.distance));
      EXPECT_EQ(row.rf_normalized, run.rf.normalized);
      EXPECT_EQ(row.triplet_total,
                static_cast<int64_t>(run.triplets.total));
      EXPECT_EQ(row.triplet_differing,
                static_cast<int64_t>(run.triplets.differing));
    }
    auto cells = (*repo)->CellsFor(original.experiment_id);
    ASSERT_TRUE(cells.ok());
    ASSERT_EQ(cells->size(), original.cells.size());
    for (size_t i = 0; i < cells->size(); ++i) {
      EXPECT_EQ((*cells)[i].algorithm, original.cells[i].algorithm);
      EXPECT_EQ((*cells)[i].mean_rf_normalized,
                original.cells[i].mean_rf_normalized);
    }
  }
  RemoveFile(path);
}

TEST(ExperimentTest, ReplayedTripletScoresMatchPinnedValues) {
  // A seeded nj+upgma experiment at k=256 over a 320-leaf Yule gold
  // standard. The per-run triplet counts are pinned to the values the
  // cubic triple-enumerating scorer produced, so the fast count must
  // reproduce them in the report, in the stored experiment_runs rows
  // and through RerunExperiment on a reopened database.
  const std::string path = testing::TempDir() + "/crimson_triplet_golden.db";
  RemoveFile(path);
  PhyloTree tree;
  std::map<std::string, std::string> sequences;
  {
    Rng rng(0x7121E7);
    YuleOptions opts;
    opts.n_leaves = 320;
    tree = std::move(SimulateYule(opts, &rng)).value();
    SeqEvolveOptions seq_opts;
    seq_opts.seq_length = 200;
    auto evolver = SequenceEvolver::Create(seq_opts);
    sequences = std::move(evolver->EvolveLeaves(tree, &rng)).value();
  }
  ExperimentSpec spec;
  spec.algorithms = {"nj", "upgma"};
  SelectionSpec uniform;
  uniform.kind = SelectionSpec::Kind::kUniform;
  uniform.k = 256;
  spec.selections = {uniform};
  spec.replicates = 2;
  spec.compute_triplets = true;

  // Job order is algorithm-major: nj r0, nj r1, upgma r0, upgma r1.
  const uint64_t kTotal = 256ull * 255 * 254 / 6;
  const std::vector<uint64_t> kDiffering = {1712184, 1794591, 1737425,
                                           1603123};

  auto expect_pinned = [&](const std::vector<BenchmarkRun>& runs,
                           const std::string& context) {
    ASSERT_EQ(runs.size(), kDiffering.size()) << context;
    for (size_t i = 0; i < runs.size(); ++i) {
      EXPECT_EQ(runs[i].sample_size, 256u) << context << " job " << i;
      EXPECT_EQ(runs[i].triplets.total, kTotal) << context << " job " << i;
      EXPECT_EQ(runs[i].triplets.differing, kDiffering[i])
          << context << " job " << i;
      EXPECT_EQ(runs[i].triplets.fraction,
                static_cast<double>(kDiffering[i]) /
                    static_cast<double>(kTotal))
          << context << " job " << i;
    }
  };

  int64_t experiment_id = 0;
  {
    CrimsonOptions opts;
    opts.db_path = path;
    opts.seed = 0x601D;
    auto session = std::move(Crimson::Open(opts)).value();
    ASSERT_TRUE(session->LoadTree("gold", tree).ok());
    ASSERT_TRUE(session->AppendSpeciesData("gold", sequences).ok());
    auto ref = session->OpenTree("gold");
    ASSERT_TRUE(ref.ok());
    auto report = session->RunExperiment(*ref, spec);
    ASSERT_TRUE(report.ok()) << report.status();
    expect_pinned(report->runs, "report");
    experiment_id = report->experiment_id;
    ASSERT_TRUE(session->Flush().ok());
  }
  {
    CrimsonOptions opts;
    opts.db_path = path;
    opts.seed = 7;
    auto session = std::move(Crimson::Open(opts)).value();
    auto replay = session->RerunExperiment(experiment_id);
    ASSERT_TRUE(replay.ok()) << replay.status();
    expect_pinned(replay->runs, "rerun");

    auto repo = ExperimentRepository::Open(session->database());
    ASSERT_TRUE(repo.ok());
    auto rows = (*repo)->RunsFor(experiment_id);
    ASSERT_TRUE(rows.ok());
    ASSERT_EQ(rows->size(), kDiffering.size());
    for (size_t i = 0; i < rows->size(); ++i) {
      EXPECT_EQ((*rows)[i].triplet_total, static_cast<int64_t>(kTotal))
          << "row " << i;
      EXPECT_EQ((*rows)[i].triplet_differing,
                static_cast<int64_t>(kDiffering[i]))
          << "row " << i;
      EXPECT_EQ((*rows)[i].triplet_fraction, replay->runs[i].triplets.fraction)
          << "row " << i;
    }
  }
  RemoveFile(path);
}

TEST(ExperimentTest, EvalStateIsInvalidatedByAppendSpeciesData) {
  CrimsonOptions opts;
  opts.seed = 21;
  auto session = std::move(Crimson::Open(opts)).value();
  const Gold& gold = SharedGold();
  ASSERT_TRUE(session->LoadTree("gold", gold.tree).ok());
  auto ref = session->OpenTree("gold");
  ASSERT_TRUE(ref.ok());

  // No species data yet: the experiment cannot run (and the failure
  // must not be cached).
  ExperimentSpec spec = GridSpec();
  EXPECT_TRUE(
      session->RunExperiment(*ref, spec).status().IsFailedPrecondition());

  // Load half the sequences; a user-list selection over a species from
  // the missing half fails inside evaluation.
  std::map<std::string, std::string> first_half, second_half;
  size_t i = 0;
  for (const auto& [species, seq] : gold.sequences) {
    (i++ % 2 == 0 ? first_half : second_half)[species] = seq;
  }
  ASSERT_TRUE(session->AppendSpeciesData("gold", first_half).ok());
  SelectionSpec missing;
  missing.kind = SelectionSpec::Kind::kUserList;
  auto it = second_half.begin();
  missing.species = {it->first, std::next(it)->first,
                     std::next(it, 2)->first};
  ExperimentSpec missing_spec;
  missing_spec.algorithms = {"nj"};
  missing_spec.selections = {missing};
  EXPECT_TRUE(
      session->RunExperiment(*ref, missing_spec).status().IsNotFound());

  // Appending the other half must invalidate the cached sequence map:
  // the same spec now succeeds.
  ASSERT_TRUE(session->AppendSpeciesData("gold", second_half).ok());
  auto rerun = session->RunExperiment(*ref, missing_spec);
  EXPECT_TRUE(rerun.ok()) << rerun.status();
}

// -- history replay ---------------------------------------------------------

TEST(ExperimentTest, HistoryEntriesReplayThroughTheExperimentPath) {
  // A "benchmark" history row -- a kind this build does not rerun -- is
  // seeded straight into the queries table before the session opens.
  const std::string path = testing::TempDir() + "/crimson_history_replay.db";
  RemoveFile(path);
  int64_t benchmark_id = 0;
  {
    auto db = Database::Open(path, {});
    ASSERT_TRUE(db.ok()) << db.status();
    auto queries = QueryRepository::Open(db->get());
    ASSERT_TRUE(queries.ok()) << queries.status();
    auto id = (*queries)->Record("benchmark",
                                 "tree=gold&algorithm=neighbor_joining&k=6",
                                 "rf=0/0 normalized=0.0000");
    ASSERT_TRUE(id.ok()) << id.status();
    benchmark_id = *id;
    ASSERT_TRUE(db.value()->Checkpoint().ok());
  }
  CrimsonOptions opts;
  opts.db_path = path;
  opts.seed = 31;
  auto session = std::move(Crimson::Open(opts)).value();
  ASSERT_TRUE(session->LoadTree("gold", SharedGold().tree).ok());
  ASSERT_TRUE(
      session->AppendSpeciesData("gold", SharedGold().sequences).ok());
  auto ref = session->OpenTree("gold");
  ASSERT_TRUE(ref.ok());

  // An "experiment" entry replays exactly (stored seed + tickets).
  auto report = session->RunExperiment(*ref, GridSpec());
  ASSERT_TRUE(report.ok());
  auto history = session->QueryHistory(1);
  ASSERT_TRUE(history.ok());
  ASSERT_EQ(history->size(), 1u);
  EXPECT_EQ((*history)[0].kind, "experiment");
  EXPECT_GT((*history)[0].query_id, benchmark_id);
  auto replayed = session->RerunQuery((*history)[0].query_id);
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  EXPECT_EQ(*replayed, RenderExperimentReport(*report));

  // The "benchmark" entry is refused like any unknown kind.
  auto bench_replay = session->RerunQuery(benchmark_id);
  EXPECT_TRUE(bench_replay.status().IsUnimplemented())
      << bench_replay.status();
  EXPECT_NE(bench_replay.status().ToString().find(
                "cannot rerun query kind 'benchmark'"),
            std::string::npos)
      << bench_replay.status();
  session.reset();
  RemoveFile(path);
}

}  // namespace
}  // namespace crimson
