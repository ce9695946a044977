// Evaluate phylogenetic tree reconstruction algorithms against a
// gold-standard simulation tree -- the central use case of the paper
// (Benchmark Manager, §2.2) -- through the typed Experiment API.
// Reproduces the E11 experiment: NJ vs UPGMA across sample sizes and
// sequence lengths, scored by Robinson-Foulds and triplet distance to
// the true projection. The whole sweep per sequence length is ONE
// ExperimentSpec (algorithm registry names x a uniform-k selection
// grid x replicates): replicates fan out on the session worker pool,
// the spec and every score row are persisted, and the final report is
// replayed byte-identically from storage via RerunExperiment.
//
// Run:  ./evaluate_algorithms [n_leaves]

#include <cstdio>
#include <cstdlib>

#include "crimson/crimson.h"
#include "sim/seq_evolve.h"
#include "sim/tree_sim.h"

namespace {

template <typename T>
T Unwrap(crimson::Result<T> r, const char* what) {
  if (!r.ok()) {
    fprintf(stderr, "%s failed: %s\n", what, r.status().ToString().c_str());
    exit(1);
  }
  return std::move(r).value();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace crimson;
  uint32_t n_leaves = argc > 1 ? static_cast<uint32_t>(atoi(argv[1])) : 1024;

  Rng rng(4711);
  BirthDeathOptions tree_opts;
  tree_opts.n_leaves = n_leaves;
  tree_opts.death_rate = 0.25;
  PhyloTree gold = Unwrap(SimulateBirthDeath(tree_opts, &rng), "simulate");
  double max_w = 0;
  for (double w : gold.RootPathWeights()) max_w = std::max(max_w, w);
  for (NodeId n = 1; n < gold.size(); ++n) {
    gold.set_edge_length(n, gold.edge_length(n) / max_w * 0.7);
  }
  PerturbBranchRates(&gold, 3.0, &rng);
  printf("gold standard: %zu leaves, clock broken (rate spread 3x)\n\n",
         gold.LeafCount());

  // One spec covers the whole NJ-vs-UPGMA sweep for a sequence length:
  // 2 algorithms x 3 sample sizes x 5 replicates = 30 runs, fanned out
  // on the session worker pool with ticketed RNGs (byte-identical to a
  // sequential sweep).
  ExperimentSpec spec;
  spec.algorithms = {"nj", "upgma"};
  for (size_t k : {16, 64, 256}) {
    if (k > gold.LeafCount()) continue;
    SelectionSpec sel;
    sel.kind = SelectionSpec::Kind::kUniform;
    sel.k = k;
    spec.selections.push_back(sel);
  }
  spec.replicates = 5;

  printf("%-8s %6s %8s | %-18s %-18s | %-9s %-9s\n", "seq_len", "k", "reps",
         "NJ rf_norm(avg)", "UPGMA rf_norm(avg)", "NJ trip", "UPGMA trip");
  printf("--------------------------------------------------------------------"
         "-------------------\n");

  for (size_t seq_len : {250, 1000}) {
    SeqEvolveOptions seq_opts;
    seq_opts.model = SubstModel::kHKY85;
    seq_opts.base_freqs = {0.3, 0.2, 0.2, 0.3};
    seq_opts.seq_length = seq_len;
    auto evolver = Unwrap(SequenceEvolver::Create(seq_opts), "evolver");
    auto sequences = Unwrap(evolver.EvolveLeaves(gold, &rng), "evolve");

    // One Crimson session per sweep: the gold standard is loaded once,
    // its evaluation state (sequence map + benchmark manager) is built
    // once and cached against the handle, and the whole grid runs as a
    // single persisted experiment.
    CrimsonOptions options;
    options.seed = 4711 + seq_len;
    auto crimson = Unwrap(Crimson::Open(options), "open");
    std::string tree_name = "gold_" + std::to_string(seq_len);
    TreeRef tree = Unwrap(crimson->LoadTree(tree_name, gold), "load").ref;
    Unwrap(crimson->AppendSpeciesData(tree_name, sequences), "load species");

    ExperimentReport report =
        Unwrap(crimson->RunExperiment(tree, spec), "experiment");

    // cells are algorithm-major in spec order: NJ cells first.
    const size_t n_sels = spec.selections.size();
    for (size_t s = 0; s < n_sels; ++s) {
      const ExperimentCell& nj_cell = report.cells[s];
      const ExperimentCell& upgma_cell = report.cells[n_sels + s];
      printf("%-8zu %6zu %8zu | %-18.4f %-18.4f | %-9.4f %-9.4f%s\n",
             seq_len, spec.selections[s].k, spec.replicates,
             nj_cell.mean_rf_normalized, upgma_cell.mean_rf_normalized,
             nj_cell.mean_triplet_fraction, upgma_cell.mean_triplet_fraction,
             nj_cell.mean_rf_normalized <= upgma_cell.mean_rf_normalized
                 ? "   <- NJ wins"
                 : "");
    }

    // The spec, runs and aggregates are persisted: replaying the
    // stored experiment reproduces the report exactly.
    ExperimentReport replay = Unwrap(
        crimson->RerunExperiment(report.experiment_id), "rerun");
    for (size_t i = 0; i < report.runs.size(); ++i) {
      if (replay.runs[i].rf.distance != report.runs[i].rf.distance ||
          replay.runs[i].triplets.differing !=
              report.runs[i].triplets.differing) {
        fprintf(stderr, "replay diverged at run %zu\n", i);
        return 1;
      }
    }
    printf("         (experiment %lld: %zu runs persisted, replay "
           "verified)\n",
           static_cast<long long>(report.experiment_id),
           report.runs.size());
  }
  printf(
      "\nExpected shape (paper/benchmarking lore): NJ <= UPGMA on\n"
      "non-clock data; both improve as sequences lengthen.\n");
  return 0;
}
