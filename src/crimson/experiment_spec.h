// The typed Experiment API value layer. An ExperimentSpec describes a
// whole evaluation workload -- algorithm registry names x a selection
// grid x replicates -- as a serializable value, so experiments can be
// stored in the Experiment Repository and replayed byte-identically
// (Crimson::RerunExperiment). This is the evaluation-side counterpart
// of the typed QueryRequest layer: raw ReconstructionAlgorithm
// references are replaced by registry names, and one dispatch path
// (Crimson::RunExperiment) runs, records, and persists every
// evaluation.

#ifndef CRIMSON_CRIMSON_EXPERIMENT_SPEC_H_
#define CRIMSON_CRIMSON_EXPERIMENT_SPEC_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "crimson/benchmark_manager.h"

namespace crimson {

/// A full evaluation workload over one gold-standard tree: every
/// algorithm in `algorithms` (registry names, see AlgorithmRegistry)
/// is evaluated against every selection in `selections`, `replicates`
/// times. Jobs are ordered algorithm-major, selection next, replicate
/// innermost; that order defines both the RNG ticket assignment and
/// the persisted run ordinals.
struct ExperimentSpec {
  std::vector<std::string> algorithms;
  std::vector<SelectionSpec> selections;
  size_t replicates = 1;
  /// Adds the triplet-distance score (O(k^2) per run) to each run.
  bool compute_triplets = true;

  /// Total number of benchmark runs the spec expands to.
  size_t job_count() const {
    return algorithms.size() * selections.size() * replicates;
  }
};

/// Aggregate over the replicates of one (algorithm, selection) grid
/// cell.
struct ExperimentCell {
  std::string algorithm;       // registry name from the spec
  size_t selection_index = 0;  // into spec.selections
  size_t replicates = 0;
  double mean_rf_normalized = 0;
  double min_rf_normalized = 0;
  double max_rf_normalized = 0;
  double mean_triplet_fraction = 0;  // 0 when triplets were not computed
  double total_seconds = 0;          // summed stage timings of the cell
};

/// The result of running an ExperimentSpec. `runs` holds every
/// BenchmarkRun in job order; `cells` the per-cell aggregates in the
/// same algorithm-major order.
struct ExperimentReport {
  int64_t experiment_id = 0;  // assigned by the Experiment Repository
  std::string tree_name;
  ExperimentSpec spec;
  /// RNG provenance: run i drew from Rng(QuerySeed(seed, base_ticket
  /// + i)). Persisted so RerunExperiment replays byte-identically.
  uint64_t seed = 0;
  uint64_t base_ticket = 0;
  std::vector<BenchmarkRun> runs;
  std::vector<ExperimentCell> cells;
  double total_seconds = 0;
};

/// Validates shape: at least one algorithm and one selection,
/// replicates >= 1, no empty algorithm names.
Status ValidateExperimentSpec(const ExperimentSpec& spec);

/// Serializes a spec as `algs=nj,upgma;reps=3;triplets=1;sels=u:32|
/// t:16:0.5|l:Syn,Lla`. Selection grammar: `u:<k>` uniform, `t:<k>:
/// <time>` with-respect-to-time, `l:<sp1>,<sp2>,...` user list.
/// Algorithm names must not contain ',' or ';'; species names must not
/// contain ',', ';' or '|'.
std::string EncodeExperimentSpec(const ExperimentSpec& spec);

/// Inverse of EncodeExperimentSpec.
Result<ExperimentSpec> DecodeExperimentSpec(std::string_view encoded);

/// The persisted experiment id in the `k=v&k=v` history parameter
/// string of an "experiment" entry (`tree=...&id=...&spec=...`).
Result<int64_t> DecodeExperimentId(std::string_view params);

/// Per-cell aggregates of `runs` (which must be in `spec` job order).
std::vector<ExperimentCell> AggregateCells(
    const ExperimentSpec& spec, const std::vector<BenchmarkRun>& runs);

/// One-line report summary for the query history ("algorithms=2
/// selections=1 replicates=3 best=neighbor_joining rf=0.1250").
std::string SummarizeExperiment(const ExperimentReport& report);

/// Multi-line human-readable rendering (one row per cell), used by
/// RerunQuery and the examples.
std::string RenderExperimentReport(const ExperimentReport& report);

}  // namespace crimson

#endif  // CRIMSON_CRIMSON_EXPERIMENT_SPEC_H_
