// Benchmark Manager (paper §2.2, Fig. 3): characterizes and evaluates a
// tree inference algorithm by comparing its output to projection trees
// derived from the gold-standard simulation tree. The pipeline is:
//   sample species -> project the true tree over the sample ->
//   fetch the sampled species' sequences -> run the algorithm -> score
//   against the projection (Robinson-Foulds, triplets).

#ifndef CRIMSON_CRIMSON_BENCHMARK_MANAGER_H_
#define CRIMSON_CRIMSON_BENCHMARK_MANAGER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "labeling/layered_dewey.h"
#include "query/projection.h"
#include "query/sampling.h"
#include "recon/algorithm.h"
#include "recon/distance.h"
#include "recon/rf_distance.h"
#include "recon/triplet.h"
#include "tree/name_index.h"
#include "tree/phylo_tree.h"

namespace crimson {

/// How to choose the species sample (the three demo selection modes).
struct SelectionSpec {
  enum class Kind { kUniform, kWithRespectToTime, kUserList };
  Kind kind = Kind::kUniform;
  size_t k = 32;                      // kUniform / kWithRespectToTime
  double time = 0;                    // kWithRespectToTime
  std::vector<std::string> species;   // kUserList
};

struct BenchmarkRun {
  std::string algorithm;
  size_t sample_size = 0;
  PhyloTree reference;      // projection of the true tree
  PhyloTree reconstructed;  // algorithm output
  RfResult rf;
  TripletResult triplets;   // populated when compute_triplets is set
  double sample_seconds = 0;
  double project_seconds = 0;
  double reconstruct_seconds = 0;
  double compare_seconds = 0;
};

/// One job's species draw: what the sample step hands the score step.
struct SpeciesSample {
  std::vector<NodeId> species;
  double seconds = 0;  // the draw's wall time (BenchmarkRun::sample_seconds)
};

/// Evaluates algorithms against one gold-standard tree held in memory.
/// An evaluation is two steps: Sample draws the species, and Score
/// projects the gold tree over them, runs the algorithm on their
/// sequences and scores its output. The session fetches the sampled
/// sequences between the two; Evaluate runs both over the manager's
/// own map. Immutable once built: the steps are const and randomness
/// comes from the caller's Rng, so one manager may be shared across
/// threads (each with its own Rng).
class BenchmarkManager {
 public:
  /// The tree and sequences must outlive the manager. `sequences` maps
  /// every leaf name to its (aligned) sequence.
  BenchmarkManager(const PhyloTree* gold_tree,
                   const std::map<std::string, std::string>* sequences,
                   uint32_t f = 8);

  /// Borrows the query processors of a bound gold tree (the session's
  /// tree handle), which must outlive the manager. Needs no Init() and
  /// holds no sequences: the caller fetches what Sample draws and
  /// passes it to Score.
  BenchmarkManager(const PhyloTree* gold_tree, const Sampler* sampler,
                   const TreeProjector* projector, const NameIndex* names);

  /// Builds the labeling, name index, sampler and projector of the
  /// manager built over a sequence map.
  Status Init();

  /// The sample step: draws the selection's species. A user list names
  /// leaves of the gold tree (NotFound otherwise).
  Result<SpeciesSample> Sample(const SelectionSpec& selection,
                               Rng* rng) const;

  /// The score step. `sequences` holds at least the sequences of the
  /// sampled species that have one; the first sampled species it lacks,
  /// in sample order, fails the run with NotFound. Fewer than 3 sampled
  /// species fail with InvalidArgument.
  Result<BenchmarkRun> Score(
      const ReconstructionAlgorithm& algorithm, const SpeciesSample& sample,
      const std::map<std::string, std::string>& sequences,
      bool compute_triplets = false) const;

  /// Runs one evaluation: Sample, then Score over the manager's map.
  Result<BenchmarkRun> Evaluate(const ReconstructionAlgorithm& algorithm,
                                const SelectionSpec& selection, Rng* rng,
                                bool compute_triplets = false) const;

  const TreeProjector& projector() const { return *projector_; }

 private:
  const PhyloTree* tree_;
  /// The map constructor's sequences; null when the processors are
  /// borrowed.
  const std::map<std::string, std::string>* sequences_ = nullptr;
  /// Built by Init() for the map constructor.
  std::unique_ptr<LayeredDeweyScheme> owned_scheme_;
  std::unique_ptr<NameIndex> owned_names_;
  std::unique_ptr<Sampler> owned_sampler_;
  std::unique_ptr<TreeProjector> owned_projector_;
  const NameIndex* names_ = nullptr;
  const Sampler* sampler_ = nullptr;
  const TreeProjector* projector_ = nullptr;
};

}  // namespace crimson

#endif  // CRIMSON_CRIMSON_BENCHMARK_MANAGER_H_
