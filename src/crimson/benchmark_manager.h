// Benchmark Manager (paper §2.2, Fig. 3): characterizes and evaluates a
// tree inference algorithm by comparing its output to projection trees
// derived from the gold-standard simulation tree. The pipeline is:
//   sample species -> project the true tree over the sample ->
//   fetch/simulate sequences -> run the algorithm -> score against the
//   projection (Robinson-Foulds, triplets).

#ifndef CRIMSON_CRIMSON_BENCHMARK_MANAGER_H_
#define CRIMSON_CRIMSON_BENCHMARK_MANAGER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cache/cracked_store.h"
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

/// Evaluates algorithms against one gold-standard tree held in memory
/// (the Crimson facade wires this to the repositories). Immutable
/// after Init(): Evaluate is const and randomness comes from the
/// caller's Rng, so one manager may be shared across threads (each
/// with its own Rng).
class BenchmarkManager {
 public:
  /// The tree and sequences must outlive the manager. `sequences` maps
  /// every leaf name to its (aligned) sequence.
  BenchmarkManager(const PhyloTree* gold_tree,
                   const std::map<std::string, std::string>* sequences,
                   uint32_t f = 8);

  /// Borrows an already-built labeling of `gold_tree` (which must
  /// outlive the manager): Init() skips the O(n) relabel.
  BenchmarkManager(const PhyloTree* gold_tree,
                   const std::map<std::string, std::string>* sequences,
                   const LayeredDeweyScheme* scheme);

  /// Borrows a labeling plus an abstract sequence source (which must
  /// both outlive the manager). This is the constructor the session's
  /// cached evaluation state uses: the TreeHandle's scheme is reused
  /// instead of rebuilt, and sequences come through the cracked store
  /// so only the sampled slices are ever materialized.
  BenchmarkManager(const PhyloTree* gold_tree,
                   const cache::SequenceSource* sequences,
                   const LayeredDeweyScheme* scheme);

  /// Borrows a pre-built name index over the gold tree (the session
  /// passes the TreeHandle's); must outlive the manager. Without one,
  /// Init() builds a private index. Call before Init().
  void set_name_index(const NameIndex* names) { names_ = names; }

  Status Init();

  /// Runs one evaluation.
  Result<BenchmarkRun> Evaluate(const ReconstructionAlgorithm& algorithm,
                                const SelectionSpec& selection, Rng* rng,
                                bool compute_triplets = false) const;

  const Sampler& sampler() const { return *sampler_; }
  const TreeProjector& projector() const { return *projector_; }
  const LayeredDeweyScheme& scheme() const { return *scheme_; }

 private:
  Result<std::vector<NodeId>> SelectSpecies(const SelectionSpec& selection,
                                            Rng* rng) const;

  const PhyloTree* tree_;
  /// Wraps the map-constructor maps; null when a source is borrowed.
  std::unique_ptr<cache::MapSequenceSource> owned_source_;
  const cache::SequenceSource* sequences_;
  /// Built by Init() when owned; pre-built and borrowed otherwise.
  std::unique_ptr<LayeredDeweyScheme> owned_scheme_;
  const LayeredDeweyScheme* scheme_ = nullptr;
  /// Built by Init() when not borrowed via set_name_index().
  std::unique_ptr<NameIndex> owned_names_;
  const NameIndex* names_ = nullptr;
  std::unique_ptr<Sampler> sampler_;
  std::unique_ptr<TreeProjector> projector_;
};

}  // namespace crimson

#endif  // CRIMSON_CRIMSON_BENCHMARK_MANAGER_H_
