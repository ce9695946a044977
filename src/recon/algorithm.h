// Reconstruction algorithms as named, pluggable components. The
// ReconstructionAlgorithm interface (formerly declared next to the
// BenchmarkManager) lives in the recon layer so that the algorithm
// *registry* -- the lookup table the typed Experiment API stores
// algorithm references through -- does not depend on the session
// layer. Specs persist registry names, not object references, which is
// what makes stored experiments replayable.

#ifndef CRIMSON_RECON_ALGORITHM_H_
#define CRIMSON_RECON_ALGORITHM_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "recon/distance.h"
#include "tree/phylo_tree.h"

namespace crimson {

/// A tree inference algorithm under evaluation. Implementations exist
/// for NJ and UPGMA; users plug in their own.
///
/// Thread-safety contract: Reconstruct is const and must be safe to
/// call concurrently on one instance -- the Experiment API shares one
/// instance per algorithm name across all replicate workers.
class ReconstructionAlgorithm {
 public:
  virtual ~ReconstructionAlgorithm() = default;
  virtual std::string name() const = 0;
  /// Builds a tree whose leaves are exactly the keys of `sequences`.
  virtual Result<PhyloTree> Reconstruct(
      const std::map<std::string, std::string>& sequences) const = 0;
};

/// Distance-based algorithms shipped with Crimson.
std::unique_ptr<ReconstructionAlgorithm> MakeNjAlgorithm(
    DistanceCorrection correction = DistanceCorrection::kJC69);
std::unique_ptr<ReconstructionAlgorithm> MakeUpgmaAlgorithm(
    DistanceCorrection correction = DistanceCorrection::kJC69);

/// Name -> factory table for reconstruction algorithms. Experiment
/// specs reference algorithms by registry name, so anything stored in
/// an ExperimentSpec (and hence in the experiments table) must be
/// registered here to be runnable and replayable.
///
/// Pre-registered names: "nj" and "upgma", both with JC69 distance
/// correction. Registry names need not match name(): "nj" runs report
/// "neighbor_joining". Thread-safe.
class AlgorithmRegistry {
 public:
  using Factory = std::function<std::unique_ptr<ReconstructionAlgorithm>()>;

  /// The process-wide registry used by the Crimson session.
  static AlgorithmRegistry& Global();

  /// Registers a user factory under `name`. AlreadyExists if the name
  /// is taken (including the built-in names). The factory must produce
  /// algorithms satisfying the const-thread-safety contract above.
  Status Register(const std::string& name, Factory factory);

  /// Instantiates the algorithm registered under `name`; NotFound for
  /// unregistered names.
  Result<std::unique_ptr<ReconstructionAlgorithm>> Create(
      const std::string& name) const;

  bool Contains(const std::string& name) const;

  /// All registered names, sorted.
  std::vector<std::string> Names() const;

 private:
  AlgorithmRegistry();  // pre-registers the built-ins

  mutable std::mutex mu_;
  std::map<std::string, Factory> factories_;
};

}  // namespace crimson

#endif  // CRIMSON_RECON_ALGORITHM_H_
