#include "crimson/benchmark_manager.h"

#include "common/string_util.h"
#include "common/timer.h"

namespace crimson {

BenchmarkManager::BenchmarkManager(
    const PhyloTree* gold_tree,
    const std::map<std::string, std::string>* sequences, uint32_t f)
    : tree_(gold_tree),
      owned_source_(std::make_unique<cache::MapSequenceSource>(sequences)),
      sequences_(owned_source_.get()),
      owned_scheme_(std::make_unique<LayeredDeweyScheme>(f)),
      scheme_(owned_scheme_.get()) {}

BenchmarkManager::BenchmarkManager(
    const PhyloTree* gold_tree,
    const std::map<std::string, std::string>* sequences,
    const LayeredDeweyScheme* scheme)
    : tree_(gold_tree),
      owned_source_(std::make_unique<cache::MapSequenceSource>(sequences)),
      sequences_(owned_source_.get()),
      scheme_(scheme) {}

BenchmarkManager::BenchmarkManager(const PhyloTree* gold_tree,
                                   const cache::SequenceSource* sequences,
                                   const LayeredDeweyScheme* scheme)
    : tree_(gold_tree), sequences_(sequences), scheme_(scheme) {}

Status BenchmarkManager::Init() {
  if (tree_ == nullptr || tree_->empty()) {
    return Status::InvalidArgument("benchmark manager needs a gold tree");
  }
  if (owned_scheme_ != nullptr) {
    CRIMSON_RETURN_IF_ERROR(owned_scheme_->Build(*tree_));
  } else if (scheme_ == nullptr || scheme_->node_count() != tree_->size()) {
    return Status::InvalidArgument(
        "borrowed labeling scheme does not match the gold tree");
  }
  if (names_ == nullptr) {
    owned_names_ = std::make_unique<NameIndex>(NameIndex::Build(*tree_));
    names_ = owned_names_.get();
  }
  sampler_ = std::make_unique<Sampler>(tree_);
  projector_ = std::make_unique<TreeProjector>(tree_, scheme_);
  return Status::OK();
}

Result<std::vector<NodeId>> BenchmarkManager::SelectSpecies(
    const SelectionSpec& selection, Rng* rng) const {
  switch (selection.kind) {
    case SelectionSpec::Kind::kUniform:
      return sampler_->SampleUniform(selection.k, rng);
    case SelectionSpec::Kind::kWithRespectToTime:
      return sampler_->SampleWithRespectToTime(selection.k, selection.time,
                                               rng);
    case SelectionSpec::Kind::kUserList: {
      std::vector<NodeId> out;
      out.reserve(selection.species.size());
      for (const std::string& s : selection.species) {
        NodeId n = names_->Find(*tree_, s);
        if (n == kNoNode || !tree_->is_leaf(n)) {
          return Status::NotFound(
              StrFormat("species '%s' is not a leaf of the gold tree",
                        s.c_str()));
        }
        out.push_back(n);
      }
      return out;
    }
  }
  return Status::Internal("unknown selection kind");
}

Result<BenchmarkRun> BenchmarkManager::Evaluate(
    const ReconstructionAlgorithm& algorithm, const SelectionSpec& selection,
    Rng* rng, bool compute_triplets) const {
  if (sampler_ == nullptr) {
    return Status::FailedPrecondition("Init() not called");
  }
  BenchmarkRun run;
  run.algorithm = algorithm.name();

  WallTimer timer;
  CRIMSON_ASSIGN_OR_RETURN(std::vector<NodeId> sample,
                           SelectSpecies(selection, rng));
  run.sample_seconds = timer.ElapsedSeconds();
  run.sample_size = sample.size();
  if (sample.size() < 3) {
    return Status::InvalidArgument(
        "need at least 3 sampled species to benchmark");
  }

  timer.Restart();
  CRIMSON_ASSIGN_OR_RETURN(run.reference, projector_->Project(sample));
  run.project_seconds = timer.ElapsedSeconds();

  // Collect the sampled species' sequences through the source (a
  // cracked store materializes only this slice; a map source just
  // copies). Missing species surface as NotFound from the source.
  std::vector<std::string> wanted;
  wanted.reserve(sample.size());
  for (NodeId n : sample) wanted.emplace_back(tree_->name(n));
  using SequenceMap = std::map<std::string, std::string>;
  CRIMSON_ASSIGN_OR_RETURN(SequenceMap seqs, sequences_->GetBatch(wanted));

  timer.Restart();
  CRIMSON_ASSIGN_OR_RETURN(run.reconstructed, algorithm.Reconstruct(seqs));
  run.reconstruct_seconds = timer.ElapsedSeconds();

  timer.Restart();
  CRIMSON_ASSIGN_OR_RETURN(run.rf,
                           RobinsonFoulds(run.reference, run.reconstructed));
  if (compute_triplets) {
    CRIMSON_ASSIGN_OR_RETURN(
        run.triplets, TripletDistance(run.reference, run.reconstructed));
  }
  run.compare_seconds = timer.ElapsedSeconds();
  return run;
}

}  // namespace crimson
