#include "crimson/benchmark_manager.h"

#include "common/string_util.h"
#include "common/timer.h"

namespace crimson {

BenchmarkManager::BenchmarkManager(
    const PhyloTree* gold_tree,
    const std::map<std::string, std::string>* sequences, uint32_t f)
    : tree_(gold_tree),
      sequences_(sequences),
      owned_scheme_(std::make_unique<LayeredDeweyScheme>(f)) {}

BenchmarkManager::BenchmarkManager(const PhyloTree* gold_tree,
                                   const Sampler* sampler,
                                   const TreeProjector* projector,
                                   const NameIndex* names)
    : tree_(gold_tree),
      names_(names),
      sampler_(sampler),
      projector_(projector) {}

Status BenchmarkManager::Init() {
  if (tree_ == nullptr || tree_->empty()) {
    return Status::InvalidArgument("benchmark manager needs a gold tree");
  }
  if (owned_scheme_ == nullptr) {
    return Status::FailedPrecondition("the manager borrows its processors");
  }
  CRIMSON_RETURN_IF_ERROR(owned_scheme_->Build(*tree_));
  owned_names_ = std::make_unique<NameIndex>(NameIndex::Build(*tree_));
  owned_sampler_ = std::make_unique<Sampler>(tree_);
  owned_projector_ =
      std::make_unique<TreeProjector>(tree_, owned_scheme_.get());
  names_ = owned_names_.get();
  sampler_ = owned_sampler_.get();
  projector_ = owned_projector_.get();
  return Status::OK();
}

Result<SpeciesSample> BenchmarkManager::Sample(const SelectionSpec& selection,
                                               Rng* rng) const {
  if (sampler_ == nullptr) {
    return Status::FailedPrecondition("Init() not called");
  }
  WallTimer timer;
  SpeciesSample sample;
  switch (selection.kind) {
    case SelectionSpec::Kind::kUniform: {
      CRIMSON_ASSIGN_OR_RETURN(sample.species,
                               sampler_->SampleUniform(selection.k, rng));
      break;
    }
    case SelectionSpec::Kind::kWithRespectToTime: {
      CRIMSON_ASSIGN_OR_RETURN(
          sample.species,
          sampler_->SampleWithRespectToTime(selection.k, selection.time, rng));
      break;
    }
    case SelectionSpec::Kind::kUserList: {
      sample.species.reserve(selection.species.size());
      for (const std::string& s : selection.species) {
        NodeId n = names_->Find(*tree_, s);
        if (n == kNoNode || !tree_->is_leaf(n)) {
          return Status::NotFound(
              StrFormat("species '%s' is not a leaf of the gold tree",
                        s.c_str()));
        }
        sample.species.push_back(n);
      }
      break;
    }
  }
  sample.seconds = timer.ElapsedSeconds();
  return sample;
}

Result<BenchmarkRun> BenchmarkManager::Score(
    const ReconstructionAlgorithm& algorithm, const SpeciesSample& sample,
    const std::map<std::string, std::string>& sequences,
    bool compute_triplets) const {
  BenchmarkRun run;
  run.algorithm = algorithm.name();
  run.sample_seconds = sample.seconds;
  run.sample_size = sample.species.size();
  if (sample.species.size() < 3) {
    return Status::InvalidArgument(
        "need at least 3 sampled species to benchmark");
  }

  WallTimer timer;
  CRIMSON_ASSIGN_OR_RETURN(run.reference, projector_->Project(sample.species));
  run.project_seconds = timer.ElapsedSeconds();

  std::map<std::string, std::string> seqs;
  for (NodeId n : sample.species) {
    auto it = sequences.find(std::string(tree_->name(n)));
    if (it == sequences.end()) {
      return Status::NotFound(
          StrFormat("no sequence for sampled species '%s'",
                    std::string(tree_->name(n)).c_str()));
    }
    seqs.emplace(it->first, it->second);
  }

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

Result<BenchmarkRun> BenchmarkManager::Evaluate(
    const ReconstructionAlgorithm& algorithm, const SelectionSpec& selection,
    Rng* rng, bool compute_triplets) const {
  if (sequences_ == nullptr) {
    return Status::FailedPrecondition(
        "no sequence map: run Sample, fetch, then Score");
  }
  CRIMSON_ASSIGN_OR_RETURN(SpeciesSample sample, Sample(selection, rng));
  return Score(algorithm, sample, *sequences_, compute_triplets);
}

}  // namespace crimson
