#include "recon/algorithm.h"

#include <utility>

#include "common/string_util.h"
#include "recon/nj.h"
#include "recon/upgma.h"

namespace crimson {

namespace {

class NjAlgorithm final : public ReconstructionAlgorithm {
 public:
  explicit NjAlgorithm(DistanceCorrection c) : correction_(c) {}
  std::string name() const override { return "neighbor_joining"; }
  Result<PhyloTree> Reconstruct(
      const std::map<std::string, std::string>& sequences) const override {
    CRIMSON_ASSIGN_OR_RETURN(DistanceMatrix m,
                             ComputeDistanceMatrix(sequences, correction_));
    return NeighborJoining(m);
  }

 private:
  DistanceCorrection correction_;
};

class UpgmaAlgorithm final : public ReconstructionAlgorithm {
 public:
  explicit UpgmaAlgorithm(DistanceCorrection c) : correction_(c) {}
  std::string name() const override { return "upgma"; }
  Result<PhyloTree> Reconstruct(
      const std::map<std::string, std::string>& sequences) const override {
    CRIMSON_ASSIGN_OR_RETURN(DistanceMatrix m,
                             ComputeDistanceMatrix(sequences, correction_));
    return Upgma(m);
  }

 private:
  DistanceCorrection correction_;
};

}  // namespace

std::unique_ptr<ReconstructionAlgorithm> MakeNjAlgorithm(
    DistanceCorrection correction) {
  return std::make_unique<NjAlgorithm>(correction);
}

std::unique_ptr<ReconstructionAlgorithm> MakeUpgmaAlgorithm(
    DistanceCorrection correction) {
  return std::make_unique<UpgmaAlgorithm>(correction);
}

AlgorithmRegistry& AlgorithmRegistry::Global() {
  static auto* registry = new AlgorithmRegistry();
  return *registry;
}

AlgorithmRegistry::AlgorithmRegistry() {
  factories_["nj"] = [] { return MakeNjAlgorithm(DistanceCorrection::kJC69); };
  factories_["upgma"] = [] {
    return MakeUpgmaAlgorithm(DistanceCorrection::kJC69);
  };
}

Status AlgorithmRegistry::Register(const std::string& name, Factory factory) {
  if (name.empty() || !factory) {
    return Status::InvalidArgument("algorithm registration needs a non-empty "
                                   "name and a factory");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (!factories_.emplace(name, std::move(factory)).second) {
    return Status::AlreadyExists(
        StrFormat("algorithm '%s' is already registered", name.c_str()));
  }
  return Status::OK();
}

Result<std::unique_ptr<ReconstructionAlgorithm>> AlgorithmRegistry::Create(
    const std::string& name) const {
  Factory factory;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = factories_.find(name);
    if (it == factories_.end()) {
      return Status::NotFound(
          StrFormat("no reconstruction algorithm registered as '%s'",
                    name.c_str()));
    }
    factory = it->second;
  }
  std::unique_ptr<ReconstructionAlgorithm> algorithm = factory();
  if (algorithm == nullptr) {
    return Status::Internal(
        StrFormat("factory for algorithm '%s' returned null", name.c_str()));
  }
  return algorithm;
}

bool AlgorithmRegistry::Contains(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return factories_.count(name) > 0;
}

std::vector<std::string> AlgorithmRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) out.push_back(name);
  return out;
}

}  // namespace crimson
