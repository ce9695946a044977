#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>

#include "sim/seq_evolve.h"
#include "sim/tree_sim.h"
#include "tree/newick.h"

namespace perfbench {

using crimson::NodeId;
using crimson::PhyloTree;
using crimson::QueryRequest;
using crimson::Rng;

namespace {

[[noreturn]] void Die(const std::string& what) {
  fprintf(stderr, "input generation failed: %s\n", what.c_str());
  exit(2);
}

/// `k` distinct entries of leaves[lo, lo + width), in draw order.
std::vector<NodeId> PickDistinct(const std::vector<NodeId>& leaves, size_t lo,
                                 size_t width, size_t k, Rng* rng) {
  std::vector<NodeId> out;
  while (out.size() < k) {
    NodeId n = leaves[lo + rng->Uniform(width)];
    if (std::find(out.begin(), out.end(), n) == out.end()) out.push_back(n);
  }
  return out;
}

/// A window of consecutive pre-order leaves of width 2^[lo_exp, hi_exp]
/// (capped at the leaf count); returns its start and width.
std::pair<size_t, size_t> LeafWindow(size_t n_leaves, int lo_exp, int hi_exp,
                                     Rng* rng) {
  const int e = lo_exp + static_cast<int>(rng->Uniform(hi_exp - lo_exp + 1));
  const size_t width = std::min<size_t>(n_leaves, size_t{1} << e);
  return {rng->Uniform(n_leaves - width + 1), width};
}

/// A random rooted binary topology over the names, as Newick.
std::string RandomTopology(std::vector<std::string> names, Rng* rng) {
  std::function<std::string(size_t, size_t)> build =
      [&](size_t lo, size_t hi) -> std::string {
    if (hi - lo == 1) return names[lo];
    const size_t split = lo + 1 + rng->Uniform(hi - lo - 1);
    return "(" + build(lo, split) + "," + build(split, hi) + ")";
  };
  for (size_t i = names.size(); i > 1; --i) {
    std::swap(names[i - 1], names[rng->Uniform(i)]);
  }
  return build(0, names.size()) + ";";
}

}  // namespace

uint64_t MixSeed(uint64_t seed, uint64_t a, uint64_t b) {
  uint64_t state = seed ^ (a * 0x9e3779b97f4a7c15ULL) ^
                   (b * 0xc2b2ae3d27d4eb4fULL);
  crimson::SplitMix64(&state);
  return crimson::SplitMix64(&state);
}

std::string YuleNewick(uint64_t seed, uint32_t leaves) {
  Rng rng(seed);
  crimson::YuleOptions opts;
  opts.n_leaves = leaves;
  auto tree = crimson::SimulateYule(opts, &rng);
  if (!tree.ok()) Die(tree.status().ToString());
  return crimson::WriteNewick(*tree);
}

std::map<std::string, std::string> LeafSequences(uint64_t seed,
                                                 const std::string& newick,
                                                 size_t length) {
  auto tree = crimson::ParseNewick(newick);
  if (!tree.ok()) Die(tree.status().ToString());
  crimson::SeqEvolveOptions opts;
  opts.seq_length = length;
  auto evolver = crimson::SequenceEvolver::Create(opts);
  if (!evolver.ok()) Die(evolver.status().ToString());
  Rng rng(seed);
  auto seqs = evolver->EvolveLeaves(*tree, &rng);
  if (!seqs.ok()) Die(seqs.status().ToString());
  return std::move(*seqs);
}

const char* KindName(int kind) {
  static const char* const kNames[kKindCount] = {
      "lca", "project", "sample_uniform", "sample_time", "clade",
      "pattern_match"};
  return kNames[kind];
}

std::vector<QueryRequest> MakeRequests(const PhyloTree& tree, size_t count,
                                       uint64_t seed) {
  const std::vector<NodeId> leaves = tree.Leaves();
  const size_t n = leaves.size();
  if (n < 64) Die("tree too small for the request mix");
  const std::vector<double> weights = tree.RootPathWeights();
  double min_leaf_weight = weights[leaves[0]];
  for (NodeId leaf : leaves) {
    min_leaf_weight = std::min(min_leaf_weight, weights[leaf]);
  }
  auto names_of = [&](const std::vector<NodeId>& nodes) {
    std::vector<std::string> out;
    for (NodeId node : nodes) out.emplace_back(tree.name(node));
    return out;
  };
  std::vector<QueryRequest> out;
  out.reserve(count);
  for (size_t r = 0; r < count; ++r) {
    Rng rng(MixSeed(seed, r));
    switch (r % kKindCount) {
      case 0: {
        auto pair = names_of(PickDistinct(leaves, 0, n, 2, &rng));
        out.push_back(crimson::LcaQuery{pair[0], pair[1]});
        break;
      }
      case 1:
        out.push_back(
            crimson::ProjectQuery{names_of(PickDistinct(leaves, 0, n, 32, &rng))});
        break;
      case 2:
        out.push_back(crimson::SampleUniformQuery{16 + rng.Uniform(49)});
        break;
      case 3:
        // Below every leaf's root-path weight, so all leaves lie under
        // the time frontier and the sample always succeeds.
        out.push_back(crimson::SampleTimeQuery{
            16 + rng.Uniform(49),
            min_leaf_weight * (0.05 + 0.9 * rng.NextDouble())});
        break;
      case 4: {
        auto [lo, width] = LeafWindow(n, 3, 14, &rng);
        out.push_back(
            crimson::CladeQuery{names_of(PickDistinct(leaves, lo, width, 3, &rng))});
        break;
      }
      default: {
        auto [lo, width] = LeafWindow(n, 4, 12, &rng);
        const size_t k = 4 + rng.Uniform(3);
        out.push_back(crimson::PatternQuery{
            RandomTopology(names_of(PickDistinct(leaves, lo, width, k, &rng)),
                           &rng),
            false});
        break;
      }
    }
  }
  return out;
}

Zipf::Zipf(size_t n, double s) : cdf_(n) {
  double total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t Zipf::Draw(Rng* rng) const {
  const double u = rng->NextDouble();
  size_t i = std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
  return std::min(i, cdf_.size() - 1);
}

size_t RequestStream::Next(std::vector<uint32_t>* requests) {
  const size_t tree = rng_.Uniform(trees_);
  requests->resize(batch_);
  for (uint32_t& r : *requests) r = static_cast<uint32_t>(zipf_->Draw(&rng_));
  return tree;
}

}  // namespace perfbench
