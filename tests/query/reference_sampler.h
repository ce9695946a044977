// ReferenceSampler: the straightforward O(n)-per-call time sampler,
// kept as the differential oracle for Sampler. Every call finds the
// frontier with a DFS over precomputed root-path weights plus a
// pre-order sort, and builds one leaf vector per frontier node and one
// spare vector for the shortfall refill. Sampler must return the same
// leaves in the same order, the same Status text, and leave the Rng in
// the same state.

#ifndef CRIMSON_TESTS_QUERY_REFERENCE_SAMPLER_H_
#define CRIMSON_TESTS_QUERY_REFERENCE_SAMPLER_H_

#include <algorithm>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "common/string_util.h"
#include "tree/phylo_tree.h"

namespace crimson {

class ReferenceSampler {
 public:
  explicit ReferenceSampler(const PhyloTree* tree)
      : tree_(tree),
        leaves_(tree->Leaves()),
        root_weight_(tree->RootPathWeights()) {}

  Result<std::vector<NodeId>> SampleUniform(size_t k, Rng* rng) const {
    if (k > leaves_.size()) {
      return Status::InvalidArgument(
          StrFormat("sample size %zu exceeds leaf count %zu", k,
                    leaves_.size()));
    }
    std::vector<uint64_t> idx =
        rng->SampleWithoutReplacement(leaves_.size(), k);
    std::vector<NodeId> out;
    out.reserve(k);
    for (uint64_t i : idx) out.push_back(leaves_[i]);
    return out;
  }

  std::vector<NodeId> TimeFrontier(double time) const {
    std::vector<NodeId> frontier;
    if (tree_->empty()) return frontier;
    std::vector<NodeId> stack = {tree_->root()};
    while (!stack.empty()) {
      NodeId n = stack.back();
      stack.pop_back();
      if (root_weight_[n] > time) {
        frontier.push_back(n);
        continue;
      }
      for (NodeId c = tree_->first_child(n); c != kNoNode;
           c = tree_->next_sibling(c)) {
        stack.push_back(c);
      }
    }
    std::vector<uint32_t> rank = tree_->PreOrderRanks();
    std::sort(frontier.begin(), frontier.end(),
              [&](NodeId a, NodeId b) { return rank[a] < rank[b]; });
    return frontier;
  }

  std::vector<NodeId> LeavesUnder(NodeId node) const {
    std::vector<NodeId> out;
    tree_->PreOrder(
        [&](NodeId n) {
          if (tree_->is_leaf(n)) out.push_back(n);
          return true;
        },
        node);
    return out;
  }

  Result<std::vector<NodeId>> SampleWithRespectToTime(size_t k, double time,
                                                      Rng* rng) const {
    std::vector<NodeId> frontier = TimeFrontier(time);
    if (frontier.empty()) {
      return Status::NotFound(
          StrFormat("no node has root-path weight > %g", time));
    }
    std::vector<size_t> quota(frontier.size(), k / frontier.size());
    size_t remainder = k % frontier.size();
    if (remainder > 0) {
      std::vector<uint64_t> extra =
          rng->SampleWithoutReplacement(frontier.size(), remainder);
      for (uint64_t e : extra) ++quota[e];
    }

    std::vector<NodeId> out;
    out.reserve(k);
    size_t shortfall = 0;
    std::vector<NodeId> spare;
    for (size_t i = 0; i < frontier.size(); ++i) {
      std::vector<NodeId> pool = LeavesUnder(frontier[i]);
      size_t take = std::min(quota[i], pool.size());
      shortfall += quota[i] - take;
      std::vector<uint64_t> idx =
          rng->SampleWithoutReplacement(pool.size(), take);
      std::vector<bool> chosen(pool.size(), false);
      for (uint64_t j : idx) {
        out.push_back(pool[j]);
        chosen[j] = true;
      }
      for (size_t j = 0; j < pool.size(); ++j) {
        if (!chosen[j]) spare.push_back(pool[j]);
      }
    }
    if (shortfall > 0) {
      if (spare.size() < shortfall) {
        return Status::InvalidArgument(
            StrFormat("only %zu leaves below the time-%g frontier, need %zu",
                      out.size() + spare.size(), time, k));
      }
      std::vector<uint64_t> idx =
          rng->SampleWithoutReplacement(spare.size(), shortfall);
      for (uint64_t j : idx) out.push_back(spare[j]);
    }
    return out;
  }

  const std::vector<NodeId>& leaves() const { return leaves_; }

 private:
  const PhyloTree* tree_;
  std::vector<NodeId> leaves_;
  std::vector<double> root_weight_;
};

}  // namespace crimson

#endif  // CRIMSON_TESTS_QUERY_REFERENCE_SAMPLER_H_
