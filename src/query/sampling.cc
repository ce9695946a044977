#include "query/sampling.h"

#include <algorithm>
#include <tuple>
#include <utility>

#include "common/string_util.h"

namespace crimson {

Sampler::Sampler(const PhyloTree* tree)
    : tree_(tree), first_leaf_(tree->size()), leaf_count_(tree->size(), 0) {
  leaves_.reserve(tree->LeafCount());
  tree->PreOrder([&](NodeId n) {
    first_leaf_[n] = static_cast<uint32_t>(leaves_.size());
    if (tree->is_leaf(n)) leaves_.push_back(n);
    return true;
  });
  // Arena order puts parents before children, so one backward sweep
  // folds every subtree's leaf count into its parent.
  for (NodeId n = static_cast<NodeId>(tree->size()); n-- > 0;) {
    if (tree->is_leaf(n)) ++leaf_count_[n];
    if (n != tree->root()) leaf_count_[tree->parent(n)] += leaf_count_[n];
  }
}

Result<std::vector<NodeId>> Sampler::SampleUniform(size_t k, Rng* rng) const {
  if (k > leaves_.size()) {
    return Status::InvalidArgument(
        StrFormat("sample size %zu exceeds leaf count %zu", k,
                  leaves_.size()));
  }
  std::vector<uint64_t> idx = rng->SampleWithoutReplacement(leaves_.size(), k);
  std::vector<NodeId> out;
  out.reserve(k);
  for (uint64_t i : idx) out.push_back(leaves_[i]);
  return out;
}

std::vector<NodeId> Sampler::TimeFrontier(double time) const {
  // Pre-order DFS along the sibling chains that stops descending at the
  // first node whose weight exceeds `time` (minimality). It walks down
  // first children directly and stacks only pending siblings, each with
  // its parent's root-path weight, so a node's weight is
  // w(parent) + edge_length(node) -- the sum PhyloTree::RootPathWeights
  // forms, bit for bit -- and no per-node weight array is kept. The
  // root weighs 0 by definition.
  std::vector<NodeId> frontier;
  if (tree_->empty()) return frontier;
  const NodeId root = tree_->root();
  if (0.0 > time) return {root};
  if (tree_->is_leaf(root)) return frontier;
  std::vector<std::pair<NodeId, double>> pending;
  NodeId n = tree_->first_child(root);
  double parent_weight = 0.0;
  for (;;) {
    if (tree_->next_sibling(n) != kNoNode) {
      pending.push_back({tree_->next_sibling(n), parent_weight});
    }
    double weight = parent_weight + tree_->edge_length(n);
    if (weight > time) {
      frontier.push_back(n);
    } else if (!tree_->is_leaf(n)) {
      n = tree_->first_child(n);
      parent_weight = weight;
      continue;
    }
    if (pending.empty()) break;
    std::tie(n, parent_weight) = pending.back();
    pending.pop_back();
  }
  return frontier;
}

std::vector<NodeId> Sampler::LeavesUnder(NodeId node) const {
  auto first = leaves_.begin() + first_leaf_[node];
  return std::vector<NodeId>(first, first + leaf_count_[node]);
}

Result<std::vector<NodeId>> Sampler::SampleWithRespectToTime(
    size_t k, double time, Rng* rng) const {
  std::vector<NodeId> frontier = TimeFrontier(time);
  if (frontier.empty()) {
    return Status::NotFound(
        StrFormat("no node has root-path weight > %g", time));
  }
  const size_t f = frontier.size();
  // Quotas: floor(k/|F|) per frontier node, remainder spread over a
  // random subset of frontier nodes.
  std::vector<size_t> quota(f, k / f);
  size_t remainder = k % f;
  if (remainder > 0) {
    std::vector<uint64_t> extra = rng->SampleWithoutReplacement(f, remainder);
    for (uint64_t e : extra) ++quota[e];
  }

  // Pool i is the leaf range under frontier[i]; it gives min(quota, m)
  // leaves. A zero quota draws nothing, so that pool is skipped.
  std::vector<NodeId> out;
  out.reserve(k);
  for (size_t i = 0; i < f; ++i) {
    if (quota[i] == 0) continue;
    const uint32_t first = first_leaf_[frontier[i]];
    const uint32_t m = leaf_count_[frontier[i]];
    std::vector<uint64_t> idx =
        rng->SampleWithoutReplacement(m, std::min<size_t>(quota[i], m));
    for (uint64_t j : idx) out.push_back(leaves_[first + j]);
  }
  const size_t shortfall = k - out.size();
  if (shortfall == 0) return out;

  // Subtrees smaller than their quota: refill from the leaves no pool
  // drew, indexed as one list -- pool by pool, pre-order within a pool
  // -- without building it. spare_before[i] counts the undrawn leaves
  // of pools before i; taken_before[i] indexes pool i's draws in `out`.
  std::vector<size_t> spare_before(f + 1, 0);
  std::vector<size_t> taken_before(f + 1, 0);
  for (size_t i = 0; i < f; ++i) {
    const size_t m = leaf_count_[frontier[i]];
    const size_t take = std::min(quota[i], m);
    spare_before[i + 1] = spare_before[i] + (m - take);
    taken_before[i + 1] = taken_before[i] + take;
  }
  const size_t spare = spare_before[f];
  if (spare < shortfall) {
    return Status::InvalidArgument(
        StrFormat("only %zu leaves below the time-%g frontier, need %zu",
                  out.size() + spare, time, k));
  }
  // Each pool's drawn offsets, sorted (a leaf's first_leaf_ is its
  // position in leaves_).
  std::vector<uint32_t> taken(out.size());
  for (size_t i = 0; i < f; ++i) {
    const uint32_t first = first_leaf_[frontier[i]];
    for (size_t p = taken_before[i]; p < taken_before[i + 1]; ++p) {
      taken[p] = first_leaf_[out[p]] - first;
    }
    std::sort(taken.begin() + taken_before[i],
              taken.begin() + taken_before[i + 1]);
  }
  std::vector<uint64_t> idx = rng->SampleWithoutReplacement(spare, shortfall);
  for (uint64_t s : idx) {
    size_t i = std::upper_bound(spare_before.begin(), spare_before.end(), s) -
               spare_before.begin() - 1;
    // The r-th undrawn offset of pool i is r + c, where c counts drawn
    // offsets t_j with fewer than r+1 undrawn offsets before them
    // (t_j - j <= r); t_j - j never decreases, so c is a binary search.
    const uint64_t r = s - spare_before[i];
    const uint32_t* t = taken.data() + taken_before[i];
    size_t lo = 0, hi = taken_before[i + 1] - taken_before[i];
    while (lo < hi) {
      size_t mid = lo + (hi - lo) / 2;
      if (t[mid] - mid <= r) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    out.push_back(leaves_[first_leaf_[frontier[i]] + r + lo]);
  }
  return out;
}

}  // namespace crimson
