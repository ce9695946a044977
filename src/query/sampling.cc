#include "query/sampling.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/string_util.h"

namespace crimson {

namespace {

// Checkpoints per time index. Their bitmaps take (kCheckpoints + 1)
// bits per node, about 4.1 B/node, and a call applies at most
// n / (2 * kCheckpoints) events.
constexpr size_t kCheckpoints = 32;

// An event's flips start with the leaving node x's own rank, marked by
// kEventStart. kFirstChild on it also flips rank + 1, x's first child
// in pre-order; its other children's ranks follow unmarked. Pre-order
// ranks stay below 2^30: a tree that large would need 24 GB for its
// PhyloTree columns alone.
constexpr uint32_t kEventStart = uint32_t{1} << 31;
constexpr uint32_t kFirstChild = uint32_t{1} << 30;
constexpr uint32_t kRankMask = kFirstChild - 1;

void FlipBit(std::vector<uint64_t>* bits, uint32_t rank) {
  (*bits)[rank / 64] ^= uint64_t{1} << (rank % 64);
}

void ApplyFlip(std::vector<uint64_t>* bits, uint32_t flip) {
  FlipBit(bits, flip & kRankMask);
  if (flip & kFirstChild) FlipBit(bits, (flip & kRankMask) + 1);
}

// Set bits of x. Portable SWAR: the build targets baseline x86-64,
// where __builtin_popcountll is a libgcc call per word.
inline size_t PopCount(uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555ULL;
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
  return static_cast<size_t>((x * 0x0101010101010101ULL) >> 56);
}

}  // namespace

// The time frontier as a function of t. With prefix-max weights
// w'(root) = -inf and w'(x) = max(w'(parent), w(x)), where w is the
// root-path weight and a NaN or -inf w never raises w', node x is on
// the frontier at t >= 0 exactly when w'(parent(x)) <= t < w'(x): every
// ancestor below the root weighs <= t (or NaN, which `>` never picks)
// and x is the first to weigh more. w' never decreases down a path,
// so each non-root node is one event at w'(x) -- "x leaves the
// frontier, its children enter" -- and the frontier at t is the root's
// children with every event of key <= t applied. Applying an event
// flips bits, so events commute, and a bitmap after any prefix of the
// sorted events can be moved forward or back to any other.
struct Sampler::TimeIndex {
  // Event e, ascending by (key, pre-order rank of x): x leaves the
  // frontier and its children enter, at time key[e] = w'(x).
  std::vector<double> key;
  // The pre-order ranks each event flips, event after event: x's rank
  // with kEventStart set (and kFirstChild if x has children), then its
  // other children's ranks.
  std::vector<uint32_t> flips;
  // Checkpoint j is the frontier after events [0, j * stride): `words`
  // bitmap words at checkpoints[j * words]. Event j * stride's flips
  // start at flips[checkpoint_flip[j]].
  size_t stride = 1;
  size_t words = 0;
  std::vector<uint64_t> checkpoints;
  std::vector<uint32_t> checkpoint_flip;
  std::vector<NodeId> node_at;  // pre-order rank -> node

  static std::unique_ptr<const TimeIndex> Build(const PhyloTree& tree);

  /// The time-`time` frontier as a bitmap over pre-order ranks.
  std::vector<uint64_t> Frontier(double time) const;

  /// The nodes whose ranks are set in `bits`, in pre-order.
  std::vector<NodeId> Nodes(const std::vector<uint64_t>& bits) const;

  size_t MemoryFootprintBytes() const {
    return key.capacity() * sizeof(double) +
           flips.capacity() * sizeof(uint32_t) +
           checkpoints.capacity() * sizeof(uint64_t) +
           checkpoint_flip.capacity() * sizeof(uint32_t) +
           node_at.capacity() * sizeof(NodeId);
  }
};

std::unique_ptr<const Sampler::TimeIndex> Sampler::TimeIndex::Build(
    const PhyloTree& tree) {
  auto index = std::make_unique<TimeIndex>();
  const size_t n = tree.size();
  index->words = (n + 63) / 64;
  if (n == 0) return index;
  std::vector<uint32_t> rank(n);
  index->node_at.reserve(n);
  tree.PreOrder([&](NodeId v) {
    rank[v] = static_cast<uint32_t>(index->node_at.size());
    index->node_at.push_back(v);
    return true;
  });

  // events[v - 1] = (w'(v), rank(v)) for each non-root v. Arena order
  // puts parents first. Until the sorted keys overwrite it, key[v - 1]
  // holds v's root-path weight w, summed as PhyloTree::RootPathWeights
  // sums it, bit for bit (the root weighs 0).
  const NodeId root = tree.root();
  const size_t n_events = n - 1;
  std::vector<std::pair<double, uint32_t>> events(n_events);
  index->key.resize(n_events);
  for (NodeId v = 1; v < n; ++v) {
    const NodeId p = tree.parent(v);
    const double parent_weight = p == root ? 0.0 : index->key[p - 1];
    const double parent_max = p == root
                                  ? -std::numeric_limits<double>::infinity()
                                  : events[p - 1].first;
    const double weight = parent_weight + tree.edge_length(v);
    index->key[v - 1] = weight;
    events[v - 1] = {weight > parent_max ? weight : parent_max, rank[v]};
  }
  std::sort(events.begin(), events.end());

  index->stride =
      std::max<size_t>(1, (n_events + kCheckpoints - 1) / kCheckpoints);
  const size_t n_checkpoints = n_events / index->stride + 1;
  // One flip per event plus one per later sibling below a non-root.
  size_t n_flips = n_events;
  for (NodeId v = 1; v < n; ++v) {
    const NodeId p = tree.parent(v);
    if (p != root && tree.first_child(p) != v) ++n_flips;
  }
  index->flips.reserve(n_flips);
  index->checkpoints.reserve(n_checkpoints * index->words);
  index->checkpoint_flip.reserve(n_checkpoints);
  std::vector<uint64_t> bits(index->words, 0);
  for (NodeId c = tree.first_child(root); c != kNoNode;
       c = tree.next_sibling(c)) {
    FlipBit(&bits, rank[c]);
  }
  for (size_t e = 0;; ++e) {
    if (e % index->stride == 0) {
      index->checkpoints.insert(index->checkpoints.end(), bits.begin(),
                                bits.end());
      index->checkpoint_flip.push_back(
          static_cast<uint32_t>(index->flips.size()));
    }
    if (e == n_events) break;
    const auto [key, r] = events[e];
    const NodeId x = index->node_at[r];
    index->key[e] = key;
    index->flips.push_back(r | kEventStart |
                           (tree.is_leaf(x) ? 0 : kFirstChild));
    ApplyFlip(&bits, index->flips.back());
    for (NodeId c = tree.is_leaf(x) ? kNoNode
                                    : tree.next_sibling(tree.first_child(x));
         c != kNoNode; c = tree.next_sibling(c)) {
      index->flips.push_back(rank[c]);
      FlipBit(&bits, rank[c]);
    }
  }
  return index;
}

std::vector<uint64_t> Sampler::TimeIndex::Frontier(double time) const {
  if (words == 0 || std::isnan(time)) return std::vector<uint64_t>(words, 0);
  if (0.0 > time) {
    // The root weighs 0 and holds pre-order rank 0.
    std::vector<uint64_t> bits(words, 0);
    bits[0] = 1;
    return bits;
  }
  const size_t applied =
      std::upper_bound(key.begin(), key.end(), time) - key.begin();
  const size_t j = std::min((applied + stride / 2) / stride,
                            checkpoint_flip.size() - 1);
  auto first = checkpoints.begin() + j * words;
  std::vector<uint64_t> bits(first, first + words);
  size_t p = checkpoint_flip[j];
  if (applied >= j * stride) {
    // Apply events [j * stride, applied): stop at the next event's mark.
    for (size_t todo = applied - j * stride; p < flips.size(); ++p) {
      const uint32_t v = flips[p];
      if ((v & kEventStart) && todo-- == 0) break;
      ApplyFlip(&bits, v);
    }
  } else {
    // Undo events [applied, j * stride), last first: walking back, an
    // event ends at its mark.
    for (size_t todo = j * stride - applied; todo > 0;) {
      const uint32_t v = flips[--p];
      ApplyFlip(&bits, v);
      if (v & kEventStart) --todo;
    }
  }
  return bits;
}

std::vector<NodeId> Sampler::TimeIndex::Nodes(
    const std::vector<uint64_t>& bits) const {
  std::vector<NodeId> nodes;
  for (size_t w = 0; w < bits.size(); ++w) {
    for (uint64_t word = bits[w]; word != 0; word &= word - 1) {
      nodes.push_back(node_at[w * 64 + __builtin_ctzll(word)]);
    }
  }
  return nodes;
}

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

Sampler::~Sampler() = default;

const Sampler::TimeIndex& Sampler::Index() const {
  std::call_once(index_once_, [this] {
    index_ = TimeIndex::Build(*tree_);
    index_built_.store(true, std::memory_order_release);
  });
  return *index_;
}

size_t Sampler::MemoryFootprintBytes() const {
  size_t bytes = leaves_.capacity() * sizeof(NodeId) +
                 first_leaf_.capacity() * sizeof(uint32_t) +
                 leaf_count_.capacity() * sizeof(uint32_t);
  if (index_built_.load(std::memory_order_acquire)) {
    bytes += index_->MemoryFootprintBytes();
  }
  return bytes;
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
  const TimeIndex& index = Index();
  return index.Nodes(index.Frontier(time));
}

std::vector<NodeId> Sampler::LeavesUnder(NodeId node) const {
  auto first = leaves_.begin() + first_leaf_[node];
  return std::vector<NodeId>(first, first + leaf_count_[node]);
}

Result<std::vector<NodeId>> Sampler::SampleWithRespectToTime(
    size_t k, double time, Rng* rng) const {
  const TimeIndex& index = Index();
  const std::vector<uint64_t> bits = index.Frontier(time);
  // ones_before[w] counts the frontier nodes in bits[0, w).
  std::vector<uint32_t> ones_before(bits.size() + 1, 0);
  for (size_t w = 0; w < bits.size(); ++w) {
    ones_before[w + 1] =
        static_cast<uint32_t>(ones_before[w] + PopCount(bits[w]));
  }
  const size_t f = ones_before.back();
  if (f == 0) {
    return Status::NotFound(
        StrFormat("no node has root-path weight > %g", time));
  }
  if (f > k) {
    // Every quota is 0 and the remainder, k, goes to the k frontier
    // nodes SampleWithoutReplacement(|F|, k) picks; each draws one leaf,
    // in pre-order. The i-th frontier node is the i-th set bit, so the
    // frontier is never listed.
    std::vector<NodeId> out;
    out.reserve(k);
    if (k == 0) return out;
    std::vector<uint64_t> picked = rng->SampleWithoutReplacement(f, k);
    std::sort(picked.begin(), picked.end());
    size_t w = 0;
    for (uint64_t i : picked) {
      // The word holding the i-th set bit, then the bit within it.
      w = std::upper_bound(ones_before.begin() + w, ones_before.end(), i) -
          ones_before.begin() - 1;
      uint64_t word = bits[w];
      for (uint64_t skip = i - ones_before[w]; skip > 0; --skip) {
        word &= word - 1;
      }
      const NodeId node = index.node_at[w * 64 + __builtin_ctzll(word)];
      // SampleWithoutReplacement(m, 1) is the one draw Uniform(m).
      out.push_back(
          leaves_[first_leaf_[node] + rng->Uniform(leaf_count_[node])]);
    }
    return out;
  }

  // |F| <= k: the frontier is small, so list it and spread the quotas.
  const std::vector<NodeId> frontier = index.Nodes(bits);
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
