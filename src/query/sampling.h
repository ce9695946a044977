// Species sampling (paper §2.2): uniform random leaf samples, and
// "sampling a set of species with respect to a given time" -- find the
// frontier of minimal nodes whose root-path weight exceeds t, then draw
// evenly from the leaf sets under each frontier node. These samples
// feed the Benchmark Manager's projection + reconstruction pipeline.

#ifndef CRIMSON_QUERY_SAMPLING_H_
#define CRIMSON_QUERY_SAMPLING_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "tree/phylo_tree.h"

namespace crimson {

/// Reusable sampler over one tree. Bind time lays the leaves out in
/// pre-order and gives every node its leaf range in that array
/// (first_leaf_, leaf_count_), so a subtree's leaf pool is a range.
///
/// Time samples read a time index that the first time query builds
/// (O(n log n), about 22 B/node): every non-root node as one event at
/// its prefix-max root-path weight w' -- "x leaves the frontier, its
/// children enter" -- sorted, and a frontier bitmap over pre-order
/// ranks after every S-th event, S = n/32. A call finds the frontier by
/// one binary search, a copy of the nearest checkpoint and at most S/2
/// events, and draws by popcount over the bitmap:
/// O(log n + S + n/64 + k).
///
/// All query methods are const and draw randomness only from the
/// caller-supplied Rng; the index is built once under std::call_once,
/// so one Sampler may be shared by any number of threads (each with its
/// own Rng), including on their first calls.
class Sampler {
 public:
  explicit Sampler(const PhyloTree* tree);
  ~Sampler();

  /// k distinct leaves uniformly at random. k must not exceed the leaf
  /// count.
  Result<std::vector<NodeId>> SampleUniform(size_t k, Rng* rng) const;

  /// The paper's time-respecting sample: the frontier F of minimal
  /// nodes with root-path weight > time is computed; k draws are spread
  /// as evenly as possible over the frontier subtrees (k/|F| each,
  /// remainder to random frontier nodes), sampling uniformly among the
  /// leaves under each chosen node. Fails if fewer than k leaves lie
  /// under the frontier, or the frontier is empty.
  Result<std::vector<NodeId>> SampleWithRespectToTime(size_t k, double time,
                                                      Rng* rng) const;

  /// Minimal nodes (in pre-order) whose root-path weight exceeds
  /// `time`; exposed for tests (paper example: t=1 on the Fig. 1 tree
  /// gives {Bha, x, Syn, Bsu}). The root weighs 0, so a negative time
  /// gives {root}; a NaN time gives no node.
  std::vector<NodeId> TimeFrontier(double time) const;

  /// All leaves under `node` (pre-order).
  std::vector<NodeId> LeavesUnder(NodeId node) const;

  const std::vector<NodeId>& leaves() const { return leaves_; }

  /// Allocated bytes (vector capacities): the leaf ranges, plus the
  /// time index once a time query has built it.
  size_t MemoryFootprintBytes() const;

 private:
  struct TimeIndex;

  /// The time index, built on the first call from any thread.
  const TimeIndex& Index() const;

  const PhyloTree* tree_;
  std::vector<NodeId> leaves_;  // all leaves, pre-order
  // Leaves under node n are leaves_[first_leaf_[n], +leaf_count_[n]).
  std::vector<uint32_t> first_leaf_;
  std::vector<uint32_t> leaf_count_;

  mutable std::once_flag index_once_;
  mutable std::unique_ptr<const TimeIndex> index_;
  // Set (release) once index_ is built, for MemoryFootprintBytes,
  // which reads the index without building it.
  mutable std::atomic<bool> index_built_{false};
};

}  // namespace crimson

#endif  // CRIMSON_QUERY_SAMPLING_H_
