// The layer-replay oracle: an independent copy of one bound tree built
// from the same Newick input through the layer libraries directly
// (tree parser, layered-Dewey labeling, name index, query processors),
// bypassing the session, its storage and its cache. Non-sampling
// answers from the session must hash identically to the replica's;
// sampling answers are checked structurally.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "crimson/query_request.h"
#include "labeling/layered_dewey.h"
#include "query/pattern_match.h"
#include "query/projection.h"
#include "query/sampling.h"
#include "report.h"
#include "tree/name_index.h"
#include "tree/phylo_tree.h"

namespace perfbench {

class Replica {
 public:
  /// Parses and labels the tree (f = the session default, 8).
  static std::unique_ptr<Replica> Build(const std::string& newick);

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  const crimson::PhyloTree& tree() const { return tree_; }
  const crimson::LayeredDeweyScheme& scheme() const { return scheme_; }

  /// The answer the session must give, computed by calling the query
  /// layer directly. Sampling kinds draw from `rng`.
  crimson::Result<crimson::QueryResult> Compute(
      const crimson::QueryRequest& request, crimson::Rng* rng) const;

  /// True when `answer` is a valid answer to a sampling request: the
  /// requested number of distinct leaves of this tree.
  bool ValidSample(const crimson::QueryRequest& request,
                   const crimson::QueryResult& answer) const;

 private:
  Replica() = default;

  crimson::PhyloTree tree_;
  crimson::LayeredDeweyScheme scheme_{8};
  crimson::NameIndex names_;
  std::unique_ptr<crimson::Sampler> sampler_;
  std::unique_ptr<crimson::TreeProjector> projector_;
  std::unique_ptr<crimson::PatternMatcher> matcher_;
};

/// Replays the tree and labeling layers' share of a store and a cold
/// bind on each Newick input -- parse, label build, label encode and
/// decode -- and sets tree.* / labeling.* (means per tree).
void ReplayTreeLayers(const std::vector<std::string>& newicks,
                      Metrics* metrics);

/// Order-sensitive hash of an answer's full content (node ids, names,
/// counts, projection structure with edge lengths, similarity score).
uint64_t AnswerHash(const crimson::QueryResult& answer);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
