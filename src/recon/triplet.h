// Rooted triplet distance: the number of leaf triples {a,b,c} whose
// rooted topology differs between two trees over the same leaf set.
// A triple is resolved (one pair, say ab|c, is closer than the third
// leaf) or unresolved (a, b and c hang off three distinct children of
// one node). Resolved one way in one tree and another way, or resolved
// in one tree and unresolved in the other, counts as differing;
// unresolved in both counts as the same. Finer-grained than RF for
// rooted comparisons; used as a secondary benchmark score.
//
// Cost: O(n_A · n_B) time for trees of n_A and n_B nodes, by counting
// shared triples over pairs of internal nodes (Bansal, Dong &
// Fernández-Baca, "Comparing and aggregating partially resolved
// trees", TCS 2011) rather than enumerating the C(k,3) triples. Extra
// memory is O(n_A + n_B) for any degree: a handful of per-node arrays,
// never a k×k or n_A×n_B table.

#ifndef CRIMSON_RECON_TRIPLET_H_
#define CRIMSON_RECON_TRIPLET_H_

#include "common/result.h"
#include "tree/phylo_tree.h"

namespace crimson {

struct TripletResult {
  uint64_t total = 0;      // C(k, 3)
  uint64_t differing = 0;  // triples resolved differently
  double fraction = 0.0;
};

/// Compares all leaf triples of two trees over the same leaf set.
/// InvalidArgument when the leaf sets differ, a leaf name repeats,
/// there are fewer than 3 leaves or more than 2^20.
Result<TripletResult> TripletDistance(const PhyloTree& a, const PhyloTree& b);

}  // namespace crimson

#endif  // CRIMSON_RECON_TRIPLET_H_
