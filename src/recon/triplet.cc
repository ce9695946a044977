#include "recon/triplet.h"

#include <algorithm>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/string_util.h"

namespace crimson {

namespace {

/// A's leaves in post-order, each named by its node in B, with every
/// node of A mapped to the contiguous run of its own leaves.
struct SharedLeaves {
  std::vector<NodeId> b_leaf;    // run position -> leaf node of B
  std::vector<uint32_t> first;   // node of A -> first position of its run
  std::vector<uint32_t> count;   // node of A -> |L(node)|
};

Result<SharedLeaves> MatchLeaves(const PhyloTree& a, const PhyloTree& b) {
  std::unordered_map<std::string_view, NodeId> in_b;
  for (NodeId n = 0; n < b.size(); ++n) {
    if (!b.is_leaf(n)) continue;
    if (!in_b.emplace(b.name(n), n).second) {
      return Status::InvalidArgument(StrFormat(
          "duplicate leaf '%s'", std::string(b.name(n)).c_str()));
    }
  }
  SharedLeaves s;
  s.first.assign(a.size(), 0);
  s.count.assign(a.size(), 0);
  std::vector<bool> matched(b.size(), false);
  Status status;
  a.PostOrder([&](NodeId n) {
    if (a.is_leaf(n)) {
      auto it = in_b.find(a.name(n));
      if (it == in_b.end()) {
        status = Status::InvalidArgument(StrFormat(
            "leaf '%s' not in shared set", std::string(a.name(n)).c_str()));
        return false;
      }
      if (matched[it->second]) {
        status = Status::InvalidArgument(StrFormat(
            "duplicate leaf '%s'", std::string(a.name(n)).c_str()));
        return false;
      }
      matched[it->second] = true;
      s.count[n] = 1;
      s.b_leaf.push_back(it->second);
    } else {
      for (NodeId c = a.first_child(n); c != kNoNode; c = a.next_sibling(c)) {
        s.count[n] += s.count[c];
      }
    }
    s.first[n] = static_cast<uint32_t>(s.b_leaf.size()) - s.count[n];
    return true;
  });
  CRIMSON_RETURN_IF_ERROR(status);
  if (s.b_leaf.size() < 3) {
    return Status::InvalidArgument("triplet distance needs >= 3 leaves");
  }
  if (s.b_leaf.size() != in_b.size()) {
    return Status::InvalidArgument("leaf sets differ");
  }
  return s;
}

}  // namespace

// Every triple {x,y,z} is either resolved the same way in both trees,
// unresolved in both, or differing. A triple resolved as xy|z in both
// is counted once, at its pair {x,y}: with u = lca_A(x,y) and
// v = lca_B(x,y), the z that do so are those outside L(u) ∪ L(v). A
// triple unresolved in both lies in three distinct children of
// u = lca_A(x,y,z) and of v = lca_B(x,y,z). So both counts are sums over
// node pairs (u, v) of functions of the matrix M[i][j] =
// |L(u_i) ∩ L(v_j)| over the children u_i of u and v_j of v.
//
// Node u's children are taken one at a time: one bottom-up pass over B
// gives row[w] = |L(u_i) ∩ L(w)| for every node w of B, and the
// per-node moments below accumulate the power sums that the two counts
// need, so no matrix is ever stored. With R_i = row_i[v] and
// C_j = s1[v_j], for every node w of B with parent v:
//   s1[w] = Σ_i row_i[w]        s2[w] = Σ_i row_i[w]^2
//   s3[w] = Σ_i row_i[w]^3      (needed only when u has >= 3 children)
//   r1[w] = Σ_i row_i[w]·row_i[v]   r2[w] = Σ_i row_i[w]^2·row_i[v]
Result<TripletResult> TripletDistance(const PhyloTree& a,
                                      const PhyloTree& b) {
  CRIMSON_ASSIGN_OR_RETURN(SharedLeaves shared, MatchLeaves(a, b));
  const int64_t k = static_cast<int64_t>(shared.b_leaf.size());
  // Every intermediate below is bounded by k^3 < 2^63.
  if (k > (int64_t{1} << 20)) {
    return Status::InvalidArgument("triplet distance supports <= 2^20 leaves");
  }

  // |L(v)| for every node of B; parents precede children in node order.
  const size_t nb = b.size();
  std::vector<int64_t> b_count(nb, 0);
  for (NodeId v = static_cast<NodeId>(nb); v-- > 0;) {
    if (b.is_leaf(v)) b_count[v] = 1;
    if (v != 0) b_count[b.parent(v)] += b_count[v];
  }

  std::vector<uint32_t> row(nb);
  std::vector<int64_t> s1(nb), s2(nb), s3(nb), r1(nb), r2(nb);
  int64_t same_resolved = 0;
  int64_t both_unresolved = 0;
  for (NodeId u = 0; u < a.size(); ++u) {
    const uint32_t degree = a.OutDegree(u);
    if (degree < 2) continue;
    const bool multifurcation = degree >= 3;
    std::fill(s1.begin(), s1.end(), 0);
    std::fill(s2.begin(), s2.end(), 0);
    if (multifurcation) {
      std::fill(s3.begin(), s3.end(), 0);
      std::fill(r1.begin(), r1.end(), 0);
      std::fill(r2.begin(), r2.end(), 0);
    }
    for (NodeId c = a.first_child(u); c != kNoNode; c = a.next_sibling(c)) {
      std::fill(row.begin(), row.end(), 0);
      const uint32_t end = shared.first[c] + shared.count[c];
      for (uint32_t p = shared.first[c]; p < end; ++p) {
        row[shared.b_leaf[p]] = 1;
      }
      for (NodeId w = static_cast<NodeId>(nb); w-- > 0;) {
        const int64_t x = row[w];
        if (x == 0) continue;
        if (w != 0) row[b.parent(w)] += row[w];
        s1[w] += x;
        s2[w] += x * x;
        if (multifurcation) s3[w] += x * x * x;
      }
      if (!multifurcation) continue;
      for (NodeId w = 1; w < nb; ++w) {
        const int64_t x = row[w];
        r1[w] += x * row[b.parent(w)];
        r2[w] += x * x * row[b.parent(w)];
      }
    }

    const int64_t outside_u = k - shared.count[u];
    for (NodeId v = 0; v < nb; ++v) {
      const int64_t n = s1[v];
      if (n < 2) continue;
      // Sums over the children w of v (the columns of M).
      int64_t col_sq = 0, cell_sq = 0;
      int64_t pair = 0, triple = 0;
      uint32_t columns = 0;
      for (NodeId w = b.first_child(v); w != kNoNode; w = b.next_sibling(w)) {
        ++columns;
        col_sq += s1[w] * s1[w];
        cell_sq += s2[w];
        if (multifurcation) {
          pair += n * (s1[w] * s1[w] - s2[w]) - 2 * (r1[w] * s1[w] - r2[w]);
          triple += s1[w] * s1[w] * s1[w] - 3 * s1[w] * s2[w] + 2 * s3[w];
        }
      }
      // Leaf pairs in distinct rows and distinct columns of M: the
      // pairs {x,y} with lca_A = u and lca_B = v.
      const int64_t pairs = (n * n - s2[v] - col_sq + cell_sq) / 2;
      same_resolved += pairs * (outside_u - b_count[v] + n);
      if (multifurcation && columns >= 3) {
        // Ordered leaf triples in distinct rows and distinct columns,
        // by inclusion-exclusion over which columns coincide: rows
        // distinct (power sums of the R_i), minus three times two
        // equal columns, plus twice all three equal.
        const int64_t rows = n * n * n - 3 * n * s2[v] + 2 * s3[v];
        both_unresolved += (rows - 3 * pair + 2 * triple) / 6;
      }
    }
  }

  TripletResult r;
  r.total = static_cast<uint64_t>(k * (k - 1) * (k - 2) / 6);
  r.differing = r.total - static_cast<uint64_t>(same_resolved) -
                static_cast<uint64_t>(both_unresolved);
  r.fraction =
      static_cast<double>(r.differing) / static_cast<double>(r.total);
  return r;
}

}  // namespace crimson
