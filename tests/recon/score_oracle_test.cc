// Brute-force differential tests for the two scores experiments rank
// algorithms by. RfDistance is checked against a set-of-leaf-sets
// bipartition oracle (explicit std::set enumeration, complement
// canonicalization) on random (multifurcating) trees with <= 12
// leaves, where the O(2^n) enumeration is exact and cheap.
// TripletDistance is checked against the O(k^3) enumeration of every
// triple, resolved from a table of pairwise LCAs built on
// PhyloTree::NaiveLca, on random binary and multifurcating trees of up
// to 300 leaves (more and larger pairs in the *Stress* variant), plus
// closed forms at 5,000 leaves and hand-computed fixed cases.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "recon/rf_distance.h"
#include "recon/triplet.h"
#include "tree/newick.h"
#include "tree/phylo_tree.h"
#include "tree/tree_builders.h"

namespace crimson {
namespace {

// -- random tree generation -------------------------------------------------

/// Shape of a random tree: internal nodes get 2 children, or with
/// probability 1/3 between 3 and `max_degree`. With `unary_one_in` > 0,
/// one internal node in that many hangs below an extra single-child
/// node.
struct Shape {
  size_t max_degree = 3;
  uint64_t unary_one_in = 0;
};

constexpr Shape kBinary{2, 0};

/// Attaches a random subtree over `names` under `parent`: leaves for
/// singletons, otherwise an unnamed internal node over a random
/// partition of the names into non-empty groups.
void AttachRandom(PhyloTree* tree, NodeId parent,
                  std::vector<std::string> names, Shape shape, Rng* rng) {
  if (names.size() == 1) {
    tree->AddChild(parent, names[0], 1.0 + rng->NextDouble());
    return;
  }
  rng->Shuffle(&names);
  size_t groups = 2;
  const size_t widest = std::min(shape.max_degree, names.size());
  if (widest >= 3 && rng->OneIn(3)) {
    groups = widest == 3 ? 3 : 3 + rng->Uniform(widest - 2);
  }
  // groups-1 distinct cut points inside [1, size-1] split the shuffled
  // names into non-empty slices.
  std::vector<uint64_t> cuts =
      rng->SampleWithoutReplacement(names.size() - 1, groups - 1);
  for (uint64_t& c : cuts) ++c;
  cuts.push_back(0);
  cuts.push_back(names.size());
  std::sort(cuts.begin(), cuts.end());
  for (size_t g = 0; g + 1 < cuts.size(); ++g) {
    std::vector<std::string> slice(names.begin() + cuts[g],
                                   names.begin() + cuts[g + 1]);
    if (slice.size() == 1) {
      tree->AddChild(parent, slice[0], 1.0 + rng->NextDouble());
    } else {
      NodeId inner = tree->AddChild(parent, "", 1.0 + rng->NextDouble());
      if (shape.unary_one_in > 0 && rng->OneIn(shape.unary_one_in)) {
        inner = tree->AddChild(inner, "", 1.0 + rng->NextDouble());
      }
      AttachRandom(tree, inner, std::move(slice), shape, rng);
    }
  }
}

PhyloTree RandomTree(const std::vector<std::string>& leaves, Rng* rng,
                     Shape shape = Shape()) {
  PhyloTree tree;
  NodeId root = tree.AddRoot("", 0.0);
  AttachRandom(&tree, root, leaves, shape, rng);
  return tree;
}

std::vector<std::string> LeafNames(size_t n) {
  std::vector<std::string> names;
  names.reserve(n);
  for (size_t i = 0; i < n; ++i) names.push_back("L" + std::to_string(i));
  return names;
}

// -- brute-force RF oracle --------------------------------------------------

using Split = std::set<std::string>;

/// All non-trivial bipartitions as explicit leaf-name sets, canonical
/// side = the one NOT containing `ref_leaf`.
std::set<Split> BruteSplits(const PhyloTree& tree, const Split& all_leaves,
                            const std::string& ref_leaf) {
  std::set<Split> out;
  tree.PostOrder([&](NodeId n) {
    if (n == tree.root()) return true;
    Split side;
    tree.PreOrder(
        [&](NodeId m) {
          if (tree.is_leaf(m)) side.insert(std::string(tree.name(m)));
          return true;
        },
        n);
    if (side.size() < 2 || side.size() > all_leaves.size() - 2) return true;
    if (side.count(ref_leaf)) {
      Split flipped;
      std::set_difference(all_leaves.begin(), all_leaves.end(),
                          side.begin(), side.end(),
                          std::inserter(flipped, flipped.end()));
      out.insert(std::move(flipped));
    } else {
      out.insert(std::move(side));
    }
    return true;
  });
  return out;
}

RfResult BruteRf(const PhyloTree& a, const PhyloTree& b) {
  Split all;
  for (NodeId n : a.Leaves()) all.insert(std::string(a.name(n)));
  const std::string& ref_leaf = *all.begin();
  std::set<Split> sa = BruteSplits(a, all, ref_leaf);
  std::set<Split> sb = BruteSplits(b, all, ref_leaf);
  size_t common = 0;
  for (const Split& s : sa) common += sb.count(s);
  RfResult r;
  r.splits_a = sa.size();
  r.splits_b = sb.size();
  r.distance = sa.size() + sb.size() - 2 * common;
  size_t denom = sa.size() + sb.size();
  r.normalized =
      denom == 0 ? 0.0
                 : static_cast<double>(r.distance) / static_cast<double>(denom);
  return r;
}

// -- brute-force triplet oracle ---------------------------------------------

/// Every triple of the shared leaf order (sorted names), resolved from
/// a k x k table of pairwise LCAs by parent walks. Of the three
/// pairwise LCAs of {a,b,c}, at least two coincide (they are
/// LCA(a,b,c)); the pair whose LCA differs from the other two is the
/// closest, and three equal LCAs leave the triple unresolved.
class BruteTripletOracle {
 public:
  BruteTripletOracle(const PhyloTree& t, const std::vector<std::string>& names)
      : k_(names.size()), lca_(k_ * k_) {
    std::vector<NodeId> leaves;
    for (const std::string& name : names) leaves.push_back(t.FindByName(name));
    for (size_t i = 0; i < k_; ++i) {
      for (size_t j = i; j < k_; ++j) {
        lca_[i * k_ + j] = lca_[j * k_ + i] = t.NaiveLca(leaves[i], leaves[j]);
      }
    }
  }

  /// 0: (a,b) closest; 1: (a,c); 2: (b,c); 3: unresolved.
  int Resolve(size_t a, size_t b, size_t c) const {
    NodeId ab = lca_[a * k_ + b];
    NodeId ac = lca_[a * k_ + c];
    NodeId bc = lca_[b * k_ + c];
    if (ac == bc && ab != ac) return 0;
    if (ab == bc && ac != ab) return 1;
    if (ab == ac && bc != ab) return 2;
    return 3;
  }

 private:
  size_t k_;
  std::vector<NodeId> lca_;
};

TripletResult BruteTriplets(const PhyloTree& a, const PhyloTree& b) {
  std::vector<std::string> names;
  for (NodeId n : a.Leaves()) names.emplace_back(a.name(n));
  std::sort(names.begin(), names.end());
  BruteTripletOracle in_a(a, names);
  BruteTripletOracle in_b(b, names);
  TripletResult r;
  for (size_t i = 0; i < names.size(); ++i) {
    for (size_t j = i + 1; j < names.size(); ++j) {
      for (size_t l = j + 1; l < names.size(); ++l) {
        ++r.total;
        if (in_a.Resolve(i, j, l) != in_b.Resolve(i, j, l)) ++r.differing;
      }
    }
  }
  r.fraction = r.total == 0 ? 0.0
                            : static_cast<double>(r.differing) /
                                  static_cast<double>(r.total);
  return r;
}

/// Checks `rounds` random pairs of `shape` with leaf counts drawn from
/// [min_leaves, max_leaves] against the brute-force oracle.
void ExpectTripletsMatchOracle(uint64_t seed, int rounds, size_t min_leaves,
                               size_t max_leaves, Shape shape) {
  Rng rng(seed);
  for (int iter = 0; iter < rounds; ++iter) {
    size_t n = min_leaves + rng.Uniform(max_leaves - min_leaves + 1);
    std::vector<std::string> names = LeafNames(n);
    PhyloTree a = RandomTree(names, &rng, shape);
    PhyloTree b = RandomTree(names, &rng, shape);
    auto fast = TripletDistance(a, b);
    ASSERT_TRUE(fast.ok()) << fast.status();
    TripletResult brute = BruteTriplets(a, b);
    const std::string context =
        "seed " + std::to_string(seed) + " iter " + std::to_string(iter) +
        " leaves " + std::to_string(n);
    EXPECT_EQ(fast->total, brute.total) << context;
    if (n <= 12) {
      EXPECT_EQ(fast->differing, brute.differing)
          << context << "\nA: " << WriteNewick(a) << "\nB: " << WriteNewick(b);
    } else {
      EXPECT_EQ(fast->differing, brute.differing) << context;
    }
    EXPECT_EQ(fast->fraction, brute.fraction) << context;
  }
}

// -- the differentials ------------------------------------------------------

TEST(RfOracleTest, RandomTreePairsMatchBruteForce) {
  Rng rng(0x5EED01);
  for (int iter = 0; iter < 200; ++iter) {
    size_t n = 4 + rng.Uniform(9);  // 4..12 leaves
    std::vector<std::string> names = LeafNames(n);
    PhyloTree a = RandomTree(names, &rng);
    PhyloTree b = RandomTree(names, &rng);
    auto fast = RobinsonFoulds(a, b);
    ASSERT_TRUE(fast.ok()) << fast.status();
    RfResult brute = BruteRf(a, b);
    EXPECT_EQ(fast->distance, brute.distance)
        << "iter " << iter << "\nA: " << WriteNewick(a)
        << "\nB: " << WriteNewick(b);
    EXPECT_EQ(fast->splits_a, brute.splits_a) << "iter " << iter;
    EXPECT_EQ(fast->splits_b, brute.splits_b) << "iter " << iter;
    EXPECT_DOUBLE_EQ(fast->normalized, brute.normalized) << "iter " << iter;
  }
}

TEST(RfOracleTest, IdenticalTreesAreDistanceZero) {
  Rng rng(0x5EED02);
  for (int iter = 0; iter < 50; ++iter) {
    size_t n = 4 + rng.Uniform(9);
    PhyloTree a = RandomTree(LeafNames(n), &rng);
    auto rf = RobinsonFoulds(a, a);
    ASSERT_TRUE(rf.ok());
    EXPECT_EQ(rf->distance, 0u);
    EXPECT_EQ(rf->splits_a, rf->splits_b);
  }
}

TEST(RfOracleTest, HandComputedCases) {
  // ((a,b),(c,d)) vs ((a,c),(b,d)): each has one non-trivial split
  // ({a,b} vs {a,c}); they disagree, so distance 2.
  PhyloTree t1 = std::move(ParseNewick("((a,b),(c,d));")).value();
  PhyloTree t2 = std::move(ParseNewick("((a,c),(b,d));")).value();
  auto rf = RobinsonFoulds(t1, t2);
  ASSERT_TRUE(rf.ok());
  EXPECT_EQ(rf->splits_a, 1u);
  EXPECT_EQ(rf->splits_b, 1u);
  EXPECT_EQ(rf->distance, 2u);
  EXPECT_DOUBLE_EQ(rf->normalized, 1.0);

  // A star tree has no non-trivial splits at all.
  PhyloTree star = std::move(ParseNewick("(a,b,c,d);")).value();
  auto rf_star = RobinsonFoulds(t1, star);
  ASSERT_TRUE(rf_star.ok());
  EXPECT_EQ(rf_star->splits_b, 0u);
  EXPECT_EQ(rf_star->distance, 1u);
}

TEST(TripletOracleTest, RandomTreePairsMatchBruteForce) {
  ExpectTripletsMatchOracle(0x5EED03, 200, 4, 12, Shape());
}

TEST(TripletOracleTest, RandomBinaryPairsUpTo300LeavesMatchBruteForce) {
  ExpectTripletsMatchOracle(0x5EED05, 30, 3, 300, kBinary);
}

TEST(TripletOracleTest, RandomMultifurcatingPairsUpTo300LeavesMatchBruteForce) {
  ExpectTripletsMatchOracle(0x5EED06, 30, 3, 300, Shape{6, 8});
}

TEST(TripletOracleTest, StressRandomPairsMatchBruteForce) {
  ExpectTripletsMatchOracle(0x5EED07, 2000, 3, 40, Shape{5, 6});
  ExpectTripletsMatchOracle(0x5EED08, 150, 100, 300, kBinary);
  ExpectTripletsMatchOracle(0x5EED09, 150, 100, 300, Shape{8, 8});
  ExpectTripletsMatchOracle(0x5EED0A, 8, 450, 600, kBinary);
  ExpectTripletsMatchOracle(0x5EED0B, 8, 450, 600, Shape{4, 4});
}

TEST(TripletOracleTest, IdenticalTreesHaveNoDifferingTriples) {
  Rng rng(0x5EED04);
  for (int iter = 0; iter < 50; ++iter) {
    size_t n = 4 + rng.Uniform(9);
    PhyloTree a = RandomTree(LeafNames(n), &rng);
    auto td = TripletDistance(a, a);
    ASSERT_TRUE(td.ok());
    size_t k = a.LeafCount();
    EXPECT_EQ(td->total, k * (k - 1) * (k - 2) / 6);
    EXPECT_EQ(td->differing, 0u);
  }
}

TEST(TripletOracleTest, ClosedFormsAt5000Leaves) {
  // No oracle enumerates C(5000,3) triples; the closed forms stand in.
  // A tree against itself differs nowhere. A star leaves every triple
  // unresolved, and a binary tree resolves every triple, so they
  // differ on all C(k,3).
  constexpr uint32_t kLeaves = 5000;
  constexpr uint64_t kTotal = uint64_t{kLeaves} * (kLeaves - 1) *
                              (kLeaves - 2) / 6;
  Rng rng(0x5EED0C);
  PhyloTree binary = MakeRandomBinary(kLeaves, &rng);
  PhyloTree star;
  NodeId root = star.AddRoot();
  for (NodeId leaf : binary.Leaves()) star.AddChild(root, binary.name(leaf));

  auto same = TripletDistance(binary, binary);
  ASSERT_TRUE(same.ok()) << same.status();
  EXPECT_EQ(same->total, kTotal);
  EXPECT_EQ(same->differing, 0u);

  auto star_first = TripletDistance(star, binary);
  ASSERT_TRUE(star_first.ok()) << star_first.status();
  EXPECT_EQ(star_first->total, kTotal);
  EXPECT_EQ(star_first->differing, kTotal);
  EXPECT_EQ(star_first->fraction, 1.0);

  auto star_second = TripletDistance(binary, star);
  ASSERT_TRUE(star_second.ok()) << star_second.status();
  EXPECT_EQ(star_second->differing, kTotal);

  auto stars = TripletDistance(star, star);
  ASSERT_TRUE(stars.ok()) << stars.status();
  EXPECT_EQ(stars->differing, 0u);
}

TEST(TripletOracleTest, HandComputedCases) {
  // ((a,b),c,d) vs ((a,c),b,d): abc and acd flip between resolved
  // pairs, abd goes resolved -> unresolved, bcd stays unresolved:
  // 3 of 4 triples differ.
  PhyloTree t1 = std::move(ParseNewick("((a,b),c,d);")).value();
  PhyloTree t2 = std::move(ParseNewick("((a,c),b,d);")).value();
  auto td = TripletDistance(t1, t2);
  ASSERT_TRUE(td.ok());
  EXPECT_EQ(td->total, 4u);
  EXPECT_EQ(td->differing, 3u);
  EXPECT_DOUBLE_EQ(td->fraction, 0.75);
}

}  // namespace
}  // namespace crimson
