// Hand-computed cases for TripletDistance: resolved vs unresolved
// triples, unary nodes and malformed input. The randomized
// differentials against the brute-force oracle live in
// score_oracle_test.

#include <gtest/gtest.h>

#include "common/random.h"
#include "recon/triplet.h"
#include "tree/newick.h"
#include "tree/tree_builders.h"

namespace crimson {
namespace {

PhyloTree T(const char* newick) {
  auto t = ParseNewick(newick);
  EXPECT_TRUE(t.ok()) << t.status();
  return std::move(t).value();
}

TEST(TripletTest, IdenticalTreesZero) {
  PhyloTree a = T("((A,B),(C,(D,E)));");
  auto r = TripletDistance(a, a);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->total, 10u);  // C(5,3)
  EXPECT_EQ(r->differing, 0u);
}

TEST(TripletTest, SingleSwapCounted) {
  PhyloTree a = T("((A,B),C);");
  PhyloTree b = T("((A,C),B);");
  auto r = TripletDistance(a, b);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->total, 1u);
  EXPECT_EQ(r->differing, 1u);
  EXPECT_DOUBLE_EQ(r->fraction, 1.0);
}

TEST(TripletTest, UnresolvedVersusResolved) {
  PhyloTree star = T("(A,B,C);");
  PhyloTree resolved = T("((A,B),C);");
  auto r = TripletDistance(star, resolved);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->differing, 1u);  // unresolved != cherry(A,B)
  auto same = TripletDistance(star, star);
  ASSERT_TRUE(same.ok());
  EXPECT_EQ(same->differing, 0u);
}

TEST(TripletTest, ErrorsOnBadInput) {
  PhyloTree a = T("((A,B),C);");
  PhyloTree b = T("((A,B),D);");
  EXPECT_FALSE(TripletDistance(a, b).ok());
  PhyloTree tiny = T("(A,B);");
  EXPECT_FALSE(TripletDistance(tiny, tiny).ok());
  PhyloTree repeated = T("((A,B),A);");
  EXPECT_FALSE(TripletDistance(repeated, a).ok());
  EXPECT_FALSE(TripletDistance(a, repeated).ok());
  PhyloTree larger = T("((A,B),(C,D));");
  EXPECT_FALSE(TripletDistance(a, larger).ok());
  EXPECT_FALSE(TripletDistance(larger, a).ok());
}

TEST(TripletTest, UnaryNodesResolveNothing) {
  // A chain of single-child nodes neither resolves nor splits a triple.
  PhyloTree plain = T("((A,B),C,D);");
  PhyloTree chained = T("((((A,B))),((C)),D);");
  auto r = TripletDistance(plain, chained);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->total, 4u);
  EXPECT_EQ(r->differing, 0u);
}

TEST(TripletTest, MultifurcationsOnBothSides) {
  // ABC is unresolved in the first tree and AB|C in the second, so it
  // alone differs. DEF is unresolved in both, and every mixed triple
  // pairs its two leaves from the same group in both trees.
  PhyloTree a = T("((A,B,C),(D,E,F));");
  PhyloTree b = T("(((A,B),C),(D,E,F));");
  auto r = TripletDistance(a, b);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->total, 20u);
  EXPECT_EQ(r->differing, 1u);
  auto same = TripletDistance(a, a);
  ASSERT_TRUE(same.ok());
  EXPECT_EQ(same->differing, 0u);
}

TEST(TripletTest, CorrelatesWithTopologicalDisagreement) {
  Rng rng(81);
  PhyloTree a = MakeRandomBinary(30, &rng);
  PhyloTree b = MakeRandomBinary(30, &rng);
  auto same = TripletDistance(a, a);
  auto diff = TripletDistance(a, b);
  ASSERT_TRUE(same.ok() && diff.ok());
  EXPECT_EQ(same->differing, 0u);
  EXPECT_GT(diff->differing, 0u);
}

}  // namespace
}  // namespace crimson
