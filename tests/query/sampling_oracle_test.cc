// Differential suite: Sampler (leaf ranges, checkpointed time index,
// popcount-selected pools, index-mapped refill) against
// ReferenceSampler (the O(n)-per-call code it replaced). Every call
// must return the same leaves in the same order, the same Status text,
// and leave the Rng in the same state, so stored sample_time history
// rows rerun to the same answer. *Stress* cases run larger trees and a
// concurrent shared-Sampler check; *Race* cases race the index build.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "query/sampling.h"
#include "reference_sampler.h"
#include "sim/tree_sim.h"
#include "tree/newick.h"
#include "tree/tree_builders.h"

namespace crimson {
namespace {

// Four consecutive xoshiro outputs determine its 256-bit state.
std::vector<uint64_t> RngState(Rng rng) {
  return {rng.Next(), rng.Next(), rng.Next(), rng.Next()};
}

std::string Render(const Result<std::vector<NodeId>>& r) {
  if (!r.ok()) return "error " + r.status().ToString();
  std::string out;
  for (NodeId n : *r) out += std::to_string(n) + ",";
  return out;
}

double MaxRootPathWeight(const PhyloTree& tree) {
  std::vector<double> w = tree.RootPathWeights();
  return *std::max_element(w.begin(), w.end());
}

// The deepest finite root-path weight (0 if none is).
double MaxFiniteWeight(const std::vector<double>& w) {
  double max_w = 0;
  for (double x : w) {
    if (std::isfinite(x)) max_w = std::max(max_w, x);
  }
  return max_w;
}

enum class Shape { kYule, kBirthDeathPruned, kBirthDeathUnpruned };

PhyloTree MakeTree(Shape shape, uint32_t n_leaves, Rng* rng) {
  if (shape == Shape::kYule) {
    YuleOptions options;
    options.n_leaves = n_leaves;
    return SimulateYule(options, rng).value();
  }
  BirthDeathOptions options;
  options.n_leaves = n_leaves;
  options.death_rate = 0.5;
  options.prune_extinct = shape == Shape::kBirthDeathPruned;
  return SimulateBirthDeath(options, rng).value();
}

struct Tally {
  size_t cases = 0;
  size_t errors = 0;
  size_t not_found = 0;
};

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Runs `cases` randomized calls on one tree: t from -5% to 110% of the
// deepest finite root-path weight (a quarter of them exactly on a
// node's weight, where `>` decides; one in eight NaN, +-inf, 0 or -0),
// k from 1 to leaves+3 (one in sixteen 0). Both samplers draw from
// their own Rng, seeded alike and carried across calls.
void RunDifferential(const PhyloTree& tree, size_t cases, uint64_t seed,
                     Tally* tally) {
  Sampler sampler(&tree);
  ReferenceSampler reference(&tree);
  ASSERT_EQ(sampler.leaves(), reference.leaves());
  const std::vector<double> w = tree.RootPathWeights();
  const double max_w = MaxFiniteWeight(w);
  const size_t n_leaves = reference.leaves().size();
  const double special[] = {kNaN, kInf, -kInf, 0.0, -0.0};
  Rng params(seed);
  Rng a(seed ^ 0x5eed), b(seed ^ 0x5eed);
  for (size_t c = 0; c < cases; ++c) {
    double time;
    if (params.OneIn(8)) {
      time = special[params.Uniform(5)];
    } else if (params.OneIn(4)) {
      time = w[params.Uniform(w.size())];
    } else {
      time = max_w * (-0.05 + 1.15 * params.NextDouble());
    }
    size_t k = params.OneIn(2)
                   ? 1 + params.Uniform(n_leaves + 3)
                   : 1 + params.Uniform(std::min<size_t>(n_leaves + 3, 12));
    if (params.OneIn(16)) k = 0;
    auto want = reference.SampleWithRespectToTime(k, time, &a);
    auto got = sampler.SampleWithRespectToTime(k, time, &b);
    ASSERT_EQ(Render(got), Render(want))
        << "case " << c << " k=" << k << " t=" << time;
    ASSERT_EQ(RngState(b), RngState(a)) << "case " << c;
    if (!want.ok()) {
      ++tally->errors;
      if (want.status().IsNotFound()) ++tally->not_found;
    }
    ++tally->cases;
    if (c % 16 == 0) {
      ASSERT_EQ(sampler.TimeFrontier(time), reference.TimeFrontier(time))
          << "t=" << time;
      NodeId node = static_cast<NodeId>(params.Uniform(tree.size()));
      ASSERT_EQ(sampler.LeavesUnder(node), reference.LeavesUnder(node));
      size_t ku = params.Uniform(n_leaves + 1);
      ASSERT_EQ(Render(sampler.SampleUniform(ku, &b)),
                Render(reference.SampleUniform(ku, &a)));
    }
  }
}

TEST(SamplingOracle, RandomizedMatchesReference) {
  Rng trees(2024);
  Tally tally;
  const Shape shapes[] = {Shape::kYule, Shape::kBirthDeathPruned,
                          Shape::kBirthDeathUnpruned};
  for (int rep = 0; rep < 40; ++rep) {
    for (Shape shape : shapes) {
      uint32_t n_leaves = 1 + static_cast<uint32_t>(trees.Uniform(300));
      PhyloTree tree = MakeTree(shape, n_leaves, &trees);
      RunDifferential(tree, 100, 1000 * rep + static_cast<int>(shape),
                      &tally);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GE(tally.cases, 12000u);
  // The mix must reach both error paths, not only the happy one.
  EXPECT_GT(tally.not_found, 0u);
  EXPECT_GT(tally.errors - tally.not_found, 0u);
}

TEST(SamplingOracle, FixedShapesMatchReference) {
  // Degenerate shapes: single node, a path (every pool one leaf), a
  // caterpillar (nested pools), a balanced tree (ties everywhere).
  PhyloTree single;
  single.AddRoot("only", 0.5);
  PhyloTree path;
  NodeId p = path.AddRoot("r");
  for (int i = 0; i < 5; ++i) p = path.AddChild(p, "", 1.0);
  Tally tally;
  for (const PhyloTree* tree : {&single, &path}) {
    RunDifferential(*tree, 200, 7, &tally);
  }
  RunDifferential(MakePaperFigure1Tree(), 500, 8, &tally);
  RunDifferential(MakeCaterpillar(40), 500, 9, &tally);
  RunDifferential(MakeBalancedBinary(7), 500, 10, &tally);
  // A multifurcating star (60 leaves under the root, lengths tied in
  // sevens), and stars hung under a star (each sub-hub's event lets
  // nine children enter at once).
  PhyloTree star;
  NodeId hub = star.AddRoot("hub");
  for (int i = 0; i < 60; ++i) star.AddChild(hub, "", 0.25 * (i % 7));
  RunDifferential(star, 500, 11, &tally);
  PhyloTree stars;
  hub = stars.AddRoot("hub");
  for (int i = 0; i < 8; ++i) {
    NodeId sub = stars.AddChild(hub, "", 1.0 + (i % 3));
    for (int j = 0; j < 9; ++j) stars.AddChild(sub, "", 0.5 * (j % 4));
  }
  RunDifferential(stars, 500, 12, &tally);
}

TEST(SamplingOracle, EdgeLengthsOfEveryKindMatchReference) {
  // Negative, zero, tied, NaN, +inf and -inf edge lengths: root-path
  // weights go up, down and to NaN along a path, and an infinite
  // weight meets one of the other sign.
  Rng trees(4040);
  Tally tally;
  for (int rep = 0; rep < 60; ++rep) {
    uint32_t n_leaves = 1 + static_cast<uint32_t>(trees.Uniform(200));
    PhyloTree tree = MakeTree(
        rep % 2 == 0 ? Shape::kYule : Shape::kBirthDeathUnpruned, n_leaves,
        &trees);
    for (NodeId v = 1; v < tree.size(); ++v) {
      switch (trees.Uniform(12)) {
        case 0:
          tree.set_edge_length(v, -tree.edge_length(v));
          break;
        case 1:
          tree.set_edge_length(v, 0.0);
          break;
        case 2:  // tied with the parent's edge
          tree.set_edge_length(v, tree.edge_length(tree.parent(v)));
          break;
        case 3:
          tree.set_edge_length(v, kNaN);
          break;
        case 4:
          if (trees.OneIn(2)) tree.set_edge_length(v, -kInf);
          break;
        case 5:
          if (trees.OneIn(3)) tree.set_edge_length(v, kInf);
          break;
        default:
          break;
      }
    }
    RunDifferential(tree, 200, 300 + rep, &tally);
    if (HasFatalFailure()) return;
  }
  EXPECT_GE(tally.cases, 12000u);
}

// Golden answers for a fixed tree and seeds, computed by the sampler
// that wrote existing history rows; a stored sample_time query must
// keep rerunning to these leaves.
struct Golden {
  size_t k;
  double frac;  // time as a fraction of the deepest root-path weight
  uint64_t seed;
  std::vector<std::string> leaves;
  std::string status;
  uint64_t next;  // rng.Next() after the call
};

void CheckGoldens(const std::string& newick,
                  const std::vector<Golden>& goldens) {
  PhyloTree tree = ParseNewick(newick).value();
  Sampler sampler(&tree);
  const double max_w = MaxRootPathWeight(tree);
  for (const Golden& g : goldens) {
    Rng rng(g.seed);
    auto r = sampler.SampleWithRespectToTime(g.k, g.frac * max_w, &rng);
    std::vector<std::string> names;
    if (r.ok()) {
      for (NodeId n : *r) names.emplace_back(tree.name(n));
    }
    EXPECT_EQ(names, g.leaves) << "k=" << g.k << " seed=" << g.seed;
    EXPECT_EQ(r.ok() ? "" : r.status().ToString(), g.status);
    EXPECT_EQ(rng.Next(), g.next) << "k=" << g.k << " seed=" << g.seed;
  }
}

TEST(SamplingOracle, GoldenYule) {
  const char* newick =
      "((((S0:0.22912794201143649,(S33:0.21516499704226755,S34:0.21516499704226"
      "755):0.013962944969168944):0.031538653710770692,S32:0.26066659572220718)"
      ":0.36302831194428342,S19:0.62369490766649061):1.0586239445372685,((((((S"
      "1:0.64971818082720612,S18:0.64971818082720612):0.19393882045848154,((S13"
      ":0.028602287345365518,S39:0.028602287345365518):0.50073910219538043,S21:"
      "0.52934138954074594):0.31431561174494171):0.30188483618608064,S9:1.14554"
      "18374717683):0.28239182838573607,S6:1.4279336658575044):0.00577169371411"
      "31242,((((S5:0.37942906449889424,S29:0.37942906449889424):0.458148959813"
      "28485,(S14:0.4390092767759417,((S25:0.18003084773139078,S36:0.1800308477"
      "3139078):0.021507526931030085,S35:0.20153837466242086):0.237470902113520"
      "84):0.39856874753623739):0.47769863795609857,(S8:0.79917393925684443,S16"
      ":0.79917393925684443):0.51610272301143323):0.093105565315033223,S7:1.408"
      "3822275833109):0.025323131988306602):0.14479961129097785,(((S2:0.8518051"
      "6209936563,(S12:0.29617089757237269,S31:0.29617089757237269):0.555634264"
      "52699294):0.033280645117827801,(S11:0.58301064205720499,(((S20:0.0359114"
      "54421797995,S38:0.035911454421797995):0.34319284563428432,S30:0.37910430"
      "005608231):0.044260444201968063,S28:0.42336474425805037):0.1596458977991"
      "5461):0.30207516515998845):0.62401533763709116,((((((S3:0.43093710350635"
      "051,S26:0.43093710350635051):0.013385715176406299,(S24:0.175821611765196"
      "73,S37:0.17582161176519673):0.26850120691756008):0.28473143157817393,(S1"
      "7:0.49893622737793519,(S22:0.4269651240291541,S27:0.4269651240291541):0."
      "071971103348781096):0.23011802288299554):0.095890462784450126,S15:0.8249"
      "4471304538086):0.29059141925352172,S10:1.1155361322989026):0.34809844778"
      "496224,(S4:0.48663448070029403,S23:0.48663448070029403):0.97700009938357"
      "08):0.045466564770419771):0.069403826008310743):0.10381388134116376);";
  CheckGoldens(
      newick,
      {
          {1, 0.30, 1, {"S20"}, "", 10590380919521690900ull},
          {5, 0.30, 2, {"S33", "S6", "S29", "S20", "S27"}, "",
           13754043473050297687ull},
          {7, 0.50, 3, {"S32", "S21", "S9", "S6", "S7", "S2", "S31"}, "",
           12645705665051723756ull},
          {12,
           0.80,
           4,
           {"S33", "S39", "S5", "S14", "S7", "S12", "S38", "S28", "S17", "S10",
            "S4", "S23"},
           "",
           13787459560761195950ull},
          {3, 0.05, 5, {"S32", "S0", "S17"}, "", 9531689329179025993ull},
          {20,
           0.95,
           6,
           {"S32", "S1", "S18", "S13", "S21", "S6", "S14", "S25", "S36", "S8",
            "S16", "S7", "S12", "S24", "S37", "S22", "S27", "S10", "S4",
            "S23"},
           "",
           6398332035086248798ull},
          {40,
           0.50,
           7,
           {"S19", "S0",  "S32", "S18", "S1",  "S39", "S13", "S21",
            "S9",  "S6",  "S36", "S14", "S5",  "S8",  "S16", "S7",
            "S2",  "S12", "S31", "S11", "S28", "S20", "S15", "S37",
            "S10", "S23", "S4",  "S27", "S22", "S35", "S26", "S38",
            "S17", "S30", "S34", "S33", "S25", "S24", "S29", "S3"},
           "",
           4947176868073283825ull},
          {9,
           0.00,
           8,
           {"S32", "S0", "S19", "S33", "S6", "S16", "S20", "S15", "S22"},
           "",
           16339855936109764923ull},
          {41,
           0.50,
           9,
           {},
           "invalid_argument: only 40 leaves below the time-0.841159 "
           "frontier, need 41",
           2615761325411711046ull},
          {2,
           1.50,
           10,
           {},
           "not_found: no node has root-path weight > 2.52348",
           17612975809606265341ull},
      });
}

TEST(SamplingOracle, GoldenBirthDeathWithExtinctTips) {
  const char* newick =
      "((X3:1.2073535011845902,(X5:1.2738874421476623,((((X8:0.1020216536995728"
      "3,(((S4:0.049146566677779724,(S13:0.0018029582451264403,S15:0.0018029582"
      "451264403):0.047343608432653284):0.78708307445575976,X10:0.0013194025149"
      "66761):0.096171716065214241,((S5:0.025450576333143182,S14:0.025450576333"
      "143182):0.27672202447187555,S10:0.30217260080501873):0.63022875639373499"
      "):0.50926619743509249):0.75698012810365567,((S3:1.3894536349263023,X11:0"
      ".85168649181361822):0.18029772218539053,(X15:0.31306045177183783,(S8:0.3"
      "1042599324644016,X14:0.20551147558513527):0.08544934020796191):1.1738760"
      "236572907):0.62889632562580911):0.15182801442871696,X2:0.313938303958442"
      "24):0.60187841860840319,((S0:2.5355701622343307,((S2:0.76833516094596366"
      ",X12:0.40287205029168316):1.1584015113891537,X7:0.5854060437965849):0.60"
      "883348989921338):0.35492228899983669,(X1:0.21488508841352738,((S1:0.6585"
      "1533859298428,(S6:0.47721656597144957,S7:0.47721656597144957):0.18129877"
      "262153471):1.1702179209033985,X6:0.46045470751834294):1.043983164258262)"
      ":0.017776027479522671):0.061861664540454608):0.034745916976484548):0.201"
      "42522036560573):1.9697046324208696,(X0:1.4586359859538645,(X4:0.59801538"
      "174855962,(X9:0.61462872041097194,((X13:0.051272857290491913,(S11:0.1775"
      "4941045601491,S12:0.17754941045601491):0.123620799461861):0.013333454130"
      "119549,S9:0.31450366404799546):1.2028354047267222):1.0116318871779599):2"
      ".0400970184903153):0.58916191109458904);";
  CheckGoldens(
      newick,
      {
          {1, 0.30, 1, {"S11"}, "", 10590380919521690900ull},
          {5, 0.30, 2, {"S13", "X12", "X0", "X9", "S12"}, "",
           4040804623166480017ull},
          {7, 0.50, 3, {"X3", "X5", "S10", "S2", "S6", "S1", "S12"}, "",
           17382059060629927385ull},
          {12,
           0.80,
           4,
           {"S10", "S3", "X11", "S8", "S0", "S2", "X12", "S1", "X9", "S11",
            "S12", "S6"},
           "",
           7054034375088616660ull},
          {3, 0.05, 5, {"X14", "S0", "S12"}, "", 9531689329179025993ull},
          {20,
           0.95,
           6,
           {},
           "invalid_argument: only 19 leaves below the time-4.90032 "
           "frontier, need 20",
           2611769476705949436ull},
          {9,
           0.00,
           8,
           {"S8", "S6", "S7", "S10", "X4", "X13", "S12", "S9", "X0"},
           "",
           16339855936109764923ull},
      });
}

TEST(SamplingOracle, RandomizedLargeTreesStress) {
  Rng trees(77);
  Tally tally;
  const Shape shapes[] = {Shape::kYule, Shape::kBirthDeathPruned,
                          Shape::kBirthDeathUnpruned};
  for (int rep = 0; rep < 3; ++rep) {
    for (Shape shape : shapes) {
      uint32_t n_leaves = 2000 + static_cast<uint32_t>(trees.Uniform(8000));
      PhyloTree tree = MakeTree(shape, n_leaves, &trees);
      RunDifferential(tree, 400, 50 + 10 * rep + static_cast<int>(shape),
                      &tally);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GE(tally.cases, 3600u);
}

TEST(SamplingOracle, ConcurrentSharedSamplerStress) {
  // Several threads share one Sampler, each drawing from its own
  // per-ticket Rng; every thread's answers must equal the sequential
  // answers for the same tickets.
  Rng gen(91);
  YuleOptions options;
  options.n_leaves = 5000;
  PhyloTree tree = SimulateYule(options, &gen).value();
  const Sampler sampler(&tree);
  const double max_w = MaxRootPathWeight(tree);
  constexpr int kThreads = 4;
  constexpr int kCallsPerThread = 300;
  auto call = [&](int thread, int i, std::string* out) {
    uint64_t ticket = static_cast<uint64_t>(thread) * kCallsPerThread + i;
    Rng params(ticket);
    double time = max_w * (-0.05 + 1.15 * params.NextDouble());
    size_t k = 1 + params.Uniform(64);
    Rng rng(0xC0FFEE + ticket);
    *out = Render(sampler.SampleWithRespectToTime(k, time, &rng));
    for (uint64_t word : RngState(rng)) *out += ":" + std::to_string(word);
  };
  std::vector<std::vector<std::string>> want(
      kThreads, std::vector<std::string>(kCallsPerThread));
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kCallsPerThread; ++i) call(t, i, &want[t][i]);
  }
  std::vector<std::vector<std::string>> got(
      kThreads, std::vector<std::string>(kCallsPerThread));
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kCallsPerThread; ++i) call(t, i, &got[t][i]);
    });
  }
  for (std::thread& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kCallsPerThread; ++i) {
      ASSERT_EQ(got[t][i], want[t][i]) << "thread " << t << " call " << i;
    }
  }
}

TEST(SamplingOracle, FirstCallsRaceTheIndexBuild) {
  // Four threads make their first calls on a fresh Sampler together,
  // so they race the lazy time-index build; every answer must equal
  // the sequential answer from a second Sampler.
  Rng gen(92);
  YuleOptions options;
  options.n_leaves = 2000;
  PhyloTree tree = SimulateYule(options, &gen).value();
  const double max_w = MaxRootPathWeight(tree);
  constexpr int kThreads = 4;
  constexpr int kCallsPerThread = 40;
  auto call = [&](const Sampler& sampler, int thread, int i,
                  std::string* out) {
    uint64_t ticket = static_cast<uint64_t>(thread) * kCallsPerThread + i;
    Rng params(ticket);
    double time = max_w * (-0.05 + 1.15 * params.NextDouble());
    size_t k = 1 + params.Uniform(64);
    Rng rng(0xFACE + ticket);
    *out = Render(sampler.SampleWithRespectToTime(k, time, &rng));
    for (uint64_t word : RngState(rng)) *out += ":" + std::to_string(word);
    for (NodeId n : sampler.TimeFrontier(time)) {
      *out += "/" + std::to_string(n);
    }
  };
  const Sampler fresh(&tree);
  std::vector<std::vector<std::string>> got(
      kThreads, std::vector<std::string>(kCallsPerThread));
  std::atomic<int> ready{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (int i = 0; i < kCallsPerThread; ++i) call(fresh, t, i, &got[t][i]);
    });
  }
  for (std::thread& w : workers) w.join();
  const Sampler sequential(&tree);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kCallsPerThread; ++i) {
      std::string want;
      call(sequential, t, i, &want);
      ASSERT_EQ(got[t][i], want) << "thread " << t << " call " << i;
    }
  }
}

TEST(SamplingOracle, TimeIndexFitsItsBytesPerNode) {
  // The time index, checkpoints included, adds at most 24 B per node
  // on a perfbench-sized (59,999-node) Yule tree, and only once a time
  // query has built it.
  Rng gen(93);
  YuleOptions options;
  options.n_leaves = 30000;
  PhyloTree tree = SimulateYule(options, &gen).value();
  const Sampler sampler(&tree);
  const size_t before = sampler.MemoryFootprintBytes();
  Rng rng(1);
  ASSERT_TRUE(sampler.SampleUniform(10, &rng).ok());
  EXPECT_EQ(sampler.MemoryFootprintBytes(), before);
  ASSERT_FALSE(sampler.TimeFrontier(0.9 * MaxRootPathWeight(tree)).empty());
  const size_t added = sampler.MemoryFootprintBytes() - before;
  EXPECT_GT(added, 0u);
  EXPECT_LE(static_cast<double>(added) / tree.size(), 24.0)
      << added << " bytes for " << tree.size() << " nodes";
}

}  // namespace
}  // namespace crimson
