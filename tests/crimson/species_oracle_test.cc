// Species data against a std::map model. Seeded rounds of
// AppendSpeciesData on two trees that share leaf names, with
// overlapping batches, internal-node species, an unnamed leaf, unknown
// names, and sequences from empty to several pages long. After every
// round the session must answer exactly what the model says:
//   - ExportNexus bytes, built from the model with WriteNexus;
//   - SpeciesRepository::SequencesForTree;
//   - the experiment's ordinal read of the sampled species, reached
//     through user-list experiments whose RF and triplet scores must
//     equal a BenchmarkManager's over the model map, and whose
//     missing-species error must name the same species;
//   - RerunExperiment, which must replay those scores.
// A species appended twice keeps its first sequence, and a batch with
// an unknown species changes nothing.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "crimson/benchmark_manager.h"
#include "crimson/crimson.h"
#include "recon/algorithm.h"
#include "tree/nexus.h"

namespace crimson {
namespace {

using SequenceMap = std::map<std::string, std::string>;

/// Sequence lengths up to a bit over two 8 KiB pages; most are short
/// so the rounds stay fast.
size_t RandomLength(Rng* rng) {
  static const size_t kLengths[] = {0,   1,   3,    17,   40,    64,
                                    128, 129, 1000, 8191, 8200, 17000};
  if (rng->Uniform(4) != 0) return 1 + rng->Uniform(200);
  return kLengths[rng->Uniform(sizeof(kLengths) / sizeof(kLengths[0]))];
}

std::string RandomSequence(Rng* rng, size_t length) {
  std::string out(length, 'A');
  for (char& c : out) c = "ACGT"[rng->Uniform(4)];
  return out;
}

/// A random rooted tree whose leaves are named "L<i>" for i in
/// [first, first + n_leaves), except leaf `unnamed` (when < n_leaves)
/// which has no name. Some internal nodes are named "I<tag><j>", and
/// one internal node shares a leaf's name.
PhyloTree RandomTree(Rng* rng, uint32_t first, uint32_t n_leaves,
                     uint32_t unnamed, char tag) {
  PhyloTree tree;
  tree.AddRoot("");
  std::vector<NodeId> internal = {0};
  uint32_t internal_names = 0;
  // Grow internal nodes, then hang the leaves off them.
  for (uint32_t i = 0; i + 1 < n_leaves / 2; ++i) {
    NodeId parent = internal[rng->Uniform(internal.size())];
    std::string name;
    if (rng->Uniform(3) == 0) {
      name = StrFormat("I%c%u", tag, internal_names++);
    }
    internal.push_back(tree.AddChild(parent, name, 1.0));
  }
  tree.set_name(internal.back(), StrFormat("L%u", first + n_leaves / 2));
  std::vector<size_t> children(tree.size(), 0);
  for (NodeId n = 1; n < tree.size(); ++n) ++children[tree.parent(n)];
  // Every internal node gets at least two children in the end: first
  // the ones short of two, then random ones.
  uint32_t leaf = 0;
  auto add_leaf = [&](NodeId parent) {
    std::string name =
        leaf == unnamed ? std::string() : StrFormat("L%u", first + leaf);
    tree.AddChild(parent, name, 1.0 + static_cast<double>(leaf % 3));
    ++leaf;
  };
  for (NodeId n : internal) {
    while (children[n] < 2 && leaf < n_leaves) {
      add_leaf(n);
      ++children[n];
    }
  }
  while (leaf < n_leaves) add_leaf(internal[rng->Uniform(internal.size())]);
  return tree;
}

std::vector<std::string> LeafNames(const PhyloTree& tree) {
  std::vector<std::string> out;
  for (NodeId n : tree.Leaves()) out.emplace_back(tree.name(n));
  return out;
}

/// Names that resolve only to internal nodes.
std::vector<std::string> InternalOnlyNames(const PhyloTree& tree) {
  std::set<std::string, std::less<>> leaves;
  for (NodeId n : tree.Leaves()) leaves.emplace(tree.name(n));
  std::vector<std::string> out;
  for (NodeId n = 0; n < tree.size(); ++n) {
    if (!tree.is_leaf(n) && !tree.name(n).empty() &&
        leaves.count(tree.name(n)) == 0) {
      out.emplace_back(tree.name(n));
    }
  }
  return out;
}

/// What ExportNexus must return for `tree` stored as `name` with the
/// model's sequences.
std::string ExpectedNexus(const std::string& name, const PhyloTree& tree,
                          const SequenceMap& model) {
  NexusDocument doc;
  for (NodeId n : tree.Leaves()) {
    if (!tree.name(n).empty()) doc.taxa.emplace_back(tree.name(n));
  }
  doc.sequences = model;
  NexusTree nt;
  nt.name = name;
  nt.tree = tree;
  doc.trees.push_back(std::move(nt));
  return WriteNexus(doc);
}

/// One tree under test and its model.
struct Subject {
  std::string name;
  PhyloTree tree;
  std::vector<std::string> candidates;  // names a batch may draw from
  std::vector<std::string> experiment;  // leaves with kExperimentLength
  std::string never;                    // a leaf that never gets data
  SequenceMap model;
  TreeRef ref;
};

constexpr size_t kExperimentLength = 48;

/// Scores of one run, comparable across the session and the model.
std::string Scores(const BenchmarkRun& run) {
  return StrFormat("%s k=%zu rf=%zu/%zu/%zu %.17g triplets=%llu/%llu %.17g",
                   run.algorithm.c_str(), run.sample_size, run.rf.distance,
                   run.rf.splits_a, run.rf.splits_b, run.rf.normalized,
                   static_cast<unsigned long long>(run.triplets.total),
                   static_cast<unsigned long long>(run.triplets.differing),
                   run.triplets.fraction);
}

/// The experiment as the model answers it: a BenchmarkManager over the
/// model map. A failed run renders as its status.
std::vector<std::string> ModelScores(const Subject& s,
                                     const ExperimentSpec& spec) {
  BenchmarkManager manager(&s.tree, &s.model, 8u);
  EXPECT_TRUE(manager.Init().ok());
  std::vector<std::string> out;
  for (const std::string& algorithm : spec.algorithms) {
    auto instance = AlgorithmRegistry::Global().Create(algorithm);
    EXPECT_TRUE(instance.ok());
    for (const SelectionSpec& selection : spec.selections) {
      Rng rng(1);
      auto run = manager.Evaluate(**instance, selection, &rng,
                                  /*compute_triplets=*/true);
      out.push_back(run.ok() ? Scores(*run) : run.status().ToString());
    }
  }
  return out;
}

void CheckSubject(Crimson* session, Subject* s, Rng* rng) {
  SCOPED_TRACE("tree " + s->name);
  auto exported = session->ExportNexus(s->ref);
  ASSERT_TRUE(exported.ok()) << exported.status();
  EXPECT_EQ(*exported, ExpectedNexus(s->name, s->tree, s->model));

  auto info = session->GetTreeInfo(s->ref);
  ASSERT_TRUE(info.ok()) << info.status();
  auto stored =
      session->species_repository()->SequencesForTree(info->tree_id);
  ASSERT_TRUE(stored.ok()) << stored.status();
  EXPECT_TRUE(*stored == s->model)
      << stored->size() << " stored vs " << s->model.size() << " in model";

  // User lists over the experiment leaves (all kExperimentLength long
  // and present once round 0 ran), a random slice of them, and one
  // that reaches a leaf without data.
  std::vector<std::string> slice = s->experiment;
  for (size_t i = slice.size(); i > 1; --i) {
    std::swap(slice[i - 1], slice[rng->Uniform(i)]);
  }
  slice.resize(3 + rng->Uniform(slice.size() - 3));
  std::vector<std::string> with_missing = {s->experiment[0], s->never,
                                           s->experiment[1]};
  ExperimentSpec spec;
  spec.algorithms = {"nj", "upgma"};
  for (const auto& list : {s->experiment, slice}) {
    SelectionSpec selection;
    selection.kind = SelectionSpec::Kind::kUserList;
    selection.species = list;
    spec.selections.push_back(selection);
  }
  const std::vector<std::string> want = ModelScores(*s, spec);
  auto report = session->RunExperiment(s->ref, spec);
  ASSERT_TRUE(report.ok()) << report.status();
  std::vector<std::string> got;
  for (const BenchmarkRun& run : report->runs) got.push_back(Scores(run));
  EXPECT_EQ(got, want);
  auto rerun = session->RerunExperiment(report->experiment_id);
  ASSERT_TRUE(rerun.ok()) << rerun.status();
  std::vector<std::string> replayed;
  for (const BenchmarkRun& run : rerun->runs) replayed.push_back(Scores(run));
  EXPECT_EQ(replayed, want);

  ExperimentSpec missing;
  missing.algorithms = {"upgma"};
  SelectionSpec selection;
  selection.kind = SelectionSpec::Kind::kUserList;
  selection.species = with_missing;
  missing.selections.push_back(selection);
  const std::vector<std::string> want_missing = ModelScores(*s, missing);
  ASSERT_EQ(want_missing.size(), 1u);
  auto failed = session->RunExperiment(s->ref, missing);
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsNotFound()) << failed.status();
  EXPECT_NE(failed.status().ToString().find(
                "no sequence for sampled species '" + s->never + "'"),
            std::string::npos)
      << failed.status();
  EXPECT_NE(want_missing[0].find("'" + s->never + "'"), std::string::npos)
      << want_missing[0];
}

/// Builds two trees whose leaf names overlap, runs `rounds` seeded
/// append rounds over both, and checks both after each one.
void RunSpeciesOracle(uint64_t seed, uint32_t leaves, int rounds) {
  Rng rng(seed);
  CrimsonOptions opts;
  opts.seed = seed;
  opts.batch_workers = 2;
  auto session = Crimson::Open(opts);
  ASSERT_TRUE(session.ok()) << session.status();

  std::vector<Subject> subjects(2);
  subjects[0].name = "alpha";
  subjects[0].tree = RandomTree(&rng, 0, leaves, /*unnamed=*/leaves / 3, 'a');
  subjects[1].name = "beta";
  subjects[1].tree =
      RandomTree(&rng, leaves / 2, leaves, /*unnamed=*/leaves, 'b');
  for (Subject& s : subjects) {
    auto loaded = (*session)->LoadTree(s.name, s.tree);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    s.ref = loaded->ref;
    std::vector<std::string> leaf_names = LeafNames(s.tree);
    std::sort(leaf_names.begin(), leaf_names.end());
    // Named leaves in sorted order: every fourth one is an experiment
    // leaf, and the last named one never gets data. A user list names
    // leaves, so the leaf name an internal node shares is no
    // experiment leaf.
    const std::vector<std::string> internal_only = InternalOnlyNames(s.tree);
    std::vector<std::string> named;
    for (const std::string& n : leaf_names) {
      if (!n.empty()) named.push_back(n);
    }
    auto names_leaf = [&s](const std::string& n) {
      return s.tree.is_leaf(s.tree.FindByName(n));
    };
    if (!names_leaf(named.back())) std::swap(named.back(), named.front());
    s.never = named.back();
    named.pop_back();
    s.candidates = named;
    for (size_t i = 0; i < named.size(); i += 4) {
      if (names_leaf(named[i])) s.experiment.push_back(named[i]);
    }
    if (leaf_names.front().empty()) s.candidates.push_back("");
    s.candidates.insert(s.candidates.end(), internal_only.begin(),
                        internal_only.end());
  }

  for (int round = 0; round < rounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    for (Subject& s : subjects) {
      SequenceMap batch;
      if (round == 0) {
        for (const std::string& n : s.experiment) {
          batch[n] = RandomSequence(&rng, kExperimentLength);
        }
      }
      const size_t picks = 1 + rng.Uniform(s.candidates.size());
      for (size_t i = 0; i < picks; ++i) {
        const std::string& n = s.candidates[rng.Uniform(s.candidates.size())];
        if (batch.count(n) == 0) {
          batch[n] = RandomSequence(&rng, RandomLength(&rng));
        }
      }
      if (rng.Uniform(4) == 0) {
        // An unknown name fails the whole batch before any write.
        SequenceMap bad = batch;
        bad["Z_unknown"] = "ACGT";
        auto rejected = (*session)->AppendSpeciesData(s.name, bad);
        ASSERT_TRUE(rejected.status().IsNotFound()) << rejected.status();
      }
      auto appended = (*session)->AppendSpeciesData(s.name, batch);
      ASSERT_TRUE(appended.ok()) << appended.status();
      EXPECT_EQ(appended->species_loaded, batch.size());
      for (const auto& [name, sequence] : batch) {
        s.model.emplace(name, sequence);  // the first append wins
      }
    }
    for (Subject& s : subjects) CheckSubject(session->get(), &s, &rng);
  }

  // Dropping one tree leaves the other's data, names shared, as it was.
  ASSERT_TRUE((*session)->DropTree(subjects[0].name).ok());
  CheckSubject(session->get(), &subjects[1], &rng);
}

TEST(SpeciesOracleTest, AppendRoundsMatchModel) {
  RunSpeciesOracle(0x5BEC1E5, /*leaves=*/90, /*rounds=*/6);
}

TEST(SpeciesOracleTest, SmallTreesMatchModel) {
  RunSpeciesOracle(0x5BEC1E6, /*leaves=*/14, /*rounds=*/5);
}

TEST(SpeciesOracleStressTest, SeedSweep) {
  // Dialed-up version: ctest -C stress -L stress.
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunSpeciesOracle(seed, 60 + 150 * static_cast<uint32_t>(seed), 8);
  }
}

}  // namespace
}  // namespace crimson
