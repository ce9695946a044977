// Tests for the handle-based session API: TreeRef binding, the typed
// Execute dispatch, RerunQuery round-trips across all six query kinds,
// ExecuteBatch determinism vs. sequential execution, and seed
// propagation from CrimsonOptions.

#include "crimson/crimson.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "sim/seq_evolve.h"
#include "sim/tree_sim.h"
#include "tree/newick.h"

namespace crimson {
namespace {

constexpr char kFig1Newick[] =
    "(Syn:2.5,((Lla:1,Spy:1):0.5,Bha:1.5):0.75,Bsu:1.25)root;";

/// A star tree with `n` leaves s0..s{n-1}; big enough that uniform
/// samples under different seeds collide with negligible probability.
std::string WideNewick(size_t n) {
  std::string out = "(";
  for (size_t i = 0; i < n; ++i) {
    if (i) out.push_back(',');
    out += StrFormat("s%zu:1", i);
  }
  out += ")r;";
  return out;
}

std::unique_ptr<Crimson> OpenSession(uint64_t seed, size_t workers = 4) {
  CrimsonOptions opts;
  opts.f = 3;
  opts.seed = seed;
  opts.batch_workers = workers;
  auto c = Crimson::Open(opts);
  EXPECT_TRUE(c.ok()) << c.status();
  return std::move(c).value();
}

TEST(TreeRefTest, LoadReturnsHandleAndOpenTreeIsStable) {
  auto crimson = OpenSession(42);
  auto report = crimson->LoadNewick("fig1", kFig1Newick);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->ref.valid());
  EXPECT_EQ(report->nodes_loaded, 8u);

  auto reopened = crimson->OpenTree("fig1");
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(*reopened, report->ref);

  EXPECT_TRUE(crimson->OpenTree("ghost").status().IsNotFound());
}

TEST(TreeRefTest, InvalidRefsAreRejected) {
  auto crimson = OpenSession(42);
  ASSERT_TRUE(crimson->LoadNewick("fig1", kFig1Newick).ok());
  TreeRef invalid;
  EXPECT_FALSE(invalid.valid());
  auto r = crimson->Execute(invalid, LcaQuery{"Lla", "Spy"});
  EXPECT_TRUE(r.status().IsInvalidArgument());
  // A ref from another session does not resolve here either.
  auto other = OpenSession(42);
  ASSERT_TRUE(other->LoadNewick("a", kFig1Newick).ok());
  ASSERT_TRUE(other->LoadNewick("b", kFig1Newick).ok());
  auto foreign = other->OpenTree("b");
  ASSERT_TRUE(foreign.ok());
  EXPECT_TRUE(
      crimson->Execute(*foreign, LcaQuery{"Lla", "Spy"}).status()
          .IsInvalidArgument());
}

TEST(ExecuteTest, AllSixKindsFlowThroughOneDispatch) {
  auto crimson = OpenSession(42);
  auto report = crimson->LoadNewick("fig1", kFig1Newick);
  ASSERT_TRUE(report.ok());
  TreeRef tree = report->ref;

  auto lca = crimson->Execute(tree, LcaQuery{"Lla", "Syn"});
  ASSERT_TRUE(lca.ok()) << lca.status();
  EXPECT_EQ(std::get<LcaAnswer>(*lca).name, "root");

  auto proj = crimson->Execute(tree, ProjectQuery{{"Bha", "Lla", "Syn"}});
  ASSERT_TRUE(proj.ok());
  EXPECT_EQ(std::get<ProjectAnswer>(*proj).projection.LeafCount(), 3u);

  auto uni = crimson->Execute(tree, SampleUniformQuery{3});
  ASSERT_TRUE(uni.ok());
  EXPECT_EQ(std::get<SampleAnswer>(*uni).species.size(), 3u);

  auto timed = crimson->Execute(tree, SampleTimeQuery{4, 1.0});
  ASSERT_TRUE(timed.ok());
  const auto& names = std::get<SampleAnswer>(*timed).species;
  std::set<std::string> set(names.begin(), names.end());
  EXPECT_TRUE(set.count("Bha"));
  EXPECT_TRUE(set.count("Syn"));
  EXPECT_TRUE(set.count("Bsu"));

  auto clade = crimson->Execute(tree, CladeQuery{{"Lla", "Spy"}});
  ASSERT_TRUE(clade.ok());
  EXPECT_EQ(std::get<CladeAnswer>(*clade).node_count, 3u);
  EXPECT_EQ(std::get<CladeAnswer>(*clade).leaf_count, 2u);

  auto pattern = crimson->Execute(
      tree, PatternQuery{"((Bha:1.5,Lla:1.5):0.75,Syn:2.5);", true});
  ASSERT_TRUE(pattern.ok());
  EXPECT_TRUE(std::get<PatternAnswer>(*pattern).exact);

  // Every execution above went through the recorded-history path.
  auto history = crimson->QueryHistory();
  ASSERT_TRUE(history.ok());
  ASSERT_EQ(history->size(), 6u);
  EXPECT_EQ((*history)[0].kind, "pattern_match");
  EXPECT_EQ((*history)[5].kind, "lca");
}

TEST(RerunTest, RoundTripAcrossAllSixKinds) {
  auto crimson = OpenSession(42);
  auto report = crimson->LoadNewick("fig1", kFig1Newick);
  ASSERT_TRUE(report.ok());
  TreeRef tree = report->ref;

  const QueryRequest requests[] = {
      QueryRequest(LcaQuery{"Lla", "Syn"}),
      QueryRequest(ProjectQuery{{"Bha", "Lla", "Syn"}}),
      QueryRequest(SampleUniformQuery{3}),
      QueryRequest(SampleTimeQuery{4, 1.0}),
      QueryRequest(CladeQuery{{"Lla", "Spy"}}),
      QueryRequest(PatternQuery{"((Bha:1.5,Lla:1.5):0.75,Syn:2.5);", true}),
  };
  std::map<std::string, int64_t> original_ids;
  for (const QueryRequest& request : requests) {
    ASSERT_TRUE(crimson->Execute(tree, request).ok());
    auto history = crimson->QueryHistory(1);
    ASSERT_TRUE(history.ok());
    const auto& entry = (*history)[0];
    EXPECT_EQ(entry.kind, std::string(QueryKindName(request)));
    original_ids[entry.kind] = entry.query_id;

    auto rerun = crimson->RerunQuery(entry.query_id);
    ASSERT_TRUE(rerun.ok()) << entry.kind << ": " << rerun.status();

    // The rerun re-executes through Execute, so it appends its own
    // history entry whose kind and summary must match the original.
    auto after = crimson->QueryHistory(1);
    ASSERT_TRUE(after.ok());
    EXPECT_EQ((*after)[0].kind, entry.kind);
    EXPECT_EQ((*after)[0].summary, entry.summary) << entry.kind;
    EXPECT_EQ((*after)[0].params, entry.params) << entry.kind;
  }

  // Deterministic kinds reproduce their exact output.
  auto lca_rerun_text = crimson->RerunQuery(original_ids["lca"]);
  ASSERT_TRUE(lca_rerun_text.ok());
  EXPECT_NE(lca_rerun_text->find("name=root"), std::string::npos);
  auto proj_rerun = crimson->RerunQuery(original_ids["project"]);
  ASSERT_TRUE(proj_rerun.ok());
  auto reparsed = ParseNewick(*proj_rerun);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->LeafCount(), 3u);
}

TEST(ExecuteBatchTest, BatchedIdenticalToSequentialForSameSeed) {
  // Session A executes the list batched on >= 4 workers; session B
  // (same seed) executes it sequentially. Rendered results must be
  // byte-identical, index by index.
  std::vector<QueryRequest> requests;
  for (int i = 0; i < 8; ++i) {
    requests.emplace_back(LcaQuery{"Lla", i % 2 ? "Syn" : "Spy"});
    requests.emplace_back(SampleUniformQuery{3});
    requests.emplace_back(ProjectQuery{{"Bha", "Lla", "Syn"}});
    requests.emplace_back(SampleTimeQuery{4, 1.0});
    requests.emplace_back(CladeQuery{{"Lla", "Spy"}});
    requests.emplace_back(
        PatternQuery{"((Bha:1.5,Lla:1.5):0.75,Syn:2.5);", true});
  }

  auto a = OpenSession(/*seed=*/7, /*workers=*/4);
  auto ra = a->LoadNewick("fig1", kFig1Newick);
  ASSERT_TRUE(ra.ok());
  auto batched = a->ExecuteBatch(ra->ref, requests);
  ASSERT_EQ(batched.size(), requests.size());

  auto b = OpenSession(/*seed=*/7, /*workers=*/4);
  auto rb = b->LoadNewick("fig1", kFig1Newick);
  ASSERT_TRUE(rb.ok());
  for (size_t i = 0; i < requests.size(); ++i) {
    auto sequential = b->Execute(rb->ref, requests[i]);
    ASSERT_TRUE(sequential.ok()) << i << ": " << sequential.status();
    ASSERT_TRUE(batched[i].ok()) << i << ": " << batched[i].status();
    EXPECT_EQ(RenderResult(*batched[i]), RenderResult(*sequential))
        << "request " << i;
  }

  // Histories agree in order, kind, and summary too.
  auto ha = a->QueryHistory(requests.size());
  auto hb = b->QueryHistory(requests.size());
  ASSERT_TRUE(ha.ok());
  ASSERT_TRUE(hb.ok());
  ASSERT_EQ(ha->size(), hb->size());
  for (size_t i = 0; i < ha->size(); ++i) {
    EXPECT_EQ((*ha)[i].kind, (*hb)[i].kind);
    EXPECT_EQ((*ha)[i].summary, (*hb)[i].summary);
  }
}

TEST(ExecuteBatchTest, OneWorkerAndEightWorkersAreByteIdentical) {
  // The worker count is a pure throughput knob: ExecuteBatch on a
  // single worker and on eight must produce byte-identical renderings
  // for all six query kinds (tickets are assigned in list order before
  // dispatch, so the draws cannot depend on scheduling).
  std::vector<QueryRequest> requests;
  for (int i = 0; i < 6; ++i) {
    requests.emplace_back(LcaQuery{"Lla", i % 2 ? "Syn" : "Spy"});
    requests.emplace_back(ProjectQuery{{"Bha", "Lla", "Syn"}});
    requests.emplace_back(SampleUniformQuery{3});
    requests.emplace_back(SampleTimeQuery{4, 1.0});
    requests.emplace_back(CladeQuery{{"Lla", "Spy"}});
    requests.emplace_back(
        PatternQuery{"((Bha:1.5,Lla:1.5):0.75,Syn:2.5);", true});
  }

  auto one = OpenSession(/*seed=*/11, /*workers=*/1);
  auto eight = OpenSession(/*seed=*/11, /*workers=*/8);
  auto r1 = one->LoadNewick("fig1", kFig1Newick);
  auto r8 = eight->LoadNewick("fig1", kFig1Newick);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r8.ok());

  auto out1 = one->ExecuteBatch(r1->ref, requests);
  auto out8 = eight->ExecuteBatch(r8->ref, requests);
  ASSERT_EQ(out1.size(), requests.size());
  ASSERT_EQ(out8.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(out1[i].ok()) << i << ": " << out1[i].status();
    ASSERT_TRUE(out8[i].ok()) << i << ": " << out8[i].status();
    EXPECT_EQ(RenderResult(*out1[i]), RenderResult(*out8[i]))
        << "request " << i;
  }
}

TEST(ExecuteBatchTest, ErrorsAreReportedPerQuery) {
  auto crimson = OpenSession(42);
  auto report = crimson->LoadNewick("fig1", kFig1Newick);
  ASSERT_TRUE(report.ok());
  std::vector<QueryRequest> requests = {
      QueryRequest(LcaQuery{"Lla", "Spy"}),
      QueryRequest(LcaQuery{"Lla", "Zzz"}),  // unknown species
      QueryRequest(SampleUniformQuery{3}),
  };
  auto results = crimson->ExecuteBatch(report->ref, requests);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_TRUE(results[1].status().IsNotFound());
  EXPECT_TRUE(results[2].ok());
  // Only the successes were recorded.
  auto history = crimson->QueryHistory();
  ASSERT_TRUE(history.ok());
  EXPECT_EQ(history->size(), 2u);
}

TEST(SeedTest, DifferentSeedsProduceDifferentSamples) {
  const std::string wide = WideNewick(48);
  auto a = OpenSession(/*seed=*/1);
  auto b = OpenSession(/*seed=*/2);
  auto c = OpenSession(/*seed=*/1);
  auto la = a->LoadNewick("wide", wide);
  auto lb = b->LoadNewick("wide", wide);
  auto lc = c->LoadNewick("wide", wide);
  ASSERT_TRUE(la.ok());
  ASSERT_TRUE(lb.ok());
  ASSERT_TRUE(lc.ok());

  auto sa = a->Execute(la->ref, SampleUniformQuery{8});
  auto sb = b->Execute(lb->ref, SampleUniformQuery{8});
  auto sc = c->Execute(lc->ref, SampleUniformQuery{8});
  ASSERT_TRUE(sa.ok());
  ASSERT_TRUE(sb.ok());
  ASSERT_TRUE(sc.ok());
  EXPECT_NE(std::get<SampleAnswer>(*sa).species,
            std::get<SampleAnswer>(*sb).species)
      << "different seeds must produce different samples";
  EXPECT_EQ(std::get<SampleAnswer>(*sa).species,
            std::get<SampleAnswer>(*sc).species)
      << "equal seeds must reproduce the same samples";
}

TEST(SeedTest, EachQueryDrawsFromItsOwnTicketedRng) {
  // Two same-seed sessions issue the same queries but interleaved with
  // different non-sampling queries; sampling results must still agree
  // because tickets advance identically.
  auto a = OpenSession(9);
  auto b = OpenSession(9);
  auto la = a->LoadNewick("fig1", kFig1Newick);
  auto lb = b->LoadNewick("fig1", kFig1Newick);
  ASSERT_TRUE(la.ok());
  ASSERT_TRUE(lb.ok());
  ASSERT_TRUE(a->Execute(la->ref, LcaQuery{"Lla", "Spy"}).ok());
  ASSERT_TRUE(b->Execute(lb->ref, CladeQuery{{"Lla", "Spy"}}).ok());
  auto sa = a->Execute(la->ref, SampleUniformQuery{3});
  auto sb = b->Execute(lb->ref, SampleUniformQuery{3});
  ASSERT_TRUE(sa.ok());
  ASSERT_TRUE(sb.ok());
  EXPECT_EQ(std::get<SampleAnswer>(*sa).species,
            std::get<SampleAnswer>(*sb).species);
}

TEST(StoredTreeTest, SmallTreeAnswersIdenticallyAfterReopen) {
  // A tree under 512 nodes (such trees once took a separate per-row
  // ingest path) answers all six query kinds the same from the handle
  // bound at load and from a cold bind of the stored rows and labels
  // after a Flush and an on-disk reopen. Both sessions start at ticket
  // 0 with the same seed, so sampling draws must match too.
  Rng tree_rng(0xFACE);
  auto yule = SimulateYule([] {
    YuleOptions opts;
    opts.n_leaves = 200;
    return opts;
  }(), &tree_rng);
  ASSERT_TRUE(yule.ok());
  ASSERT_LT(yule->size(), 512u);
  const std::string path = testing::TempDir() + "/crimson_small_tree.db";
  std::remove(path.c_str());
  CrimsonOptions opts;
  opts.db_path = path;
  opts.seed = 0x5EED;

  const std::vector<QueryRequest> requests = {
      LcaQuery{"S10", "S150"},
      ProjectQuery{{"S1", "S99", "S120", "S180"}},
      SampleUniformQuery{12},
      SampleTimeQuery{12, 0.8},
      CladeQuery{{"S33", "S44", "S55"}},
      PatternQuery{"(S1,S2);", false},
  };
  std::vector<std::string> before;
  {
    auto session = std::move(Crimson::Open(opts)).value();
    auto load = session->LoadTree("yule", *yule);
    ASSERT_TRUE(load.ok()) << load.status();
    for (const QueryRequest& request : requests) {
      auto r = session->Execute(load->ref, request);
      ASSERT_TRUE(r.ok()) << QueryKindName(request) << ": " << r.status();
      before.push_back(RenderResult(*r));
    }
    auto lca = session->Execute(load->ref, LcaQuery{"S10", "S150"});
    ASSERT_TRUE(lca.ok());
    EXPECT_EQ(std::get<LcaAnswer>(*lca).node,
              yule->NaiveLca(yule->FindByName("S10"),
                             yule->FindByName("S150")));
    ASSERT_TRUE(session->Flush().ok());
  }
  {
    auto session = std::move(Crimson::Open(opts)).value();
    auto ref = session->OpenTree("yule");
    ASSERT_TRUE(ref.ok()) << ref.status();
    auto tree = session->GetTree(*ref);
    ASSERT_TRUE(tree.ok());
    EXPECT_TRUE(PhyloTree::Equal(**tree, *yule, 1e-9, /*ordered=*/true));
    for (size_t i = 0; i < requests.size(); ++i) {
      auto r = session->Execute(*ref, requests[i]);
      ASSERT_TRUE(r.ok()) << QueryKindName(requests[i]) << ": " << r.status();
      EXPECT_EQ(RenderResult(*r), before[i]) << QueryKindName(requests[i]);
    }
  }
  std::remove(path.c_str());
}

TEST(TreeRefTest, ExportAndRenderTakeHandles) {
  // Export and render answer through the handle and reject refs the
  // session did not issue.
  auto crimson = OpenSession(42);
  auto report = crimson->LoadNewick("fig1", kFig1Newick);
  ASSERT_TRUE(report.ok());
  TreeRef tree = report->ref;

  auto nexus_ref = crimson->ExportNexus(tree);
  ASSERT_TRUE(nexus_ref.ok()) << nexus_ref.status();
  EXPECT_NE(nexus_ref->find("#NEXUS"), std::string::npos);

  auto art_ref = crimson->RenderTree(tree);
  ASSERT_TRUE(art_ref.ok()) << art_ref.status();
  EXPECT_NE(art_ref->find("Lla"), std::string::npos);

  TreeRef invalid;
  EXPECT_TRUE(crimson->ExportNexus(invalid).status().IsInvalidArgument());
  EXPECT_TRUE(crimson->RenderTree(invalid).status().IsInvalidArgument());
}

// -- appending species data through a bound ref ------------------------------

constexpr char kNexusWithData[] = R"(#NEXUS
BEGIN TAXA;
  TAXLABELS A B C;
END;
BEGIN DATA;
  MATRIX
    A ACGT
    B ACGA
    C TTTT
  ;
END;
BEGIN TREES;
  TREE gold = ((A:1,B:1):1,C:2);
END;
)";

std::map<std::string, std::string> StoredSequences(Crimson* session,
                                                   int64_t tree_id) {
  auto sequences = session->species_repository()->SequencesForTree(tree_id);
  EXPECT_TRUE(sequences.ok()) << sequences.status();
  return sequences.ok() ? *sequences : std::map<std::string, std::string>{};
}

TEST(SessionAppendTest, AppendSpeciesDataToExistingTree) {
  auto crimson = OpenSession(42);
  auto loaded = crimson->LoadNexus("gold", kNexusWithData,
                                   LoadMode::kTreeStructureOnly);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->species_loaded, 0u);
  auto report = crimson->LoadNexus("gold", kNexusWithData,
                                   LoadMode::kAppendSpeciesData);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->species_loaded, 3u);
  EXPECT_EQ(report->nodes_loaded, 0u);
  EXPECT_EQ(report->tree_id, loaded->tree_id);
  EXPECT_EQ(report->tree_name, "gold");
  EXPECT_EQ(report->ref, loaded->ref);
  EXPECT_EQ(StoredSequences(crimson.get(), report->tree_id).at("C"), "TTTT");
}

TEST(SessionAppendTest, AppendToUnknownTreeFails) {
  auto crimson = OpenSession(42);
  auto report = crimson->LoadNexus("ghost", kNexusWithData,
                                   LoadMode::kAppendSpeciesData);
  EXPECT_TRUE(report.status().IsNotFound()) << report.status();
  auto trees = crimson->ListTrees();
  ASSERT_TRUE(trees.ok());
  EXPECT_TRUE(trees->empty());
}

TEST(SessionAppendTest, StaleRefAppendsNothingAndNewRefAppendsToNewId) {
  // A ref outlives its tree's drop; appending through it must fail
  // NotFound and write nothing, while a ref to the same name stored
  // again appends to the new tree id only.
  auto crimson = OpenSession(42);
  const std::map<std::string, std::string> sequences = {
      {"Bha", "AAAA"}, {"Lla", "CCCC"}, {"Syn", "GGGG"}};
  auto first = crimson->LoadNewick("fig1", kFig1Newick);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(crimson->DropTree("fig1").ok());

  auto stale = crimson->AppendSpeciesData(first->ref, sequences);
  EXPECT_TRUE(stale.status().IsNotFound()) << stale.status();
  EXPECT_FALSE(*crimson->species_repository()->HasSpecies(first->tree_id));

  auto second = crimson->LoadNewick("fig1", kFig1Newick);
  ASSERT_TRUE(second.ok()) << second.status();
  ASSERT_NE(second->tree_id, first->tree_id);
  EXPECT_TRUE(
      crimson->AppendSpeciesData(first->ref, sequences).status().IsNotFound());
  EXPECT_FALSE(*crimson->species_repository()->HasSpecies(second->tree_id));

  auto appended = crimson->AppendSpeciesData(second->ref, sequences);
  ASSERT_TRUE(appended.ok()) << appended.status();
  EXPECT_EQ(appended->tree_id, second->tree_id);
  EXPECT_EQ(appended->tree_name, "fig1");
  EXPECT_EQ(appended->species_loaded, 3u);
  EXPECT_EQ(StoredSequences(crimson.get(), second->tree_id), sequences);
  EXPECT_FALSE(*crimson->species_repository()->HasSpecies(first->tree_id));
}

TEST(SessionAppendTest, NameKeyedAppendForwardsToTheRef) {
  // The name-keyed spelling opens the tree and appends through its
  // ref: the same report and rows as the ref append, and NotFound
  // (before any write) for a name no tree has.
  auto by_name = OpenSession(42);
  auto by_ref = OpenSession(42);
  auto a = by_name->LoadNewick("fig1", kFig1Newick);
  auto b = by_ref->LoadNewick("fig1", kFig1Newick);
  ASSERT_TRUE(a.ok() && b.ok());
  const std::map<std::string, std::string> sequences = {{"Spy", "ACGT"}};
  auto named = by_name->AppendSpeciesData("fig1", sequences);
  auto reffed = by_ref->AppendSpeciesData(b->ref, sequences);
  ASSERT_TRUE(named.ok()) << named.status();
  ASSERT_TRUE(reffed.ok()) << reffed.status();
  EXPECT_EQ(named->tree_id, reffed->tree_id);
  EXPECT_EQ(named->tree_name, reffed->tree_name);
  EXPECT_EQ(named->species_loaded, reffed->species_loaded);
  EXPECT_EQ(StoredSequences(by_name.get(), a->tree_id),
            StoredSequences(by_ref.get(), b->tree_id));
  EXPECT_TRUE(
      by_name->AppendSpeciesData("ghost", sequences).status().IsNotFound());
}

TEST(ConcurrencyTest, ParallelExecuteOnSharedSession) {
  auto crimson = OpenSession(42, /*workers=*/4);
  auto report = crimson->LoadNewick("fig1", kFig1Newick);
  ASSERT_TRUE(report.ok());
  TreeRef tree = report->ref;

  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        Result<QueryResult> r =
            (t + i) % 2 == 0
                ? crimson->Execute(tree, LcaQuery{"Lla", "Syn"})
                : crimson->Execute(tree, CladeQuery{{"Lla", "Spy"}});
        if (!r.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  auto history = crimson->QueryHistory(kThreads * kPerThread);
  ASSERT_TRUE(history.ok());
  EXPECT_EQ(history->size(), static_cast<size_t>(kThreads * kPerThread));
}

TEST(ConcurrencyTest, RerunExperimentReplaysExactlyWhileReadersRun) {
  // An experiment is persisted, then replayed while reader threads
  // hammer the shared read path (queries, history, exports): the
  // replay must still match the original report run for run, because
  // it uses the *stored* RNG provenance, not the live ticket counter.
  Rng tree_rng(0x5EED);
  YuleOptions yule_opts;
  yule_opts.n_leaves = 32;
  auto gold = SimulateYule(yule_opts, &tree_rng);
  ASSERT_TRUE(gold.ok());
  SeqEvolveOptions seq_opts;
  seq_opts.seq_length = 96;
  auto evolver = SequenceEvolver::Create(seq_opts);
  auto sequences = evolver->EvolveLeaves(*gold, &tree_rng);
  ASSERT_TRUE(sequences.ok());

  auto crimson = OpenSession(42, /*workers=*/4);
  auto load = crimson->LoadTree("gold", *gold);
  ASSERT_TRUE(load.ok());
  ASSERT_TRUE(crimson->AppendSpeciesData("gold", *sequences).ok());

  ExperimentSpec spec;
  spec.algorithms = {"nj", "upgma"};
  SelectionSpec sel;
  sel.kind = SelectionSpec::Kind::kUniform;
  sel.k = 8;
  spec.selections = {sel};
  spec.replicates = 2;
  spec.compute_triplets = false;
  auto original = crimson->RunExperiment(load->ref, spec);
  ASSERT_TRUE(original.ok()) << original.status();

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        if (!crimson->Execute(load->ref, LcaQuery{"S1", "S20"}).ok()) {
          ++failures;
        }
        if (!crimson->QueryHistory(3).ok()) ++failures;
        if (!crimson->ExportNexus(load->ref).ok()) ++failures;
      }
    });
  }
  auto replay = crimson->RerunExperiment(original->experiment_id);
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  ASSERT_EQ(failures.load(), 0);
  ASSERT_TRUE(replay.ok()) << replay.status();

  ASSERT_EQ(replay->runs.size(), original->runs.size());
  for (size_t i = 0; i < original->runs.size(); ++i) {
    const BenchmarkRun& a = original->runs[i];
    const BenchmarkRun& b = replay->runs[i];
    EXPECT_EQ(a.algorithm, b.algorithm) << "run " << i;
    EXPECT_EQ(a.sample_size, b.sample_size) << "run " << i;
    EXPECT_EQ(a.rf.distance, b.rf.distance) << "run " << i;
    EXPECT_EQ(a.rf.normalized, b.rf.normalized) << "run " << i;
    EXPECT_EQ(WriteNewick(a.reconstructed), WriteNewick(b.reconstructed))
        << "run " << i;
  }
}

TEST(ConcurrencyTest, ConcurrentOpenTreeMaterializesOnce) {
  auto crimson = OpenSession(42);
  ASSERT_TRUE(crimson->LoadNewick("fig1", kFig1Newick).ok());
  ASSERT_TRUE(crimson->LoadNewick("fig2", kFig1Newick).ok());
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      auto ref = crimson->OpenTree(t % 2 ? "fig1" : "fig2");
      if (!ref.ok()) failures.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace crimson
