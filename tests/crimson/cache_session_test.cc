// Session-level tests for the adaptive query cache: a cache-enabled
// session must be byte-identical to a cache-disabled one across every
// query kind and across random interleavings of queries with
// StoreTree / AppendSpeciesData / aborted writes; a tree re-stored
// under a dropped name gets a new id and never serves the dropped
// tree's state; and concurrent readers racing a drop/re-store writer
// must never observe the dropped tree's answer after the re-store.

#include "crimson/crimson.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "sim/seq_evolve.h"
#include "sim/tree_sim.h"
#include "../storage/fault_injection.h"
#include "wal_sync_latch.h"

namespace crimson {
namespace {

constexpr char kFig1Newick[] =
    "(Syn:2.5,((Lla:1,Spy:1):0.5,Bha:1.5):0.75,Bsu:1.25)root;";
constexpr char kAltNewick[] =
    "((Syn:1,Bsu:1):0.5,(Lla:2,(Spy:1,Bha:1):0.5):0.25)root;";

std::unique_ptr<Crimson> OpenSession(uint64_t seed, uint64_t cache_bytes) {
  CrimsonOptions opts;
  opts.f = 3;
  opts.seed = seed;
  opts.batch_workers = 4;
  opts.query_cache_bytes = cache_bytes;
  auto c = Crimson::Open(opts);
  EXPECT_TRUE(c.ok()) << c.status();
  return std::move(c).value();
}

std::vector<QueryRequest> SixKinds() {
  return {
      QueryRequest(LcaQuery{"Lla", "Syn"}),
      QueryRequest(ProjectQuery{{"Bha", "Lla", "Syn"}}),
      QueryRequest(SampleUniformQuery{3}),
      QueryRequest(SampleTimeQuery{4, 1.0}),
      QueryRequest(CladeQuery{{"Lla", "Spy"}}),
      QueryRequest(PatternQuery{"((Bha:1.5,Lla:1.5):0.75,Syn:2.5);", true}),
  };
}

TEST(CacheSessionTest, RepeatedQueriesHitAndStayByteIdentical) {
  auto crimson = OpenSession(42, 1 << 20);
  auto report = crimson->LoadNewick("fig1", kFig1Newick);
  ASSERT_TRUE(report.ok()) << report.status();
  TreeRef tree = report->ref;

  const QueryRequest cacheable[] = {
      QueryRequest(LcaQuery{"Lla", "Syn"}),
      QueryRequest(ProjectQuery{{"Bha", "Lla", "Syn"}}),
      QueryRequest(CladeQuery{{"Lla", "Spy"}}),
      QueryRequest(PatternQuery{"((Bha:1.5,Lla:1.5):0.75,Syn:2.5);", true}),
  };
  std::vector<std::string> first;
  for (const QueryRequest& request : cacheable) {
    auto r = crimson->Execute(tree, request);
    ASSERT_TRUE(r.ok()) << r.status();
    first.push_back(RenderResult(*r));
  }
  for (int round = 0; round < 3; ++round) {
    for (size_t i = 0; i < 4; ++i) {
      auto r = crimson->Execute(tree, cacheable[i]);
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(RenderResult(*r), first[i]) << "round " << round << " req " << i;
    }
  }
  const obs::MetricsSnapshot stats = crimson->SnapshotMetrics();
  EXPECT_EQ(stats.counter("cache.hits"), 12u);
  EXPECT_EQ(stats.counter("cache.misses"), 4u);
  EXPECT_EQ(stats.counter("cache.entries"), 4u);

  // Cached executions are still recorded in history like uncached ones.
  auto history = crimson->QueryHistory(32);
  ASSERT_TRUE(history.ok());
  EXPECT_EQ(history->size(), 16u);
}

TEST(CacheSessionTest, SamplingBypassesTheCacheButKeepsTicketParity) {
  // Cache hits consume RNG tickets exactly like the executions they
  // replace, so a cache-enabled session and a cache-disabled one draw
  // identical sampling streams through an identical query sequence.
  auto cached = OpenSession(7, 1 << 20);
  auto uncached = OpenSession(7, 0);
  TreeRef ct = cached->LoadNewick("fig1", kFig1Newick).value().ref;
  TreeRef ut = uncached->LoadNewick("fig1", kFig1Newick).value().ref;

  for (int round = 0; round < 4; ++round) {
    for (const QueryRequest& request : SixKinds()) {
      auto a = cached->Execute(ct, request);
      auto b = uncached->Execute(ut, request);
      ASSERT_TRUE(a.ok()) << a.status();
      ASSERT_TRUE(b.ok()) << b.status();
      EXPECT_EQ(RenderResult(*a), RenderResult(*b))
          << "round " << round << " kind " << QueryKindName(request);
    }
  }
  const obs::MetricsSnapshot stats = cached->SnapshotMetrics();
  EXPECT_EQ(stats.counter("cache.bypassed"), 8u)
      << "two sampling kinds x four rounds";
  EXPECT_EQ(stats.counter("cache.hits"), 12u)
      << "four cacheable kinds x three repeat rounds";
  EXPECT_EQ(uncached->SnapshotMetrics().counter("cache.hits"), 0u);
}

TEST(CacheSessionTest, SeparatorBytesInNamesNeitherCollideNorSplit) {
  // Newick quoted labels may carry the history encoding's separators.
  // The species "A,B" must not share a cache key with the pair {A, B},
  // a replay must not split it, and a tree named with '&' or '%' must
  // round-trip through its history rows.
  constexpr char kQuoted[] = "(('A,B':1,A:1):1,(B:1,C:1):1);";
  const std::vector<QueryRequest> requests = {
      QueryRequest(ProjectQuery{{"A,B"}}),
      QueryRequest(ProjectQuery{{"A", "B"}}),
      QueryRequest(CladeQuery{{"A,B", "C"}}),
      QueryRequest(CladeQuery{{"A", "B", "C"}}),
      QueryRequest(LcaQuery{"A,B", "A"}),
      QueryRequest(LcaQuery{"A", "B"}),
      QueryRequest(PatternQuery{"('A,B',B);", false}),
      QueryRequest(PatternQuery{"(A,B);", false}),
  };
  for (const std::string& name : {"t", "t&u=v%2C%"}) {
    SCOPED_TRACE(name);
    auto cached = OpenSession(5, 8ull << 20);
    auto uncached = OpenSession(5, 0);
    auto ct = cached->LoadNewick(name, kQuoted);
    auto ut = uncached->LoadNewick(name, kQuoted);
    ASSERT_TRUE(ct.ok()) << ct.status();
    ASSERT_TRUE(ut.ok()) << ut.status();
    std::vector<std::string> rendered;
    for (const QueryRequest& request : requests) {
      auto a = cached->Execute(ct->ref, request);
      auto b = uncached->Execute(ut->ref, request);
      ASSERT_TRUE(a.ok()) << a.status();
      ASSERT_TRUE(b.ok()) << b.status();
      EXPECT_EQ(RenderResult(*a), RenderResult(*b))
          << "cache on/off differ for request " << rendered.size();
      rendered.push_back(RenderResult(*b));
    }
    EXPECT_EQ(rendered[0], "'A,B';");
    EXPECT_EQ(rendered[1], "(A:2,B:2);");

    // Every history row replays to the answer it recorded.
    auto history = cached->QueryHistory(rendered.size());
    ASSERT_TRUE(history.ok()) << history.status();
    ASSERT_EQ(history->size(), rendered.size());
    for (size_t i = 0; i < rendered.size(); ++i) {
      const QueryRepository::Entry& row = (*history)[rendered.size() - 1 - i];
      auto replay = cached->RerunQuery(row.query_id);
      ASSERT_TRUE(replay.ok()) << row.params << ": " << replay.status();
      EXPECT_EQ(*replay, rendered[i]) << row.params;
      auto decoded = DecodeQueryRequest(row.kind, row.params);
      ASSERT_TRUE(decoded.ok()) << decoded.status();
      EXPECT_EQ(decoded->first, name);
      EXPECT_EQ(EncodeQueryParams(decoded->first, decoded->second),
                row.params);
    }
  }
}

TEST(CacheSessionTest, EncodedOnceParamsMatchEncodeQueryParams) {
  // The session encodes each request once and prefixes the body for the
  // cache key, the history row and the slow-query line. For all six
  // kinds, through Execute and ExecuteBatch, and for names that need
  // escaping, every prefix must be byte-identical to the standalone
  // encodings.
  constexpr char kQuoted[] = "(('A,B':1,A:1):1,(B:1,C:1):1);";
  const std::vector<QueryRequest> requests = {
      QueryRequest(LcaQuery{"A,B", "A"}),
      QueryRequest(ProjectQuery{{"A,B", "C"}}),
      QueryRequest(SampleUniformQuery{2}),
      QueryRequest(SampleTimeQuery{2, 0.25}),
      QueryRequest(CladeQuery{{"A,B", "B"}}),
      QueryRequest(PatternQuery{"('A,B',B);", true}),
  };
  ASSERT_EQ(requests.size(), std::variant_size_v<QueryRequest>);
  for (const std::string name : {"t", "t&u=v%2C%"}) {
    SCOPED_TRACE(name);
    std::mutex slow_mu;  // batch workers emit their lines concurrently
    std::vector<std::string> slow_lines;
    CrimsonOptions opts;
    opts.slow_query_micros = 1;
    opts.slow_query_sink = [&](const std::string& line) {
      std::lock_guard<std::mutex> lock(slow_mu);
      slow_lines.push_back(line);
    };
    auto session = std::move(Crimson::Open(opts)).value();
    auto loaded = session->LoadNewick(name, kQuoted);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    for (const QueryRequest& request : requests) {
      ASSERT_TRUE(session->Execute(loaded->ref, request).ok());
      EXPECT_EQ(cache::QueryCache::KeyFor(loaded->tree_id, request,
                                          EncodeQueryBody(request)),
                std::string(QueryKindName(request)) + '?' +
                    EncodeQueryParams(std::to_string(loaded->tree_id),
                                      request));
    }
    for (const auto& result : session->ExecuteBatch(loaded->ref, requests)) {
      ASSERT_TRUE(result.ok()) << result.status();
    }
    auto history = session->QueryHistory(2 * requests.size());
    ASSERT_TRUE(history.ok()) << history.status();
    ASSERT_EQ(history->size(), 2 * requests.size());
    std::set<std::string> encoded;
    for (size_t i = 0; i < history->size(); ++i) {
      // History is newest first: the batch, then the Execute calls.
      const QueryRequest& request =
          requests[requests.size() - 1 - i % requests.size()];
      const QueryRepository::Entry& row = (*history)[i];
      EXPECT_EQ(row.kind, QueryKindName(request));
      EXPECT_EQ(row.params, EncodeQueryParams(name, request));
      encoded.insert(EncodeQueryParams(name, request));
    }
    // A query faster than the 1 us threshold logs no line, but every
    // line that is logged carries the canonical params.
    ASSERT_FALSE(slow_lines.empty());
    for (const std::string& line : slow_lines) {
      const size_t begin = line.find(" params=");
      const size_t end = line.find(" status=");
      ASSERT_NE(begin, std::string::npos) << line;
      ASSERT_NE(end, std::string::npos) << line;
      EXPECT_EQ(encoded.count(line.substr(begin + 8, end - begin - 8)), 1u)
          << line;
    }
  }
}

TEST(CacheSessionTest, RandomInterleavingsMatchUncachedByteForByte) {
  // Drive two same-seed sessions (cache on / cache off) through an
  // identical pseudo-random schedule of queries, tree stores, species
  // appends, and aborted writes; every answer must match byte for
  // byte, and no answer may leak across a mutation.
  Rng schedule(0x1234);
  auto cached = OpenSession(99, 1 << 20);
  auto uncached = OpenSession(99, 0);

  Rng tree_rng(0xFACE);
  YuleOptions yule_opts;
  yule_opts.n_leaves = 40;
  auto gold = SimulateYule(yule_opts, &tree_rng);
  ASSERT_TRUE(gold.ok());
  SeqEvolveOptions seq_opts;
  seq_opts.seq_length = 64;
  auto evolver = SequenceEvolver::Create(seq_opts);
  auto sequences = evolver->EvolveLeaves(*gold, &tree_rng);
  ASSERT_TRUE(sequences.ok());

  TreeRef ct = cached->LoadNewick("fig1", kFig1Newick).value().ref;
  TreeRef ut = uncached->LoadNewick("fig1", kFig1Newick).value().ref;
  const std::vector<QueryRequest> requests = SixKinds();

  int stores = 0;
  for (int step = 0; step < 120; ++step) {
    const uint64_t op = schedule.Next() % 10;
    if (op < 7) {
      const QueryRequest& request = requests[schedule.Next() % requests.size()];
      auto a = cached->Execute(ct, request);
      auto b = uncached->Execute(ut, request);
      ASSERT_EQ(a.ok(), b.ok()) << "step " << step;
      if (a.ok()) {
        EXPECT_EQ(RenderResult(*a), RenderResult(*b)) << "step " << step;
      }
    } else if (op == 7) {
      // Store (or re-store) an unrelated tree: fig1 entries must
      // survive.
      const std::string name = StrFormat("extra%d", stores++ % 3);
      auto a = cached->LoadNewick(name, kAltNewick);
      auto b = uncached->LoadNewick(name, kAltNewick);
      ASSERT_EQ(a.ok(), b.ok()) << "step " << step;
    } else if (op == 8) {
      // Append species data to a tree that exists only on round 0
      // (re-appends conflict), so both outcomes are exercised.
      auto a = cached->LoadTree("gold", *gold);
      auto b = uncached->LoadTree("gold", *gold);
      ASSERT_EQ(a.ok(), b.ok());
      auto sa = cached->AppendSpeciesData("gold", *sequences);
      auto sb = uncached->AppendSpeciesData("gold", *sequences);
      ASSERT_EQ(sa.ok(), sb.ok()) << "step " << step;
    } else {
      // Aborted mutation: a species fig1 does not have fails inside
      // the write transaction and must roll back cleanly.
      const std::map<std::string, std::string> unknown = {
          {"Lla", "ACGT"}, {"ghost", "ACGT"}};
      auto a = cached->AppendSpeciesData(ct, unknown);
      auto b = uncached->AppendSpeciesData(ut, unknown);
      EXPECT_TRUE(a.status().IsNotFound()) << "step " << step;
      ASSERT_EQ(a.ok(), b.ok());
    }
  }
  // The schedule above must actually have exercised the cache.
  EXPECT_GT(cached->SnapshotMetrics().counter("cache.hits"), 0u);
}

TEST(CacheSessionTest, AppendSpeciesDataKeepsCachedAnswers) {
  // Species data is not structure: an append leaves a tree's cached
  // answers valid, so both repeats below hit and still match a
  // cache-off session byte for byte.
  Rng tree_rng(0xFACE);
  YuleOptions yule_opts;
  yule_opts.n_leaves = 24;
  auto gold = SimulateYule(yule_opts, &tree_rng);
  ASSERT_TRUE(gold.ok());
  SeqEvolveOptions seq_opts;
  seq_opts.seq_length = 48;
  auto evolver = SequenceEvolver::Create(seq_opts);
  auto sequences = evolver->EvolveLeaves(*gold, &tree_rng);
  ASSERT_TRUE(sequences.ok());

  auto cached = OpenSession(42, 1 << 20);
  auto uncached = OpenSession(42, 0);
  std::vector<std::string> answers[2];
  Crimson* sessions[2] = {cached.get(), uncached.get()};
  for (int s = 0; s < 2; ++s) {
    Crimson* crimson = sessions[s];
    TreeRef fig = crimson->LoadNewick("fig1", kFig1Newick).value().ref;
    TreeRef yule = crimson->LoadTree("gold", *gold).value().ref;
    auto run = [&](TreeRef ref, const QueryRequest& request) {
      auto r = crimson->Execute(ref, request);
      ASSERT_TRUE(r.ok()) << r.status();
      answers[s].push_back(RenderResult(*r));
    };
    run(fig, LcaQuery{"Lla", "Syn"});
    run(yule, ProjectQuery{{"S1", "S5", "S9"}});
    ASSERT_TRUE(crimson->AppendSpeciesData("gold", *sequences).ok());
    run(fig, LcaQuery{"Lla", "Syn"});
    run(yule, ProjectQuery{{"S1", "S5", "S9"}});
  }
  EXPECT_EQ(answers[0], answers[1]);
  const obs::MetricsSnapshot stats = cached->SnapshotMetrics();
  EXPECT_EQ(stats.counter("cache.hits"), 2u);
  EXPECT_EQ(stats.counter("cache.misses"), 2u);
}

TEST(DropTreeTest, ReStoredSameNameTreeNeverServesStaleState) {
  auto crimson = OpenSession(42, 1 << 20);
  TreeRef old_ref = crimson->LoadNewick("x", kFig1Newick).value().ref;

  auto before = crimson->Execute(old_ref, LcaQuery{"Spy", "Bha"});
  ASSERT_TRUE(before.ok());
  // In kFig1Newick, Spy and Bha join below the root (inner node);
  // in kAltNewick their LCA is their direct unnamed parent at depth 2.
  const std::string old_rendered = RenderResult(*before);

  ASSERT_TRUE(crimson->DropTree("x").ok());
  EXPECT_TRUE(crimson->OpenTree("x").status().IsNotFound());
  // The old handle is dead, not dangling.
  EXPECT_FALSE(crimson->Execute(old_ref, LcaQuery{"Spy", "Bha"}).ok());

  TreeRef new_ref = crimson->LoadNewick("x", kAltNewick).value().ref;
  auto after = crimson->Execute(new_ref, LcaQuery{"Spy", "Bha"});
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_NE(RenderResult(*after), old_rendered)
      << "the re-stored tree has a different topology; equal answers "
         "mean the drop leaked cached state";

  // By-name execution agrees with the fresh handle too.
  auto by_name = crimson->Execute(*crimson->OpenTree("x"),
                                  LcaQuery{"Spy", "Bha"});
  ASSERT_TRUE(by_name.ok());
  EXPECT_EQ(RenderResult(*by_name), RenderResult(*after));
}

std::string LcaRendering(const char* newick) {
  auto s = OpenSession(1, 0);
  TreeRef r = s->LoadNewick("x", newick).value().ref;
  return RenderResult(*s->Execute(r, LcaQuery{"Spy", "Bha"}));
}

TEST(DropTreeTest, SameNameLoadRacingADropGetsTheNewTree) {
  // DropTree("x") is parked inside its durable commit, holding the
  // writer lock, while one thread loads another topology as "x" and
  // another opens "x" and queries it. Whatever the interleaving after
  // the release, the load's ref and a fresh OpenTree("x") answer the
  // new topology and the dropped tree's ref fails with NotFound.
  const std::string old_answer = LcaRendering(kFig1Newick);
  const std::string alt_answer = LcaRendering(kAltNewick);
  ASSERT_NE(old_answer, alt_answer);

  test::FaultInjectionEnv env;
  test::WalSyncLatch latch;
  CrimsonOptions opts;
  opts.f = 3;
  opts.db_path = "drop_race.db";
  opts.durability = Durability::kCommit;
  opts.query_cache_bytes = 1 << 20;
  opts.storage_env = latch.Wrap(env.env());
  auto session = Crimson::Open(opts);
  ASSERT_TRUE(session.ok()) << session.status();
  Crimson* crimson = session->get();
  auto loaded = crimson->LoadNewick("x", kFig1Newick);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const TreeRef old_ref = loaded->ref;
  auto cached = crimson->Execute(old_ref, LcaQuery{"Spy", "Bha"});
  ASSERT_TRUE(cached.ok());
  ASSERT_EQ(RenderResult(*cached), old_answer);

  latch.Arm();
  Status dropped = Status::Internal("not run");
  std::thread dropper([&] { dropped = crimson->DropTree("x"); });
  if (!latch.WaitParked()) {
    latch.Release();
    dropper.join();
    FAIL() << "DropTree never reached its WAL sync";
  }
  Result<SessionLoadReport> reloaded = Status::Internal("not run");
  std::thread loader(
      [&] { reloaded = crimson->LoadNewick("x", kAltNewick); });
  Result<std::string> during = Status::Internal("not run");
  std::thread reader([&] {
    auto ref = crimson->OpenTree("x");
    if (!ref.ok()) {
      during = ref.status();
      return;
    }
    auto r = crimson->Execute(*ref, LcaQuery{"Spy", "Bha"});
    during = r.ok() ? Result<std::string>(RenderResult(*r)) : r.status();
  });
  reader.join();
  // Give the loader time to queue on the writer lock, so the release
  // lets it race the rest of the drop.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  latch.Release();
  dropper.join();
  loader.join();

  ASSERT_TRUE(dropped.ok()) << dropped;
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  // The drop had not committed while the reader ran.
  ASSERT_TRUE(during.ok()) << during.status();
  EXPECT_EQ(*during, old_answer);
  EXPECT_NE(reloaded->ref, old_ref);
  auto fresh = crimson->Execute(reloaded->ref, LcaQuery{"Spy", "Bha"});
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_EQ(RenderResult(*fresh), alt_answer);
  auto reopened = crimson->OpenTree("x");
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  auto by_name = crimson->Execute(*reopened, LcaQuery{"Spy", "Bha"});
  ASSERT_TRUE(by_name.ok()) << by_name.status();
  EXPECT_EQ(RenderResult(*by_name), alt_answer);
  EXPECT_TRUE(crimson->Execute(old_ref, LcaQuery{"Spy", "Bha"})
                  .status()
                  .IsNotFound());
}

TEST(DropTreeTest, DropEvictsEvalStateForExperiments) {
  // Load a tree with sequences, run an experiment (materializes
  // EvalState), drop it, re-store under the same name with *different*
  // sequences: the rerun must see the new data, not the resident
  // pre-drop EvalState.
  Rng tree_rng(0x5EED);
  YuleOptions yule_opts;
  yule_opts.n_leaves = 16;
  auto gold = SimulateYule(yule_opts, &tree_rng);
  ASSERT_TRUE(gold.ok());
  SeqEvolveOptions seq_opts;
  seq_opts.seq_length = 60;
  auto evolver = SequenceEvolver::Create(seq_opts);
  auto seqs_a = evolver->EvolveLeaves(*gold, &tree_rng);
  ASSERT_TRUE(seqs_a.ok());

  auto crimson = OpenSession(42, 1 << 20);
  TreeRef ref = crimson->LoadTree("g", *gold).value().ref;
  ASSERT_TRUE(crimson->AppendSpeciesData("g", *seqs_a).ok());

  ExperimentSpec spec;
  spec.algorithms = {"nj"};
  SelectionSpec sel;
  sel.kind = SelectionSpec::Kind::kUniform;
  sel.k = 8;
  spec.selections = {sel};
  spec.replicates = 1;
  spec.compute_triplets = false;
  ASSERT_TRUE(crimson->RunExperiment(ref, spec).ok());
  EXPECT_GT(crimson->SnapshotMetrics().counter("crack.stores"), 0u);

  ASSERT_TRUE(crimson->DropTree("g").ok());
  EXPECT_EQ(crimson->SnapshotMetrics().counter("crack.stores"), 0u)
      << "DropTree must evict the resident EvalState eagerly";

  // Re-store the same name with no sequences: the experiment must now
  // fail on missing data instead of silently reusing pre-drop state.
  TreeRef fresh = crimson->LoadTree("g", *gold).value().ref;
  auto rerun = crimson->RunExperiment(fresh, spec);
  EXPECT_FALSE(rerun.ok());
  EXPECT_TRUE(rerun.status().IsFailedPrecondition()) << rerun.status();
}

TEST(CacheSessionStressTest, ReadersRacingWritersNeverSeeStaleResults) {
  // Readers hammer one query on tree "hot" while a writer flips the
  // tree between two topologies via DropTree + re-store. Every
  // successful answer must match one of the two legal topologies, and
  // after the writer's final commit a fresh query must see the final
  // topology (no stale cache survivor).
  auto crimson = OpenSession(42, 1 << 20);
  ASSERT_TRUE(crimson->LoadNewick("hot", kFig1Newick).ok());

  // Precompute the two legal renderings from throwaway sessions.
  std::string legal_a, legal_b;
  {
    auto s = OpenSession(1, 0);
    TreeRef r = s->LoadNewick("hot", kFig1Newick).value().ref;
    legal_a = RenderResult(*s->Execute(r, LcaQuery{"Spy", "Bha"}));
  }
  {
    auto s = OpenSession(1, 0);
    TreeRef r = s->LoadNewick("hot", kAltNewick).value().ref;
    legal_b = RenderResult(*s->Execute(r, LcaQuery{"Spy", "Bha"}));
  }
  ASSERT_NE(legal_a, legal_b);

  constexpr int kReaders = 4;
  std::atomic<bool> stop{false};
  std::atomic<int> stale{0};
  std::atomic<int> hits_ok{0};
  // A latch: the writer flips only once every reader has recorded one
  // legal answer, so each run races readers against all 20 flips.
  std::mutex latch_mu;
  std::condition_variable latch_cv;
  int readers_pending = kReaders;
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      bool counted = false;
      while (!stop.load(std::memory_order_acquire)) {
        auto ref = crimson->OpenTree("hot");
        if (!ref.ok()) continue;  // racing the drop window
        auto r = crimson->Execute(*ref, LcaQuery{"Spy", "Bha"});
        if (!r.ok()) continue;  // handle died mid-flight; also legal
        const std::string rendered = RenderResult(*r);
        if (rendered == legal_a || rendered == legal_b) {
          hits_ok.fetch_add(1);
          if (!counted) {
            counted = true;
            std::lock_guard<std::mutex> lock(latch_mu);
            if (--readers_pending == 0) latch_cv.notify_one();
          }
        } else {
          stale.fetch_add(1);
        }
      }
    });
  }
  {
    std::unique_lock<std::mutex> lock(latch_mu);
    const bool all_in = latch_cv.wait_for(lock, std::chrono::seconds(60),
                                          [&] { return readers_pending == 0; });
    if (!all_in) {
      stop.store(true, std::memory_order_release);
      lock.unlock();
      for (auto& t : readers) t.join();
      FAIL() << readers_pending << " readers got no legal answer in 60 s";
    }
  }

  bool alt = false;
  for (int flip = 0; flip < 20; ++flip) {
    alt = !alt;
    ASSERT_TRUE(crimson->DropTree("hot").ok());
    ASSERT_TRUE(
        crimson->LoadNewick("hot", alt ? kAltNewick : kFig1Newick).ok());
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(stale.load(), 0);
  EXPECT_GE(hits_ok.load(), kReaders);

  // Post-drain determinism: the final topology answers, not a cached
  // relic of any earlier flip.
  auto final_ref = crimson->OpenTree("hot");
  ASSERT_TRUE(final_ref.ok());
  auto r = crimson->Execute(*final_ref, LcaQuery{"Spy", "Bha"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(RenderResult(*r), alt ? legal_b : legal_a);
}

TEST(CacheSessionStressTest, ConcurrentMixedKindsMatchSequentialSession) {
  // Four threads fire the full six-kind mix at a cached session via
  // ExecuteBatch while a fifth keeps storing unrelated trees. Every
  // per-batch result must equal the same batch on a quiet uncached
  // session (batch determinism is per-batch-ticket, so each batch is
  // independently reproducible).
  auto noisy = OpenSession(5, 1 << 20);
  ASSERT_TRUE(noisy->LoadNewick("fig1", kFig1Newick).ok());
  TreeRef nt = noisy->OpenTree("fig1").value();

  // Reference answers for the cacheable kinds (sampling kinds draw
  // from per-batch tickets, so they are checked for success only).
  auto quiet = OpenSession(5, 0);
  ASSERT_TRUE(quiet->LoadNewick("fig1", kFig1Newick).ok());
  TreeRef qt = quiet->OpenTree("fig1").value();
  const std::vector<QueryRequest> requests = SixKinds();
  std::vector<std::string> expected(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    if (!cache::QueryCache::IsCacheable(requests[i])) continue;
    auto r = quiet->Execute(qt, requests[i]);
    ASSERT_TRUE(r.ok());
    expected[i] = RenderResult(*r);
  }

  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 30; ++round) {
        auto results = noisy->ExecuteBatch(nt, requests);
        for (size_t i = 0; i < requests.size(); ++i) {
          if (!results[i].ok()) {
            mismatches.fetch_add(1);
            continue;
          }
          if (!expected[i].empty() &&
              RenderResult(*results[i]) != expected[i]) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  std::thread writer([&] {
    int n = 0;
    while (!stop.load(std::memory_order_acquire)) {
      (void)noisy->LoadNewick(StrFormat("w%d", n++ % 4), kAltNewick);
      std::this_thread::yield();
    }
  });
  for (auto& t : threads) t.join();
  stop.store(true, std::memory_order_release);
  writer.join();

  EXPECT_EQ(mismatches.load(), 0);
  const obs::MetricsSnapshot stats = noisy->SnapshotMetrics();
  EXPECT_GT(stats.counter("cache.hits"), 0u);
  EXPECT_LE(stats.counter("cache.bytes_used"),
            stats.counter("cache.budget_bytes"));
}

}  // namespace
}  // namespace crimson
