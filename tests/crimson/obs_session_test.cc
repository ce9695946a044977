// Session-level observability tests: SnapshotMetrics must be populated
// by every instrumented layer (query kinds, stage spans, storage,
// cache), the slow-query log must emit exactly the over-threshold
// queries, and sessions must not share counters.

#include "crimson/crimson.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "obs/metrics.h"
#include "sim/seq_evolve.h"
#include "sim/tree_sim.h"
#include "wal_sync_latch.h"
#include "../storage/fault_injection.h"

namespace crimson {
namespace {

constexpr char kFig1Newick[] =
    "(Syn:2.5,((Lla:1,Spy:1):0.5,Bha:1.5):0.75,Bsu:1.25)root;";

std::unique_ptr<Crimson> OpenSession(CrimsonOptions opts = {}) {
  opts.f = 3;
  opts.seed = 42;
  opts.batch_workers = 4;
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

TEST(ObsSessionTest, SnapshotPopulatesEveryLayer) {
  // On-disk + durable so the WAL layer is exercised too.
  constexpr const char* kDbPath = "/tmp/crimson_obs_session.db";
  std::remove(kDbPath);
  CrimsonOptions opts;
  opts.db_path = kDbPath;
  opts.durability = Durability::kCommit;
  auto crimson = OpenSession(std::move(opts));
  auto report = crimson->LoadNewick("fig1", kFig1Newick);
  ASSERT_TRUE(report.ok()) << report.status();
  for (int round = 0; round < 2; ++round) {
    for (const QueryRequest& request : SixKinds()) {
      ASSERT_TRUE(crimson->Execute(report->ref, request).ok());
    }
  }
  obs::MetricsSnapshot snap = crimson->SnapshotMetrics();

  // Session layer: per-kind latency histograms and counts.
  for (const char* kind : {"lca", "project", "sample_uniform", "sample_time",
                           "clade", "pattern_match"}) {
    std::string base = std::string("query.") + kind;
    EXPECT_EQ(snap.counter(base + ".count"), 2u) << kind;
    const obs::HistogramSnapshot* lat = snap.histogram(base + ".latency_us");
    ASSERT_NE(lat, nullptr) << kind;
    EXPECT_EQ(lat->count, 2u) << kind;
  }
  // Stage spans: the pure-compute span is recorded for every query.
  const obs::HistogramSnapshot* execute_us =
      snap.histogram("query.stage.execute_us");
  ASSERT_NE(execute_us, nullptr);
  EXPECT_GT(execute_us->count, 0u);

  // Storage layer: loading + reading the tree touched the buffer pool
  // and appended to the WAL.
  EXPECT_GT(snap.counter("storage.pool.hits") +
                snap.counter("storage.pool.misses"),
            0u);
  EXPECT_GT(snap.counter("storage.wal.appends"), 0u);

  // Cache layer: cacheable kinds hit on the second round.
  EXPECT_GT(snap.counter("cache.hits"), 0u);
  EXPECT_GT(snap.counter("cache.misses"), 0u);

  // MVCC + crack gauges are refreshed at snapshot time.
  EXPECT_EQ(snap.counters.count("pages.committed_epoch"), 1u);
  EXPECT_EQ(snap.counters.count("crack.stores"), 1u);
}

TEST(ObsSessionTest, ResultBytesGrowWithResults) {
  auto crimson = OpenSession();
  auto report = crimson->LoadNewick("fig1", kFig1Newick);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(
      crimson->Execute(report->ref, ProjectQuery{{"Bha", "Lla", "Syn"}}).ok());
  EXPECT_GT(crimson->SnapshotMetrics().counter("query.project.result_bytes"),
            0u);
}

TEST(ObsSessionTest, SlowQueryLogEmitsExactlyOverThresholdQueries) {
  std::vector<std::string> lines;
  std::mutex mu;
  CrimsonOptions opts;
  opts.query_cache_bytes = 0;  // no sub-microsecond cache hits
  opts.slow_query_micros = 1;
  opts.slow_query_sink = [&](const std::string& line) {
    std::lock_guard<std::mutex> lock(mu);
    lines.push_back(line);
  };
  auto crimson = OpenSession(std::move(opts));
  auto report = crimson->LoadNewick("fig1", kFig1Newick);
  ASSERT_TRUE(report.ok());
  constexpr int kQueries = 10;
  for (int i = 0; i < kQueries; ++i) {
    ASSERT_TRUE(
        crimson
            ->Execute(report->ref,
                      PatternQuery{"((Bha:1.5,Lla:1.5):0.75,Syn:2.5);", true})
            .ok());
  }
  ASSERT_EQ(lines.size(), static_cast<size_t>(kQueries));
  for (const std::string& line : lines) {
    EXPECT_EQ(line.rfind("slow_query total_us=", 0), 0u) << line;
    EXPECT_NE(line.find(" kind=pattern_match"), std::string::npos) << line;
    EXPECT_NE(line.find(" params=tree=fig1"), std::string::npos) << line;
    EXPECT_NE(line.find(" status=ok"), std::string::npos) << line;
    EXPECT_NE(line.find(" spans="), std::string::npos) << line;
  }
  EXPECT_EQ(crimson->SnapshotMetrics().counter("query.slow"),
            static_cast<uint64_t>(kQueries));
}

TEST(ObsSessionTest, HugeThresholdLogsNothing) {
  std::vector<std::string> lines;
  std::mutex mu;
  CrimsonOptions opts;
  opts.slow_query_micros = 1ull << 40;
  opts.slow_query_sink = [&](const std::string& line) {
    std::lock_guard<std::mutex> lock(mu);
    lines.push_back(line);
  };
  auto crimson = OpenSession(std::move(opts));
  auto report = crimson->LoadNewick("fig1", kFig1Newick);
  ASSERT_TRUE(report.ok());
  for (const QueryRequest& request : SixKinds()) {
    ASSERT_TRUE(crimson->Execute(report->ref, request).ok());
  }
  EXPECT_TRUE(lines.empty());
  EXPECT_EQ(crimson->SnapshotMetrics().counter("query.slow"), 0u);
}

TEST(ObsSessionTest, SequentialExecuteMatchesOneBatch) {
  // Execute and ExecuteBatch run one per-query pipeline: N sequential
  // Execute calls and one ExecuteBatch of the same N requests leave the
  // same results (sampling draws included), the same history rows, and
  // the same per-kind and cache counters, with the cache on and off.
  for (uint64_t cache_bytes : {uint64_t{1} << 20, uint64_t{0}}) {
    SCOPED_TRACE(cache_bytes);
    CrimsonOptions opts;
    opts.query_cache_bytes = cache_bytes;
    auto seq = OpenSession(opts);
    auto batch = OpenSession(opts);
    auto rs = seq->LoadNewick("fig1", kFig1Newick);
    auto rb = batch->LoadNewick("fig1", kFig1Newick);
    ASSERT_TRUE(rs.ok());
    ASSERT_TRUE(rb.ok());
    // Warm two cacheable kinds so the measured run mixes hits, misses
    // and bypasses. The measured list repeats no cacheable request:
    // concurrent batch workers would race for the first insert.
    const std::vector<QueryRequest> warm = {LcaQuery{"Lla", "Syn"},
                                            ProjectQuery{{"Bha", "Lla", "Syn"}}};
    for (const QueryRequest& request : warm) {
      ASSERT_TRUE(seq->Execute(rs->ref, request).ok());
      ASSERT_TRUE(batch->Execute(rb->ref, request).ok());
    }
    std::vector<QueryRequest> requests = SixKinds();
    requests.push_back(SampleUniformQuery{3});
    requests.push_back(SampleTimeQuery{2, 0.5});
    requests.push_back(LcaQuery{"Spy", "Bsu"});
    const obs::MetricsSnapshot seq_before = seq->SnapshotMetrics();
    const obs::MetricsSnapshot batch_before = batch->SnapshotMetrics();

    std::vector<Result<QueryResult>> sequential;
    for (const QueryRequest& request : requests) {
      sequential.push_back(seq->Execute(rs->ref, request));
    }
    std::vector<Result<QueryResult>> batched =
        batch->ExecuteBatch(rb->ref, requests);
    ASSERT_EQ(batched.size(), requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      ASSERT_TRUE(sequential[i].ok()) << sequential[i].status();
      ASSERT_TRUE(batched[i].ok()) << batched[i].status();
      EXPECT_EQ(RenderResult(*sequential[i]), RenderResult(*batched[i])) << i;
      EXPECT_EQ(SummarizeResult(*sequential[i]),
                SummarizeResult(*batched[i]))
          << i;
    }
    auto seq_rows = seq->QueryHistory(64);
    auto batch_rows = batch->QueryHistory(64);
    ASSERT_TRUE(seq_rows.ok());
    ASSERT_TRUE(batch_rows.ok());
    ASSERT_EQ(seq_rows->size(), warm.size() + requests.size());
    ASSERT_EQ(batch_rows->size(), seq_rows->size());
    for (size_t i = 0; i < seq_rows->size(); ++i) {
      const QueryRepository::Entry& a = (*seq_rows)[i];
      const QueryRepository::Entry& b = (*batch_rows)[i];
      EXPECT_EQ(a.query_id, b.query_id) << i;
      EXPECT_EQ(a.kind, b.kind) << i;
      EXPECT_EQ(a.params, b.params) << i;
      EXPECT_EQ(a.summary, b.summary) << i;
    }
    // Newest first: the last request is the newest row.
    EXPECT_EQ((*batch_rows)[0].kind, "lca");
    EXPECT_EQ((*batch_rows)[0].params, "tree=fig1&a=Spy&b=Bsu");

    const obs::MetricsSnapshot seq_after = seq->SnapshotMetrics();
    const obs::MetricsSnapshot batch_after = batch->SnapshotMetrics();
    auto delta = [](const obs::MetricsSnapshot& before,
                    const obs::MetricsSnapshot& after,
                    const std::string& name) {
      return after.counter(name) - before.counter(name);
    };
    for (const char* name :
         {"query.lca.count", "query.project.count",
          "query.sample_uniform.count", "query.sample_time.count",
          "query.clade.count", "query.pattern_match.count", "cache.hits",
          "cache.misses", "cache.bypassed"}) {
      EXPECT_EQ(delta(seq_before, seq_after, name),
                delta(batch_before, batch_after, name))
          << name;
    }
    const bool cache_on = cache_bytes > 0;
    EXPECT_EQ(delta(batch_before, batch_after, "cache.hits"),
              cache_on ? 2u : 0u);
    EXPECT_EQ(delta(batch_before, batch_after, "cache.misses"),
              cache_on ? 3u : 0u);
    EXPECT_EQ(delta(batch_before, batch_after, "cache.bypassed"),
              cache_on ? 4u : 0u);
  }
}

TEST(ObsSessionTest, SessionsDoNotShareCounters) {
  auto a = OpenSession();
  auto b = OpenSession();
  auto ra = a->LoadNewick("fig1", kFig1Newick);
  auto rb = b->LoadNewick("fig1", kFig1Newick);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(a->Execute(ra->ref, LcaQuery{"Lla", "Syn"}).ok());
  }
  EXPECT_EQ(a->SnapshotMetrics().counter("query.lca.count"), 5u);
  EXPECT_EQ(b->SnapshotMetrics().counter("query.lca.count"), 0u);
}

TEST(ObsSessionTest, FreshSessionSnapshotCarriesEveryStableKey) {
  // The cache, cracked-store and MVCC keys are resolved at Open, so a
  // session that has served nothing (and built no evaluation state)
  // already reports every one of them -- the kStats key set does not
  // depend on the traffic a server has seen.
  CrimsonOptions opts;
  opts.query_cache_bytes = 1 << 20;
  auto crimson = OpenSession(opts);
  const obs::MetricsSnapshot m = crimson->SnapshotMetrics();
  for (const char* key :
       {"cache.hits", "cache.misses", "cache.insertions", "cache.evictions",
        "cache.bypassed", "cache.entries", "cache.bytes_used", "crack.stores",
        "crack.pieces", "crack.loaded_pieces", "crack.sequences_loaded",
        "crack.sequences_resident", "crack.sequences_total",
        "crack.fetches", "crack.batches", "crack.piece_hits",
        "history.buffer_full", "history.flush_waits"}) {
    ASSERT_EQ(m.counters.count(key), 1u) << key;
    EXPECT_EQ(m.counter(key), 0u) << key;
  }
  EXPECT_EQ(m.counter("cache.budget_bytes"), uint64_t{1} << 20);
  const obs::HistogramSnapshot* backpressure =
      m.histogram("history.backpressure_us");
  ASSERT_NE(backpressure, nullptr);
  EXPECT_EQ(backpressure->count, 0u);
  for (const char* key :
       {"pages.captured_pages", "pages.version_hits",
        "pages.versions_dropped", "pages.live_versions",
        "pages.active_snapshots", "pages.committed_epoch"}) {
    EXPECT_EQ(m.counters.count(key), 1u) << key;
  }
  EXPECT_EQ(m.counter("pages.active_snapshots"), 0u);
  EXPECT_EQ(m.counter("pages.committed_epoch"),
            crimson->database()->committed_epoch());
}

TEST(ObsSessionTest, HistoryCountersCountFullBufferAndBackpressure) {
  // history_buffer_cap 2. The flusher's commit of ids 1 and 2 is parked
  // at its WAL sync, so nothing drains while queries pile up: queries
  // 1-7 still return (no query thread waits on a WAL sync), and each
  // that finds the buffer at the cap counts buffer_full. The eighth
  // finds four times the cap buffered or in flight, counts a flush
  // wait and blocks until the parked drain settles.
  test::FaultInjectionEnv env;
  test::WalSyncLatch latch;
  CrimsonOptions opts;
  opts.db_path = "history_counters.db";
  opts.durability = Durability::kCommit;
  opts.history_buffer_cap = 2;
  opts.storage_env = latch.Wrap(env.env());
  auto crimson = OpenSession(std::move(opts));
  auto report = crimson->LoadNewick("fig1", kFig1Newick);
  ASSERT_TRUE(report.ok()) << report.status();
  const QueryRequest lca(LcaQuery{"Lla", "Syn"});
  auto snapshot = [&] { return crimson->SnapshotMetrics(); };

  latch.Arm();
  std::atomic<int> ran{0};
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(crimson->Execute(report->ref, lca).ok());
    ran.fetch_add(1);
  }
  if (!latch.WaitParked()) {
    latch.Release();
    FAIL() << "the flusher never reached its WAL sync";
  }
  std::thread reader([&] {
    for (int i = 2; i < 8; ++i) {
      EXPECT_TRUE(crimson->Execute(report->ref, lca).ok());
      ran.fetch_add(1);
    }
  });
  bool waited = false;
  for (int i = 0; i < 6000 && !waited; ++i) {
    waited = snapshot().counter("history.flush_waits") == 1;
    if (!waited) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(waited);
  EXPECT_EQ(ran.load(), 7);
  latch.Release();
  reader.join();
  EXPECT_EQ(ran.load(), 8);
  const obs::MetricsSnapshot m = snapshot();
  // Query 2 (ids 1-2 then went in flight), then queries 4-8 (2-6
  // buffered).
  EXPECT_EQ(m.counter("history.buffer_full"), 6u);
  EXPECT_EQ(m.counter("history.flush_waits"), 1u);
  const obs::HistogramSnapshot* backpressure =
      m.histogram("history.backpressure_us");
  ASSERT_NE(backpressure, nullptr);
  EXPECT_EQ(backpressure->count, 1u);
  auto history = crimson->QueryHistory(100);
  ASSERT_TRUE(history.ok()) << history.status();
  EXPECT_EQ(history->size(), 8u);
}

TEST(ObsSessionTest, CrackCountersStayCumulativeResidencyIsLive) {
  // One name, one meaning: crack.fetches / crack.sequences_loaded
  // count every fetch ever made, while crack.sequences_resident and
  // crack.stores describe the evaluation states alive right now.
  auto crimson = OpenSession();
  Rng rng(0xC0FFEE);
  YuleOptions yule;
  yule.n_leaves = 24;
  auto gold = SimulateYule(yule, &rng);
  ASSERT_TRUE(gold.ok());
  SeqEvolveOptions seq_opts;
  seq_opts.seq_length = 48;
  auto sequences =
      SequenceEvolver::Create(seq_opts)->EvolveLeaves(*gold, &rng);
  ASSERT_TRUE(sequences.ok());
  auto loaded = crimson->LoadTree("gold", *gold);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_TRUE(crimson->AppendSpeciesData("gold", *sequences).ok());
  ExperimentSpec spec;
  spec.algorithms = {"nj"};
  SelectionSpec sel;
  sel.kind = SelectionSpec::Kind::kUniform;
  sel.k = 8;
  spec.selections = {sel};
  spec.replicates = 2;
  spec.compute_triplets = false;
  ASSERT_TRUE(crimson->RunExperiment(loaded->ref, spec).ok());

  const obs::MetricsSnapshot live = crimson->SnapshotMetrics();
  EXPECT_EQ(live.counter("crack.stores"), 1u);
  EXPECT_GT(live.counter("crack.fetches"), 0u);
  EXPECT_GT(live.counter("crack.sequences_resident"), 0u);
  EXPECT_EQ(live.counter("crack.sequences_resident"),
            live.counter("crack.sequences_loaded"))
      << "one state, never dropped: resident == ever loaded";
  EXPECT_EQ(live.counter("crack.sequences_total"), 24u);

  ASSERT_TRUE(crimson->DropTree("gold").ok());
  const obs::MetricsSnapshot dropped = crimson->SnapshotMetrics();
  EXPECT_EQ(dropped.counter("crack.stores"), 0u);
  EXPECT_EQ(dropped.counter("crack.sequences_resident"), 0u);
  EXPECT_EQ(dropped.counter("crack.sequences_total"), 0u);
  for (const char* key : {"crack.fetches", "crack.batches",
                          "crack.piece_hits", "crack.sequences_loaded"}) {
    EXPECT_EQ(dropped.counter(key), live.counter(key)) << key;
  }
}

TEST(ObsSessionStress, BatchesRaceSnapshotsWithoutLosingCounts) {
  auto crimson = OpenSession();
  auto report = crimson->LoadNewick("fig1", kFig1Newick);
  ASSERT_TRUE(report.ok());
  constexpr int kRounds = 50;
  std::atomic<bool> done{false};
  std::thread snapshotter([&] {
    while (!done.load()) {
      (void)crimson->SnapshotMetrics();
    }
  });
  std::vector<QueryRequest> requests = SixKinds();
  for (int round = 0; round < kRounds; ++round) {
    auto results = crimson->ExecuteBatch(report->ref, requests);
    for (const auto& r : results) ASSERT_TRUE(r.ok());
  }
  done.store(true);
  snapshotter.join();
  obs::MetricsSnapshot snap = crimson->SnapshotMetrics();
  uint64_t total = 0;
  for (const char* kind : {"lca", "project", "sample_uniform", "sample_time",
                           "clade", "pattern_match"}) {
    total += snap.counter(std::string("query.") + kind + ".count");
  }
  EXPECT_EQ(total, static_cast<uint64_t>(kRounds) * 6);
}

}  // namespace
}  // namespace crimson
