// Session-level MVCC tests: queries racing a bulk StoreTree must see
// the pre-commit state byte-identically (cold OpenTree binds, all six
// query kinds, NEXUS export), and the query-history buffer must keep
// read-only queries off the writer path without losing entries or
// replay order. Cold binds from two threads must have their page
// misses in flight at once.
//
// Identity protocol: the reader script is run once on a quiet session
// (baseline) and once on a fresh session over an identically rebuilt
// database while a writer bulk-loads large trees into the same tables.
// Both runs start from ticket 0 and the writer consumes no query
// tickets, so every result -- sampling draws included -- must be
// byte-identical; any torn or mid-transaction page the reader observed
// would break that. `*Stress*` variants scale the stored tree to the
// paper-scale 60k nodes.

#include "crimson/crimson.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "sim/seq_evolve.h"
#include "sim/tree_sim.h"
#include "storage/file.h"
#include "storage/wal.h"
#include "wal_sync_latch.h"

namespace crimson {
namespace {

constexpr const char* kDbPath = "/tmp/crimson_snapshot_session.db";

struct GoldTree {
  PhyloTree tree;
  std::map<std::string, std::string> sequences;
};

GoldTree MakeGold(uint32_t n_leaves, uint64_t seed, bool with_sequences) {
  GoldTree g;
  Rng rng(seed);
  YuleOptions opts;
  opts.n_leaves = n_leaves;
  g.tree = std::move(SimulateYule(opts, &rng)).value();
  if (with_sequences) {
    SeqEvolveOptions seq_opts;
    seq_opts.seq_length = 64;
    auto evolver = SequenceEvolver::Create(seq_opts);
    g.sequences = std::move(evolver->EvolveLeaves(g.tree, &rng)).value();
  }
  return g;
}

std::string TreeName(int i) { return StrFormat("tree%d", i); }

/// Rebuilds the shared on-disk database with `n_trees` gold trees.
/// Deterministic: repeated builds produce identical storage content,
/// so the baseline and the concurrent phase read the same bytes.
void BuildSharedDb(int n_trees, uint32_t n_leaves) {
  std::remove(kDbPath);
  // A durable run leaves WAL segments that must not replay onto the
  // fresh file.
  ASSERT_TRUE(
      Wal::RemoveLog(std::string(kDbPath) + "-wal", PosixStorageEnv()).ok());
  CrimsonOptions opts;
  opts.db_path = kDbPath;
  auto session = std::move(Crimson::Open(opts)).value();
  for (int i = 0; i < n_trees; ++i) {
    GoldTree gold = MakeGold(n_leaves, 0xC0FFEE + i, /*with_sequences=*/true);
    ASSERT_TRUE(session->LoadTree(TreeName(i), gold.tree).ok());
    ASSERT_TRUE(session->AppendSpeciesData(TreeName(i), gold.sequences).ok());
  }
  ASSERT_TRUE(session->Flush().ok());
}

/// The six query kinds against an n-leaf gold tree (leaves S0..S{n-1}).
std::vector<QueryRequest> SixKinds(uint32_t n_leaves) {
  const std::string a = StrFormat("S%u", n_leaves / 7);
  const std::string b = StrFormat("S%u", n_leaves - 2);
  return {
      QueryRequest(LcaQuery{a, b}),
      QueryRequest(ProjectQuery{{"S1", a, b, "S0"}}),
      QueryRequest(SampleUniformQuery{10}),
      QueryRequest(SampleTimeQuery{8, 0.5}),
      QueryRequest(CladeQuery{{"S2", "S3", a}}),
      QueryRequest(PatternQuery{"(S1,S2);", false}),
  };
}

std::unique_ptr<Crimson> OpenSharedSession(
    test::WalSyncLatch* latch = nullptr) {
  CrimsonOptions opts;
  opts.db_path = kDbPath;
  if (latch != nullptr) {
    opts.durability = Durability::kCommit;
    opts.storage_env = latch->Wrap(PosixStorageEnv());
  }
  opts.buffer_pool_pages = 256;
  opts.seed = 42;
  auto c = Crimson::Open(opts);
  EXPECT_TRUE(c.ok()) << c.status();
  return std::move(c).value();
}

/// The reader script: `iters` rounds of cold-then-cached OpenTree
/// binds, all six query kinds, and a NEXUS export per tree. Returns
/// every rendered result in order; `on_iteration(i)` runs before round
/// i (the concurrent phase uses it to line up with the writer).
std::vector<std::string> RunReaderScript(
    Crimson* session, int n_trees, uint32_t n_leaves, int iters,
    const std::function<void(int)>& on_iteration) {
  std::vector<QueryRequest> requests = SixKinds(n_leaves);
  std::vector<std::string> out;
  for (int iter = 0; iter < iters; ++iter) {
    if (on_iteration) on_iteration(iter);
    for (int i = 0; i < n_trees; ++i) {
      auto ref = session->OpenTree(TreeName(i));
      EXPECT_TRUE(ref.ok()) << ref.status();
      if (!ref.ok()) return out;
      for (const QueryRequest& request : requests) {
        auto r = session->Execute(*ref, request);
        EXPECT_TRUE(r.ok()) << r.status();
        out.push_back(r.ok() ? RenderResult(*r) : "<error>");
      }
      auto nexus = session->ExportNexus(*ref);
      EXPECT_TRUE(nexus.ok()) << nexus.status();
      out.push_back(nexus.ok() ? std::move(*nexus) : "<error>");
      // History reads must stay available mid-write too (content is
      // timestamped, so only success is asserted).
      EXPECT_TRUE(session->QueryHistory(5).ok());
    }
  }
  return out;
}

/// Baseline on a quiet session, then the identical script on a fresh
/// durable session over a rebuilt database while a writer bulk-loads
/// `writer_leaves`-leaf trees into the same relational tables. Every
/// result must match the baseline byte-for-byte. The writer's first
/// store is held in its commit (WAL sync latch) until a full reader
/// round has run inside its open transaction.
void RunReaderVsBulkStoreTest(int n_trees, uint32_t n_leaves, int iters,
                              int writer_trees, uint32_t writer_leaves) {
  BuildSharedDb(n_trees, n_leaves);
  std::vector<std::string> baseline;
  {
    auto session = OpenSharedSession();
    baseline =
        RunReaderScript(session.get(), n_trees, n_leaves, iters, nullptr);
  }

  BuildSharedDb(n_trees, n_leaves);
  test::WalSyncLatch latch;
  auto session = OpenSharedSession(&latch);
  Database* db = session->database();

  // Pre-simulate the writer's trees so its thread spends its time in
  // StoreTree, not in the Yule simulation.
  std::vector<GoldTree> to_store;
  to_store.reserve(writer_trees);
  for (int w = 0; w < writer_trees; ++w) {
    to_store.push_back(
        MakeGold(writer_leaves, 0xBEEF00 + w, /*with_sequences=*/false));
  }

  std::atomic<int> writer_failures{0};
  latch.Arm();
  std::thread writer([&] {
    for (int w = 0; w < writer_trees; ++w) {
      if (!session->LoadTree(StrFormat("bulk%d", w), to_store[w].tree).ok()) {
        ++writer_failures;
        break;
      }
    }
  });

  // Round 0 runs while the first store is parked in its commit; round
  // 1 releases it, so later rounds race the rest of the writer.
  int overlapped_rounds = 0;
  auto on_iteration = [&](int iter) {
    if (iter == 0 && latch.WaitParked() && db->in_txn()) ++overlapped_rounds;
    if (iter == 1) latch.Release();
  };
  std::vector<std::string> concurrent = RunReaderScript(
      session.get(), n_trees, n_leaves, iters, on_iteration);
  latch.Release();
  writer.join();

  ASSERT_EQ(writer_failures.load(), 0);
  // The identity below was exercised mid-StoreTree, not just before or
  // after it.
  EXPECT_EQ(overlapped_rounds, 1);

  ASSERT_EQ(concurrent.size(), baseline.size());
  for (size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_EQ(concurrent[i], baseline[i]) << "result " << i;
  }

  // The bulk trees committed and are fully readable afterwards.
  auto trees = session->ListTrees();
  ASSERT_TRUE(trees.ok());
  EXPECT_EQ(trees->size(), static_cast<size_t>(n_trees + writer_trees));
}

TEST(SnapshotSessionTest, ReadersSeePreCommitStateDuringBulkStore) {
  RunReaderVsBulkStoreTest(/*n_trees=*/3, /*n_leaves=*/96, /*iters=*/6,
                           /*writer_trees=*/2, /*writer_leaves=*/6000);
}

TEST(SnapshotSessionTest, StressReadersSeePreCommitStateDuring60kNodeStore) {
  // 30000 leaves -> ~60k nodes: the paper-scale tree of the issue.
  RunReaderVsBulkStoreTest(/*n_trees=*/3, /*n_leaves=*/128, /*iters=*/10,
                           /*writer_trees=*/2, /*writer_leaves=*/30000);
}

// ---------------------------------------------------------------------------
// Cold misses overlap in the pager
// ---------------------------------------------------------------------------

/// Rendezvous on File::Read. Once armed, the first read blocks until a
/// second read is in flight -- which can only come from another
/// thread, since the first one is parked here -- or until a generous
/// timeout, which counts as a miss. Either way it then disarms, so all
/// later reads pass straight through.
class ReadRendezvous {
 public:
  void Arm() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = true;
  }

  void OnRead() {
    std::unique_lock<std::mutex> lock(mu_);
    if (!armed_) return;
    if (++arrivals_ > 1) {
      cv_.notify_all();
      return;
    }
    met_ = cv_.wait_for(lock, std::chrono::seconds(30),
                        [&] { return arrivals_ > 1; });
    armed_ = false;
  }

  bool met() {
    std::lock_guard<std::mutex> lock(mu_);
    return met_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool armed_ = false;
  int arrivals_ = 0;
  bool met_ = false;
};

class RendezvousFile final : public File {
 public:
  RendezvousFile(std::unique_ptr<File> base, ReadRendezvous* rendezvous)
      : base_(std::move(base)), rendezvous_(rendezvous) {}

  Status Read(uint64_t offset, size_t n, char* scratch) const override {
    rendezvous_->OnRead();
    return base_->Read(offset, n, scratch);
  }
  Status Write(uint64_t offset, const char* data, size_t n) override {
    return base_->Write(offset, data, n);
  }
  Status Sync() override { return base_->Sync(); }
  uint64_t Size() const override { return base_->Size(); }
  Status Truncate(uint64_t new_size) override {
    return base_->Truncate(new_size);
  }

 private:
  std::unique_ptr<File> base_;
  ReadRendezvous* rendezvous_;
};

TEST(SnapshotSessionTest, ColdMissesFromTwoThreadsOverlapInThePager) {
  // Two threads cold-bind different stored trees on a fresh session.
  // Their page misses must be in flight at the same time: the first
  // armed read waits at the rendezvous for the other thread's read, so
  // any lock that serialized storage reads would starve it. No timing
  // threshold is involved -- only whether both reads got there.
  const std::string path = testing::TempDir() + "/crimson_cold_miss.db";
  std::remove(path.c_str());
  std::map<std::string, PhyloTree> stored;
  {
    CrimsonOptions opts;
    opts.db_path = path;
    auto session = std::move(Crimson::Open(opts)).value();
    uint64_t seed = 0xC01D;
    for (const char* name : {"warm", "a", "b"}) {
      // ~4k nodes: each tree's packed image and label blob span their
      // own overflow pages.
      stored[name] =
          MakeGold(2000, seed++, /*with_sequences=*/false).tree;
      ASSERT_TRUE(session->LoadTree(name, stored[name]).ok());
    }
    ASSERT_TRUE(session->Flush().ok());
  }

  ReadRendezvous rendezvous;
  CrimsonOptions opts;
  opts.db_path = path;
  const StorageEnv posix = PosixStorageEnv();
  opts.storage_env = posix;
  opts.storage_env.open_file =
      [&](const std::string& file) -> Result<std::unique_ptr<File>> {
    CRIMSON_ASSIGN_OR_RETURN(std::unique_ptr<File> base,
                             posix.open_file(file));
    return std::unique_ptr<File>(
        new RendezvousFile(std::move(base), &rendezvous));
  };
  auto session = std::move(Crimson::Open(opts)).value();
  // Binding a third tree warms the pages every bind shares (catalog,
  // index roots, the heap pages holding the blob stubs), so the armed
  // misses below are each thread's own overflow pages.
  ASSERT_TRUE(session->OpenTree("warm").ok());
  rendezvous.Arm();

  Result<TreeRef> refs[2] = {Status::Internal("not bound"),
                             Status::Internal("not bound")};
  const char* names[2] = {"a", "b"};
  std::vector<std::thread> binders;
  for (int i = 0; i < 2; ++i) {
    binders.emplace_back([&, i] { refs[i] = session->OpenTree(names[i]); });
  }
  for (auto& t : binders) t.join();
  EXPECT_TRUE(rendezvous.met())
      << "a cold miss never overlapped the other thread's";
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(refs[i].ok()) << refs[i].status();
    auto tree = session->GetTree(*refs[i]);
    ASSERT_TRUE(tree.ok());
    EXPECT_TRUE(
        PhyloTree::Equal(**tree, stored[names[i]], 1e-9, /*ordered=*/true));
  }
  session.reset();
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Query-history buffering
// ---------------------------------------------------------------------------

uint64_t PersistedHistoryRows(Crimson* session) {
  auto table = session->database()->OpenTable("queries");
  EXPECT_TRUE(table.ok());
  return table.ok() ? table->row_count() : 0;
}

TEST(SnapshotSessionTest, HistoryIsBufferedAndMergedIntoQueryHistory) {
  auto session = std::move(Crimson::Open({})).value();
  GoldTree gold = MakeGold(32, 0xFACE, /*with_sequences=*/false);
  auto load = session->LoadTree("t", gold.tree);
  ASSERT_TRUE(load.ok());

  ASSERT_TRUE(session->Execute(load->ref, LcaQuery{"S1", "S2"}).ok());
  ASSERT_TRUE(session->Execute(load->ref, CladeQuery{{"S1", "S2"}}).ok());
  ASSERT_TRUE(
      session->Execute(load->ref, ProjectQuery{{"S0", "S1", "S3"}}).ok());

  // Read-only queries never entered the writer path: nothing persisted
  // yet, but QueryHistory merges the buffer seamlessly.
  EXPECT_EQ(PersistedHistoryRows(session.get()), 0u);
  auto hist = session->QueryHistory(10);
  ASSERT_TRUE(hist.ok());
  ASSERT_EQ(hist->size(), 3u);
  EXPECT_EQ((*hist)[0].kind, "project");
  EXPECT_EQ((*hist)[1].kind, "clade");
  EXPECT_EQ((*hist)[2].kind, "lca");
  EXPECT_EQ((*hist)[0].query_id, 3);
  EXPECT_EQ((*hist)[2].query_id, 1);

  // RerunQuery resolves buffered entries too (the mid-flush window is
  // closed by the flush lock).
  auto rerun = session->RerunQuery(1);
  ASSERT_TRUE(rerun.ok()) << rerun.status();

  // An explicit Flush drains the buffer; ids and order are unchanged.
  ASSERT_TRUE(session->Flush().ok());
  EXPECT_GE(PersistedHistoryRows(session.get()), 3u);
  auto after = session->QueryHistory(10);
  ASSERT_TRUE(after.ok());
  ASSERT_GE(after->size(), 3u);
  EXPECT_EQ(after->back().query_id, 1);
  EXPECT_EQ(after->back().kind, "lca");
}

TEST(SnapshotSessionTest, WriterPathDrainsHistoryBuffer) {
  auto session = std::move(Crimson::Open({})).value();
  GoldTree gold = MakeGold(32, 0xFACE, /*with_sequences=*/false);
  auto load = session->LoadTree("t", gold.tree);
  ASSERT_TRUE(load.ok());

  ASSERT_TRUE(session->Execute(load->ref, LcaQuery{"S1", "S2"}).ok());
  ASSERT_TRUE(session->Execute(load->ref, CladeQuery{{"S1", "S2"}}).ok());
  EXPECT_EQ(PersistedHistoryRows(session.get()), 0u);

  // The next write transaction carries the buffered entries with it.
  GoldTree gold2 = MakeGold(24, 0xFACE + 1, /*with_sequences=*/false);
  ASSERT_TRUE(session->LoadTree("t2", gold2.tree).ok());
  EXPECT_EQ(PersistedHistoryRows(session.get()), 2u);

  auto hist = session->QueryHistory(10);
  ASSERT_TRUE(hist.ok());
  ASSERT_EQ(hist->size(), 2u);
  EXPECT_EQ((*hist)[0].kind, "clade");
  EXPECT_EQ((*hist)[1].kind, "lca");
}

TEST(SnapshotSessionTest, BufferCapTriggersOpportunisticFlush) {
  CrimsonOptions opts;
  opts.history_buffer_cap = 4;
  auto session = std::move(Crimson::Open(opts)).value();
  GoldTree gold = MakeGold(32, 0xFACE, /*with_sequences=*/false);
  auto load = session->LoadTree("t", gold.tree);
  ASSERT_TRUE(load.ok());

  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(session->Execute(load->ref, LcaQuery{"S1", "S3"}).ok());
  }
  // Two cap crossings flushed synchronously (the writer lock was free).
  EXPECT_GE(PersistedHistoryRows(session.get()), 8u);

  auto hist = session->QueryHistory(20);
  ASSERT_TRUE(hist.ok());
  ASSERT_EQ(hist->size(), 10u);
  for (size_t i = 0; i < hist->size(); ++i) {
    EXPECT_EQ((*hist)[i].query_id, static_cast<int64_t>(10 - i));
  }
}

TEST(SnapshotSessionTest, HistorySurvivesReopenWithOrderAndIdsIntact) {
  constexpr const char* kPath = "/tmp/crimson_snapshot_history.db";
  std::remove(kPath);
  GoldTree gold = MakeGold(32, 0xFACE, /*with_sequences=*/false);
  {
    CrimsonOptions opts;
    opts.db_path = kPath;
    auto session = std::move(Crimson::Open(opts)).value();
    auto load = session->LoadTree("t", gold.tree);
    ASSERT_TRUE(load.ok());
    ASSERT_TRUE(session->Execute(load->ref, LcaQuery{"S1", "S2"}).ok());
    ASSERT_TRUE(session->Execute(load->ref, CladeQuery{{"S1", "S2"}}).ok());
    ASSERT_TRUE(
        session->Execute(load->ref, ProjectQuery{{"S0", "S1", "S3"}}).ok());
    // No explicit flush: session teardown must not lose the buffer.
  }
  CrimsonOptions opts;
  opts.db_path = kPath;
  auto session = std::move(Crimson::Open(opts)).value();
  auto hist = session->QueryHistory(10);
  ASSERT_TRUE(hist.ok());
  ASSERT_EQ(hist->size(), 3u);
  EXPECT_EQ((*hist)[0].query_id, 3);
  EXPECT_EQ((*hist)[0].kind, "project");
  EXPECT_EQ((*hist)[2].query_id, 1);
  EXPECT_EQ((*hist)[2].kind, "lca");

  // Replay works from persisted entries, and new entries continue the
  // id sequence instead of reusing ids.
  ASSERT_TRUE(session->RerunQuery(1).ok());
  auto after = session->QueryHistory(10);
  ASSERT_TRUE(after.ok());
  ASSERT_GT(after->size(), 3u);
  EXPECT_EQ((*after)[0].query_id, static_cast<int64_t>(after->size()));
}

TEST(SnapshotSessionTest, StressHistoryKeepsOrderUnderConcurrentQueries) {
  CrimsonOptions opts;
  opts.history_buffer_cap = 16;
  auto session = std::move(Crimson::Open(opts)).value();
  GoldTree gold = MakeGold(48, 0xFACE, /*with_sequences=*/false);
  auto load = session->LoadTree("t", gold.tree);
  ASSERT_TRUE(load.ok());
  TreeRef ref = load->ref;

  constexpr int kThreads = 6;
  constexpr int kPerThread = 50;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        if (!session->Execute(ref, LcaQuery{"S1", "S3"}).ok()) ++failures;
        if (!session->QueryHistory(8).ok()) ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);

  ASSERT_TRUE(session->Flush().ok());
  auto hist = session->QueryHistory(kThreads * kPerThread + 10);
  ASSERT_TRUE(hist.ok());
  ASSERT_EQ(hist->size(), static_cast<size_t>(kThreads * kPerThread));
  // Newest first, every id present exactly once: the buffer/storage
  // merge lost nothing and preserved replay order.
  for (size_t i = 0; i < hist->size(); ++i) {
    EXPECT_EQ((*hist)[i].query_id,
              static_cast<int64_t>(hist->size() - i));
  }
}

}  // namespace
}  // namespace crimson
