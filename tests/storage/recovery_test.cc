// Crash recovery tests.
//
// Storage level: transaction atomicity (commit survives a crash,
// uncommitted work disappears), in-session abort, checkpoint
// truncation, durability-off compatibility, and large transactions
// that spill past the buffer pool.
//
// Session level: the crash-point suites run a real workload (StoreTree
// ingest, RunExperiment persistence) against a
// fault-injection disk, crash at *every* write/sync boundary, reopen,
// and assert the database recovers to the pre- or post-commit state --
// verified byte-for-byte through all six query kinds plus the
// persisted experiment rows. `*Stress*` variants (ctest -C stress -L
// stress) scale the trees and grids up.

#include "storage/recovery.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/coding.h"
#include "crimson/crimson.h"
#include "fault_injection.h"
#include "sim/seq_evolve.h"
#include "sim/tree_sim.h"
#include "storage/database.h"
#include "storage/wal.h"

namespace crimson {
namespace {

// ---------------------------------------------------------------------------
// Storage-level transaction + recovery tests
// ---------------------------------------------------------------------------

constexpr const char* kDbPath = "crash.db";

DatabaseOptions DurableOptions(test::FaultInjectionEnv* env,
                               size_t pool_pages = 64) {
  DatabaseOptions opts;
  opts.buffer_pool_pages = pool_pages;
  opts.durability = Durability::kCommit;
  opts.env = env->env();
  return opts;
}

Schema KvSchema() {
  return Schema({{"id", ColumnType::kInt64}, {"payload", ColumnType::kString}});
}

Result<Table> OpenOrCreateKv(Database* db) {
  auto has = db->HasTable("kv");
  if (has.ok() && *has) return db->OpenTable("kv");
  return db->CreateTable("kv", KvSchema(),
                         {{"kv_by_id", "id", /*unique=*/true}});
}

std::map<int64_t, std::string> ReadAll(Table* table) {
  std::map<int64_t, std::string> out;
  EXPECT_TRUE(table
                  ->Scan([&](const RecordId&, const Row& row) {
                    out[std::get<int64_t>(row[0])] =
                        std::get<std::string>(row[1]);
                    return true;
                  })
                  .ok());
  return out;
}

TEST(DatabaseTxnTest, CommittedTxnSurvivesCrash) {
  test::FaultInjectionEnv env;
  {
    auto db = std::move(Database::Open(kDbPath, DurableOptions(&env))).value();
    auto txn = db->Begin();
    ASSERT_TRUE(txn.ok());
    auto table = OpenOrCreateKv(db.get());
    ASSERT_TRUE(table.ok());
    for (int64_t i = 0; i < 20; ++i) {
      ASSERT_TRUE(table->Insert({i, std::string(100, 'v')}).ok());
    }
    ASSERT_TRUE(txn->Commit().ok());
    // Crash: drop the database without Flush/Checkpoint.
  }
  env.CrashToDurable();
  // The data file never synced: only WAL replay can restore its header.
  ASSERT_LT(env.FileContents(kDbPath).size(), kHeaderBytes);
  {
    auto db =
        std::move(Database::Open(kDbPath, DurableOptions(&env))).value();
    auto table = db->OpenTable("kv");
    ASSERT_TRUE(table.ok()) << table.status();
    EXPECT_EQ(ReadAll(&*table).size(), 20u);
  }
  // Replay rebuilt the header from the WAL's header image at the
  // current format version, so the file reopens.
  const std::string file = env.FileContents(kDbPath);
  ASSERT_GE(file.size(), kPageSize);
  EXPECT_EQ(DecodeFixed32(file.data() + kHeaderFormatVersionOffset),
            kFormatVersion);
  auto db = Database::Open(kDbPath, DurableOptions(&env));
  ASSERT_TRUE(db.ok()) << db.status();
  auto table = (*db)->OpenTable("kv");
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ(ReadAll(&*table).size(), 20u);
}

TEST(DatabaseTxnTest, UncommittedTxnDisappearsOnCrash) {
  test::FaultInjectionEnv env;
  {
    auto db = std::move(Database::Open(kDbPath, DurableOptions(&env))).value();
    {
      auto txn = db->Begin();
      ASSERT_TRUE(txn.ok());
      auto table = OpenOrCreateKv(db.get());
      ASSERT_TRUE(table.ok());
      ASSERT_TRUE(table->Insert({1, "committed"}).ok());
      ASSERT_TRUE(txn->Commit().ok());
    }
    auto txn = db->Begin();
    ASSERT_TRUE(txn.ok());
    auto table = db->OpenTable("kv");
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(table->Insert({2, "uncommitted"}).ok());
    // Crash with the txn open: neither Commit nor clean shutdown.
  }
  env.CrashToDurable();
  auto db = std::move(Database::Open(kDbPath, DurableOptions(&env))).value();
  auto table = db->OpenTable("kv");
  ASSERT_TRUE(table.ok());
  auto rows = ReadAll(&*table);
  EXPECT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows.count(1), 1u);
}

TEST(DatabaseTxnTest, AbortRollsBackInSession) {
  test::FaultInjectionEnv env;
  auto db = std::move(Database::Open(kDbPath, DurableOptions(&env))).value();
  {
    auto txn = db->Begin();
    ASSERT_TRUE(txn.ok());
    auto table = OpenOrCreateKv(db.get());
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(table->Insert({1, "gone"}).ok());
    txn->Abort();
  }
  auto has = db->HasTable("kv");
  ASSERT_TRUE(has.ok());
  EXPECT_FALSE(*has) << "aborted CreateTable must not linger";
  // The engine keeps working after the rollback.
  auto txn = db->Begin();
  ASSERT_TRUE(txn.ok());
  auto table = OpenOrCreateKv(db.get());
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(table->Insert({7, "kept"}).ok());
  ASSERT_TRUE(txn->Commit().ok());
  EXPECT_EQ(ReadAll(&*table).count(7), 1u);
}

TEST(DatabaseTxnTest, MutationOutsideTxnRejected) {
  test::FaultInjectionEnv env;
  auto db = std::move(Database::Open(kDbPath, DurableOptions(&env))).value();
  auto table = [&] {
    auto txn = db->Begin();
    EXPECT_TRUE(txn.ok());
    auto t = OpenOrCreateKv(db.get());
    EXPECT_TRUE(txn->Commit().ok());
    return t;
  }();
  ASSERT_TRUE(table.ok());
  auto insert = table->Insert({1, "naked"});
  ASSERT_FALSE(insert.ok());
  EXPECT_TRUE(insert.status().IsFailedPrecondition()) << insert.status();
}

TEST(DatabaseTxnTest, CheckpointTruncatesWalAndSkipsReplay) {
  test::FaultInjectionEnv env;
  const std::string seg1 = WalSegmentPath(std::string(kDbPath) + "-wal", 1);
  {
    auto db = std::move(Database::Open(kDbPath, DurableOptions(&env))).value();
    auto txn = db->Begin();
    ASSERT_TRUE(txn.ok());
    auto table = OpenOrCreateKv(db.get());
    ASSERT_TRUE(table.ok());
    for (int64_t i = 0; i < 50; ++i) {
      ASSERT_TRUE(table->Insert({i, std::string(200, 'c')}).ok());
    }
    ASSERT_TRUE(txn->Commit().ok());
    EXPECT_GT(env.FileContents(seg1).size(), kWalSegmentHeaderSize);
    ASSERT_TRUE(db->Checkpoint().ok());
    EXPECT_EQ(env.FileContents(seg1).size(), kWalSegmentHeaderSize);
  }
  env.CrashToDurable();  // checkpoint made the data file itself durable
  auto db = std::move(Database::Open(kDbPath, DurableOptions(&env))).value();
  auto table = db->OpenTable("kv");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(ReadAll(&*table).size(), 50u);
}

TEST(DatabaseTxnTest, ConcurrentCommitsEachIssueOneFsync) {
  // The writer epoch serializes commits, so however many threads
  // commit, every commit costs exactly one log fdatasync.
  test::FaultInjectionEnv env;
  constexpr int kThreads = 4;
  constexpr int kTxnsPerThread = 25;
  {
    auto db = std::move(Database::Open(kDbPath, DurableOptions(&env))).value();
    {
      auto txn = db->Begin();
      ASSERT_TRUE(txn.ok());
      ASSERT_TRUE(OpenOrCreateKv(db.get()).ok());
      ASSERT_TRUE(txn->Commit().ok());
    }
    obs::Counter* fsyncs = db->metrics()->GetCounter("storage.wal.fsyncs");
    const uint64_t fsyncs_before = fsyncs->value();
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kTxnsPerThread; ++i) {
          auto txn = db->Begin();
          if (!txn.ok()) {
            ++failures;
            return;
          }
          auto table = db->OpenTable("kv");
          const int64_t id = t * kTxnsPerThread + i;
          if (!table.ok() || !table->Insert({id, "row"}).ok() ||
              !txn->Commit().ok()) {
            ++failures;
            return;
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    ASSERT_EQ(failures.load(), 0);
    EXPECT_EQ(fsyncs->value() - fsyncs_before,
              static_cast<uint64_t>(kThreads * kTxnsPerThread));
    EXPECT_EQ(db->wal()->durable_lsn(), db->wal()->appended_lsn());
  }
  env.CrashToDurable();
  auto db = std::move(Database::Open(kDbPath, DurableOptions(&env))).value();
  auto table = db->OpenTable("kv");
  ASSERT_TRUE(table.ok()) << table.status();
  std::map<int64_t, std::string> rows = ReadAll(&*table);
  ASSERT_EQ(rows.size(), static_cast<size_t>(kThreads * kTxnsPerThread));
  EXPECT_EQ(rows.begin()->first, 0);
  EXPECT_EQ(rows.rbegin()->first, kThreads * kTxnsPerThread - 1);
}

TEST(DatabaseTxnTest, DurabilityOffReplaysLeftoverWalOnOpen) {
  test::FaultInjectionEnv env;
  {
    auto db = std::move(Database::Open(kDbPath, DurableOptions(&env))).value();
    auto txn = db->Begin();
    ASSERT_TRUE(txn.ok());
    auto table = OpenOrCreateKv(db.get());
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(table->Insert({11, "from-wal"}).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  env.CrashToDurable();
  DatabaseOptions off;
  off.env = env.env();  // durability defaults to kOff
  auto db = std::move(Database::Open(kDbPath, off)).value();
  EXPECT_FALSE(db->durable());
  auto table = db->OpenTable("kv");
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ(ReadAll(&*table).count(11), 1u);
  // The consumed WAL is gone: a later durable open must not replay it.
  auto exists =
      env.env().file_exists(WalSegmentPath(std::string(kDbPath) + "-wal", 1));
  ASSERT_TRUE(exists.ok());
  EXPECT_FALSE(*exists);
}

TEST(DatabaseTxnTest, LegacyDatabaseUpgradesToDurable) {
  test::FaultInjectionEnv env;
  {
    DatabaseOptions off;
    off.env = env.env();
    auto db = std::move(Database::Open(kDbPath, off)).value();
    auto txn = db->Begin();  // inert
    ASSERT_TRUE(txn.ok());
    auto table = OpenOrCreateKv(db.get());
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(table->Insert({5, "legacy"}).ok());
    ASSERT_TRUE(txn->Commit().ok());
    ASSERT_TRUE(db->Flush().ok());
  }
  auto db = std::move(Database::Open(kDbPath, DurableOptions(&env))).value();
  EXPECT_TRUE(db->durable());
  auto table = db->OpenTable("kv");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(ReadAll(&*table).count(5), 1u);
  auto txn = db->Begin();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(table->Insert({6, "durable"}).ok());
  ASSERT_TRUE(txn->Commit().ok());
}

TEST(DatabaseTxnTest, HugeTxnSpillsPastPoolAndRecovers) {
  test::FaultInjectionEnv env;
  // 8-frame pool, one transaction touching ~100 fresh pages: the pool
  // must spill new-in-txn pages (logging their images first) instead
  // of failing, and the commit must still be atomic.
  {
    auto db = std::move(
                  Database::Open(kDbPath, DurableOptions(&env, /*pool=*/8)))
                  .value();
    auto txn = db->Begin();
    ASSERT_TRUE(txn.ok());
    auto table = OpenOrCreateKv(db.get());
    ASSERT_TRUE(table.ok());
    for (int64_t i = 0; i < 300; ++i) {
      ASSERT_TRUE(table->Insert({i, std::string(1500, 'p')}).ok())
          << "row " << i;
    }
    ASSERT_TRUE(txn->Commit().ok());
  }
  env.CrashToDurable();
  auto db =
      std::move(Database::Open(kDbPath, DurableOptions(&env, 8))).value();
  auto table = db->OpenTable("kv");
  ASSERT_TRUE(table.ok());
  auto rows = ReadAll(&*table);
  ASSERT_EQ(rows.size(), 300u);
  EXPECT_EQ(rows[299], std::string(1500, 'p'));
}

// ---------------------------------------------------------------------------
// Session-level crash-point suites
// ---------------------------------------------------------------------------

/// Deterministic fixtures.
struct Gold {
  PhyloTree alpha;
  std::map<std::string, std::string> alpha_seqs;
  PhyloTree beta;
};

Gold MakeGold(uint32_t alpha_leaves, uint32_t beta_leaves) {
  Gold g;
  Rng rng(0xC0FFEE);
  YuleOptions a;
  a.n_leaves = alpha_leaves;
  g.alpha = std::move(SimulateYule(a, &rng)).value();
  SeqEvolveOptions seq_opts;
  seq_opts.seq_length = 120;
  auto evolver = SequenceEvolver::Create(seq_opts);
  g.alpha_seqs = std::move(evolver->EvolveLeaves(g.alpha, &rng)).value();
  YuleOptions b;
  b.n_leaves = beta_leaves;
  b.leaf_prefix = "B";
  g.beta = std::move(SimulateYule(b, &rng)).value();
  return g;
}

enum class Phase2 { kStoreTree, kExperiment };
enum class CrashPolicy { kKeepAllWrites, kDropUnsynced };

CrimsonOptions SessionOptions(test::FaultInjectionEnv* env) {
  CrimsonOptions opts;
  opts.db_path = kDbPath;
  opts.storage_env = env->env();
  opts.durability = Durability::kCommit;
  opts.buffer_pool_pages = 64;  // small pool: ingest must spill
  opts.seed = 7;
  opts.batch_workers = 1;
  return opts;
}

ExperimentSpec SmallSpec() {
  ExperimentSpec spec;
  spec.algorithms = {"nj"};
  SelectionSpec sel;
  sel.kind = SelectionSpec::Kind::kUniform;
  sel.k = 8;
  spec.selections = {sel};
  spec.replicates = 1;
  spec.compute_triplets = false;
  return spec;
}

Status RunPhase2(Crimson* session, Phase2 variant, const Gold& gold) {
  switch (variant) {
    case Phase2::kStoreTree:
      return session->LoadTree("beta", gold.beta).status();
    case Phase2::kExperiment: {
      auto ref = session->OpenTree("alpha");
      CRIMSON_RETURN_IF_ERROR(ref.status());
      return session->RunExperiment(*ref, SmallSpec()).status();
    }
  }
  return Status::Internal("unreachable");
}

/// Renders one tree's answers to all six query kinds. Tickets align
/// across sessions because every verification session is freshly
/// opened and issues the identical query sequence.
void FingerprintTree(Crimson* session, const std::string& name,
                     std::ostringstream* out) {
  auto ref = session->OpenTree(name);
  ASSERT_TRUE(ref.ok()) << ref.status();
  auto tree = session->GetTree(*ref);
  ASSERT_TRUE(tree.ok());
  std::vector<std::string> leaves;
  for (NodeId n : (*tree)->Leaves()) leaves.emplace_back((*tree)->name(n));
  ASSERT_GE(leaves.size(), 6u);
  std::vector<QueryRequest> requests = {
      LcaQuery{leaves.front(), leaves.back()},
      ProjectQuery{{leaves[0], leaves[1], leaves[2], leaves[3]}},
      SampleUniformQuery{5},
      SampleTimeQuery{4, 0.5},
      CladeQuery{{leaves[1], leaves[3], leaves[5]}},
      PatternQuery{"(" + leaves[0] + "," + leaves[2] + ");", false},
  };
  *out << "tree " << name << "\n";
  for (const QueryRequest& request : requests) {
    auto result = session->Execute(*ref, request);
    ASSERT_TRUE(result.ok()) << result.status();
    *out << RenderResult(*result) << "\n";
  }
}

/// Logical fingerprint of the whole database: tree metadata, all six
/// query kinds per tree, and every persisted experiment row (scores,
/// not timings).
std::string DbFingerprint(test::FaultInjectionEnv* env) {
  std::ostringstream out;
  auto session = Crimson::Open(SessionOptions(env));
  EXPECT_TRUE(session.ok()) << session.status();
  if (!session.ok()) return "<open failed>";
  auto trees = (*session)->ListTrees();
  EXPECT_TRUE(trees.ok());
  std::set<std::string> names;
  for (const TreeInfo& info : *trees) {
    out << "meta " << info.name << " nodes=" << info.n_nodes
        << " leaves=" << info.n_leaves << " f=" << info.f << "\n";
    names.insert(info.name);
  }
  for (const std::string& name : {std::string("alpha"), std::string("beta")}) {
    if (names.count(name)) FingerprintTree(session->get(), name, &out);
  }
  // Experiment rows straight from storage (atomicity check: either the
  // whole experiment -- spec, runs, cells -- or nothing).
  auto repo = ExperimentRepository::Open((*session)->database());
  EXPECT_TRUE(repo.ok());
  auto experiments = (*repo)->ListExperiments();
  EXPECT_TRUE(experiments.ok());
  for (const auto& row : *experiments) {
    out << "experiment " << row.experiment_id << " tree=" << row.tree_name
        << " spec=" << row.spec << " seed=" << row.seed
        << " ticket=" << row.base_ticket << "\n";
    auto runs = (*repo)->RunsFor(row.experiment_id);
    EXPECT_TRUE(runs.ok());
    for (const auto& run : *runs) {
      out << "run " << run.ordinal << " " << run.algorithm
          << " sel=" << run.selection_index << " rep=" << run.replicate
          << " n=" << run.sample_size << " rf=" << run.rf_distance << "/"
          << run.rf_splits_a << "/" << run.rf_splits_b << " rfn="
          << run.rf_normalized << " trip=" << run.triplet_differing << "/"
          << run.triplet_total << "\n";
    }
    auto cells = (*repo)->CellsFor(row.experiment_id);
    EXPECT_TRUE(cells.ok());
    for (const auto& cell : *cells) {
      out << "cell " << cell.ordinal << " " << cell.algorithm
          << " sel=" << cell.selection_index << " reps=" << cell.replicates
          << " rf=" << cell.mean_rf_normalized << "/"
          << cell.min_rf_normalized << "/" << cell.max_rf_normalized << "\n";
    }
  }
  return out.str();
}

/// Loads the phase-1 state (tree alpha + sequences) and closes cleanly.
void RunPhase1(test::FaultInjectionEnv* env, const Gold& gold) {
  auto session = Crimson::Open(SessionOptions(env));
  ASSERT_TRUE(session.ok()) << session.status();
  ASSERT_TRUE((*session)->LoadTree("alpha", gold.alpha).ok());
  ASSERT_TRUE((*session)->AppendSpeciesData("alpha", gold.alpha_seqs).ok());
}

/// Crashes the phase-2 workload at every injected fault point, reopens,
/// and requires the recovered database to fingerprint as either the
/// pre- or the post-commit state.
void RunCrashPointSuite(Phase2 variant, CrashPolicy policy, bool torn,
                        uint32_t alpha_leaves, uint32_t beta_leaves,
                        uint64_t fault_step = 1) {
  const Gold gold = MakeGold(alpha_leaves, beta_leaves);

  // Baselines from uncrashed runs.
  std::string pre_print;
  std::string post_print;
  {
    test::FaultInjectionEnv env;
    RunPhase1(&env, gold);
    pre_print = DbFingerprint(&env);
  }
  {
    test::FaultInjectionEnv env;
    RunPhase1(&env, gold);
    {
      auto session = Crimson::Open(SessionOptions(&env));
      ASSERT_TRUE(session.ok());
      ASSERT_TRUE(RunPhase2(session->get(), variant, gold).ok());
    }
    post_print = DbFingerprint(&env);
  }
  ASSERT_NE(pre_print, post_print);

  uint64_t pre_hits = 0;
  uint64_t post_hits = 0;
  bool completed_without_fault = false;
  for (uint64_t fault = 1; !completed_without_fault; fault += fault_step) {
    ASSERT_LT(fault, 100000u) << "crash loop failed to terminate";
    test::FaultInjectionEnv env;
    RunPhase1(&env, gold);
    env.ResetOpCount();
    env.ArmFailPoint(fault, torn);
    {
      auto session = Crimson::Open(SessionOptions(&env));
      if (session.ok()) {
        // The workload may fail (crash point hit) or succeed (fault
        // point beyond the workload); both are valid outcomes.
        RunPhase2(session->get(), variant, gold).ok();
      }
    }
    completed_without_fault = !env.triggered();
    env.Disarm();
    if (policy == CrashPolicy::kDropUnsynced) env.CrashToDurable();

    std::string print = DbFingerprint(&env);
    if (print == pre_print) {
      ++pre_hits;
    } else if (print == post_print) {
      ++post_hits;
    } else {
      FAIL() << "fault point " << fault
             << " recovered to a state that is neither pre- nor "
                "post-commit:\n"
             << print;
    }
    if (completed_without_fault) {
      EXPECT_EQ(print, post_print)
          << "fault-free run must land in the post state";
    }
  }
  // Sanity: the sweep saw both sides of the commit point.
  EXPECT_GT(pre_hits, 0u);
  EXPECT_GT(post_hits, 0u);
}

TEST(RecoveryCrashPoints, StoreTreeKeepAllWrites) {
  RunCrashPointSuite(Phase2::kStoreTree, CrashPolicy::kKeepAllWrites,
                     /*torn=*/false, /*alpha=*/12, /*beta=*/24);
}

TEST(RecoveryCrashPoints, StoreTreeDropUnsynced) {
  RunCrashPointSuite(Phase2::kStoreTree, CrashPolicy::kDropUnsynced,
                     /*torn=*/false, /*alpha=*/12, /*beta=*/24);
}

TEST(RecoveryCrashPoints, ExperimentPersistence) {
  RunCrashPointSuite(Phase2::kExperiment, CrashPolicy::kDropUnsynced,
                     /*torn=*/false, /*alpha=*/12, /*beta=*/8);
}

TEST(RecoveryCrashPoints, TornWrites) {
  RunCrashPointSuite(Phase2::kStoreTree, CrashPolicy::kKeepAllWrites,
                     /*torn=*/true, /*alpha=*/12, /*beta=*/20);
}

// Stress variants: bigger trees (the ingest spans many spilled pages),
// a 2x2 experiment grid, every policy.
TEST(RecoveryCrashPointsStress, StoreTreeStress) {
  RunCrashPointSuite(Phase2::kStoreTree, CrashPolicy::kDropUnsynced,
                     /*torn=*/false, /*alpha=*/24, /*beta=*/400,
                     /*fault_step=*/5);
}

TEST(RecoveryCrashPointsStress, StoreTreeTornStress) {
  RunCrashPointSuite(Phase2::kStoreTree, CrashPolicy::kKeepAllWrites,
                     /*torn=*/true, /*alpha=*/24, /*beta=*/200,
                     /*fault_step=*/4);
}

TEST(RecoveryCrashPointsStress, ExperimentStress) {
  RunCrashPointSuite(Phase2::kExperiment, CrashPolicy::kDropUnsynced,
                     /*torn=*/false, /*alpha=*/32, /*beta=*/8,
                     /*fault_step=*/2);
}

}  // namespace
}  // namespace crimson
