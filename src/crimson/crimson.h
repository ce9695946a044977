// Crimson: the public entry point. Wires the repository manager
// (storage engine + repositories), the query processors (LCA,
// projection, sampling, clade, pattern match over the layered-Dewey
// index), and the benchmark manager together -- the architecture of the
// paper's Figure 3, with the GUI replaced by this API and the example
// CLI programs (see DESIGN.md substitutions).
//
// Session model: trees are bound once to an opaque TreeRef handle
// (LoadNewick/LoadNexus/LoadTree/OpenTree), and queries, exports and
// renders take that handle. A TreeRef carries the stored tree's id,
// which is never reused: the session keys its handles and result
// cache by it, and a name is resolved to an id only at OpenTree.
// Writes reach a stored tree the same way: an append of species data
// resolves the bound handle's tree and name index, never the stored
// tree by name. Every structure query is a typed
// QueryRequest run through one private per-query pipeline:
// (tree id, canonical request) key -> cache probe -> execute -> cache
// insert -> trace publish. Execute runs it on the calling thread and
// appends the history row inside the query's trace; ExecuteBatch runs
// it per request on the worker pool and appends the rows in request
// order after the barrier. Evaluation follows the same shape:
// RunExperiment executes a serializable ExperimentSpec (algorithm
// registry names x selection grid x replicates): it draws every job's
// sample, reads the sampled species' sequences under one read
// snapshot, fans reconstruction out on the worker pool, and persists
// the spec and scores; RerunExperiment replays stored workloads
// byte-identically.
//
// The session is thread-safe AND read-concurrent:
// the name map and bound trees are guarded by a shared_mutex and
// changed only by the writer path after a commit, storage writes hold
// the storage lock exclusively, while storage *reads* (cold OpenTree
// binds, label-scheme loads, sequence fetches, history/experiment
// lookups) take a Database read snapshot instead of any session-wide
// lock -- readers neither queue behind each other NOR behind the
// single writer; a query racing a 60k-node StoreTree observes the
// pre-commit state byte-identically. Query history is buffered in
// memory and drained by the session's history flusher thread or the
// next write (see history_buffer_cap), so read-only queries never
// enter the writer epoch nor wait on a WAL sync (see DESIGN.md
// "Concurrency" and the README thread-safety table). Query execution
// itself touches only immutable per-tree state.

#ifndef CRIMSON_CRIMSON_CRIMSON_H_
#define CRIMSON_CRIMSON_CRIMSON_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cache/query_cache.h"
#include "common/random.h"
#include "common/result.h"
#include "common/span.h"
#include "common/thread_pool.h"
#include "crimson/benchmark_manager.h"
#include "crimson/data_loader.h"
#include "crimson/experiment_spec.h"
#include "crimson/query_request.h"
#include "crimson/repositories.h"
#include "crimson/tree_ref.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/clade.h"
#include "query/pattern_match.h"
#include "storage/database.h"

namespace crimson {

struct CrimsonOptions {
  /// Database file path; empty runs fully in memory.
  std::string db_path;
  /// Buffer pool capacity in pages.
  size_t buffer_pool_pages = 4096;
  /// Layered-Dewey bound f used when indexing loaded trees.
  uint32_t f = 8;
  /// Deterministic seed for sampling queries. Every query draws from
  /// its own Rng seeded by (seed, query ticket), so results are
  /// reproducible regardless of whether queries run sequentially or
  /// batched across threads.
  uint64_t seed = 42;
  /// Worker threads backing ExecuteBatch (>= 1).
  size_t batch_workers = 4;
  /// Query-history entries buffered in memory before the session's
  /// history flusher thread drains them. History appends go to this
  /// buffer (read-only queries never enter the writer path for them);
  /// the buffer drains into the queries table inside the next write
  /// transaction, on Flush/Checkpoint, or on the flusher once it
  /// reaches this cap. A query that finds four times the cap buffered
  /// or in flight waits until a drain settles, so history held in
  /// memory stays bounded. Replay order (query id) is preserved across
  /// the buffer/storage boundary.
  size_t history_buffer_cap = 1024;
  /// Crash-durability discipline for on-disk databases (requires
  /// db_path). kOff writes pages in place without a WAL (every mode
  /// writes the same file format); kCommit wraps every repository
  /// write in a WAL transaction whose commit fsyncs the log once. On
  /// open, a committed WAL prefix left by a crash is replayed before
  /// any read.
  Durability durability = Durability::kOff;
  /// Auto-checkpoint (flush + WAL truncation) once the log exceeds
  /// this many bytes; 0 = only explicit Checkpoint()/Flush() truncate.
  uint64_t wal_checkpoint_bytes = 16ull << 20;
  /// Filesystem hooks for the database file and WAL segments; crash
  /// tests substitute a fault-injecting environment.
  StorageEnv storage_env = PosixStorageEnv();
  /// Byte budget for the session's adaptive result cache over the
  /// idempotent query kinds (LCA, projection, clade, pattern match --
  /// never sampling). Results are keyed by the never-reused tree id of
  /// an unchanging stored structure, so a hit is always byte-identical
  /// to re-executing (see DESIGN.md "Adaptive result caching"). 0
  /// disables the cache (bench baseline).
  uint64_t query_cache_bytes = 8ull << 20;
  /// Slow-query threshold in microseconds; 0 (the default) disables
  /// the slow-query log. A query whose wall time meets the threshold
  /// emits one structured line -- "slow_query total_us=... kind=...
  /// params=<canonical request encoding> status=... spans=<stage
  /// breakdown>" -- through slow_query_sink, and bumps the query.slow
  /// counter either way the sink is set.
  uint64_t slow_query_micros = 0;
  /// Destination for slow-query lines; defaults to the process log at
  /// warning level. Called inline on the query thread: keep it cheap,
  /// and do not call back into the session from it.
  std::function<void(const std::string&)> slow_query_sink;
};

/// Load result: the DataLoader's report plus the session handle for
/// the loaded tree.
struct SessionLoadReport : LoadReport {
  TreeRef ref;
};

/// Facade over the whole system. Thread-safe: any number of threads
/// may load trees and execute queries on one session concurrently.
class Crimson {
 public:
  static Result<std::unique_ptr<Crimson>> Open(
      const CrimsonOptions& options = {});

  ~Crimson();

  Crimson(const Crimson&) = delete;
  Crimson& operator=(const Crimson&) = delete;

  // -- loading (paper §3 "Loading Data") -----------------------------------

  [[nodiscard]] Result<SessionLoadReport> LoadNewick(
      const std::string& name, const std::string& newick,
      LoadMode mode = LoadMode::kTreeStructureOnly);
  /// Loads a NEXUS document. With kAppendSpeciesData the document's
  /// sequences go to the stored tree `name` (OpenTree, then the ref
  /// append below) and its TREES block is ignored.
  [[nodiscard]] Result<SessionLoadReport> LoadNexus(
      const std::string& name, const std::string& nexus,
      LoadMode mode = LoadMode::kTreeWithSpeciesData);
  [[nodiscard]] Result<SessionLoadReport> LoadTree(const std::string& name,
                                                   const PhyloTree& tree);
  /// Appends sequences to a bound tree, resolving species against the
  /// handle's in-memory tree and name index (no stored tree is read
  /// back). The ref is resolved under the writer lock, so a dropped
  /// tree gives NotFound and nothing is written. Every species must
  /// name a node of the tree; one already stored keeps its first
  /// sequence.
  [[nodiscard]] Result<LoadReport> AppendSpeciesData(
      TreeRef tree, const std::map<std::string, std::string>& sequences);
  /// OpenTree(tree_name), then the ref append above.
  [[nodiscard]] Result<LoadReport> AppendSpeciesData(
      const std::string& tree_name,
      const std::map<std::string, std::string>& sequences);

  /// Binds an already-stored tree to a handle (materializing the
  /// in-memory index on first open; afterwards a cache hit).
  [[nodiscard]] Result<TreeRef> OpenTree(const std::string& name);

  /// Drops a stored tree: structural rows, labels, AND species rows
  /// are deleted in one write transaction; before the writer lock is
  /// released the name is unmapped and the bound handle is freed, so
  /// stale TreeRefs fail with NotFound instead of serving deleted
  /// state. A tree re-stored under the same name gets a new id and so
  /// starts fresh; the dropped id's cached results are never asked for
  /// again and age out of the cache.
  [[nodiscard]] Status DropTree(const std::string& name);

  [[nodiscard]] Result<std::vector<TreeInfo>> ListTrees() const;

  /// Metadata for a bound tree.
  [[nodiscard]] Result<TreeInfo> GetTreeInfo(TreeRef tree) const;

  /// The in-memory tree for a handle; stable until the session closes
  /// or the tree is dropped (DropTree frees the handle's state once
  /// the last in-flight query over it finishes).
  [[nodiscard]] Result<const PhyloTree*> GetTree(TreeRef tree) const;

  // -- the typed query layer (paper §2 queries, one pipeline) --------------

  /// Executes one typed query against a bound tree on the calling
  /// thread and records it in the query history (RerunQuery replays
  /// through here).
  [[nodiscard]] Result<QueryResult> Execute(TreeRef tree,
                                            const QueryRequest& request);

  /// Executes a list of independent read queries on the worker pool.
  /// Results (including sampling draws) are byte-identical to running
  /// the same list sequentially through Execute: each request is
  /// assigned its query ticket in list order before dispatch.
  std::vector<Result<QueryResult>> ExecuteBatch(
      TreeRef tree, Span<const QueryRequest> requests);

  // -- the Experiment API (paper §2.2 Benchmark Manager) -------------------

  /// Runs a whole evaluation workload -- algorithm registry names x
  /// selection grid x replicates -- against a bound gold tree.
  /// Replicates fan out on the session worker pool with ticketed
  /// (seed, ticket) RNGs, so results are byte-identical to running the
  /// grid sequentially (the ExecuteBatch contract). Every job's sample
  /// is drawn first, and the sequences of all sampled species are read
  /// by ordinal under one read snapshot before reconstruction starts,
  /// so an append that commits mid-experiment is not seen by it. The
  /// spec, every BenchmarkRun's scores, and per-cell aggregates are
  /// persisted in the Experiment Repository; the returned report
  /// carries the assigned experiment id.
  [[nodiscard]] Result<ExperimentReport> RunExperiment(
      TreeRef tree, const ExperimentSpec& spec);

  /// Replays a stored experiment: decodes the persisted spec and
  /// re-runs it with the stored RNG provenance (seed + base ticket).
  /// As long as the tree's stored species data is unchanged since the
  /// experiment ran, the replay reproduces the original report
  /// byte-for-byte (scores and topologies; timings differ) on any
  /// session over the same database; sequences are read from current
  /// storage, so later sequence changes flow into the replay.
  /// Nothing new is persisted.
  [[nodiscard]] Result<ExperimentReport> RerunExperiment(
      int64_t experiment_id);

  /// All persisted experiments, oldest first.
  [[nodiscard]] Result<std::vector<ExperimentRepository::ExperimentRow>>
  ListExperiments() const;

  // -- query history (paper §2.1 Query Repository) -------------------------

  [[nodiscard]] Result<std::vector<QueryRepository::Entry>> QueryHistory(
      size_t limit = 50);

  /// Re-executes a recorded query by id: the stored typed request is
  /// decoded and replayed through Execute. Returns the fresh result
  /// rendering. Supported kinds: lca, project, sample_uniform,
  /// sample_time, clade, pattern_match -- plus "experiment" entries
  /// (replayed exactly via RerunExperiment). Any other kind is
  /// Unimplemented.
  [[nodiscard]] Result<std::string> RerunQuery(int64_t query_id);

  /// Exports a bound tree (and any stored sequences) as a NEXUS
  /// document -- the demo's "view as NEXUS" output path.
  [[nodiscard]] Result<std::string> ExportNexus(TreeRef tree);

  /// Renders a bound tree as an ASCII dendrogram -- the library
  /// stand-in for the demo's Walrus viewer.
  [[nodiscard]] Result<std::string> RenderTree(TreeRef tree,
                                               size_t max_nodes = 512);

  /// Persists all state to disk (no-op for in-memory databases). With
  /// durability on this is a full checkpoint. Also invoked on session
  /// destruction, so a dropped session never loses dirty pages.
  Status Flush();

  /// Durable truncation point: flushes all dirty pages, fsyncs the
  /// database file, and truncates the write-ahead log. No-op content
  /// with durability off (equivalent to Flush).
  Status Checkpoint();

  /// The session's metrics registry. Every layer under this session --
  /// storage engine, result cache, query dispatch, experiments, and any
  /// server front door -- writes into it. Valid for the session's
  /// lifetime; callers may resolve and cache cells.
  obs::MetricsRegistry* metrics() const { return metrics_.get(); }

  /// Point-in-time copy of every session metric, with the live MVCC
  /// gauges refreshed first. The wire stats frame carries exactly this
  /// snapshot.
  obs::MetricsSnapshot SnapshotMetrics() const;

  Database* database() { return db_.get(); }
  /// The current species repository. The pointer stays valid until the
  /// next repository reopen (a failed durable write), so callers
  /// should not cache it across writes.
  SpeciesRepository* species_repository() { return Repos()->species.get(); }

 private:
  Crimson() = default;

  /// Immutable per-tree state: built once per bind (the species
  /// ordinals on first use), then shared (read-only) by any number of
  /// query threads.
  struct TreeHandle {
    TreeInfo info;
    PhyloTree tree;
    LayeredDeweyScheme scheme;
    /// Interned name -> NodeId index built once per bind; shared by
    /// species resolution, the pattern matcher, user-list experiment
    /// samples, and NEXUS export.
    NameIndex names;
    /// "tree=<escaped name>", the prefix of every history row's params.
    std::string params_prefix;
    std::unique_ptr<Sampler> sampler;
    std::unique_ptr<TreeProjector> projector;
    std::unique_ptr<PatternMatcher> matcher;

    /// The species ordinal domain, built by the handle's first append
    /// or experiment (never at bind: queries do not need it).
    const SpeciesOrdinals& ordinals() const;

   private:
    mutable std::once_flag ordinals_once_;
    mutable std::unique_ptr<const SpeciesOrdinals> ordinals_;
  };

  /// The handle of a live ref: InvalidArgument for a ref this session
  /// never issued, NotFound once its tree is dropped.
  Result<std::shared_ptr<const TreeHandle>> HandleFor(TreeRef tree) const;
  /// Binds stored tree `id` (named `name`): returns the bound ref, or
  /// materializes the handle from a read snapshot and publishes it if
  /// the name still maps to `id`. NotFound once the tree is dropped.
  Result<TreeRef> BindTree(const std::string& name, int64_t id);
  /// Pure query execution on immutable handle state; safe to call
  /// concurrently. `ticket` seeds the per-query Rng for sampling.
  Result<QueryResult> ExecuteOnHandle(const TreeHandle& handle,
                                      const QueryRequest& request,
                                      uint64_t ticket) const;
  /// The per-query pipeline behind Execute and ExecuteBatch: encode,
  /// key, cache probe, ExecuteOnHandle, insert, then FinishQueryTrace.
  /// The request is encoded once (EncodeQueryBody); the cache key, the
  /// history params and the slow-query line each prefix that body.
  /// With `deferred_params` null the history row is appended inside
  /// the trace; ExecuteBatch passes a slot for the row's params instead
  /// and appends its rows itself, in request order.
  Result<QueryResult> RunQuery(const TreeHandle& handle,
                               const QueryRequest& request, uint64_t ticket,
                               std::string* deferred_params);
  /// One instance per spec algorithm name, resolved from the global
  /// registry (shared by the run and replay paths).
  static Result<std::vector<std::unique_ptr<ReconstructionAlgorithm>>>
  InstantiateAlgorithms(const ExperimentSpec& spec);
  /// Runs the spec's jobs against a bound gold tree. Job i draws from
  /// Rng(QuerySeed(seed, base_ticket + i)); the union of the samples is
  /// read under one read snapshot, then scoring fans out on the worker
  /// pool, so any worker count produces the sequential byte stream. A
  /// failure is the first failing job's, in spec order;
  /// FailedPrecondition when the tree has no species data.
  Result<ExperimentReport> RunExperimentJobs(
      const TreeHandle& handle, const ExperimentSpec& spec,
      const std::vector<std::unique_ptr<ReconstructionAlgorithm>>& instances,
      uint64_t seed, uint64_t base_ticket) const;
  /// Persists report rows and records the history entry; fills in the
  /// assigned experiment id.
  Status PersistExperiment(ExperimentReport* report);
  static Result<std::vector<NodeId>> ResolveSpecies(
      const TreeHandle& handle, const std::vector<std::string>& species);
  /// Appends one history entry to the buffer and returns; never takes
  /// db_mu_. At the cap it wakes the flusher; at four times the cap
  /// (buffer plus in-flight batch) it waits until a drain settles.
  void RecordQuery(std::string_view kind, std::string params,
                   std::string summary);
  /// History row for a structure query with its encoded params; failed
  /// queries leave none.
  void RecordQuery(const QueryRequest& request, std::string params,
                   const Result<QueryResult>& result);
  /// Publishes one finished query's trace: per-kind latency/count/
  /// result-bytes, per-stage histograms, and -- past the slow-query
  /// threshold -- the structured slow line carrying `params`. Resets
  /// `ctx` afterwards so a reused (connection-thread) context starts
  /// the next query clean.
  void FinishQueryTrace(obs::TraceContext* ctx, const std::string& params,
                        const QueryRequest& request,
                        const Result<QueryResult>& result) const;
  Result<SessionLoadReport> FinishLoad(Result<LoadReport> report);
  /// One generation of repository handles over the database. Swapped
  /// wholesale (under repos_mu_) when a failed durable write forces a
  /// reopen; readers that grabbed the previous generation finish on it
  /// safely -- its tables and trees still resolve against committed
  /// storage through their MVCC snapshots.
  struct RepoSet {
    std::unique_ptr<TreeRepository> trees;
    std::unique_ptr<SpeciesRepository> species;
    std::unique_ptr<QueryRepository> queries;
    std::unique_ptr<ExperimentRepository> experiments;
    std::unique_ptr<DataLoader> loader;
  };
  /// The current repository generation (brief repos_mu_ critical
  /// section; safe from any thread).
  std::shared_ptr<const RepoSet> Repos() const;
  /// Storage-read section: the current repositories plus a Database
  /// read snapshot. Lock-free against the writer -- a reader neither
  /// waits for nor stalls a concurrent StoreTree; its repository reads
  /// resolve against the snapshot's committed page images.
  struct StorageReadGuard {
    std::shared_ptr<const RepoSet> repos;
    Database::ReadTxn epoch;
    /// Attributes the section's lifetime to the active query trace
    /// (no-op off the query path).
    obs::SpanTimer span{obs::Stage::kStorageRead};
  };
  StorageReadGuard AcquireStorageRead() const;
  /// Runs fn (one logical repository write) inside a Txn; db_mu_ must
  /// be held exclusive. This is the one history drain: it swaps the
  /// buffer out into the in-flight batch and persists the batch in the
  /// same transaction, so buffered entries become durable with the
  /// next write. The batch stays readable until the transaction
  /// resolves (dropped once persisted, put back at the buffer's front
  /// when rolled back), so history readers never race a half-done
  /// drain. Commits on success; aborts on failure. After an abort with
  /// durability on, the repositories are reopened: their in-memory
  /// hints (heap tails, cached counts, next ids) may reflect the
  /// rolled-back writes.
  template <typename Fn>
  auto TransactLocked(Fn&& fn) -> decltype(fn());
  /// Runs a load (one DataLoader call) in a write transaction under
  /// db_mu_; once it commits, maps the report's name to its tree id,
  /// before db_mu_ is released.
  template <typename Fn>
  Result<LoadReport> WriteTree(Fn&& write);
  /// What a load of `tree` as `name` can do before WriteTree: refuse a
  /// stored name (AlreadyExists) while no writer is in flight, refuse a
  /// tree StoreTree would refuse (TreeRepository::CheckStorable), and
  /// build the tree's labels. The store under db_mu_ checks again and
  /// stays the authority when a load races a write.
  Result<LayeredDeweyScheme> PrepareLoad(const std::string& name,
                                         const PhyloTree& tree) const;
  /// Rebuilds the repository handles (and the loader over them) from
  /// current storage and publishes them as a new generation, then
  /// re-seeds the name map from the stored trees; db_mu_ must be held
  /// exclusive (or the session not yet shared).
  Status ReopenRepositoriesLocked();
  /// Synchronously drains the history buffer inside its own write
  /// transaction (no-op when empty). Takes db_mu_ exclusive.
  Status FlushHistory();
  /// The history flusher thread's loop: sleeps until the buffer
  /// reaches the cap, then FlushHistory; returns once stopped.
  void RunHistoryFlusher();

  /// The session metrics registry. Declared first: every other member
  /// (database, cache) may hold resolved cell pointers, so the registry
  /// must be destroyed last.
  std::unique_ptr<obs::MetricsRegistry> metrics_;

  CrimsonOptions options_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<ThreadPool> pool_;

  /// Query-dispatch cells, resolved once at Open (indexed by the
  /// QueryRequest variant alternative; see kQueryKindCount).
  static constexpr size_t kQueryKindCount =
      std::variant_size_v<QueryRequest>;
  struct KindCells {
    obs::Histogram* latency = nullptr;   // query.<kind>.latency_us
    obs::Counter* count = nullptr;       // query.<kind>.count
    obs::Counter* result_bytes = nullptr;  // query.<kind>.result_bytes
  };
  KindCells kind_cells_[kQueryKindCount];
  obs::Histogram* stage_hists_[obs::kStageCount] = {};  // query.stage.<s>_us
  obs::Counter* slow_queries_ = nullptr;                // query.slow
  /// Queries that found the history buffer at or over its cap, those
  /// that waited at four times it for the drain, and how long they
  /// waited.
  obs::Counter* history_buffer_full_ = nullptr;  // history.buffer_full
  obs::Counter* history_flush_waits_ = nullptr;  // history.flush_waits
  obs::Histogram* history_backpressure_ = nullptr;  // history.backpressure_us
  /// Sequences decoded for experiments, cumulative.
  obs::Counter* sequences_read_ = nullptr;  // experiment.sequences_read
  /// Live-level gauges SnapshotMetrics refreshes; resolved at Open so
  /// a fresh session's snapshot already carries every key.
  struct LiveGauges {
    obs::Gauge* pages_live_versions = nullptr;
    obs::Gauge* pages_active_snapshots = nullptr;
    obs::Gauge* pages_committed_epoch = nullptr;
  } live_;

  /// Guards the repos_ pointer swap/copy only (reopen vs. readers).
  mutable std::mutex repos_mu_;
  std::shared_ptr<const RepoSet> repos_;

  /// The storage *write* lock. Writers (loads, experiment persistence,
  /// the history flusher and Flush/Checkpoint -- everything around
  /// TransactLocked) hold it exclusive. Snapshot reads do not take it
  /// at all (see AcquireStorageRead), and neither do query threads:
  /// recording history never reaches it. Never held while executing
  /// query compute or parsing a load's input.
  mutable std::shared_mutex db_mu_;

  /// In-memory query-history buffer (see history_buffer_cap). Entries
  /// carry their final ids (next_query_id_) and timestamps at enqueue
  /// time. TransactLocked swaps the buffer out into the in-flight
  /// batch, persists it, and drops it once its transaction committed
  /// (or puts it back at the buffer's front), so an entry is always in
  /// the buffer, the in-flight batch or committed storage, and
  /// QueryHistory/RerunQuery take no lock against the drain. Lock
  /// order: db_mu_ -> history_mu_; history_mu_ is leaf-only, and a
  /// query waiting at four times the cap waits on history_drained_cv_
  /// holding nothing else.
  mutable std::mutex history_mu_;
  std::vector<QueryRepository::Entry> history_buffer_;
  /// The batch being persisted. Written only by the drain (under
  /// db_mu_ and history_mu_), so the drain reads it without history_mu_.
  std::vector<QueryRepository::Entry> history_in_flight_;
  /// A persisted batch's entries, freed by the drain outside
  /// history_mu_ (only the drain touches it, under db_mu_); its
  /// capacity goes back into circulation.
  std::vector<QueryRepository::Entry> history_spare_;
  /// Settled drains of a non-empty batch; a query waiting at four times
  /// the cap goes on once this moves.
  uint64_t history_drains_ = 0;
  std::condition_variable history_drained_cv_;
  /// Buffer size that wakes the flusher: the cap, or one past the
  /// buffer after a failed drain (retry on the next entry, never spin).
  /// Set by every settled drain.
  size_t history_flush_at_ = 0;
  bool history_flusher_stop_ = false;
  std::condition_variable history_flusher_cv_;
  /// Next history id; seeded from storage at open/reopen.
  std::atomic<int64_t> next_query_id_{1};

  /// Guards tree_ids_ and bound_. Shared on the query path; exclusive
  /// for publishing a bound handle, and for the writer path's
  /// post-commit updates. Lock order: db_mu_ ->
  /// handles_mu_; never held while materializing or evaluating.
  mutable std::shared_mutex handles_mu_;
  /// Name -> id of every stored tree. Seeded from storage when the
  /// repositories (re)open; changed only by writers, under db_mu_,
  /// after their commit.
  std::map<std::string, int64_t, std::less<>> tree_ids_;
  /// Every tree this session has bound, by tree id. The slot outlives a
  /// DropTree (handle null) so the dropped tree's refs fail NotFound.
  std::map<int64_t, std::shared_ptr<const TreeHandle>> bound_;

  /// Monotone query ticket; combined with options_.seed to derive the
  /// per-query Rng (see QuerySeed in crimson.cc). Cache hits still
  /// consume a ticket, so a session with the cache on draws the same
  /// sampling streams as one with it off.
  std::atomic<uint64_t> ticket_{0};

  /// The adaptive result cache (src/cache); always constructed, budget
  /// 0 makes every operation a cheap no-op. Internally synchronized;
  /// keyed by tree id, so no write ever touches it.
  std::unique_ptr<cache::QueryCache> query_cache_;

  /// The history flusher (RunHistoryFlusher), declared after every
  /// member it uses. Started by Open after its last fallible step;
  /// stopped and joined by ~Crimson before the final Flush. A dedicated
  /// thread, not pool_: a drain queued behind an experiment's
  /// ParallelFor would stall.
  std::thread history_flusher_;
};

}  // namespace crimson

#endif  // CRIMSON_CRIMSON_CRIMSON_H_
