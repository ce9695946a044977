#include "crimson/crimson.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/log.h"
#include "common/overloaded.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "query/lca.h"
#include "recon/rf_distance.h"
#include "tree/ascii_render.h"
#include "tree/newick.h"
#include "tree/nexus.h"

namespace crimson {

namespace {

/// Cracking granularity for per-tree evaluation state: sequence slices
/// are faulted in from storage in aligned runs of at least this many
/// leaf ordinals, refining the piece map with the observed sample mix
/// instead of materializing every sequence up front.
constexpr size_t kCrackMinPiece = 16;

/// Derives the seed for one query's private Rng from the session seed
/// and the query's ticket. Sequential and batched execution assign the
/// same tickets in request order, so sampling results are identical in
/// both modes, and two sessions with different seeds draw differently.
uint64_t QuerySeed(uint64_t session_seed, uint64_t ticket) {
  uint64_t state = session_seed + 0x9E3779B97F4A7C15ULL * (ticket + 1);
  return SplitMix64(&state);
}

/// Status of either a Status or a Result<T> (TransactLocked works
/// over both shapes of repository write).
inline const Status& StatusOf(const Status& s) { return s; }
template <typename T>
const Status& StatusOf(const Result<T>& r) {
  return r.status();
}

}  // namespace

Crimson::~Crimson() {
  // A dropped session must not lose dirty pages (and, with durability
  // on, a clean close checkpoints so the next open skips replay).
  // db_ is null when Open failed partway.
  if (db_ == nullptr) return;
  Status s = Flush();
  if (!s.ok()) {
    CRIMSON_LOG(kWarning) << "flush on session close failed: " << s;
  }
}

std::shared_ptr<const Crimson::RepoSet> Crimson::Repos() const {
  std::lock_guard<std::mutex> lock(repos_mu_);
  return repos_;
}

template <typename Fn>
auto Crimson::TransactLocked(Fn&& fn) -> decltype(fn()) {
  // Every write transaction first drains the history buffer into the
  // queries table, so buffered entries ride along with the next write
  // and replay order (query id) is preserved. The buffer keeps its
  // entries until the transaction's fate is known -- there is never a
  // window where an entry is in neither the buffer nor committed
  // storage, so history readers need no lock against this drain
  // (QueryHistory dedups the brief both-places overlap by id).
  std::vector<QueryRepository::Entry> pending;
  {
    std::lock_guard<std::mutex> hist_lock(history_mu_);
    pending = history_buffer_;
  }
  // Only TransactLocked erases from the buffer, and every caller holds
  // db_mu_ exclusive, so `pending` is still the buffer's prefix when
  // the transaction resolves.
  auto drop_persisted = [&] {
    if (pending.empty()) return;
    std::lock_guard<std::mutex> hist_lock(history_mu_);
    history_buffer_.erase(history_buffer_.begin(),
                          history_buffer_.begin() + pending.size());
  };
  std::shared_ptr<const RepoSet> repos = Repos();
  Result<Txn> txn = db_->Begin();
  if (!txn.ok()) return txn.status();
  Status hist = pending.empty() ? Status::OK()
                                : repos->queries->RecordBatch(pending);
  auto result = hist.ok() ? fn() : decltype(fn())(hist);
  if (StatusOf(result).ok()) {
    Status committed = txn->Commit();
    if (!committed.ok()) {
      // Rolled back (durable) or indeterminate: keep the buffer; a
      // later drain re-inserts, and RecordBatch skips ids that did
      // reach storage.
      Status reopened = ReopenRepositoriesLocked();
      if (!reopened.ok()) {
        CRIMSON_LOG(kError) << "repository reopen after failed commit: "
                            << reopened;
      }
      return committed;
    }
    drop_persisted();
  } else {
    txn->Abort();
    if (db_->durable()) {
      // The WAL rolled the batch back; the entries live on in the
      // buffer for the next drain.
      Status reopened = ReopenRepositoriesLocked();
      if (!reopened.ok()) {
        CRIMSON_LOG(kError) << "repository reopen after abort: " << reopened;
      }
    } else if (hist.ok()) {
      // Without a WAL an abort cannot undo the batch -- the rows are
      // in storage for good, so the buffer must drop them or a later
      // drain would duplicate them.
      drop_persisted();
    }
  }
  return result;
}

template <typename Fn>
Result<LoadReport> Crimson::WriteTree(Fn&& write) {
  std::lock_guard<std::shared_mutex> lock(db_mu_);
  Result<LoadReport> report = TransactLocked(std::forward<Fn>(write));
  if (report.ok()) {
    // Published after the commit and before the writer lock goes, so
    // the next writer and every later OpenTree see the committed tree.
    std::lock_guard<std::shared_mutex> handles_lock(handles_mu_);
    tree_ids_[report->tree_name] = report->tree_id;
    auto it = bound_.find(report->tree_id);
    if (it != bound_.end()) it->second.ForgetEval();  // species may differ
  }
  return report;
}

Status Crimson::ReopenRepositoriesLocked() {
  CRIMSON_ASSIGN_OR_RETURN(Txn txn, db_->Begin());
  auto repos = std::make_shared<RepoSet>();
  CRIMSON_ASSIGN_OR_RETURN(repos->trees, TreeRepository::Open(db_.get()));
  CRIMSON_ASSIGN_OR_RETURN(repos->species, SpeciesRepository::Open(db_.get()));
  CRIMSON_ASSIGN_OR_RETURN(repos->queries, QueryRepository::Open(db_.get()));
  CRIMSON_ASSIGN_OR_RETURN(repos->experiments,
                           ExperimentRepository::Open(db_.get()));
  repos->loader = std::make_unique<DataLoader>(repos->trees.get(),
                                               repos->species.get(),
                                               options_.f);
  CRIMSON_ASSIGN_OR_RETURN(std::vector<TreeInfo> stored,
                           repos->trees->ListTrees());
  CRIMSON_RETURN_IF_ERROR(txn.Commit());
  const int64_t persisted_next = repos->queries->next_id();
  {
    std::lock_guard<std::mutex> lock(repos_mu_);
    repos_ = std::move(repos);
  }
  {
    std::lock_guard<std::shared_mutex> handles_lock(handles_mu_);
    tree_ids_.clear();
    for (const TreeInfo& info : stored) tree_ids_[info.name] = info.tree_id;
  }
  // Advance the session's id counter past the persisted ids, never
  // backwards (Execute threads bump it concurrently, and buffered
  // entries already carry ids beyond the persisted range).
  int64_t cur = next_query_id_.load(std::memory_order_relaxed);
  while (cur < persisted_next &&
         !next_query_id_.compare_exchange_weak(cur, persisted_next,
                                               std::memory_order_relaxed)) {
  }
  return Status::OK();
}

Crimson::StorageReadGuard Crimson::AcquireStorageRead() const {
  StorageReadGuard guard;
  guard.repos = Repos();
  guard.epoch = db_->BeginRead();
  return guard;
}

Status Crimson::FlushHistory() {
  {
    std::lock_guard<std::mutex> hist_lock(history_mu_);
    if (history_buffer_.empty()) return Status::OK();
  }
  std::lock_guard<std::shared_mutex> lock(db_mu_);
  return TransactLocked([] { return Status::OK(); });
}

Result<std::unique_ptr<Crimson>> Crimson::Open(const CrimsonOptions& options) {
  auto c = std::unique_ptr<Crimson>(new Crimson());
  // The registry comes first: the storage engine, the result cache,
  // and the query-dispatch cells below all bind into it.
  c->metrics_ = std::make_unique<obs::MetricsRegistry>();
  c->options_ = options;
  DatabaseOptions db_opts;
  db_opts.buffer_pool_pages = options.buffer_pool_pages;
  db_opts.durability = options.durability;
  db_opts.wal_checkpoint_bytes = options.wal_checkpoint_bytes;
  db_opts.env = options.storage_env;
  db_opts.metrics = c->metrics_.get();
  if (options.db_path.empty()) {
    CRIMSON_ASSIGN_OR_RETURN(c->db_, Database::OpenInMemory(db_opts));
  } else {
    CRIMSON_ASSIGN_OR_RETURN(c->db_, Database::Open(options.db_path, db_opts));
  }
  // Repository open may create tables on a fresh database: one
  // transaction makes the whole schema setup atomic.
  CRIMSON_RETURN_IF_ERROR(c->ReopenRepositoriesLocked());
  c->pool_ = std::make_unique<ThreadPool>(
      options.batch_workers > 0 ? options.batch_workers : 1);
  c->query_cache_ = std::make_unique<cache::QueryCache>(
      options.query_cache_bytes, c->metrics_.get());
  // Resolve the query-dispatch cells once; the hot path then touches
  // only atomic cells (see obs/metrics.h design rules).
  for (size_t i = 0; i < kQueryKindCount; ++i) {
    const std::string base = "query." + std::string(kQueryKindNames[i]);
    c->kind_cells_[i].latency =
        c->metrics_->GetHistogram(base + ".latency_us");
    c->kind_cells_[i].count = c->metrics_->GetCounter(base + ".count");
    c->kind_cells_[i].result_bytes =
        c->metrics_->GetCounter(base + ".result_bytes");
  }
  for (size_t i = 0; i < obs::kStageCount; ++i) {
    c->stage_hists_[i] = c->metrics_->GetHistogram(StrFormat(
        "query.stage.%.*s_us",
        static_cast<int>(obs::StageName(static_cast<obs::Stage>(i)).size()),
        obs::StageName(static_cast<obs::Stage>(i)).data()));
  }
  c->slow_queries_ = c->metrics_->GetCounter("query.slow");
  // The cracked stores resolve their cumulative counters only when the
  // first evaluation state is built; resolving them here too keeps the
  // key set of a fresh session's snapshot stable.
  obs::MetricsRegistry* reg = c->metrics_.get();
  for (const char* name : {"crack.fetches", "crack.batches",
                           "crack.piece_hits", "crack.sequences_loaded"}) {
    reg->GetCounter(name);
  }
  c->live_.crack_stores = reg->GetGauge("crack.stores");
  c->live_.crack_pieces = reg->GetGauge("crack.pieces");
  c->live_.crack_loaded_pieces = reg->GetGauge("crack.loaded_pieces");
  c->live_.crack_sequences_resident =
      reg->GetGauge("crack.sequences_resident");
  c->live_.crack_sequences_total = reg->GetGauge("crack.sequences_total");
  c->live_.pages_live_versions = reg->GetGauge("pages.live_versions");
  c->live_.pages_active_snapshots = reg->GetGauge("pages.active_snapshots");
  c->live_.pages_committed_epoch = reg->GetGauge("pages.committed_epoch");
  return c;
}

// -- loading ----------------------------------------------------------------

Result<SessionLoadReport> Crimson::FinishLoad(Result<LoadReport> report) {
  if (!report.ok()) return report.status();
  SessionLoadReport out;
  static_cast<LoadReport&>(out) = *report;
  // Bind by the id the load committed, never by name: a drop and
  // re-store of the name racing this call cannot hand back another
  // tree's ref.
  CRIMSON_ASSIGN_OR_RETURN(out.ref, BindTree(out.tree_name, out.tree_id));
  return out;
}

Result<SessionLoadReport> Crimson::LoadNewick(const std::string& name,
                                              const std::string& newick,
                                              LoadMode mode) {
  return FinishLoad(WriteTree(
      [&] { return Repos()->loader->LoadNewick(name, newick, mode); }));
}

Result<SessionLoadReport> Crimson::LoadNexus(const std::string& name,
                                             const std::string& nexus,
                                             LoadMode mode) {
  return FinishLoad(WriteTree(
      [&] { return Repos()->loader->LoadNexus(name, nexus, mode); }));
}

Result<SessionLoadReport> Crimson::LoadTree(const std::string& name,
                                            const PhyloTree& tree) {
  return FinishLoad(
      WriteTree([&] { return Repos()->loader->LoadTree(name, tree); }));
}

Result<LoadReport> Crimson::AppendSpeciesData(
    const std::string& tree_name,
    const std::map<std::string, std::string>& sequences) {
  return WriteTree([&] {
    return Repos()->loader->AppendSpecies(tree_name, sequences);
  });
}

Status Crimson::DropTree(const std::string& name) {
  std::lock_guard<std::shared_mutex> lock(db_mu_);
  // Only writers change tree_ids_, and they hold db_mu_: no lock
  // needed to read it here.
  auto named = tree_ids_.find(name);
  if (named == tree_ids_.end()) {
    return Status::NotFound(StrFormat("no tree named '%s'", name.c_str()));
  }
  const int64_t id = named->second;
  // The tree's trees/labels/tree_blobs rows plus its species rows,
  // which TreeRepository::DropTree does not own, in one transaction:
  // a crash recovers to all-or-nothing.
  CRIMSON_RETURN_IF_ERROR(TransactLocked([&]() -> Status {
    auto repos = Repos();
    CRIMSON_RETURN_IF_ERROR(repos->trees->DropTree(id));
    return repos->species->DropForTree(id);
  }));
  // Still under the writer lock, so no load of the same name can land
  // first. The id's cached results need no eviction: nothing asks for
  // them again, and they age out of the cache.
  std::lock_guard<std::shared_mutex> handles_lock(handles_mu_);
  tree_ids_.erase(name);
  auto it = bound_.find(id);
  if (it != bound_.end()) {
    it->second.handle = nullptr;
    it->second.ForgetEval();
  }
  return Status::OK();
}

Result<std::vector<TreeInfo>> Crimson::ListTrees() const {
  StorageReadGuard read = AcquireStorageRead();
  return read.repos->trees->ListTrees();
}

Result<TreeRef> Crimson::OpenTree(const std::string& name) {
  int64_t id;
  {
    std::shared_lock<std::shared_mutex> lock(handles_mu_);
    auto it = tree_ids_.find(name);
    if (it == tree_ids_.end()) {
      return Status::NotFound(StrFormat("no tree named '%s'", name.c_str()));
    }
    id = it->second;
  }
  return BindTree(name, id);
}

Result<TreeRef> Crimson::BindTree(const std::string& name, int64_t id) {
  const TreeRef ref(static_cast<uint64_t>(id));
  {
    std::shared_lock<std::shared_mutex> lock(handles_mu_);
    auto it = bound_.find(id);
    if (it != bound_.end()) {
      if (it->second.handle == nullptr) {
        return Status::NotFound(StrFormat("tree '%s' was dropped",
                                          name.c_str()));
      }
      return ref;
    }
  }
  // Materialize without holding the cache lock so a slow first open
  // (storage load + index build on a large tree) never stalls query
  // dispatch on already-open trees. A racing open may duplicate the
  // work; the insertion below keeps one handle.
  auto handle = [&]() -> Result<std::shared_ptr<TreeHandle>> {
    auto h = std::make_shared<TreeHandle>();
    std::string blob;
    {
      StorageReadGuard read = AcquireStorageRead();
      CRIMSON_ASSIGN_OR_RETURN(h->info, read.repos->trees->GetTreeInfo(id));
      CRIMSON_ASSIGN_OR_RETURN(h->tree, read.repos->trees->LoadTree(id));
      h->tree.ShrinkToFit();  // handles are read-only; drop build slack
      // Fetch the persisted labeling here; the O(n) decode runs below,
      // outside the read snapshot.
      CRIMSON_ASSIGN_OR_RETURN(blob, read.repos->trees->LoadSchemeBlob(id));
    }
    // Label decode / index build is pure compute; no lock held.
    obs::SpanTimer decode_span(obs::Stage::kLabelDecode);
    Status decoded = h->scheme.DecodeFrom(Slice(blob));
    if (decoded.ok() && h->scheme.node_count() != h->tree.size()) {
      decoded = Status::Corruption(
          StrFormat("labels cover %zu nodes, the tree has %zu",
                    h->scheme.node_count(), h->tree.size()));
    }
    if (!decoded.ok()) {
      return Status::Corruption(StrFormat("stored labels of tree '%s': %s",
                                          name.c_str(),
                                          decoded.ToString().c_str()));
    }
    h->names = NameIndex::Build(h->tree);
    h->sampler = std::make_unique<Sampler>(&h->tree);
    h->projector = std::make_unique<TreeProjector>(&h->tree, &h->scheme);
    h->matcher =
        std::make_unique<PatternMatcher>(h->projector.get(), &h->names);
    return h;
  }();
  if (!handle.ok()) return handle.status();

  std::lock_guard<std::shared_mutex> lock(handles_mu_);
  // Publish only while the name still maps to this id: DropTree
  // erases the name and the slot together, so a handle of a dropped
  // tree is never published.
  auto named = tree_ids_.find(name);
  if (named == tree_ids_.end() || named->second != id) {
    return Status::NotFound(StrFormat("tree '%s' was dropped", name.c_str()));
  }
  auto [it, fresh] = bound_.try_emplace(id);
  if (fresh) it->second.handle = std::move(*handle);
  return ref;
}

Result<const Crimson::BoundTree*> Crimson::BoundLocked(TreeRef tree) const {
  auto it = bound_.find(static_cast<int64_t>(tree.id()));
  if (!tree.valid() || it == bound_.end()) {
    return Status::InvalidArgument(
        "invalid TreeRef (not issued by this session)");
  }
  if (it->second.handle == nullptr) {
    return Status::NotFound("stale TreeRef (the tree was dropped)");
  }
  return &it->second;
}

Result<std::shared_ptr<const Crimson::TreeHandle>> Crimson::HandleFor(
    TreeRef tree) const {
  std::shared_lock<std::shared_mutex> lock(handles_mu_);
  CRIMSON_ASSIGN_OR_RETURN(const BoundTree* bound, BoundLocked(tree));
  return bound->handle;
}

Result<TreeInfo> Crimson::GetTreeInfo(TreeRef tree) const {
  CRIMSON_ASSIGN_OR_RETURN(std::shared_ptr<const TreeHandle> handle,
                           HandleFor(tree));
  return handle->info;
}

Result<const PhyloTree*> Crimson::GetTree(TreeRef tree) const {
  CRIMSON_ASSIGN_OR_RETURN(std::shared_ptr<const TreeHandle> handle,
                           HandleFor(tree));
  // Handles stay resident until the session closes (or the tree is
  // dropped, after which HandleFor above fails instead).
  return &handle->tree;
}

// -- query execution --------------------------------------------------------

Result<std::vector<NodeId>> Crimson::ResolveSpecies(
    const TreeHandle& handle, const std::vector<std::string>& species) {
  std::vector<NodeId> out;
  out.reserve(species.size());
  for (const std::string& s : species) {
    NodeId n = handle.names.Find(handle.tree, s);
    if (n == kNoNode) {
      return Status::NotFound(StrFormat("species '%s' not in tree '%s'",
                                        s.c_str(),
                                        handle.info.name.c_str()));
    }
    out.push_back(n);
  }
  return out;
}

Result<QueryResult> Crimson::ExecuteOnHandle(const TreeHandle& handle,
                                             const QueryRequest& request,
                                             uint64_t ticket) const {
  Rng rng(QuerySeed(options_.seed, ticket));
  auto sampled =
      [&](Result<std::vector<NodeId>> nodes) -> Result<QueryResult> {
    if (!nodes.ok()) return nodes.status();
    SampleAnswer answer;
    answer.species.reserve(nodes->size());
    for (NodeId n : *nodes) answer.species.emplace_back(handle.tree.name(n));
    return QueryResult(std::move(answer));
  };
  return std::visit(
      Overloaded{
          [&](const LcaQuery& q) -> Result<QueryResult> {
            CRIMSON_ASSIGN_OR_RETURN(std::vector<NodeId> nodes,
                                     ResolveSpecies(handle, {q.a, q.b}));
            CRIMSON_ASSIGN_OR_RETURN(NodeId lca,
                                     handle.scheme.Lca(nodes[0], nodes[1]));
            LcaAnswer answer;
            answer.node = lca;
            answer.name = handle.tree.name(lca);
            return QueryResult(std::move(answer));
          },
          [&](const ProjectQuery& q) -> Result<QueryResult> {
            CRIMSON_ASSIGN_OR_RETURN(std::vector<NodeId> nodes,
                                     ResolveSpecies(handle, q.species));
            CRIMSON_ASSIGN_OR_RETURN(PhyloTree projection,
                                     handle.projector->Project(nodes));
            return QueryResult(ProjectAnswer{std::move(projection)});
          },
          [&](const SampleUniformQuery& q) -> Result<QueryResult> {
            return sampled(handle.sampler->SampleUniform(q.k, &rng));
          },
          [&](const SampleTimeQuery& q) -> Result<QueryResult> {
            return sampled(
                handle.sampler->SampleWithRespectToTime(q.k, q.time, &rng));
          },
          [&](const CladeQuery& q) -> Result<QueryResult> {
            CRIMSON_ASSIGN_OR_RETURN(std::vector<NodeId> nodes,
                                     ResolveSpecies(handle, q.species));
            CRIMSON_ASSIGN_OR_RETURN(
                Clade clade,
                MinimalSpanningClade(handle.tree, handle.scheme, nodes));
            CladeAnswer answer;
            answer.root = clade.root;
            answer.node_count = clade.nodes.size();
            for (NodeId n : clade.nodes) {
              if (handle.tree.is_leaf(n)) ++answer.leaf_count;
            }
            return QueryResult(std::move(answer));
          },
          [&](const PatternQuery& q) -> Result<QueryResult> {
            CRIMSON_ASSIGN_OR_RETURN(PhyloTree pattern,
                                     ParseNewick(q.pattern_newick));
            CRIMSON_ASSIGN_OR_RETURN(
                PatternMatcher::MatchResult match,
                handle.matcher->Match(pattern, 1e-9, q.match_weights));
            PatternAnswer answer;
            answer.exact = match.exact;
            answer.projection = std::move(match.projection);
            if (!answer.exact && pattern.LeafCount() >= 3) {
              // Approximate similarity: RF between pattern and projection.
              Result<RfResult> rf = RobinsonFoulds(pattern, answer.projection);
              if (rf.ok()) answer.rf_normalized = rf->normalized;
            }
            return QueryResult(std::move(answer));
          },
      },
      request);
}

void Crimson::RecordQuery(std::string_view kind, const std::string& params,
                          const std::string& summary) {
  obs::SpanTimer span(obs::Stage::kHistoryEnqueue);
  // The headline concurrency fix: history appends no longer enter the
  // writer epoch on the query path. The entry gets its final id and
  // timestamp now and sits in the in-memory buffer until the next
  // write transaction (or Flush/Checkpoint) drains it.
  QueryRepository::Entry entry;
  entry.query_id = next_query_id_.fetch_add(1, std::memory_order_relaxed);
  entry.timestamp_micros = NowMicros();
  entry.kind = std::string(kind);
  entry.params = params;
  entry.summary = summary;
  size_t buffered;
  {
    std::lock_guard<std::mutex> lock(history_mu_);
    history_buffer_.push_back(std::move(entry));
    buffered = history_buffer_.size();
  }
  if (buffered < options_.history_buffer_cap) return;
  // Over the cap: flush if the writer lock is free, so a query does not
  // wait out a write or another query's flush. Past four times the cap
  // the query waits for the lock: without that, queries that outpace
  // the drain grow the buffer without bound.
  std::unique_lock<std::shared_mutex> lock(db_mu_, std::defer_lock);
  if (buffered >= 4 * options_.history_buffer_cap) {
    lock.lock();
  } else if (!lock.try_lock()) {
    return;
  }
  {
    // A flush that held the lock meanwhile may have drained the buffer.
    std::lock_guard<std::mutex> hist_lock(history_mu_);
    if (history_buffer_.size() < options_.history_buffer_cap) return;
  }
  Status s = TransactLocked([] { return Status::OK(); });
  if (!s.ok()) {
    CRIMSON_LOG(kWarning) << "query history flush failed: " << s;
  }
}

void Crimson::RecordQuery(const std::string& tree_name,
                          const QueryRequest& request,
                          const Result<QueryResult>& result) {
  if (!result.ok()) return;
  RecordQuery(QueryKindName(request), EncodeQueryParams(tree_name, request),
              SummarizeResult(*result));
}

void Crimson::FinishQueryTrace(obs::TraceContext* ctx,
                               const std::string& tree_name,
                               const QueryRequest& request,
                               const Result<QueryResult>& result) const {
  const int64_t total = ctx->total_us();
  const KindCells& cells = kind_cells_[request.index()];
  cells.latency->Observe(static_cast<uint64_t>(total));
  cells.count->Increment();
  if (result.ok()) {
    cells.result_bytes->Add(cache::ApproxResultBytes(*result));
  }
  for (size_t i = 0; i < obs::kStageCount; ++i) {
    const int64_t us = ctx->span_us(static_cast<obs::Stage>(i));
    if (us > 0) stage_hists_[i]->Observe(static_cast<uint64_t>(us));
  }
  if (options_.slow_query_micros > 0 &&
      total >= static_cast<int64_t>(options_.slow_query_micros)) {
    slow_queries_->Increment();
    std::string line = StrFormat(
        "slow_query total_us=%lld kind=%s params=%s status=%s spans=%s",
        static_cast<long long>(total),
        std::string(QueryKindName(request)).c_str(),
        EncodeQueryParams(tree_name, request).c_str(),
        result.ok() ? "ok" : result.status().ToString().c_str(),
        ctx->Breakdown().c_str());
    if (options_.slow_query_sink) {
      options_.slow_query_sink(line);
    } else {
      CRIMSON_LOG(kWarning) << line;
    }
  }
  // A connection-thread context outlives this query (pipelined runs
  // reuse it); start the next one clean.
  ctx->Reset();
}

Result<QueryResult> Crimson::RunQuery(const TreeHandle& handle,
                                      const QueryRequest& request,
                                      uint64_t ticket, bool record_history) {
  // Installs a fresh trace context, or adopts the thread's (a server
  // connection thread's already carries the admission wait).
  // FinishQueryTrace publishes and resets it on every result path.
  obs::ScopedTrace trace;
  const std::string& tree_name = handle.info.name;
  const bool cacheable =
      query_cache_->enabled() && cache::QueryCache::IsCacheable(request);
  if (query_cache_->enabled() && !cacheable) query_cache_->NoteBypass();
  // The handle's tree id names an unchanging structure, so a cached
  // answer is never stale and a computed one is always safe to cache.
  std::string key;
  std::optional<QueryResult> hit;
  if (cacheable) {
    key = cache::QueryCache::KeyFor(handle.info.tree_id, request);
    obs::SpanTimer span(obs::Stage::kCacheLookup);
    hit = query_cache_->Lookup(key);
  }
  Result<QueryResult> result = [&]() -> Result<QueryResult> {
    if (hit) return std::move(*hit);
    obs::SpanTimer span(obs::Stage::kExecute);
    return ExecuteOnHandle(handle, request, ticket);
  }();
  if (cacheable && !hit && result.ok()) query_cache_->Insert(key, *result);
  if (record_history) RecordQuery(tree_name, request, result);
  FinishQueryTrace(trace.context(), tree_name, request, result);
  return result;
}

Result<QueryResult> Crimson::Execute(TreeRef tree,
                                     const QueryRequest& request) {
  CRIMSON_ASSIGN_OR_RETURN(std::shared_ptr<const TreeHandle> handle,
                           HandleFor(tree));
  // The ticket is taken even when the cache answers, so cache-on and
  // cache-off sessions draw the same sampling streams.
  return RunQuery(*handle, request,
                  ticket_.fetch_add(1, std::memory_order_relaxed),
                  /*record_history=*/true);
}

std::vector<Result<QueryResult>> Crimson::ExecuteBatch(
    TreeRef tree, Span<const QueryRequest> requests) {
  const size_t n = requests.size();
  Result<std::shared_ptr<const TreeHandle>> handle_or = HandleFor(tree);
  std::vector<Result<QueryResult>> results(
      n, handle_or.ok() ? Status::Internal("query not executed")
                        : handle_or.status());
  if (!handle_or.ok() || n == 0) return results;
  const TreeHandle& handle = **handle_or;
  // Tickets are assigned in request order *before* dispatch, so the
  // i-th request draws exactly what it would draw under sequential
  // Execute calls -- batched results are byte-identical.
  const uint64_t base = ticket_.fetch_add(n, std::memory_order_relaxed);
  // Workers install their own trace context; the calling thread (which
  // ParallelFor includes) keeps its pre-installed one, so a server's
  // admission wait lands on the query that thread runs first.
  pool_->ParallelFor(n, [&](size_t i) {
    results[i] = RunQuery(handle, requests[i], base + i,
                          /*record_history=*/false);
  });
  // History is written after the barrier, in request order, keeping the
  // Query Repository deterministic under concurrency.
  for (size_t i = 0; i < n; ++i) {
    RecordQuery(handle.info.name, requests[i], results[i]);
  }
  return results;
}

// -- the Experiment API -----------------------------------------------------

/// Cached per-tree evaluation state. Sequences are NOT materialized
/// up front: the cracked store (src/cache) keeps the tree's sorted
/// leaf-name domain and faults in only the ordinal slices that
/// experiment samples actually touch, refining its piece map with the
/// observed mix. The manager borrows the handle's tree and
/// layered-Dewey scheme (no relabel) and is shared, immutable, across
/// all experiment workers; the store's internal mutex serializes its
/// lazy loads. The handle shared_ptr keeps the borrowed tree/scheme
/// alive.
struct Crimson::EvalState {
  std::shared_ptr<const TreeHandle> handle;
  std::unique_ptr<cache::CrackedSequenceStore> store;
  BenchmarkManager manager;

  EvalState(std::shared_ptr<const TreeHandle> h,
            std::unique_ptr<cache::CrackedSequenceStore> s)
      : handle(std::move(h)),
        store(std::move(s)),
        manager(&handle->tree, store.get(), &handle->scheme) {
    manager.set_name_index(&handle->names);
  }
};

Result<std::shared_ptr<const Crimson::EvalState>> Crimson::EvalStateFor(
    TreeRef tree) {
  const auto id = static_cast<int64_t>(tree.id());
  for (;;) {
    std::shared_ptr<const TreeHandle> handle;
    uint64_t generation;
    {
      std::shared_lock<std::shared_mutex> lock(handles_mu_);
      CRIMSON_ASSIGN_OR_RETURN(const BoundTree* bound, BoundLocked(tree));
      if (bound->eval != nullptr) return bound->eval;
      handle = bound->handle;
      generation = bound->eval_generation;
    }
    // Build outside the lock; a racing build may duplicate the work
    // and the insertion keeps one state. Only an index probe touches
    // storage here -- sequence bytes load lazily through the cracked
    // store as samples touch them.
    obs::SpanTimer build_span(obs::Stage::kEvalBuild);
    {
      StorageReadGuard read = AcquireStorageRead();
      CRIMSON_ASSIGN_OR_RETURN(bool has_species,
                               read.repos->species->HasSpecies(id));
      if (!has_species) {
        return Status::FailedPrecondition(
            StrFormat("tree '%s' has no species data loaded",
                      handle->info.name.c_str()));
      }
    }
    // The ordinal domain species data is stored by (in-memory; no
    // storage reads).
    std::vector<std::string> domain =
        handle->names.SortedLeafNames(handle->tree);
    // The store's fetch callback revalidates the eval generation: once
    // this state is dropped, a retained reference can no longer fault
    // in rows written after it -- it reports Unavailable and the
    // experiment loop rebuilds.
    auto fetch = [this, id, generation](
                     size_t lo, size_t hi,
                     const cache::CrackedSequenceStore::SinkFn& sink)
        -> Status {
      {
        std::shared_lock<std::shared_mutex> lock(handles_mu_);
        auto it = bound_.find(id);
        if (it == bound_.end() || it->second.eval_generation != generation) {
          return Status::Unavailable(
              "evaluation state invalidated by a concurrent write; "
              "rebuild and retry");
        }
      }
      StorageReadGuard read = AcquireStorageRead();
      return read.repos->species->ForEachInRange(
          id, static_cast<uint32_t>(lo), static_cast<uint32_t>(hi), sink);
    };
    auto state = std::make_shared<EvalState>(
        handle, std::make_unique<cache::CrackedSequenceStore>(
                    std::move(domain), kCrackMinPiece,
                    std::move(fetch), metrics_.get()));
    CRIMSON_RETURN_IF_ERROR(state->manager.Init());
    std::lock_guard<std::shared_mutex> lock(handles_mu_);
    BoundTree& bound = bound_.at(id);
    // An append or drop landed while this state was being built:
    // rebuild (or fail, once dropped) against the new storage state.
    if (bound.eval_generation != generation) continue;
    if (bound.eval == nullptr) bound.eval = std::move(state);
    return bound.eval;
  }
}

Result<ExperimentReport> Crimson::RunExperimentJobs(
    const EvalState& eval, const ExperimentSpec& spec,
    const std::vector<const ReconstructionAlgorithm*>& instances,
    uint64_t seed, uint64_t base_ticket) const {
  const size_t jobs = spec.job_count();
  const size_t per_algorithm = spec.selections.size() * spec.replicates;
  std::vector<Result<BenchmarkRun>> results(
      jobs, Result<BenchmarkRun>(Status::Internal("run not executed")));
  WallTimer timer;
  // Tickets were assigned to jobs in spec order before dispatch, so
  // every replicate draws exactly what it would draw walking the grid
  // sequentially -- any worker count produces byte-identical runs.
  pool_->ParallelFor(jobs, [&](size_t i) {
    const size_t algorithm = i / per_algorithm;
    const size_t selection = (i % per_algorithm) / spec.replicates;
    Rng rng(QuerySeed(seed, base_ticket + i));
    results[i] = eval.manager.Evaluate(*instances[algorithm],
                                       spec.selections[selection], &rng,
                                       spec.compute_triplets);
  });
  ExperimentReport report;
  report.tree_name = eval.handle->info.name;
  report.spec = spec;
  report.seed = seed;
  report.base_ticket = base_ticket;
  report.runs.reserve(jobs);
  for (size_t i = 0; i < jobs; ++i) {
    if (!results[i].ok()) return results[i].status();
    report.runs.push_back(std::move(*results[i]));
  }
  report.cells = AggregateCells(spec, report.runs);
  report.total_seconds = timer.ElapsedSeconds();
  return report;
}

Status Crimson::PersistExperiment(ExperimentReport* report) {
  std::vector<ExperimentRepository::RunRow> run_rows;
  run_rows.reserve(report->runs.size());
  for (size_t i = 0; i < report->runs.size(); ++i) {
    const BenchmarkRun& run = report->runs[i];
    ExperimentRepository::RunRow row;
    row.ordinal = static_cast<int64_t>(i);
    row.algorithm = run.algorithm;
    const size_t per_algorithm =
        report->spec.selections.size() * report->spec.replicates;
    row.selection_index =
        static_cast<int64_t>((i % per_algorithm) / report->spec.replicates);
    row.replicate = static_cast<int64_t>(i % report->spec.replicates);
    row.sample_size = static_cast<int64_t>(run.sample_size);
    row.rf_distance = static_cast<int64_t>(run.rf.distance);
    row.rf_splits_a = static_cast<int64_t>(run.rf.splits_a);
    row.rf_splits_b = static_cast<int64_t>(run.rf.splits_b);
    row.rf_normalized = run.rf.normalized;
    row.triplet_total = static_cast<int64_t>(run.triplets.total);
    row.triplet_differing = static_cast<int64_t>(run.triplets.differing);
    row.triplet_fraction = run.triplets.fraction;
    row.seconds = run.sample_seconds + run.project_seconds +
                  run.reconstruct_seconds + run.compare_seconds;
    run_rows.push_back(std::move(row));
  }
  std::vector<ExperimentRepository::CellRow> cell_rows;
  cell_rows.reserve(report->cells.size());
  for (size_t i = 0; i < report->cells.size(); ++i) {
    const ExperimentCell& cell = report->cells[i];
    ExperimentRepository::CellRow row;
    row.ordinal = static_cast<int64_t>(i);
    row.algorithm = cell.algorithm;
    row.selection_index = static_cast<int64_t>(cell.selection_index);
    row.replicates = static_cast<int64_t>(cell.replicates);
    row.mean_rf_normalized = cell.mean_rf_normalized;
    row.min_rf_normalized = cell.min_rf_normalized;
    row.max_rf_normalized = cell.max_rf_normalized;
    row.mean_triplet_fraction = cell.mean_triplet_fraction;
    row.total_seconds = cell.total_seconds;
    cell_rows.push_back(std::move(row));
  }

  std::lock_guard<std::shared_mutex> lock(db_mu_);
  auto repos = Repos();
  // One transaction covers the experiment row, all run rows, and all
  // cell aggregates: a crash mid-persist recovers to either no trace
  // of the experiment or all of it.
  return TransactLocked([&]() -> Status {
    CRIMSON_ASSIGN_OR_RETURN(
        report->experiment_id,
        repos->experiments->PutExperiment(report->tree_name,
                                          EncodeExperimentSpec(report->spec),
                                          report->seed, report->base_ticket));
    for (auto& row : run_rows) row.experiment_id = report->experiment_id;
    for (auto& row : cell_rows) row.experiment_id = report->experiment_id;
    CRIMSON_RETURN_IF_ERROR(repos->experiments->PutRuns(run_rows));
    return repos->experiments->PutCells(cell_rows);
  });
}

Result<std::vector<std::unique_ptr<ReconstructionAlgorithm>>>
Crimson::InstantiateAlgorithms(const ExperimentSpec& spec) {
  // One shared instance per algorithm name (Reconstruct is const and
  // thread-safe by contract).
  std::vector<std::unique_ptr<ReconstructionAlgorithm>> owned;
  owned.reserve(spec.algorithms.size());
  for (const std::string& name : spec.algorithms) {
    CRIMSON_ASSIGN_OR_RETURN(std::unique_ptr<ReconstructionAlgorithm> alg,
                             AlgorithmRegistry::Global().Create(name));
    owned.push_back(std::move(alg));
  }
  return owned;
}

namespace {

std::vector<const ReconstructionAlgorithm*> RawPointers(
    const std::vector<std::unique_ptr<ReconstructionAlgorithm>>& owned) {
  std::vector<const ReconstructionAlgorithm*> instances;
  instances.reserve(owned.size());
  for (const auto& alg : owned) instances.push_back(alg.get());
  return instances;
}

}  // namespace

namespace {

/// Bound on rebuild-and-replay rounds when a concurrent write
/// invalidates the evaluation state mid-experiment (each round needs
/// another racing write to fail again, so 4 only trips under a
/// sustained write storm -- the Unavailable then surfaces).
constexpr int kMaxEvalRetries = 4;

}  // namespace

Result<ExperimentReport> Crimson::RunExperiment(TreeRef tree,
                                                const ExperimentSpec& spec) {
  CRIMSON_RETURN_IF_ERROR(ValidateExperimentSpec(spec));
  CRIMSON_ASSIGN_OR_RETURN(
      std::vector<std::unique_ptr<ReconstructionAlgorithm>> owned,
      InstantiateAlgorithms(spec));
  const uint64_t base =
      ticket_.fetch_add(spec.job_count(), std::memory_order_relaxed);
  Result<ExperimentReport> ran = Status::Internal("experiment not executed");
  for (int attempt = 0; attempt < kMaxEvalRetries; ++attempt) {
    CRIMSON_ASSIGN_OR_RETURN(std::shared_ptr<const EvalState> eval,
                             EvalStateFor(tree));
    ran = RunExperimentJobs(*eval, spec, RawPointers(owned), options_.seed,
                            base);
    // Unavailable = the state was invalidated while jobs ran; rebuild
    // and replay with the same tickets (jobs reseed from (seed,
    // base + i), so the retry is byte-identical to an unraced run).
    if (ran.ok() || !ran.status().IsUnavailable()) break;
  }
  if (!ran.ok()) return ran.status();
  ExperimentReport report = std::move(*ran);
  CRIMSON_RETURN_IF_ERROR(PersistExperiment(&report));
  RecordQuery("experiment",
              StrFormat("tree=%s&id=%lld&spec=%s",
                        EscapeParam(report.tree_name).c_str(),
                        static_cast<long long>(report.experiment_id),
                        EscapeParam(EncodeExperimentSpec(spec)).c_str()),
              SummarizeExperiment(report));
  return report;
}

Result<ExperimentReport> Crimson::RerunExperiment(int64_t experiment_id) {
  ExperimentRepository::ExperimentRow row;
  {
    StorageReadGuard read = AcquireStorageRead();
    CRIMSON_ASSIGN_OR_RETURN(
        row, read.repos->experiments->GetExperiment(experiment_id));
  }
  CRIMSON_ASSIGN_OR_RETURN(ExperimentSpec spec,
                           DecodeExperimentSpec(row.spec));
  CRIMSON_ASSIGN_OR_RETURN(TreeRef ref, OpenTree(row.tree_name));
  CRIMSON_ASSIGN_OR_RETURN(
      std::vector<std::unique_ptr<ReconstructionAlgorithm>> owned,
      InstantiateAlgorithms(spec));
  // Replay with the *stored* RNG provenance: the session ticket
  // counter is not consulted, so the replay reproduces the original
  // rows on any session over this database.
  Result<ExperimentReport> ran = Status::Internal("experiment not executed");
  for (int attempt = 0; attempt < kMaxEvalRetries; ++attempt) {
    CRIMSON_ASSIGN_OR_RETURN(std::shared_ptr<const EvalState> eval,
                             EvalStateFor(ref));
    ran = RunExperimentJobs(*eval, spec, RawPointers(owned), row.seed,
                            row.base_ticket);
    if (ran.ok() || !ran.status().IsUnavailable()) break;
  }
  if (!ran.ok()) return ran.status();
  ExperimentReport report = std::move(*ran);
  report.experiment_id = experiment_id;
  return report;
}

Result<std::vector<ExperimentRepository::ExperimentRow>>
Crimson::ListExperiments() const {
  StorageReadGuard read = AcquireStorageRead();
  return read.repos->experiments->ListExperiments();
}

// -- query history ----------------------------------------------------------

Result<std::vector<QueryRepository::Entry>> Crimson::QueryHistory(
    size_t limit) {
  // Buffer copy strictly before the storage read. A mid-drain entry
  // stays in the buffer until its transaction commits, so with this
  // order it shows up in at least one source (possibly both -- the
  // merge dedups by id); the reverse order could miss an entry that
  // commits-and-drops between the two reads. No lock is held against
  // the drain, so history stays readable during a bulk store.
  std::vector<QueryRepository::Entry> merged;
  {
    std::lock_guard<std::mutex> hist_lock(history_mu_);
    merged = history_buffer_;
  }
  StorageReadGuard read = AcquireStorageRead();
  CRIMSON_ASSIGN_OR_RETURN(std::vector<QueryRepository::Entry> stored,
                           read.repos->queries->History(limit));
  merged.insert(merged.end(), std::make_move_iterator(stored.begin()),
                std::make_move_iterator(stored.end()));
  // Replay order: newest first by id, exactly as if every entry had
  // been persisted synchronously.
  std::sort(merged.begin(), merged.end(),
            [](const QueryRepository::Entry& a,
               const QueryRepository::Entry& b) {
              return a.query_id > b.query_id;
            });
  merged.erase(std::unique(merged.begin(), merged.end(),
                           [](const QueryRepository::Entry& a,
                              const QueryRepository::Entry& b) {
                             return a.query_id == b.query_id;
                           }),
               merged.end());
  if (merged.size() > limit) merged.resize(limit);
  return merged;
}

Result<std::string> Crimson::RerunQuery(int64_t query_id) {
  QueryRepository::Entry entry;
  {
    // Buffer before storage, same reasoning as QueryHistory: a
    // mid-drain entry is still buffered until its transaction commits,
    // so this order finds it in one place or the other.
    bool found = false;
    {
      std::lock_guard<std::mutex> hist_lock(history_mu_);
      for (const QueryRepository::Entry& e : history_buffer_) {
        if (e.query_id == query_id) {
          entry = e;
          found = true;
          break;
        }
      }
    }
    if (!found) {
      StorageReadGuard read = AcquireStorageRead();
      CRIMSON_ASSIGN_OR_RETURN(entry, read.repos->queries->Get(query_id));
    }
  }
  if (entry.kind == "experiment") {
    // Replay exactly: the stored experiment carries its seed + tickets.
    CRIMSON_ASSIGN_OR_RETURN(int64_t experiment_id,
                             DecodeExperimentId(entry.params));
    CRIMSON_ASSIGN_OR_RETURN(ExperimentReport report,
                             RerunExperiment(experiment_id));
    return RenderExperimentReport(report);
  }
  auto decoded = DecodeQueryRequest(entry.kind, entry.params);
  if (!decoded.ok()) {
    if (decoded.status().IsUnimplemented()) {
      return Status::Unimplemented(
          StrFormat("cannot rerun query kind '%s'", entry.kind.c_str()));
    }
    return decoded.status();
  }
  CRIMSON_ASSIGN_OR_RETURN(TreeRef ref, OpenTree(decoded->first));
  CRIMSON_ASSIGN_OR_RETURN(QueryResult result, Execute(ref, decoded->second));
  return RenderResult(result);
}

Result<std::string> Crimson::ExportNexus(TreeRef tree) {
  CRIMSON_ASSIGN_OR_RETURN(std::shared_ptr<const TreeHandle> handle,
                           HandleFor(tree));
  NexusDocument doc;
  for (NodeId n : handle->tree.Leaves()) {
    // The index dedupes taxa (a repeated label would make the TAXA
    // block invalid NEXUS): only the canonical first leaf of each name
    // is listed, in leaf pre-order.
    if (!handle->tree.name(n).empty() &&
        handle->names.FindLeaf(handle->tree, handle->tree.name(n)) == n) {
      doc.taxa.emplace_back(handle->tree.name(n));
    }
  }
  {
    StorageReadGuard read = AcquireStorageRead();
    CRIMSON_ASSIGN_OR_RETURN(
        doc.sequences,
        read.repos->species->SequencesForTree(handle->info.tree_id));
  }
  NexusTree nt;
  nt.name = handle->info.name;
  nt.tree = handle->tree;
  doc.trees.push_back(std::move(nt));
  return WriteNexus(doc);
}

Result<std::string> Crimson::RenderTree(TreeRef tree, size_t max_nodes) {
  CRIMSON_ASSIGN_OR_RETURN(std::shared_ptr<const TreeHandle> handle,
                           HandleFor(tree));
  AsciiRenderOptions options;
  options.max_nodes = max_nodes;
  return RenderAscii(handle->tree, options);
}

Status Crimson::Flush() {
  // Buffered history rows must not outlive a flush (the destructor
  // relies on this: a dropped session loses no history).
  Status hist = FlushHistory();
  std::lock_guard<std::shared_mutex> lock(db_mu_);
  Status s = db_->Flush();
  return hist.ok() ? s : hist;
}

Status Crimson::Checkpoint() {
  Status hist = FlushHistory();
  std::lock_guard<std::shared_mutex> lock(db_mu_);
  Status s = db_->Checkpoint();
  return hist.ok() ? s : hist;
}

obs::MetricsSnapshot Crimson::SnapshotMetrics() const {
  // Refresh the live gauges first. Counters need no refresh; they are
  // written at the event sites. The live states are copied under
  // handles_mu_ and their stores read outside it (the stores take
  // their own mutex; holding handles_mu_ across that would invert the
  // fetch callback's store -> handles_mu_ order).
  std::vector<std::shared_ptr<const EvalState>> states;
  {
    std::shared_lock<std::shared_mutex> lock(handles_mu_);
    for (const auto& [id, bound] : bound_) {
      if (bound.eval != nullptr) states.push_back(bound.eval);
    }
  }
  cache::CrackedStoreStats sum;
  for (const auto& state : states) {
    const cache::CrackedStoreStats s = state->store->stats();
    sum.pieces += s.pieces;
    sum.loaded_pieces += s.loaded_pieces;
    sum.sequences_resident += s.sequences_resident;
    sum.sequences_total += s.sequences_total;
  }
  live_.crack_stores->Set(states.size());
  live_.crack_pieces->Set(sum.pieces);
  live_.crack_loaded_pieces->Set(sum.loaded_pieces);
  live_.crack_sequences_resident->Set(sum.sequences_resident);
  live_.crack_sequences_total->Set(sum.sequences_total);
  live_.pages_live_versions->Set(db_->live_versions());
  live_.pages_active_snapshots->Set(db_->active_snapshots());
  live_.pages_committed_epoch->Set(db_->committed_epoch());
  return metrics_->Snapshot();
}

}  // namespace crimson
