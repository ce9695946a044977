// The adaptive query cache (ROADMAP open item 3): a session-level
// result cache for the idempotent query kinds -- LCA, projection,
// clade, pattern match; never sampling -- keyed by the canonical
// encoded QueryRequest and guarded by a per-tree (generation, epoch)
// validity stamp.
//
// Invalidation contract (MVCC-safe; see DESIGN.md "Adaptive caching &
// cracking"):
//
//   - Every cached entry carries the ReadStamp captured *before* its
//     query executed: the tree's mutation generation plus the storage
//     engine's committed epoch at that moment.
//   - A mutating session op (StoreTree / AppendSpeciesData / DropTree)
//     brackets its write transaction with BeginTreeMutation (bumps the
//     tree's generation while the writer lock is held) and either
//     CommitTreeMutation (records the post-commit epoch as the tree's
//     epoch barrier) or AbortTreeMutation (rolls the generation back,
//     since the aborted write changed nothing).
//   - An entry is served only if its generation still matches the
//     tree's AND its epoch is >= the tree's barrier. The generation
//     check catches queries that stamped before a mutation began; the
//     epoch barrier catches the race where a query stamps *during* an
//     in-flight mutation (its generation already matches the new one,
//     but it computed against the pre-commit MVCC snapshot, which the
//     pre-commit epoch in its stamp betrays).
//
//   Net guarantee: a query that begins after a mutation completes can
//   never observe a pre-mutation cached result; a query that overlaps
//   a mutation may serialize before it, which snapshot isolation
//   already allows.
//
// Replacement is 2Q within a byte budget: new entries enter a
// probation FIFO and are promoted to a protected LRU segment on their
// first re-reference, so one burst of unrepeated queries cannot flush
// the hot set. Eviction drains probation first; the protected segment
// is capped at 3/4 of the budget and demotes back into probation.
//
// Thread safety: every public method is safe to call concurrently;
// one internal mutex guards the whole structure (hit/miss work is a
// hash probe plus list splice, so the critical sections are tiny
// compared to the query execution they replace).

#ifndef CRIMSON_CACHE_QUERY_CACHE_H_
#define CRIMSON_CACHE_QUERY_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "crimson/query_request.h"
#include "obs/metrics.h"

namespace crimson {
namespace cache {

/// The validity stamp captured before a cacheable query executes.
struct ReadStamp {
  uint64_t generation = 0;
  uint64_t epoch = 0;
};

/// Rough retained-byte estimate for one QueryResult (projection trees
/// dominate; counted per node plus name payload).
uint64_t ApproxResultBytes(const QueryResult& result);

class QueryCache {
 public:
  /// budget_bytes == 0 disables the cache entirely (every Lookup
  /// misses without counting, Insert is a no-op). The cache's counters
  /// are registry-backed cells named after the wire keys (cache.hits,
  /// cache.misses, ...); when `metrics` is null the cache owns a
  /// private registry, so standalone instances keep isolated counts.
  /// The cells are the only copy of these counts.
  explicit QueryCache(uint64_t budget_bytes,
                      obs::MetricsRegistry* metrics = nullptr);

  QueryCache(const QueryCache&) = delete;
  QueryCache& operator=(const QueryCache&) = delete;

  bool enabled() const { return budget_ > 0; }

  /// True for the idempotent kinds (lca, project, clade,
  /// pattern_match); sampling kinds consume session RNG tickets and
  /// must always execute.
  static bool IsCacheable(const QueryRequest& request);

  /// Canonical cache key: kind tag + the history-stable parameter
  /// encoding (which embeds the tree name).
  static std::string KeyFor(const std::string& tree_name,
                            const QueryRequest& request);

  /// The current validity stamp for a tree; callers pass the storage
  /// engine's committed epoch. Must be captured BEFORE executing the
  /// query whose result will be inserted.
  ReadStamp Stamp(const std::string& tree_name, uint64_t committed_epoch);

  /// Returns the cached result if present and still valid; stale
  /// entries are erased on the spot. Counts a hit or a miss.
  std::optional<QueryResult> Lookup(const std::string& tree_name,
                                    const std::string& key);

  /// Inserts a computed result tagged with the pre-execution stamp.
  /// Silently skipped (stale_skips) if the stamp has aged out -- a
  /// mutation began or committed while the query ran.
  void Insert(const std::string& tree_name, const std::string& key,
              const ReadStamp& stamp, const QueryResult& result);

  // -- invalidation hooks (called with the session writer lock held,
  //    so at most one mutation is in flight at a time) ---------------

  /// A mutating op on `tree_name` is starting: bump its generation so
  /// entries stamped before this point stop validating.
  void BeginTreeMutation(const std::string& tree_name);

  /// The mutation committed; `committed_epoch` (read after commit)
  /// becomes the tree's epoch barrier.
  void CommitTreeMutation(const std::string& tree_name,
                          uint64_t committed_epoch);

  /// The mutation aborted: restore the pre-Begin generation.
  void AbortTreeMutation(const std::string& tree_name);

  /// Drops every entry for a tree plus its generation state (DropTree;
  /// a re-stored tree under the same name starts fresh).
  void EraseTree(const std::string& tree_name);

  /// Counts a query that skipped the cache because its kind is not
  /// idempotent.
  void NoteBypass();

 private:
  enum class Segment : uint8_t { kProbation, kProtected };

  struct Entry {
    std::string tree;
    QueryResult result;
    ReadStamp stamp;
    uint64_t bytes = 0;
    Segment segment = Segment::kProbation;
    std::list<std::string>::iterator pos;  // into the segment's list
  };

  struct TreeState {
    uint64_t generation = 0;
    uint64_t barrier_epoch = 0;
    uint64_t saved_generation = 0;  // for abort rollback
  };

  /// True if `stamp` is still valid against the tree's current state.
  bool ValidLocked(const std::string& tree, const ReadStamp& stamp) const;
  void EraseEntryLocked(std::unordered_map<std::string, Entry>::iterator it);
  void EvictForLocked(uint64_t incoming_bytes);
  TreeState& StateLocked(const std::string& tree);

  const uint64_t budget_;

  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> entries_;
  std::map<std::string, TreeState> trees_;
  // MRU at front. The lists store the map keys; Entry::pos points back.
  std::list<std::string> probation_;
  std::list<std::string> protected_;
  uint64_t bytes_used_ = 0;
  uint64_t protected_bytes_ = 0;

  /// Backing registry when the constructor got none.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  /// Registry-backed counter cells (resolved once in the ctor; bumped
  /// under mu_, read lock-free by anyone snapshotting the registry).
  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
  obs::Counter* insertions_ = nullptr;
  obs::Counter* evictions_ = nullptr;
  obs::Counter* invalidations_ = nullptr;
  obs::Counter* stale_skips_ = nullptr;
  obs::Counter* bypassed_ = nullptr;
  obs::Gauge* entries_gauge_ = nullptr;
  obs::Gauge* bytes_used_gauge_ = nullptr;
};

}  // namespace cache
}  // namespace crimson

#endif  // CRIMSON_CACHE_QUERY_CACHE_H_
