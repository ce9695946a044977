// The adaptive query cache: a session-level result cache for the
// idempotent query kinds -- LCA, projection, clade, pattern match;
// never sampling -- keyed by (stored tree id, canonical request).
//
// No invalidation: a stored tree's structure is written once and
// never changes, tree ids are never reused (TreeRepository), and the
// six queries read only the structure. An entry therefore stays the
// right answer for as long as it is resident; a dropped tree's
// entries are simply never asked for again and age out through
// replacement (see DESIGN.md "Adaptive result caching").
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
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "crimson/query_request.h"
#include "obs/metrics.h"

namespace crimson {
namespace cache {

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

  /// Canonical cache key: the kind tag plus the history parameter
  /// encoding, with the stored tree's id in its tree field.
  static std::string KeyFor(int64_t tree_id, const QueryRequest& request) {
    return KeyFor(tree_id, request, EncodeQueryBody(request));
  }
  /// The same key from the request's already encoded EncodeQueryBody.
  static std::string KeyFor(int64_t tree_id, const QueryRequest& request,
                            std::string_view body);

  /// The cached result for `key`, if resident. Counts a hit or a miss.
  std::optional<QueryResult> Lookup(const std::string& key);

  /// Caches a computed result (a concurrent miss on the same key may
  /// already have inserted it; the resident copy is kept).
  void Insert(const std::string& key, const QueryResult& result);

  /// Counts a query that skipped the cache because its kind is not
  /// idempotent.
  void NoteBypass();

  // Name-keyed spellings the perfbench replay still calls; ROADMAP
  // item 2 ports it to the calls above and deletes this block.
  struct ReadStamp {};
  static std::string KeyFor(const std::string& name, const QueryRequest& r) {
    return std::string(QueryKindName(r)) + '?' + EncodeQueryParams(name, r);
  }
  std::optional<QueryResult> Lookup(const std::string&, const std::string& k) {
    return Lookup(k);
  }
  ReadStamp Stamp(const std::string&, uint64_t) const { return {}; }
  void Insert(const std::string&, const std::string& k, ReadStamp,
              const QueryResult& result) {
    Insert(k, result);
  }

 private:
  enum class Segment : uint8_t { kProbation, kProtected };

  struct Entry {
    QueryResult result;
    uint64_t bytes = 0;
    Segment segment = Segment::kProbation;
    std::list<std::string>::iterator pos;  // into the segment's list
  };

  void EvictForLocked(uint64_t incoming_bytes);

  const uint64_t budget_;

  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> entries_;
  // MRU at front. The lists store the map keys; Entry::pos points back.
  std::list<std::string> probation_;
  std::list<std::string> protected_;
  uint64_t bytes_used_ = 0;
  uint64_t protected_bytes_ = 0;

  /// Backing registry when the constructor got none.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  /// Registry-backed counter cells (resolved once in the ctor; atomic,
  /// read lock-free by anyone snapshotting the registry).
  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
  obs::Counter* insertions_ = nullptr;
  obs::Counter* evictions_ = nullptr;
  obs::Counter* bypassed_ = nullptr;
  obs::Gauge* entries_gauge_ = nullptr;
  obs::Gauge* bytes_used_gauge_ = nullptr;
};

}  // namespace cache
}  // namespace crimson

#endif  // CRIMSON_CACHE_QUERY_CACHE_H_
