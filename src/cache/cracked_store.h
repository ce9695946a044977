// Adaptive cracking of the per-tree sequence store (the CrackStore /
// database-cracking discipline, SNIPPETS.md §1): instead of
// materializing a tree's whole sequence set into EvalState up front,
// the store keeps the tree's leaf-name domain as a sorted ordinal
// axis and a piece map over it. The first query that touches a name
// range cracks the covering piece at (granularity-aligned) range
// boundaries and fetches only the touched slice from storage; repeat
// queries over the same region are pure in-memory lookups. The piece
// map refines monotonically with the observed query mix -- a
// clustered workload materializes a narrow band, a scattered one
// converges toward full residency, and nothing is fetched twice.
//
// The store only ever *adds* loaded pieces; invalidation is handled a
// level up (Crimson's eval generation): a mutating op on the tree
// discards the whole EvalState, and the fetch callback revalidates
// the generation so a stale store can never lazily fault in data that
// postdates its snapshot (it returns Unavailable and the caller
// rebuilds).
//
// Thread safety: GetBatch is safe to call concurrently; one internal
// mutex serializes cracking and lookups. The fetch callback runs with
// that mutex held (lock order: store mutex -> storage read lock; no
// path takes them in reverse).

#ifndef CRIMSON_CACHE_CRACKED_STORE_H_
#define CRIMSON_CACHE_CRACKED_STORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "obs/metrics.h"

namespace crimson {
namespace cache {

/// Where BenchmarkManager gets sequences for a sample. Implementations
/// must return NotFound("no sequence for sampled species '<name>'")
/// for the first requested name that has no sequence.
class SequenceSource {
 public:
  virtual ~SequenceSource() = default;

  /// Sequences for the named species, keyed by name. Names may repeat.
  virtual Result<std::map<std::string, std::string>> GetBatch(
      const std::vector<std::string>& names) const = 0;
};

/// Adapter over a fully materialized name -> sequence map (tests and
/// the BenchmarkManager map constructors).
class MapSequenceSource final : public SequenceSource {
 public:
  /// The map must outlive the source.
  explicit MapSequenceSource(const std::map<std::string, std::string>* map)
      : map_(map) {}

  Result<std::map<std::string, std::string>> GetBatch(
      const std::vector<std::string>& names) const override;

 private:
  const std::map<std::string, std::string>* map_;
};

/// Live residency levels of one store. The cumulative traffic counts
/// (crack.fetches, crack.batches, crack.piece_hits,
/// crack.sequences_loaded) live only in the registry cells.
struct CrackedStoreStats {
  uint64_t pieces = 0;              // pieces in the map (loaded + not)
  uint64_t loaded_pieces = 0;       // pieces materialized so far
  uint64_t sequences_resident = 0;  // ordinals fetched (present or missing)
  uint64_t sequences_total = 0;     // the ordinal domain size
};

/// The cracked per-tree sequence store. Ordinals are indices into the
/// sorted unique leaf-name domain fixed at construction.
class CrackedSequenceStore final : public SequenceSource {
 public:
  /// Receives one fetched sequence by its ordinal.
  using SinkFn = std::function<void(size_t ordinal, Slice sequence)>;

  /// Fetches the domain slice [lo, hi) from backing storage, calling
  /// sink(ordinal, sequence) for each ordinal in it that has a
  /// sequence; the others are recorded as having none. Errors
  /// propagate to the GetBatch caller unchanged.
  using FetchFn =
      std::function<Status(size_t lo, size_t hi, const SinkFn& sink)>;

  /// `names` is the ordinal domain and must be sorted and unique.
  /// `min_piece` is the cracking granularity: fetched slices are
  /// aligned out to multiples of it (0 behaves as 1). The cumulative
  /// crack.* counters are cells in `metrics` (null = the process-wide
  /// default registry), so they outlive this store and its EvalState.
  CrackedSequenceStore(std::vector<std::string> names, size_t min_piece,
                       FetchFn fetch, obs::MetricsRegistry* metrics = nullptr);

  Result<std::map<std::string, std::string>> GetBatch(
      const std::vector<std::string>& names) const override;

  CrackedStoreStats stats() const;

  size_t domain_size() const { return names_.size(); }

 private:
  // Sequence residency per ordinal.
  enum State : uint8_t { kUnknown = 0, kHave = 1, kMissing = 2 };

  // Piece map node: the piece covers [begin, end) where `begin` is the
  // map key.
  struct Piece {
    size_t end = 0;
    bool loaded = false;
  };

  /// Materializes [lo, hi), cracking unloaded pieces at aligned
  /// boundaries. Called with mu_ held.
  Status EnsureLoadedLocked(size_t lo, size_t hi) const;

  size_t AlignDown(size_t ordinal) const;
  size_t AlignUp(size_t ordinal) const;

  const std::vector<std::string> names_;
  const size_t min_piece_;
  const FetchFn fetch_;

  mutable std::mutex mu_;
  mutable std::map<size_t, Piece> pieces_;
  mutable std::vector<std::string> sequences_;
  mutable std::vector<uint8_t> state_;
  mutable uint64_t loaded_pieces_ = 0;
  mutable uint64_t sequences_resident_ = 0;
  /// Registry cells (resolved once in the ctor).
  obs::Counter* fetches_;
  obs::Counter* batches_;
  obs::Counter* piece_hits_;
  obs::Counter* sequences_loaded_;
};

}  // namespace cache
}  // namespace crimson

#endif  // CRIMSON_CACHE_CRACKED_STORE_H_
