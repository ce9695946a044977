#include "cache/query_cache.h"

#include <utility>
#include <variant>

namespace crimson {
namespace cache {

namespace {

// Fixed bookkeeping cost charged per entry on top of the payload
// (hash node, list node, stamp, key copy in the recency list).
constexpr uint64_t kEntryOverhead = 160;

// The protected segment may hold at most this fraction of the budget;
// beyond it, protected LRU entries demote back into probation.
constexpr uint64_t kProtectedNum = 3;
constexpr uint64_t kProtectedDen = 4;

uint64_t ApproxTreeBytes(const PhyloTree& tree) {
  // Packed columns + name arena, straight from the tree (O(1)).
  return tree.MemoryFootprintBytes();
}

}  // namespace

uint64_t ApproxResultBytes(const QueryResult& result) {
  struct Visitor {
    uint64_t operator()(const LcaAnswer& a) const {
      return 16 + a.name.size();
    }
    uint64_t operator()(const ProjectAnswer& a) const {
      return ApproxTreeBytes(a.projection);
    }
    uint64_t operator()(const SampleAnswer& a) const {
      uint64_t bytes = 0;
      for (const auto& s : a.species) bytes += 32 + s.size();
      return bytes;
    }
    uint64_t operator()(const CladeAnswer&) const { return 24; }
    uint64_t operator()(const PatternAnswer& a) const {
      return 16 + ApproxTreeBytes(a.projection);
    }
  };
  return std::visit(Visitor{}, result);
}

QueryCache::QueryCache(uint64_t budget_bytes, obs::MetricsRegistry* metrics)
    : budget_(budget_bytes) {
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  hits_ = metrics->GetCounter("cache.hits");
  misses_ = metrics->GetCounter("cache.misses");
  insertions_ = metrics->GetCounter("cache.insertions");
  evictions_ = metrics->GetCounter("cache.evictions");
  invalidations_ = metrics->GetCounter("cache.invalidations");
  stale_skips_ = metrics->GetCounter("cache.stale_skips");
  bypassed_ = metrics->GetCounter("cache.bypassed");
  entries_gauge_ = metrics->GetGauge("cache.entries");
  bytes_used_gauge_ = metrics->GetGauge("cache.bytes_used");
  metrics->GetGauge("cache.budget_bytes")->Set(budget_);
}

bool QueryCache::IsCacheable(const QueryRequest& request) {
  return !std::holds_alternative<SampleUniformQuery>(request) &&
         !std::holds_alternative<SampleTimeQuery>(request);
}

std::string QueryCache::KeyFor(const std::string& tree_name,
                               const QueryRequest& request) {
  std::string key(QueryKindName(request));
  key.push_back('?');
  key += EncodeQueryParams(tree_name, request);
  return key;
}

QueryCache::TreeState& QueryCache::StateLocked(const std::string& tree) {
  return trees_[tree];
}

bool QueryCache::ValidLocked(const std::string& tree,
                             const ReadStamp& stamp) const {
  auto it = trees_.find(tree);
  if (it == trees_.end()) {
    // No mutation has ever touched the tree in this cache's lifetime.
    return stamp.generation == 0;
  }
  return stamp.generation == it->second.generation &&
         stamp.epoch >= it->second.barrier_epoch;
}

ReadStamp QueryCache::Stamp(const std::string& tree_name,
                            uint64_t committed_epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = trees_.find(tree_name);
  uint64_t generation = it == trees_.end() ? 0 : it->second.generation;
  return ReadStamp{generation, committed_epoch};
}

std::optional<QueryResult> QueryCache::Lookup(const std::string& tree_name,
                                              const std::string& key) {
  if (!enabled()) return std::nullopt;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    misses_->Increment();
    return std::nullopt;
  }
  Entry& entry = it->second;
  if (!ValidLocked(tree_name, entry.stamp)) {
    invalidations_->Increment();
    misses_->Increment();
    EraseEntryLocked(it);
    return std::nullopt;
  }
  hits_->Increment();
  if (entry.segment == Segment::kProbation) {
    // First re-reference: promote into the protected segment.
    probation_.erase(entry.pos);
    protected_.push_front(it->first);
    entry.pos = protected_.begin();
    entry.segment = Segment::kProtected;
    protected_bytes_ += entry.bytes;
    // Keep the protected segment within its share of the budget by
    // demoting its own LRU tail (never the entry just promoted).
    while (protected_bytes_ * kProtectedDen > budget_ * kProtectedNum &&
           protected_.size() > 1) {
      const std::string& victim_key = protected_.back();
      auto vit = entries_.find(victim_key);
      Entry& victim = vit->second;
      protected_bytes_ -= victim.bytes;
      protected_.pop_back();
      probation_.push_front(vit->first);
      victim.pos = probation_.begin();
      victim.segment = Segment::kProbation;
    }
  } else {
    protected_.splice(protected_.begin(), protected_, entry.pos);
    entry.pos = protected_.begin();
  }
  return entry.result;
}

void QueryCache::Insert(const std::string& tree_name, const std::string& key,
                        const ReadStamp& stamp, const QueryResult& result) {
  if (!enabled()) return;
  const uint64_t bytes =
      kEntryOverhead + 2 * key.size() + tree_name.size() +
      ApproxResultBytes(result);
  std::lock_guard<std::mutex> lock(mu_);
  if (!ValidLocked(tree_name, stamp)) {
    // A mutation began or committed while the query ran; the result
    // may reflect a superseded snapshot, so it never enters the cache.
    stale_skips_->Increment();
    return;
  }
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    // A concurrent miss on the same key already inserted; both copies
    // were computed under valid stamps, so keep the resident one.
    return;
  }
  if (bytes > budget_) return;  // would evict everything for one entry
  EvictForLocked(bytes);
  auto [eit, inserted] = entries_.emplace(
      key, Entry{tree_name, result, stamp, bytes, Segment::kProbation, {}});
  probation_.push_front(eit->first);
  eit->second.pos = probation_.begin();
  bytes_used_ += bytes;
  insertions_->Increment();
  entries_gauge_->Set(entries_.size());
  bytes_used_gauge_->Set(bytes_used_);
}

void QueryCache::EvictForLocked(uint64_t incoming_bytes) {
  while (bytes_used_ + incoming_bytes > budget_) {
    std::list<std::string>* victim_list =
        !probation_.empty() ? &probation_ : &protected_;
    if (victim_list->empty()) return;
    auto it = entries_.find(victim_list->back());
    EraseEntryLocked(it);
    evictions_->Increment();
  }
}

void QueryCache::EraseEntryLocked(
    std::unordered_map<std::string, Entry>::iterator it) {
  Entry& entry = it->second;
  if (entry.segment == Segment::kProbation) {
    probation_.erase(entry.pos);
  } else {
    protected_.erase(entry.pos);
    protected_bytes_ -= entry.bytes;
  }
  bytes_used_ -= entry.bytes;
  entries_.erase(it);
  entries_gauge_->Set(entries_.size());
  bytes_used_gauge_->Set(bytes_used_);
}

void QueryCache::BeginTreeMutation(const std::string& tree_name) {
  std::lock_guard<std::mutex> lock(mu_);
  TreeState& state = StateLocked(tree_name);
  state.saved_generation = state.generation;
  ++state.generation;
}

void QueryCache::CommitTreeMutation(const std::string& tree_name,
                                    uint64_t committed_epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  TreeState& state = StateLocked(tree_name);
  state.barrier_epoch = committed_epoch;
}

void QueryCache::AbortTreeMutation(const std::string& tree_name) {
  std::lock_guard<std::mutex> lock(mu_);
  TreeState& state = StateLocked(tree_name);
  // The aborted transaction changed nothing: entries stamped before
  // Begin are still correct, so the generation rolls back.
  state.generation = state.saved_generation;
}

void QueryCache::EraseTree(const std::string& tree_name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.tree == tree_name) {
      auto next = std::next(it);
      EraseEntryLocked(it);
      invalidations_->Increment();
      it = next;
    } else {
      ++it;
    }
  }
  trees_.erase(tree_name);
}

void QueryCache::NoteBypass() {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  bypassed_->Increment();
}

}  // namespace cache
}  // namespace crimson
