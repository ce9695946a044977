#include "cache/query_cache.h"

#include <utility>
#include <variant>

namespace crimson {
namespace cache {

namespace {

// Fixed bookkeeping cost charged per entry on top of the payload
// (hash node, list node, key copy in the recency list).
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
  bypassed_ = metrics->GetCounter("cache.bypassed");
  entries_gauge_ = metrics->GetGauge("cache.entries");
  bytes_used_gauge_ = metrics->GetGauge("cache.bytes_used");
  metrics->GetGauge("cache.budget_bytes")->Set(budget_);
}

bool QueryCache::IsCacheable(const QueryRequest& request) {
  return !std::holds_alternative<SampleUniformQuery>(request) &&
         !std::holds_alternative<SampleTimeQuery>(request);
}

std::string QueryCache::KeyFor(int64_t tree_id, const QueryRequest& request) {
  std::string key(QueryKindName(request));
  key.push_back('?');
  key += EncodeQueryParams(std::to_string(tree_id), request);
  return key;
}

std::optional<QueryResult> QueryCache::Lookup(const std::string& key) {
  if (!enabled()) return std::nullopt;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    misses_->Increment();
    return std::nullopt;
  }
  Entry& entry = it->second;
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

void QueryCache::Insert(const std::string& key, const QueryResult& result) {
  if (!enabled()) return;
  const uint64_t bytes =
      kEntryOverhead + 2 * key.size() + ApproxResultBytes(result);
  std::lock_guard<std::mutex> lock(mu_);
  // A concurrent miss on the same key already inserted the same
  // answer; keep the resident copy.
  if (entries_.count(key) != 0) return;
  if (bytes > budget_) return;  // would evict everything for one entry
  EvictForLocked(bytes);
  auto [eit, inserted] = entries_.emplace(
      key, Entry{result, bytes, Segment::kProbation, {}});
  probation_.push_front(eit->first);
  eit->second.pos = probation_.begin();
  bytes_used_ += bytes;
  insertions_->Increment();
  entries_gauge_->Set(entries_.size());
  bytes_used_gauge_->Set(bytes_used_);
}

void QueryCache::EvictForLocked(uint64_t incoming_bytes) {
  // Insert refreshes the gauges once the new entry is in.
  while (bytes_used_ + incoming_bytes > budget_) {
    std::list<std::string>* victims =
        !probation_.empty() ? &probation_ : &protected_;
    if (victims->empty()) return;
    auto it = entries_.find(victims->back());
    victims->pop_back();
    if (it->second.segment == Segment::kProtected) {
      protected_bytes_ -= it->second.bytes;
    }
    bytes_used_ -= it->second.bytes;
    entries_.erase(it);
    evictions_->Increment();
  }
}

void QueryCache::NoteBypass() {
  if (enabled()) bypassed_->Increment();
}

}  // namespace cache
}  // namespace crimson
