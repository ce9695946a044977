#include "storage/page_versions.h"

#include <algorithm>
#include <cassert>

namespace crimson {

namespace {

/// One entry per snapshot this thread currently holds, innermost last.
/// Entries are owner-qualified so several databases in one process
/// (tests open many) never see each other's snapshots. An entry whose
/// token is gone from the owner's registry (ended on another thread)
/// is purged lazily during resolution.
struct ThreadSnapshotEntry {
  const PageVersions* owner;
  uint64_t token;
};

thread_local std::vector<ThreadSnapshotEntry> t_snapshots;

}  // namespace

PageVersions::PageVersions(obs::MetricsRegistry* metrics)
    : captured_pages_(metrics->GetCounter("pages.captured_pages")),
      version_hits_(metrics->GetCounter("pages.version_hits")),
      versions_dropped_(metrics->GetCounter("pages.versions_dropped")) {}

void PageVersions::BeginTxn(uint32_t base_page_count) {
  std::lock_guard<std::mutex> lock(mu_);
  assert(!txn_active_ && "write transaction already open");
  txn_active_ = true;
  txn_base_page_count_ = base_page_count;
  capture_epoch_ = committed_epoch_;
  writer_thread_ = std::this_thread::get_id();
  txn_captured_.clear();
}

void PageVersions::SealTxn() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!txn_active_) return;
  txn_active_ = false;
  writer_thread_ = std::thread::id();
  txn_captured_.clear();
  ++committed_epoch_;
  GcLocked();
}

void PageVersions::DropTxn() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!txn_active_) return;
  txn_active_ = false;
  writer_thread_ = std::thread::id();
  // The aborted transaction's captures are the newest entry of each
  // chain they touched (tagged capture_epoch_); with the frames/disk
  // restored to those very bytes, the entries are redundant.
  for (PageId id : txn_captured_) {
    auto it = versions_.find(id);
    if (it == versions_.end()) continue;
    auto& chain = it->second;
    while (!chain.empty() && chain.back().valid_through == capture_epoch_) {
      chain.pop_back();
      versions_dropped_->Increment();
    }
    if (chain.empty()) versions_.erase(it);
  }
  txn_captured_.clear();
  GcLocked();
}

void PageVersions::MaybeCapture(PageId id, const char* data) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!txn_active_ || id >= txn_base_page_count_) return;
  if (!txn_captured_.insert(id).second) return;  // already captured
  auto image = std::make_shared<std::vector<char>>(data, data + kPageSize);
  Version v;
  v.valid_through = capture_epoch_;
  v.data = std::move(image);
  auto& chain = versions_[id];
  assert(chain.empty() || chain.back().valid_through < capture_epoch_);
  chain.push_back(std::move(v));
  captured_pages_->Increment();
}

bool PageVersions::WouldCapture(PageId id) {
  std::lock_guard<std::mutex> lock(mu_);
  return txn_active_ && id < txn_base_page_count_ &&
         txn_captured_.count(id) == 0;
}

PageVersions::Snapshot PageVersions::RegisterSnapshot() {
  Snapshot snap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snap.token = next_token_++;
    snap.epoch = committed_epoch_;
    active_.emplace(snap.token, snap.epoch);
  }
  t_snapshots.push_back({this, snap.token});
  return snap;
}

void PageVersions::Unregister(uint64_t token) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    active_.erase(token);
    GcLocked();
  }
  // Pop from this thread's stack when ended where it began (the common
  // case); a cross-thread End leaves the origin entry for lazy purge.
  for (auto it = t_snapshots.rbegin(); it != t_snapshots.rend(); ++it) {
    if (it->owner == this && it->token == token) {
      t_snapshots.erase(std::next(it).base());
      break;
    }
  }
}

PageVersions::Resolution PageVersions::ResolveForThread(
    PageId id, std::shared_ptr<const std::vector<char>>* out) {
  // Lock-free fast path: no snapshot of this table on this thread
  // (covers the writer thread and every non-transactional reader).
  bool any = false;
  for (const ThreadSnapshotEntry& e : t_snapshots) {
    if (e.owner == this) {
      any = true;
      break;
    }
  }
  if (!any) return Resolution::kNoSnapshot;

  std::lock_guard<std::mutex> lock(mu_);
  if (txn_active_ && writer_thread_ == std::this_thread::get_id()) {
    // The writer reads its own uncommitted mutations, snapshots held
    // by this thread notwithstanding.
    return Resolution::kNoSnapshot;
  }
  // Innermost snapshot still live in the registry; purge stale entries
  // (ReadTxns ended on another thread) as they surface.
  uint64_t epoch = 0;
  bool found = false;
  for (auto it = t_snapshots.end(); it != t_snapshots.begin();) {
    --it;
    if (it->owner != this) continue;
    auto live = active_.find(it->token);
    if (live == active_.end()) {
      it = t_snapshots.erase(it);
      continue;
    }
    epoch = live->second;
    found = true;
    break;
  }
  if (!found) return Resolution::kNoSnapshot;

  auto it = versions_.find(id);
  if (it == versions_.end()) return Resolution::kUseFrame;
  // Smallest valid_through >= snapshot epoch: the image the page held
  // when the snapshot's epoch was the committed state.
  for (const Version& v : it->second) {
    if (v.valid_through >= epoch) {
      *out = v.data;
      version_hits_->Increment();
      return Resolution::kUseVersion;
    }
  }
  return Resolution::kUseFrame;
}

void PageVersions::GcLocked() {
  // An entry tagged E serves snapshots S <= E; keep it while such a
  // snapshot is live or the committed epoch has not moved past E (a
  // snapshot registered right now would pin committed_epoch_).
  uint64_t floor = committed_epoch_;
  for (const auto& [token, epoch] : active_) {
    floor = std::min(floor, epoch);
  }
  for (auto it = versions_.begin(); it != versions_.end();) {
    auto& chain = it->second;
    size_t keep = 0;
    while (keep < chain.size() && chain[keep].valid_through < floor) ++keep;
    if (keep > 0) {
      versions_dropped_->Add(keep);
      chain.erase(chain.begin(), chain.begin() + keep);
    }
    if (chain.empty()) {
      it = versions_.erase(it);
    } else {
      ++it;
    }
  }
}

uint64_t PageVersions::live_versions() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const auto& [id, chain] : versions_) n += chain.size();
  return n;
}

uint64_t PageVersions::active_snapshots() const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_.size();
}

}  // namespace crimson
