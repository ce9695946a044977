#include "cache/cracked_store.h"

#include <algorithm>
#include <utility>

#include "common/status.h"
#include "common/string_util.h"

namespace crimson {
namespace cache {

namespace {

Status NoSequence(const std::string& name) {
  return Status::NotFound(
      StrFormat("no sequence for sampled species '%s'", name.c_str()));
}

}  // namespace

Result<std::map<std::string, std::string>> MapSequenceSource::GetBatch(
    const std::vector<std::string>& names) const {
  std::map<std::string, std::string> out;
  for (const std::string& name : names) {
    auto it = map_->find(name);
    if (it == map_->end()) return NoSequence(name);
    out.emplace(it->first, it->second);
  }
  return out;
}

CrackedSequenceStore::CrackedSequenceStore(std::vector<std::string> names,
                                           size_t min_piece, FetchFn fetch,
                                           obs::MetricsRegistry* metrics)
    : names_(std::move(names)),
      min_piece_(min_piece == 0 ? 1 : min_piece),
      fetch_(std::move(fetch)),
      sequences_(names_.size()),
      state_(names_.size(), kUnknown) {
  if (!names_.empty()) {
    pieces_.emplace(0, Piece{names_.size(), false});
  }
  if (metrics == nullptr) metrics = &obs::MetricsRegistry::Default();
  fetches_ = metrics->GetCounter("crack.fetches");
  batches_ = metrics->GetCounter("crack.batches");
  piece_hits_ = metrics->GetCounter("crack.piece_hits");
  sequences_loaded_ = metrics->GetCounter("crack.sequences_loaded");
}

size_t CrackedSequenceStore::AlignDown(size_t ordinal) const {
  return ordinal - ordinal % min_piece_;
}

size_t CrackedSequenceStore::AlignUp(size_t ordinal) const {
  size_t up = ordinal + (min_piece_ - ordinal % min_piece_) % min_piece_;
  return std::min(up, names_.size());
}

Status CrackedSequenceStore::EnsureLoadedLocked(size_t lo, size_t hi) const {
  // Walk the pieces overlapping [lo, hi); crack and fetch the unloaded
  // ones. Keys of pieces to process are collected first because
  // cracking mutates the map under the iterator.
  std::vector<size_t> pending;
  {
    auto it = pieces_.upper_bound(lo);
    if (it != pieces_.begin()) --it;
    for (; it != pieces_.end() && it->first < hi; ++it) {
      if (!it->second.loaded && it->second.end > lo) {
        pending.push_back(it->first);
      }
    }
  }
  for (size_t begin : pending) {
    auto it = pieces_.find(begin);
    const size_t end = it->second.end;
    // Crack the piece at the (aligned) touched boundaries.
    const size_t cut_lo = std::max(begin, AlignDown(lo));
    const size_t cut_hi = std::min(end, AlignUp(hi));
    // A failed fetch leaves the slice unknown, so a retry fetches it.
    Status fetched = fetch_(cut_lo, cut_hi, [&](size_t ord, Slice sequence) {
      if (ord < cut_lo || ord >= cut_hi) return;
      sequences_[ord].assign(sequence.data(), sequence.size());
      state_[ord] = kHave;
    });
    if (!fetched.ok()) {
      std::fill(state_.begin() + cut_lo, state_.begin() + cut_hi, kUnknown);
      return fetched;
    }
    fetches_->Increment();
    for (size_t ord = cut_lo; ord < cut_hi; ++ord) {
      if (state_[ord] != kHave) state_[ord] = kMissing;
    }
    sequences_resident_ += cut_hi - cut_lo;
    sequences_loaded_->Add(cut_hi - cut_lo);
    // Split: [begin, cut_lo) stays cold, [cut_lo, cut_hi) is hot,
    // [cut_hi, end) stays cold.
    if (cut_lo > begin) {
      it->second.end = cut_lo;
      it = pieces_.emplace(cut_lo, Piece{cut_hi, true}).first;
    } else {
      it->second.end = cut_hi;
      it->second.loaded = true;
    }
    ++loaded_pieces_;
    if (cut_hi < end) {
      pieces_.emplace(cut_hi, Piece{end, false});
    }
  }
  return Status::OK();
}

Result<std::map<std::string, std::string>> CrackedSequenceStore::GetBatch(
    const std::vector<std::string>& names) const {
  std::lock_guard<std::mutex> lock(mu_);
  batches_->Increment();
  // Resolve names to ordinals (the domain is sorted).
  std::vector<size_t> ordinals;
  ordinals.reserve(names.size());
  for (const std::string& name : names) {
    auto it = std::lower_bound(names_.begin(), names_.end(), name);
    if (it == names_.end() || *it != name) return NoSequence(name);
    ordinals.push_back(static_cast<size_t>(it - names_.begin()));
  }
  // Coalesce the touched ordinals into ranges so near-adjacent touches
  // (within one granule) crack a single piece instead of many.
  std::vector<size_t> sorted = ordinals;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  // Every fetch loads exactly one piece, so an unchanged piece count
  // means the batch was served without touching storage.
  const uint64_t loaded_before = loaded_pieces_;
  size_t i = 0;
  while (i < sorted.size()) {
    size_t j = i;
    while (j + 1 < sorted.size() && sorted[j + 1] - sorted[j] <= min_piece_) {
      ++j;
    }
    CRIMSON_RETURN_IF_ERROR(EnsureLoadedLocked(sorted[i], sorted[j] + 1));
    i = j + 1;
  }
  if (loaded_pieces_ == loaded_before) piece_hits_->Increment();
  // Assemble in request order so the first missing name reported
  // matches the eager path's error exactly.
  std::map<std::string, std::string> out;
  for (size_t k = 0; k < names.size(); ++k) {
    const size_t ord = ordinals[k];
    if (state_[ord] != kHave) return NoSequence(names[k]);
    out.emplace(names[k], sequences_[ord]);
  }
  return out;
}

CrackedStoreStats CrackedSequenceStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  CrackedStoreStats stats;
  stats.pieces = pieces_.size();
  stats.loaded_pieces = loaded_pieces_;
  stats.sequences_resident = sequences_resident_;
  stats.sequences_total = names_.size();
  return stats;
}

}  // namespace cache
}  // namespace crimson
