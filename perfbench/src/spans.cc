#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

namespace {

// Span ids: lane index in the high bits, 1-based position in the lane
// below, so an id locates its record without a lookup table.
constexpr int kLaneShift = 40;

uint64_t MakeId(uint32_t lane, size_t index) {
  return (static_cast<uint64_t>(lane) << kLaneShift) | (index + 1);
}

size_t IndexOf(uint64_t id) {
  return static_cast<size_t>((id & ((1ULL << kLaneShift) - 1)) - 1);
}

}  // namespace

uint64_t SpanLane::Open(uint32_t name, uint64_t request, uint64_t parent) {
  SpanRecord r;
  r.id = MakeId(lane_, spans_.size());
  r.parent = parent;
  r.request = request;
  r.name = name;
  r.start_ns = owner_->NowNs();
  spans_.push_back(r);
  return r.id;
}

void SpanLane::Close(uint64_t id) {
  spans_[IndexOf(id)].end_ns = owner_->NowNs();
}

uint64_t SpanLane::Add(uint32_t name, uint64_t request, uint64_t parent,
                       int64_t start_ns, int64_t end_ns) {
  SpanRecord r;
  r.id = MakeId(lane_, spans_.size());
  r.parent = parent;
  r.request = request;
  r.name = name;
  r.start_ns = start_ns;
  r.end_ns = end_ns;
  spans_.push_back(r);
  return r.id;
}

double SpanLane::DurationUs(uint64_t id) const {
  const SpanRecord& r = spans_[IndexOf(id)];
  return (r.end_ns - r.start_ns) / 1e3;
}

int64_t SpanLane::StartNs(uint64_t id) const {
  return spans_[IndexOf(id)].start_ns;
}

SpanRecorder::SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

uint32_t SpanRecorder::Intern(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = name_ids_.find(name);
  if (it != name_ids_.end()) return it->second;
  const uint32_t id = static_cast<uint32_t>(names_.size());
  names_.push_back(name);
  name_ids_[name] = id;
  return id;
}

SpanLane* SpanRecorder::NewLane() {
  std::lock_guard<std::mutex> lock(mu_);
  lanes_.emplace_back(
      new SpanLane(this, static_cast<uint32_t>(lanes_.size())));
  return lanes_.back().get();
}

size_t SpanRecorder::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& lane : lanes_) n += lane->spans_.size();
  return n;
}

std::map<std::string, SpanRecorder::NameStats> SpanRecorder::SelfTimes()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children's intervals per parent id (children always live in their
  // parent's lane, but resolve through the id to stay general).
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const auto& lane : lanes_) {
    for (const SpanRecord& r : lane->spans_) {
      if (r.parent != 0) children[r.parent].push_back({r.start_ns, r.end_ns});
    }
  }
  std::map<std::string, NameStats> out;
  for (const auto& lane : lanes_) {
    for (const SpanRecord& r : lane->spans_) {
      NameStats& s = out[names_[r.name]];
      const int64_t dur = r.end_ns - r.start_ns;
      int64_t covered = 0;
      auto it = children.find(r.id);
      if (it != children.end()) {
        auto iv = it->second;
        std::sort(iv.begin(), iv.end());
        int64_t cur_start = 0, cur_end = -1;
        for (auto [a, b] : iv) {
          a = std::max(a, r.start_ns);
          b = std::min(b, r.end_ns);
          if (b <= a) continue;
          if (a > cur_end) {
            if (cur_end > cur_start) covered += cur_end - cur_start;
            cur_start = a;
            cur_end = b;
          } else {
            cur_end = std::max(cur_end, b);
          }
        }
        if (cur_end > cur_start) covered += cur_end - cur_start;
      }
      s.count += 1;
      s.total_us += dur / 1e3;
      s.self_us += (dur - covered) / 1e3;
    }
  }
  return out;
}

void SpanRecorder::PrintSelfTimeReport() const {
  const std::map<std::string, NameStats> stats = SelfTimes();
  std::map<std::string, NameStats> layers;
  for (const auto& [name, s] : stats) {
    const std::string layer = name.substr(0, name.find('.'));
    NameStats& l = layers[layer];
    l.count += s.count;
    l.total_us += s.total_us;
    l.self_us += s.self_us;
  }
  printf("-- span self time by layer (%zu spans)\n", span_count());
  printf("  %-12s %10s %14s %14s\n", "layer", "spans", "total_ms", "self_ms");
  for (const auto& [layer, s] : layers) {
    printf("  %-12s %10llu %14.3f %14.3f\n", layer.c_str(),
           static_cast<unsigned long long>(s.count), s.total_us / 1e3,
           s.self_us / 1e3);
  }
  printf("-- span self time by name\n");
  printf("  %-36s %10s %12s %12s\n", "span", "count", "mean_us", "self_us");
  for (const auto& [name, s] : stats) {
    printf("  %-36s %10llu %12.2f %12.2f\n", name.c_str(),
           static_cast<unsigned long long>(s.count),
           s.count ? s.total_us / s.count : 0.0,
           s.count ? s.self_us / s.count : 0.0);
  }
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const auto& lane : lanes_) {
    for (const SpanRecord& r : lane->spans_) {
      fprintf(f,
              "{\"id\": %llu, \"parent\": %llu, \"request\": %llu, "
              "\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld}\n",
              static_cast<unsigned long long>(r.id),
              static_cast<unsigned long long>(r.parent),
              static_cast<unsigned long long>(r.request),
              names_[r.name].c_str(), static_cast<long long>(r.start_ns),
              static_cast<long long>(r.end_ns));
    }
  }
  return fclose(f) == 0;
}

}  // namespace perfbench
