#include "report.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>

namespace perfbench {

namespace fs = std::filesystem;

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  auto it = index_.find(name);
  if (it != index_.end()) {
    entries_[it->second].value = value;
    entries_[it->second].unit = unit;
    return;
  }
  index_[name] = entries_.size();
  entries_.push_back({name, value, unit});
}

double Metrics::Get(const std::string& name) const {
  auto it = index_.find(name);
  return it == index_.end() ? 0.0 : entries_[it->second].value;
}

void Metrics::PrintTable(const std::string& title) const {
  printf("-- %s\n", title.c_str());
  for (const Entry& e : entries_) {
    printf("  %-40s %16.6g %s\n", e.name.c_str(), e.value, e.unit.c_str());
  }
}

std::string Metrics::JsonFields() const {
  std::string out;
  char buf[64];
  for (const Entry& e : entries_) {
    if (!out.empty()) out += ", ";
    // %.17g keeps every digit; non-finite values are not valid JSON.
    snprintf(buf, sizeof(buf), "%.17g", std::isfinite(e.value) ? e.value : 0.0);
    out += "\"" + e.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           e.unit + "\"}";
  }
  return out;
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p / 100.0 * samples.size());
  size_t idx = rank <= 1 ? 0 : static_cast<size_t>(rank) - 1;
  if (idx >= samples.size()) idx = samples.size() - 1;
  return samples[idx];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         samples.size();
}

double PeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

void ResetDir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void RegistryDelta::Add(const crimson::obs::MetricsSnapshot& before,
                        const crimson::obs::MetricsSnapshot& after) {
  for (const auto& [name, value] : after.counters) {
    const uint64_t prior = before.counter(name);
    counters_[name] += value >= prior ? value - prior : 0;
  }
  for (const auto& [name, h] : after.histograms) {
    const crimson::obs::HistogramSnapshot* prior = before.histogram(name);
    const uint64_t c0 = prior ? prior->count : 0;
    const uint64_t s0 = prior ? prior->sum : 0;
    hist_count_[name] += h.count >= c0 ? h.count - c0 : 0;
    hist_sum_[name] += h.sum >= s0 ? h.sum - s0 : 0;
  }
}

uint64_t RegistryDelta::Counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

uint64_t RegistryDelta::HistCount(const std::string& name) const {
  auto it = hist_count_.find(name);
  return it == hist_count_.end() ? 0 : it->second;
}

uint64_t RegistryDelta::HistSum(const std::string& name) const {
  auto it = hist_sum_.find(name);
  return it == hist_sum_.end() ? 0 : it->second;
}

uint64_t RegistryDelta::HistSumMatching(const std::string& prefix,
                                        const std::string& suffix) const {
  uint64_t total = 0;
  for (const auto& [name, sum] : hist_sum_) {
    if (name.size() >= prefix.size() + suffix.size() &&
        name.compare(0, prefix.size(), prefix) == 0 &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      total += sum;
    }
  }
  return total;
}

double RegistryDelta::HistMean(const std::string& name) const {
  const uint64_t n = HistCount(name);
  return n == 0 ? 0.0 : static_cast<double>(HistSum(name)) / n;
}

uint64_t HashBytes(const void* data, size_t n, uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace perfbench
