// Metric collection and small measurement helpers shared by the
// benchmark workloads: percentiles, peak RSS, on-disk footprint, and
// the one-line JSON result the benchmark prints last.

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

/// Named metrics with units, kept in insertion order for printing.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  double Get(const std::string& name) const;

  /// One `name value unit` line per metric, for people reading the log.
  void PrintTable(const std::string& title) const;
  /// `"name": {"value": v, "unit": "u"}, ...` (no surrounding braces).
  std::string JsonFields() const;

 private:
  struct Entry {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Entry> entries_;
  std::map<std::string, size_t> index_;
};

/// Nearest-rank percentile (p in [0, 100]) of the samples; 0 if empty.
double Percentile(std::vector<double> samples, double p);
double Median(std::vector<double> samples);
double Mean(const std::vector<double>& samples);

/// Peak resident set (VmHWM) of a process in MiB; 0 when unreadable.
double PeakRssMb(pid_t pid);

/// Total size in bytes of the regular files under `dir` (recursive).
uint64_t DirBytes(const std::string& dir);

/// Removes `dir` recursively (if present) and creates it empty.
void ResetDir(const std::string& dir);

/// Seconds on a monotonic clock (arbitrary epoch).
double NowSeconds();

/// Difference between two registry snapshots: counter deltas plus
/// histogram count/sum deltas. Gauges travel with the counters in a
/// snapshot; `Level` reads the later snapshot's value instead.
class RegistryDelta {
 public:
  /// Adds (after - before) to the accumulated delta. Several session
  /// lifetimes (each with its own registry) can be folded in.
  void Add(const crimson::obs::MetricsSnapshot& before,
           const crimson::obs::MetricsSnapshot& after);
  uint64_t Counter(const std::string& name) const;
  uint64_t HistCount(const std::string& name) const;
  uint64_t HistSum(const std::string& name) const;
  /// Sum of HistSum over every histogram whose name has this prefix
  /// and suffix.
  uint64_t HistSumMatching(const std::string& prefix,
                           const std::string& suffix) const;
  /// HistSum / HistCount, 0 when empty.
  double HistMean(const std::string& name) const;

 private:
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, uint64_t> hist_count_;
  std::map<std::string, uint64_t> hist_sum_;
};

/// FNV-1a over a byte range, chained through `h`.
uint64_t HashBytes(const void* data, size_t n, uint64_t h);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
