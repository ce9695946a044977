// The unified observability registry (ROADMAP: see DESIGN.md
// "Observability"): named monotonic counters, gauges, and fixed-bucket
// latency histograms with lock-free atomic cells.
//
// Design rules:
//   - Registration (name -> cell lookup) is rare and takes a mutex;
//     instrumented call sites resolve their cells ONCE (at construction
//     / open time) and afterwards touch only relaxed std::atomic
//     cells, so the hot path pays one uncontended atomic RMW per
//     update and never a lock or a map probe.
//   - Cells are never deleted: a Counter*/Gauge*/Histogram* returned by
//     a registry stays valid for the registry's lifetime, which is why
//     call sites may cache the raw pointer.
//   - Snapshots are point-in-time copies into plain sorted maps, which
//     is what makes the wire encoding deterministic (byte-identical
//     re-encode of a decoded snapshot; see net/protocol.cc).
//
// Scoping: every Crimson session owns one registry (its storage
// engine, cache, and any server front door all write into it), so
// concurrent sessions in one process -- the unit-test norm -- never
// contaminate each other's counters. Components constructed without a
// registry own a private one (QueryCache, Database) or fall back to the
// process-wide MetricsRegistry::Default() (BufferPool); either way the
// cells are the only copy of a count.
//
// The Noop* twins mirror the update API with empty inline bodies;
// bench_metrics compiles its hot loop against both to gate the
// instrumentation overhead (<= 2%).

#ifndef CRIMSON_OBS_METRICS_H_
#define CRIMSON_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace crimson {
namespace obs {

/// A monotonically increasing event count.
class Counter {
 public:
  void Increment() { Add(1); }
  void Add(uint64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// A point-in-time level (entries, bytes, epochs); last write wins.
class Gauge {
 public:
  void Set(uint64_t v) { v_.store(v, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Point-in-time copy of one histogram: inclusive upper bounds per
/// bucket (the last bound is UINT64_MAX, the overflow bucket), the
/// per-bucket counts, and the total count/sum. Self-describing: the
/// bounds travel with the counts, so a decoder needs no schema.
struct HistogramSnapshot {
  std::vector<uint64_t> bounds;
  std::vector<uint64_t> counts;
  uint64_t count = 0;
  uint64_t sum = 0;

  /// Estimated value at percentile `p` in [0, 100], linearly
  /// interpolated inside the containing bucket. The overflow bucket
  /// reports its lower edge (the last finite bound) -- a floor, since
  /// the true values are unbounded above. 0 when empty.
  double Percentile(double p) const;
  double p50() const { return Percentile(50); }
  double p95() const { return Percentile(95); }
  double p99() const { return Percentile(99); }
  double mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / count;
  }

  /// Width of the bucket that contains `value` (the percentile
  /// agreement tolerance in bench_metrics).
  double BucketWidth(double value) const;
};

/// Fixed-bucket histogram: one atomic cell per bucket plus sum/count.
/// Observe is lock-free and wait-free; Snapshot is a relaxed read of
/// every cell (counts observed mid-burst may be torn *across* cells,
/// never within one -- fine for telemetry).
class Histogram {
 public:
  /// `bounds` are strictly increasing inclusive upper edges; an
  /// overflow bucket (UINT64_MAX) is appended implicitly.
  explicit Histogram(const std::vector<uint64_t>& bounds);

  void Observe(uint64_t value);
  HistogramSnapshot Snapshot() const;

  /// The default latency scale: exponential 1us .. ~1s, 21 buckets
  /// plus overflow. Sub-microsecond resolution is below what the span
  /// timers can measure; queries beyond a second land in overflow.
  static const std::vector<uint64_t>& DefaultLatencyBoundsUs();

 private:
  const std::vector<uint64_t> bounds_;  // includes the UINT64_MAX edge
  std::unique_ptr<std::atomic<uint64_t>[]> cells_;
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

/// Point-in-time copy of a whole registry. Counters and gauges are
/// merged into one value map (both are just named uint64 readings on
/// the wire); sorted maps make the encoding deterministic.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, HistogramSnapshot> histograms;

  uint64_t counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  const HistogramSnapshot* histogram(const std::string& name) const {
    auto it = histograms.find(name);
    return it == histograms.end() ? nullptr : &it->second;
  }
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Looks up or creates the named cell. The returned pointer is
  /// stable for the registry's lifetime; resolve once, cache, update
  /// lock-free. A name is one kind only -- re-requesting it as a
  /// different kind returns a fresh detached cell (excluded from
  /// snapshots) rather than crashing.
  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  /// `bounds` applies only on first creation (empty = the default
  /// latency scale).
  Histogram* GetHistogram(std::string_view name,
                          const std::vector<uint64_t>& bounds = {});

  MetricsSnapshot Snapshot() const;

  /// The process-wide registry, for components constructed without an
  /// explicit one.
  static MetricsRegistry& Default();

 private:
  struct Cell {
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable std::mutex mu_;
  std::map<std::string, Cell, std::less<>> cells_;
  /// Kind-mismatch fallbacks; alive but never snapshotted.
  std::vector<std::unique_ptr<Counter>> orphan_counters_;
  std::vector<std::unique_ptr<Gauge>> orphan_gauges_;
  std::vector<std::unique_ptr<Histogram>> orphan_histograms_;
};

// -- no-op twins (bench_metrics overhead baseline) --------------------------

struct NoopCounter {
  void Increment() {}
  void Add(uint64_t) {}
};

struct NoopHistogram {
  void Observe(uint64_t) {}
};

struct NoopRegistry {
  NoopCounter* GetCounter(std::string_view) { return &counter_; }
  NoopHistogram* GetHistogram(std::string_view) { return &histogram_; }
  NoopCounter counter_;
  NoopHistogram histogram_;
};

}  // namespace obs
}  // namespace crimson

#endif  // CRIMSON_OBS_METRICS_H_
