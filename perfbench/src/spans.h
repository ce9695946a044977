// In-memory span recorder for traced benchmark runs. Spans are taken
// by the benchmark around its own calls into each layer's public
// functions (no spans live inside the library). Each span carries a
// name, start, end, parent span and request id; spans stay in memory
// while the run measures and are written out once it ends.
//
// Span names are "<layer>.<what>" (crimson.execute.lca,
// query.compute.clade, net.client_encode, ...); the self-time report
// groups them by the layer prefix.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 for a root span
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t name = 0;  // index into the recorder's name table
};

class SpanRecorder;

/// One thread's span buffer. Not thread-safe: each recording thread
/// owns its lane, so taking a span costs two clock reads and a push.
class SpanLane {
 public:
  /// Opens a span and returns its id (pass it to Close and as the
  /// parent of child spans).
  uint64_t Open(uint32_t name, uint64_t request, uint64_t parent = 0);
  void Close(uint64_t id);
  /// Records an already-timed span.
  uint64_t Add(uint32_t name, uint64_t request, uint64_t parent,
               int64_t start_ns, int64_t end_ns);
  /// Duration of a closed span in microseconds.
  double DurationUs(uint64_t id) const;
  int64_t StartNs(uint64_t id) const;

 private:
  friend class SpanRecorder;
  SpanLane(const SpanRecorder* owner, uint32_t lane)
      : owner_(owner), lane_(lane) {}

  const SpanRecorder* owner_;
  uint32_t lane_;
  std::vector<SpanRecord> spans_;
};

class SpanRecorder {
 public:
  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Name table entry for `name` (thread-safe; resolve names before
  /// the timed loop).
  uint32_t Intern(const std::string& name);
  /// A new lane for one recording thread; valid for the recorder's
  /// lifetime.
  SpanLane* NewLane();

  /// Nanoseconds since the recorder was created.
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  struct NameStats {
    uint64_t count = 0;
    double total_us = 0;
    double self_us = 0;
  };
  /// Per span name: count, total time, and self time (duration minus
  /// the union of its children's intervals, clipped to the span).
  std::map<std::string, NameStats> SelfTimes() const;
  /// Prints the self-time report grouped by layer prefix.
  void PrintSelfTimeReport() const;
  /// Writes every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;
  size_t span_count() const;

 private:
  friend class SpanLane;

  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<std::string> names_;
  std::map<std::string, uint32_t> name_ids_;
  std::vector<std::unique_ptr<SpanLane>> lanes_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
