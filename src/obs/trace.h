// Per-query trace spans. A TraceContext rides the executing thread
// (thread-local, no allocation, no locking) and accumulates
// microseconds per pipeline stage; Crimson::Execute publishes the
// finished breakdown into the per-stage histograms and, when the
// query ran over the slow-query threshold, into one structured log
// line (see CrimsonOptions::slow_query_micros).
//
// Threading model: ScopedTrace installs a stack-allocated context on
// the current thread if none is active, and *reuses* the active one
// otherwise -- so a server connection thread can open a context before
// admission control, and the session Execute running on that same
// thread (ExecuteBatch's ParallelFor includes the caller) attributes
// the admission wait to the query. Worker threads without an installed
// context get their own from Execute's ScopedTrace. SpanTimer is a
// strict no-op when no context is active, which keeps every
// instrumented call site unconditional.

#ifndef CRIMSON_OBS_TRACE_H_
#define CRIMSON_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/timer.h"

namespace crimson {
namespace obs {

/// The instrumented stages of one query's life. Order is the wire /
/// log order; kStageCount must track the enum.
enum class Stage : uint8_t {
  kAdmissionWait = 0,  // server: waiting for an execution slot
  kCacheLookup,        // result-cache probe (hit or miss)
  kEvalBuild,          // EvalState materialization / cracked fetch
  kStorageRead,        // storage-read section (snapshot reads)
  kLabelDecode,        // persisted layered-Dewey label decode
  kHistoryEnqueue,     // history-buffer append (+ backpressure wait)
  kExecute,            // pure query compute on the bound handle
};

inline constexpr size_t kStageCount = 7;

/// Stable lowercase stage name ("admission_wait", ...); doubles as the
/// per-stage histogram suffix (query.stage.<name>_us).
std::string_view StageName(Stage stage);

class TraceContext {
 public:
  TraceContext() = default;
  TraceContext(const TraceContext&) = delete;
  TraceContext& operator=(const TraceContext&) = delete;

  void Add(Stage stage, int64_t us) {
    if (us > 0) span_us_[static_cast<size_t>(stage)] += us;
  }
  int64_t span_us(Stage stage) const {
    return span_us_[static_cast<size_t>(stage)];
  }
  /// Wall micros since construction or the last Reset.
  int64_t total_us() const { return timer_.ElapsedMicros(); }

  /// "cache_lookup=12us execute=340us" -- nonzero spans only, stage
  /// order, for the slow-query log.
  std::string Breakdown() const;

  /// Clears spans and restarts the clock. Execute resets the context
  /// after publishing, so a reused (connection-thread) context starts
  /// each query of a pipelined run clean.
  void Reset();

  /// The context installed on this thread, or nullptr.
  static TraceContext* Current();

 private:
  friend class ScopedTrace;

  int64_t span_us_[kStageCount] = {0};
  WallTimer timer_;
};

/// Installs a TraceContext on this thread for the enclosing scope, or
/// adopts the already-installed one (nested scopes share it).
class ScopedTrace {
 public:
  ScopedTrace();
  ~ScopedTrace();

  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

  TraceContext* context() { return ctx_; }
  /// True when this scope installed the context (outermost scope).
  bool owner() const { return owner_; }

 private:
  TraceContext local_;
  TraceContext* ctx_;
  bool owner_;
};

/// RAII span: adds the scope's elapsed micros to `stage` on the
/// thread's active context; no-op without one. Movable so guards that
/// carry one (StorageReadGuard) stay movable; the moved-from timer is
/// disarmed.
class SpanTimer {
 public:
  explicit SpanTimer(Stage stage)
      : ctx_(TraceContext::Current()), stage_(stage) {}
  SpanTimer(SpanTimer&& other) noexcept
      : ctx_(other.ctx_), stage_(other.stage_), timer_(other.timer_) {
    other.ctx_ = nullptr;
  }
  SpanTimer& operator=(SpanTimer&& other) noexcept {
    if (this != &other) {
      Finish();
      ctx_ = other.ctx_;
      stage_ = other.stage_;
      timer_ = other.timer_;
      other.ctx_ = nullptr;
    }
    return *this;
  }
  ~SpanTimer() { Finish(); }

  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

 private:
  void Finish() {
    if (ctx_ != nullptr) ctx_->Add(stage_, timer_.ElapsedMicros());
    ctx_ = nullptr;
  }

  TraceContext* ctx_;
  Stage stage_;
  WallTimer timer_;
};

}  // namespace obs
}  // namespace crimson

#endif  // CRIMSON_OBS_TRACE_H_
