// Wall-clock timer for benchmark harnesses and load reports.

#ifndef CRIMSON_COMMON_TIMER_H_
#define CRIMSON_COMMON_TIMER_H_

#include <chrono>
#include <cstdint>

namespace crimson {

/// Monotonic stopwatch.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  int64_t ElapsedMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               Clock::now() - start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace crimson

#endif  // CRIMSON_COMMON_TIMER_H_
