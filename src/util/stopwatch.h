// Wall-clock stopwatch for the benchmark harnesses.

#ifndef DQUAG_UTIL_STOPWATCH_H_
#define DQUAG_UTIL_STOPWATCH_H_

#include <chrono>

namespace dquag {

/// Measures elapsed wall time since construction.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace dquag

#endif  // DQUAG_UTIL_STOPWATCH_H_
