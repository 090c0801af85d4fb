#ifndef CRE_CORE_TIMER_H_
#define CRE_CORE_TIMER_H_

#include <chrono>

namespace cre {

/// Wall-clock stopwatch for bench harnesses.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or last Reset().
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double Millis() const { return Seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace cre

#endif  // CRE_CORE_TIMER_H_
