#include "core/task_runner.h"

#include <algorithm>
#include <atomic>

namespace cre {

void TaskRunner::ParallelFor(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn,
    std::size_t grain) {
  if (n == 0) return;
  grain = std::max<std::size_t>(1, grain);
  const std::size_t pieces = (n + grain - 1) / grain;
  if (num_threads() <= 1 || pieces <= 1) {
    for (std::size_t begin = 0; begin < n; begin += grain) {
      fn(begin, std::min(n, begin + grain));
    }
    return;
  }
  std::atomic<std::size_t> next{0};
  auto drain = [&] {
    for (;;) {
      const std::size_t begin =
          next.fetch_add(grain, std::memory_order_relaxed);
      if (begin >= n) return;
      fn(begin, std::min(n, begin + grain));
    }
  };
  // The caller drains too, so one helper fewer than pieces suffices.
  const std::size_t helpers = std::min(num_threads(), pieces - 1);
  for (std::size_t t = 0; t < helpers; ++t) Submit(drain);
  drain();
  Wait();
}

}  // namespace cre
