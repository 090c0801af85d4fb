#ifndef CRE_CORE_TASK_RUNNER_H_
#define CRE_CORE_TASK_RUNNER_H_

#include <cstddef>
#include <functional>

namespace cre {

/// Abstract task-execution surface the parallel operators run on. The
/// engine's implementation is QueryScheduler::Group (engine/scheduler.h):
/// one admitted query's share of the scheduler's worker threads, with
/// fair dispatch across the groups of concurrently admitted queries.
/// Operators take a TaskRunner* so they need not know about admission,
/// priorities or the scheduler's layer.
///
/// Contract: Wait() returns once every task submitted *through this
/// runner* has finished — never waiting on tasks submitted through a
/// different runner sharing the same threads. A waiter may run its own
/// runner's queued tasks on the calling thread instead of sleeping
/// (QueryScheduler::Group does), so a task can run on the thread that
/// submitted it. Tasks must not call Wait() themselves (all scheduling
/// happens on the driver thread; workers never block on the runner),
/// which keeps fixed-size worker pools deadlock-free.
class TaskRunner {
 public:
  virtual ~TaskRunner() = default;

  /// Enqueues a task for execution on some worker thread.
  virtual void Submit(std::function<void()> task) = 0;

  /// Blocks until every task submitted through this runner has completed.
  virtual void Wait() = 0;

  /// Worker threads behind this runner (callers use <= 1 as the
  /// "run serially instead" signal).
  virtual std::size_t num_threads() const = 0;

  /// The one fan-out primitive: runs fn(begin, end) once for every piece
  /// [i * grain, min(n, (i + 1) * grain)) of [0, n), blocking until all
  /// have finished. The runner's workers and the calling thread pull
  /// pieces from one shared counter in ascending order, so the caller
  /// works instead of idling and uneven pieces balance. Which thread runs
  /// a piece, and when, is unspecified: results must depend only on the
  /// items, never on the thread or the completion order. With one thread
  /// behind the runner every piece runs on the caller, in order.
  void ParallelFor(std::size_t n,
                   const std::function<void(std::size_t, std::size_t)>& fn,
                   std::size_t grain = 1024);
};

}  // namespace cre

#endif  // CRE_CORE_TASK_RUNNER_H_
