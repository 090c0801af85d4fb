#ifndef CRE_CORE_THREAD_POOL_H_
#define CRE_CORE_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "core/mutex.h"

namespace cre {

/// Abstract task-execution surface the parallel operators run on. Two
/// implementations exist: the raw fixed-size ThreadPool (one exclusive
/// user, the pre-serving behavior) and QueryScheduler::Group
/// (engine/scheduler.h), which multiplexes the tasks of many concurrently
/// admitted queries over one shared pool with fair dispatch. Operators
/// take a TaskRunner* so the same code serves both worlds.
///
/// Contract: Wait() returns once every task submitted *through this
/// runner* has finished — never waiting on tasks submitted through a
/// different runner sharing the same threads. A waiter may run its own
/// runner's queued tasks on the calling thread instead of sleeping
/// (QueryScheduler::Group does), so a task can run on the thread that
/// submitted it. Tasks must not call Wait() themselves (all scheduling
/// happens on the driver thread; workers never block on the pool), which
/// keeps fixed-size pools deadlock-free.
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

/// Fixed-size worker pool used by the morsel-driven parallel executor.
/// Tasks are std::function<void()>; Wait() blocks until all submitted tasks
/// have finished.
class ThreadPool : public TaskRunner {
 public:
  /// Creates a pool with `num_threads` workers (>= 1).
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool() override;

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution on some worker.
  void Submit(std::function<void()> task) override;

  /// Blocks until every task submitted so far has completed. Note this is
  /// pool-global: with multiple concurrent submitters it waits for all of
  /// them (the QueryScheduler's per-query groups exist to avoid exactly
  /// this coupling on the query path).
  void Wait() override;

  std::size_t num_threads() const override { return workers_.size(); }

  /// Shared process-wide pool sized to the hardware concurrency.
  static ThreadPool& Default();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  Mutex mu_;
  std::queue<std::function<void()>> tasks_ CRE_GUARDED_BY(mu_);
  CondVar task_cv_;
  CondVar done_cv_;
  std::size_t outstanding_ CRE_GUARDED_BY(mu_) = 0;
  bool shutdown_ CRE_GUARDED_BY(mu_) = false;
};

}  // namespace cre

#endif  // CRE_CORE_THREAD_POOL_H_
