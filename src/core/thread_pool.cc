#include "core/thread_pool.h"

#include <algorithm>

namespace cre {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  task_cv_.NotifyAll();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    tasks_.push(std::move(task));
    ++outstanding_;
  }
  task_cv_.NotifyOne();
}

void ThreadPool::Wait() {
  MutexLock lock(mu_);
  // Explicit while-loop (not a lambda predicate): guarded reads stay in
  // this annotated scope.
  while (outstanding_ != 0) done_cv_.Wait(lock);
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!shutdown_ && tasks_.empty()) task_cv_.Wait(lock);
      if (tasks_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      MutexLock lock(mu_);
      if (--outstanding_ == 0) done_cv_.NotifyAll();
    }
  }
}

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

ThreadPool& ThreadPool::Default() {
  static ThreadPool* pool =
      new ThreadPool(std::max(1u, std::thread::hardware_concurrency()));
  return *pool;
}

}  // namespace cre
