#ifndef CRE_ENGINE_SCHEDULER_H_
#define CRE_ENGINE_SCHEDULER_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <queue>
#include <thread>
#include <vector>

#include "core/cancel.h"
#include "core/mutex.h"
#include "core/result.h"
#include "core/task_runner.h"

namespace cre {

/// Priority classes for admitted queries. Strict: a pending task of a
/// higher class always dispatches before any task of a lower one.
/// kBackground is meant for work no user is waiting on — asynchronous
/// IndexManager builds run there, so a cold index build only consumes
/// cycles the query stream leaves idle.
enum class QueryPriority { kHigh = 0, kNormal = 1, kBackground = 2 };

const char* QueryPriorityName(QueryPriority p);

/// Per-query scheduling counters, surfaced through
/// Engine::ExplainAnalyze (its `scheduling:` line) and the
/// concurrent-serving bench: how long this query's tasks sat in the
/// scheduler's queues and how many worker dispatches it received.
struct SchedulingCounters {
  std::uint64_t tasks_submitted = 0;
  std::uint64_t tasks_dispatched = 0;
  /// Cumulative enqueue -> dispatch latency over all tasks (seconds).
  double queue_wait_seconds = 0;
  /// Admit() -> first task dispatch (seconds); 0 until the query runs its
  /// first task. This is the query's admission latency under load.
  double admission_seconds = 0;
};

/// Bounded-admission policy. With `max_active_queries` == 0 admission is
/// unlimited (pre-admission behavior, the default). Otherwise TryAdmit
/// sheds by priority class: high-priority queries are never shed, normal
/// queries shed once `max_active_queries` query groups are active, and
/// background queries shed at half that (so background load cannot crowd
/// out interactive admission headroom).
struct AdmissionOptions {
  std::size_t max_active_queries = 0;
};

/// Cumulative per-class admission outcomes plus the current load signal.
struct AdmissionStats {
  std::array<std::uint64_t, 3> admitted{{0, 0, 0}};
  std::array<std::uint64_t, 3> shed{{0, 0, 0}};
  std::size_t active_admitted = 0;
};

/// Fair multi-query task scheduler, and the engine's one worker pool: it
/// owns a fixed set of worker threads that run every morsel, index build
/// and refresh task. It follows the dispatcher of morsel-driven
/// parallelism (Leis et al., SIGMOD 2014), applied across queries. Each
/// admitted query gets a Group: a TaskRunner whose Submit/Wait are scoped
/// to that query, so N concurrent ParallelPlanDrivers (and the parallel
/// operators beneath them) share the workers without waiting on each
/// other's barriers.
///
/// Dispatch discipline: Submit enqueues the task on its group's private
/// queue and wakes one worker. An idle worker pops the next task by (1)
/// strict priority class, then (2) round-robin over the groups of that
/// class, one task per turn. So two normal-priority queries interleave
/// their morsels 1:1 regardless of who submitted first or how many tasks
/// each has pending, and background work (index builds) only runs when no
/// query task is waiting.
///
/// Helping waits: a driver blocked in its group's Wait() pops and runs
/// its own group's queued tasks on the calling thread, and sleeps only
/// once its queue is empty (tasks other threads are still running). It
/// never runs another group's task, so the priority classes and the
/// round-robin between groups hold for every task a worker dispatches.
///
/// Deadlock-freedom: the TaskRunner contract forbids tasks from calling
/// Wait(), so a worker never blocks inside a task on the scheduler; only
/// driver threads wait, on their own group's counter, and a waiting
/// driver only sleeps while every one of its unfinished tasks is already
/// running on some other thread.
class QueryScheduler {
 public:
  class Group;

  /// Starts `num_threads` workers (at least one).
  explicit QueryScheduler(std::size_t num_threads,
                          AdmissionOptions admission = {});
  /// Lets the workers run every task still queued, then joins them.
  ~QueryScheduler();

  QueryScheduler(const QueryScheduler&) = delete;
  QueryScheduler& operator=(const QueryScheduler&) = delete;

  /// Admits infrastructure work (e.g. the engine's permanent background
  /// build group) and returns its task group. Never sheds and does not
  /// count toward the admission bound. Groups are independent: destroying
  /// one (after Wait) does not affect others. The scheduler must outlive
  /// every group.
  std::shared_ptr<Group> Admit(QueryPriority priority = QueryPriority::kNormal);

  /// Admits a user query under the bounded-admission policy. Returns
  /// kResourceExhausted (the query was shed) when the class's admission
  /// bound is reached; high-priority queries are never shed.
  Result<std::shared_ptr<Group>> TryAdmit(
      QueryPriority priority = QueryPriority::kNormal);

  /// Admission outcomes; `active_admitted` is the serving load signal
  /// (TryAdmit'd query groups not yet destroyed) shown by EXPLAIN.
  AdmissionStats admission_stats() const;
  const AdmissionOptions& admission_options() const { return admission_; }

  /// Tasks enqueued across all groups and not yet dispatched.
  std::size_t pending_tasks() const;

  std::size_t num_threads() const { return workers_.size(); }

 private:
  struct GroupState;

  /// A worker's life: sleep until a ready ring has a task, run it, repeat;
  /// return once stop_ is set and every queue is empty.
  void WorkerLoop();
  /// Pops the next task to run (strict priority, round-robin in class),
  /// dropping ring entries whose queue their driver has drained. Returns
  /// false when every queue is empty.
  bool PopNextLocked(std::function<void()>* task,
                     std::shared_ptr<GroupState>* state,
                     std::chrono::steady_clock::time_point* enqueued)
      CRE_REQUIRES(mu_);

  /// Books one of `state`'s tasks, queued at `enqueued`, as dispatched
  /// now; workers and helping waits both count here.
  void CountDispatchLocked(GroupState* state,
                           std::chrono::steady_clock::time_point enqueued)
      CRE_REQUIRES(mu_);
  /// Marks one of `state`'s tasks finished, waking its waiters at zero.
  void FinishTaskLocked(GroupState* state) CRE_REQUIRES(mu_);

  std::shared_ptr<Group> MakeGroup(QueryPriority priority,
                                   bool counts_as_query);

  AdmissionOptions admission_;
  mutable Mutex mu_;
  /// Ready rings, one per priority class: groups with pending tasks, each
  /// present at most once; workers pop the front group, run one of its
  /// tasks, and re-append it while tasks remain.
  std::array<std::deque<std::shared_ptr<GroupState>>, 3> ready_
      CRE_GUARDED_BY(mu_);
  std::size_t pending_tasks_ CRE_GUARDED_BY(mu_) = 0;
  /// Signalled by Submit (one worker) and by shutdown (all workers).
  CondVar work_cv_;
  bool stop_ CRE_GUARDED_BY(mu_) = false;
  /// Admission accounting (TryAdmit'd query groups only).
  std::size_t active_admitted_ CRE_GUARDED_BY(mu_) = 0;
  std::array<std::uint64_t, 3> admitted_total_ CRE_GUARDED_BY(mu_){{0, 0, 0}};
  std::array<std::uint64_t, 3> shed_total_ CRE_GUARDED_BY(mu_){{0, 0, 0}};
  /// Started last in the constructor and joined in the destructor; the
  /// size never changes in between.
  // cre-lint: allow(raw-thread): the scheduler is the engine's one worker
  // pool, so it owns the workers that run every task.
  std::vector<std::thread> workers_;
};

/// One admitted query's task surface. Thread-safe; typically driven by
/// one driver thread submitting morsel tasks and waiting at pipeline
/// barriers, while the scheduler's workers execute the tasks.
class QueryScheduler::Group : public TaskRunner {
 public:
  ~Group() override;

  void Submit(std::function<void()> task) override;
  /// Waits for this group's tasks only — concurrent queries' tasks and
  /// background builds do not extend the wait. Runs this group's queued
  /// tasks on the calling thread while any remain.
  void Wait() override;
  std::size_t num_threads() const override;

  QueryPriority priority() const;
  SchedulingCounters counters() const;

 private:
  friend class QueryScheduler;
  Group(QueryScheduler* scheduler, std::shared_ptr<GroupState> state)
      : scheduler_(scheduler), state_(std::move(state)) {}

  QueryScheduler* scheduler_;
  std::shared_ptr<GroupState> state_;
};

/// Engine-owned deadline enforcement: one lazily-started thread watches a
/// min-heap of (deadline, token) and trips each token's cancel flag when
/// the wall clock passes its deadline. Every polling site the engine
/// already has — morsel loops, HNSW build, IVF/PQ scans, k-means,
/// semantic-join probes — thereby enforces timeouts without touching a
/// clock. Tokens are held weakly: a query that finishes first simply
/// drops off the heap.
class DeadlineReaper {
 public:
  DeadlineReaper() = default;
  ~DeadlineReaper();

  DeadlineReaper(const DeadlineReaper&) = delete;
  DeadlineReaper& operator=(const DeadlineReaper&) = delete;

  /// Registers a token whose deadline (already armed via SetDeadline) the
  /// reaper should enforce. Tokens without a deadline are ignored.
  void Watch(const CancelFlagPtr& flag);

  /// Tokens expired by the reaper since construction.
  std::uint64_t expired_total() const {
    return expired_.load(std::memory_order_relaxed);
  }
  /// Tokens currently under watch (approximate; expired/dead entries are
  /// pruned lazily).
  std::size_t watched() const;

 private:
  struct Entry {
    std::int64_t due_ns;
    std::weak_ptr<CancelFlag> flag;
    bool operator>(const Entry& other) const { return due_ns > other.due_ns; }
  };

  void Run();

  mutable Mutex mu_;
  CondVar cv_;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap_
      CRE_GUARDED_BY(mu_);
  bool started_ CRE_GUARDED_BY(mu_) = false;
  bool stop_ CRE_GUARDED_BY(mu_) = false;
  /// Dedicated watcher thread, started under mu_ on the first Watch and
  /// joined in the destructor.
  // cre-lint: allow(raw-thread): the reaper owns one long-lived watcher
  // thread by design; pooling it would deadlock deadline delivery behind
  // the very queries it must expire.
  std::thread thread_ CRE_GUARDED_BY(mu_);
  std::atomic<std::uint64_t> expired_{0};
};

}  // namespace cre

#endif  // CRE_ENGINE_SCHEDULER_H_
