#include "engine/scheduler.h"

#include <algorithm>
#include <utility>

namespace cre {

const char* QueryPriorityName(QueryPriority p) {
  switch (p) {
    case QueryPriority::kHigh:
      return "high";
    case QueryPriority::kNormal:
      return "normal";
    case QueryPriority::kBackground:
      return "background";
  }
  return "?";
}

namespace {
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
}  // namespace

/// All mutable group state lives here (not in Group) so queued tasks keep
/// it alive via shared_ptr even if the Group handle is destroyed early.
struct QueryScheduler::GroupState {
  struct PendingTask {
    std::function<void()> fn;
    Clock::time_point enqueued;
  };

  explicit GroupState(QueryPriority p) : priority(p), admitted(Clock::now()) {}

  const QueryPriority priority;
  const Clock::time_point admitted;
  /// True for TryAdmit'd query groups, which count toward the admission
  /// bound; infrastructure groups (Admit) do not.
  bool counts_as_query = false;

  // Guarded by the scheduler's mu_ (not annotated: the owning
  // scheduler's capability is not nameable from this struct).
  std::deque<PendingTask> queue;
  bool in_ready_ring = false;
  std::size_t outstanding = 0;  ///< submitted and not yet finished
  CondVar done_cv;
  SchedulingCounters counters;
};

QueryScheduler::QueryScheduler(std::size_t num_threads,
                               AdmissionOptions admission)
    : admission_(admission) {
  num_threads = std::max<std::size_t>(1, num_threads);
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryScheduler::~QueryScheduler() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  work_cv_.NotifyAll();
  for (auto& worker : workers_) worker.join();
}

std::shared_ptr<QueryScheduler::Group> QueryScheduler::MakeGroup(
    QueryPriority priority, bool counts_as_query) {
  auto state = std::make_shared<GroupState>(priority);
  state->counts_as_query = counts_as_query;
  // Group's constructor is private; expose it to make_shared via new.
  std::shared_ptr<Group> group(new Group(this, std::move(state)));
  return group;
}

std::shared_ptr<QueryScheduler::Group> QueryScheduler::Admit(
    QueryPriority priority) {
  return MakeGroup(priority, /*counts_as_query=*/false);
}

Result<std::shared_ptr<QueryScheduler::Group>> QueryScheduler::TryAdmit(
    QueryPriority priority) {
  const std::size_t cls = static_cast<std::size_t>(priority);
  {
    MutexLock lock(mu_);
    const std::size_t limit = admission_.max_active_queries;
    if (limit != 0 && priority != QueryPriority::kHigh) {
      // Background work gets half the admission headroom so it cannot
      // crowd out interactive queries; high priority is never shed.
      const std::size_t class_limit =
          priority == QueryPriority::kBackground
              ? (limit / 2 == 0 ? 1 : limit / 2)
              : limit;
      if (active_admitted_ >= class_limit) {
        ++shed_total_[cls];
        return Status::ResourceExhausted(
            std::string("admission queue full: ") +
            std::to_string(active_admitted_) + " active queries, " +
            QueryPriorityName(priority) + "-class limit " +
            std::to_string(class_limit));
      }
    }
    ++active_admitted_;
    ++admitted_total_[cls];
  }
  return MakeGroup(priority, /*counts_as_query=*/true);
}

AdmissionStats QueryScheduler::admission_stats() const {
  MutexLock lock(mu_);
  AdmissionStats stats;
  stats.admitted = admitted_total_;
  stats.shed = shed_total_;
  stats.active_admitted = active_admitted_;
  return stats;
}

std::size_t QueryScheduler::pending_tasks() const {
  MutexLock lock(mu_);
  return pending_tasks_;
}

bool QueryScheduler::PopNextLocked(std::function<void()>* task,
                                   std::shared_ptr<GroupState>* state,
                                   Clock::time_point* enqueued) {
  for (auto& ring : ready_) {
    while (!ring.empty()) {
      std::shared_ptr<GroupState> group = std::move(ring.front());
      ring.pop_front();
      if (group->queue.empty()) {
        // Its driver ran the queued tasks itself (Group::Wait).
        group->in_ready_ring = false;
        continue;
      }
      GroupState::PendingTask pending = std::move(group->queue.front());
      group->queue.pop_front();
      --pending_tasks_;
      if (group->queue.empty()) {
        group->in_ready_ring = false;
      } else {
        // One task per turn: back of the ring, so siblings in this class
        // get their slice before this group runs again.
        ring.push_back(group);
      }
      *task = std::move(pending.fn);
      *state = std::move(group);
      *enqueued = pending.enqueued;
      return true;
    }
  }
  return false;
}

void QueryScheduler::CountDispatchLocked(GroupState* state,
                                         Clock::time_point enqueued) {
  state->counters.queue_wait_seconds += SecondsSince(enqueued);
  if (state->counters.tasks_dispatched == 0) {
    state->counters.admission_seconds = SecondsSince(state->admitted);
  }
  ++state->counters.tasks_dispatched;
}

void QueryScheduler::FinishTaskLocked(GroupState* state) {
  if (--state->outstanding == 0) state->done_cv.NotifyAll();
}

void QueryScheduler::WorkerLoop() {
  MutexLock lock(mu_);
  for (;;) {
    std::function<void()> task;
    std::shared_ptr<GroupState> state;
    Clock::time_point enqueued;
    if (!PopNextLocked(&task, &state, &enqueued)) {
      if (stop_) return;
      work_cv_.Wait(lock);
      continue;
    }
    CountDispatchLocked(state.get(), enqueued);
    lock.Unlock();
    task();
    task = nullptr;
    lock.Lock();
    FinishTaskLocked(state.get());
  }
}

QueryScheduler::Group::~Group() {
  // Defensive: a well-behaved driver has already waited at its barriers,
  // but never let queued tasks outlive their query's stack frames.
  Wait();
  MutexLock lock(scheduler_->mu_);
  if (state_->counts_as_query) --scheduler_->active_admitted_;
}

void QueryScheduler::Group::Submit(std::function<void()> task) {
  QueryScheduler* scheduler = scheduler_;
  {
    MutexLock lock(scheduler->mu_);
    state_->queue.push_back({std::move(task), Clock::now()});
    ++state_->outstanding;
    ++state_->counters.tasks_submitted;
    ++scheduler->pending_tasks_;
    if (!state_->in_ready_ring) {
      state_->in_ready_ring = true;
      scheduler->ready_[static_cast<std::size_t>(state_->priority)]
          .push_back(state_);
    }
  }
  scheduler->work_cv_.NotifyOne();
}

void QueryScheduler::Group::Wait() {
  QueryScheduler* scheduler = scheduler_;
  MutexLock lock(scheduler->mu_);
  while (state_->outstanding != 0) {
    if (state_->queue.empty()) {
      // Every unfinished task is running on another thread.
      state_->done_cv.Wait(lock);
      continue;
    }
    // Run the next own task here instead of sleeping while it queues.
    // The group's ring entry stays; PopNextLocked drops it once empty.
    GroupState::PendingTask pending = std::move(state_->queue.front());
    state_->queue.pop_front();
    --scheduler->pending_tasks_;
    scheduler->CountDispatchLocked(state_.get(), pending.enqueued);
    lock.Unlock();
    pending.fn();
    pending.fn = nullptr;
    lock.Lock();
    scheduler->FinishTaskLocked(state_.get());
  }
}

std::size_t QueryScheduler::Group::num_threads() const {
  return scheduler_->num_threads();
}

QueryPriority QueryScheduler::Group::priority() const {
  return state_->priority;
}

SchedulingCounters QueryScheduler::Group::counters() const {
  MutexLock lock(scheduler_->mu_);
  return state_->counters;
}

DeadlineReaper::~DeadlineReaper() {
  // cre-lint: allow(raw-thread): join target moved out of thread_ so the
  // join happens outside mu_ (joining under the lock would deadlock with
  // Run(), which needs mu_ to observe stop_).
  std::thread watcher;
  {
    MutexLock lock(mu_);
    stop_ = true;
    watcher = std::move(thread_);
  }
  cv_.NotifyAll();
  if (watcher.joinable()) watcher.join();
}

void DeadlineReaper::Watch(const CancelFlagPtr& flag) {
  if (flag == nullptr || flag->deadline_ns() == 0) return;
  {
    MutexLock lock(mu_);
    heap_.push(Entry{flag->deadline_ns(), flag});
    if (!started_) {
      started_ = true;
      // cre-lint: allow(raw-thread): see the member declaration.
      thread_ = std::thread([this] { Run(); });
    }
  }
  cv_.NotifyAll();
}

std::size_t DeadlineReaper::watched() const {
  MutexLock lock(mu_);
  return heap_.size();
}

void DeadlineReaper::Run() {
  MutexLock lock(mu_);
  while (!stop_) {
    if (heap_.empty()) {
      while (!stop_ && heap_.empty()) cv_.Wait(lock);
      continue;
    }
    const std::int64_t now = CancelFlag::NowNs();
    const Entry& next = heap_.top();
    if (next.due_ns > now) {
      (void)cv_.WaitFor(lock, std::chrono::nanoseconds(next.due_ns - now));
      continue;
    }
    Entry due = heap_.top();
    heap_.pop();
    if (CancelFlagPtr flag = due.flag.lock()) {
      // Re-check against the token's current deadline: SetDeadline may
      // have pushed it out after registration.
      const std::int64_t d = flag->deadline_ns();
      if (d != 0 && d <= now) {
        if (!flag->cancelled()) {
          flag->ExpireDeadline();
          expired_.fetch_add(1, std::memory_order_relaxed);
        }
      } else if (d != 0) {
        heap_.push(Entry{d, due.flag});
      }
    }
  }
}

}  // namespace cre
