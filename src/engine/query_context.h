#ifndef CRE_ENGINE_QUERY_CONTEXT_H_
#define CRE_ENGINE_QUERY_CONTEXT_H_

#include <memory>
#include <utility>

#include "core/cancel.h"
#include "core/resource_governor.h"
#include "core/result.h"
#include "engine/scheduler.h"
#include "exec/stats.h"
#include "obs/trace.h"
#include "storage/catalog.h"

namespace cre {

/// Per-call knobs of one Engine::Execute admission.
struct QueryOptions {
  QueryPriority priority = QueryPriority::kNormal;
  /// Optional external cancellation handle (create one, keep it, pass it
  /// here; Cancel() from any thread to abandon the query).
  CancelFlagPtr cancel;
  /// Per-query deadline, seconds from admission. 0 falls back to
  /// EngineOptions::default_query_timeout_seconds (0 there = no deadline).
  /// On expiry the query unwinds with kDeadlineExceeded.
  double timeout_seconds = 0;
  /// Per-query tracked-memory ceiling in bytes; 0 falls back to
  /// ResourceGovernorOptions::per_query_memory_bytes (0 there = no
  /// per-query ceiling). Breach unwinds with kResourceExhausted.
  std::size_t memory_budget_bytes = 0;
};

/// Everything one in-flight query needs, created by the engine at
/// admission and threaded through optimizer, lowering, and the parallel
/// driver (replacing the ad-hoc live-catalog lookups and the engine-level
/// mutable stats pointer that made Execute single-occupancy):
///
///  - a pinned catalog snapshot: all name resolution inside the query —
///    cardinality estimation, scan lowering, semantic-join build sides,
///    index version pairing — reads one immutable point-in-time copy, so
///    concurrent table replacement can never mix row versions mid-query;
///  - the query's scheduler group: the TaskRunner all parallel operators
///    submit through, scoping barriers to this query and multiplexing
///    its tasks fairly against concurrently admitted queries;
///  - the cooperative cancellation flag;
///  - the per-query StatsCollector (null unless EXPLAIN ANALYZE).
class QueryContext {
 public:
  QueryContext(std::shared_ptr<const Catalog> snapshot,
               std::shared_ptr<QueryScheduler::Group> group,
               CancelFlagPtr cancel, StatsCollector* stats)
      : snapshot_(std::move(snapshot)),
        group_(std::move(group)),
        cancel_(std::move(cancel)),
        stats_(stats) {}

  /// The pinned catalog state this query plans and executes against.
  const Catalog& snapshot() const { return *snapshot_; }

  /// Task surface for this query's parallel work (never null; backed by
  /// one worker for a serial engine).
  TaskRunner* runner() const { return group_.get(); }
  QueryScheduler::Group* group() const { return group_.get(); }

  StatsCollector* stats() const { return stats_; }

  bool cancelled() const { return cancel_ != nullptr && cancel_->cancelled(); }
  /// OK, or Status::Cancelled / Status::DeadlineExceeded once the token
  /// trips — the drivers' poll. Precise: also compares the clock against
  /// the armed deadline, so driver-level polls catch pre-expired
  /// deadlines before the reaper does.
  Status CheckCancelled() const {
    if (cancel_ == nullptr) return Status::OK();
    return cancel_->CheckStop();
  }
  const CancelFlag* cancel_flag() const { return cancel_.get(); }
  const CancelFlagPtr& cancel_handle() const { return cancel_; }

  /// The query's memory budget (null when no governor is configured —
  /// charges are skipped entirely).
  QueryBudget* budget() const { return budget_.get(); }
  const QueryBudgetPtr& budget_handle() const { return budget_; }
  void set_budget(QueryBudgetPtr budget) { budget_ = std::move(budget); }

  SchedulingCounters scheduling() const { return group_->counters(); }
  QueryPriority priority() const { return group_->priority(); }

  /// The query's trace (null unless this query was sampled for tracing).
  /// Call sites open spans under trace_parent(), the phase span the engine
  /// is currently inside ("execute" during RunPhysical).
  QueryTrace* trace() const { return trace_; }
  TraceSpan* trace_parent() const { return trace_parent_; }
  void set_trace(QueryTrace* trace) { trace_ = trace; }
  void set_trace_parent(TraceSpan* span) { trace_parent_ = span; }

  /// Engine-assigned query id (0 when the context was built outside the
  /// engine's admission path) — tags slow-query log lines.
  std::uint64_t query_id() const { return query_id_; }
  void set_query_id(std::uint64_t id) { query_id_ = id; }

 private:
  std::shared_ptr<const Catalog> snapshot_;
  std::shared_ptr<QueryScheduler::Group> group_;
  CancelFlagPtr cancel_;
  QueryBudgetPtr budget_;
  StatsCollector* stats_;
  QueryTrace* trace_ = nullptr;
  TraceSpan* trace_parent_ = nullptr;
  std::uint64_t query_id_ = 0;
};

}  // namespace cre

#endif  // CRE_ENGINE_QUERY_CONTEXT_H_
