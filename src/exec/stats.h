#ifndef CRE_EXEC_STATS_H_
#define CRE_EXEC_STATS_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>

#include "core/mutex.h"
#include "exec/operator.h"

namespace cre {

/// Lock-free add for pre-C++20 atomic doubles.
inline void AtomicAddDouble(std::atomic<double>& target, double delta) {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + delta,
                                       std::memory_order_relaxed)) {
  }
}

/// Execution counters for one plan node, shared by every per-morsel
/// operator instance of that node. Counters are atomics so concurrent
/// morsel pipelines can update one slot without tearing.
struct OperatorStats {
  std::atomic<std::size_t> batches{0};
  std::atomic<std::size_t> rows{0};
  std::atomic<double> open_seconds{0};
  std::atomic<double> next_seconds{0};  ///< cumulative time inside Next()

  void AddOpenSeconds(double s) { AtomicAddDouble(open_seconds, s); }
  void AddBatch(std::size_t batch_rows, double seconds) {
    batches.fetch_add(1, std::memory_order_relaxed);
    rows.fetch_add(batch_rows, std::memory_order_relaxed);
    AtomicAddDouble(next_seconds, seconds);
  }
};

/// Per-query map from plan node to its counters, filled by the parallel
/// driver and read by EXPLAIN ANALYZE. One slot per plan-node identity
/// keeps distinct same-kind nodes (two Filters, two HashJoins) apart.
/// Thread-safe; slot pointers stay valid for the collector's lifetime.
class StatsCollector {
 public:
  /// The slot for `key` (the driver passes the plan node pointer),
  /// created on first use.
  OperatorStats* SlotFor(const void* key) {
    MutexLock lock(mu_);
    std::unique_ptr<OperatorStats>& slot = by_key_[key];
    if (slot == nullptr) slot = std::make_unique<OperatorStats>();
    return slot.get();
  }

  /// The slot registered for `key`, or nullptr when the node was never
  /// keyed.
  OperatorStats* FindSlot(const void* key) const {
    MutexLock lock(mu_);
    auto it = by_key_.find(key);
    return it == by_key_.end() ? nullptr : it->second.get();
  }

 private:
  mutable Mutex mu_;
  std::map<const void*, std::unique_ptr<OperatorStats>> by_key_
      CRE_GUARDED_BY(mu_);
};

/// Decorator measuring a child operator's Open/Next time and output rows.
/// Under EXPLAIN ANALYZE the parallel driver wraps every per-morsel
/// operator instance with its plan node's shared slot.
class InstrumentedOperator : public PhysicalOperator {
 public:
  InstrumentedOperator(OperatorPtr child, OperatorStats* stats)
      : child_(std::move(child)), stats_(stats) {}

  const Schema& output_schema() const override {
    return child_->output_schema();
  }
  Status Open() override;
  Result<TablePtr> Next() override;
  std::string name() const override { return child_->name(); }

 private:
  OperatorPtr child_;
  OperatorStats* stats_;
};

}  // namespace cre

#endif  // CRE_EXEC_STATS_H_
