#ifndef CRE_CORE_RESOURCE_GOVERNOR_H_
#define CRE_CORE_RESOURCE_GOVERNOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "core/status.h"

namespace cre {

/// Limits for the memory accountant. 0 means "unlimited" for either knob,
/// which preserves pre-governor behavior exactly.
struct ResourceGovernorOptions {
  /// Engine-wide ceiling across all concurrent queries' tracked bytes.
  std::size_t engine_memory_bytes = 0;
  /// Default per-query ceiling; QueryOptions::memory_budget_bytes
  /// overrides it per query.
  std::size_t per_query_memory_bytes = 0;
};

/// Engine-wide memory accountant. The big allocators (hash-join build,
/// sort runs, aggregation states, index builds, embed batches) charge
/// estimated bytes *before* allocating; a breach returns
/// kResourceExhausted through the normal Status path so operators unwind
/// cleanly — the engine never relies on std::bad_alloc. Tracking is
/// advisory (estimates, not an allocator hook), which is enough to bound
/// the structures that actually dominate memory.
///
/// Thread-safe; charges are lock-free atomics.
class ResourceGovernor {
 public:
  explicit ResourceGovernor(ResourceGovernorOptions options = {})
      : options_(options) {}

  /// Attempts to charge `bytes` against the engine-wide ceiling. On
  /// breach, rolls the charge back and returns kResourceExhausted naming
  /// `what`.
  Status Charge(std::size_t bytes, const char* what);

  /// Returns bytes previously charged. Never underflows.
  void Release(std::size_t bytes);

  std::size_t charged_bytes() const {
    return charged_.load(std::memory_order_relaxed);
  }
  std::size_t peak_bytes() const {
    return peak_.load(std::memory_order_relaxed);
  }
  std::uint64_t breaches() const {
    return breaches_.load(std::memory_order_relaxed);
  }
  const ResourceGovernorOptions& options() const { return options_; }

 private:
  ResourceGovernorOptions options_;
  std::atomic<std::size_t> charged_{0};
  std::atomic<std::size_t> peak_{0};
  std::atomic<std::uint64_t> breaches_{0};
};

/// Per-query budget layered over the engine-wide governor. Every charge
/// lands on both levels (and rolls back both on breach at either level).
/// Queries release what they charged as operators are destroyed; the
/// destructor releases any remainder so a query that unwinds mid-plan
/// cannot leak charged bytes.
class QueryBudget {
 public:
  /// `governor` may be null (per-query limit still enforced, if any).
  /// `limit_bytes` == 0 means no per-query ceiling.
  QueryBudget(ResourceGovernor* governor, std::size_t limit_bytes)
      : governor_(governor), limit_bytes_(limit_bytes) {}
  ~QueryBudget();

  QueryBudget(const QueryBudget&) = delete;
  QueryBudget& operator=(const QueryBudget&) = delete;

  Status Charge(std::size_t bytes, const char* what);
  void Release(std::size_t bytes);

  std::size_t charged_bytes() const {
    return charged_.load(std::memory_order_relaxed);
  }
  std::size_t peak_bytes() const {
    return peak_.load(std::memory_order_relaxed);
  }
  std::size_t limit_bytes() const { return limit_bytes_; }

 private:
  ResourceGovernor* governor_;
  std::size_t limit_bytes_;
  std::atomic<std::size_t> charged_{0};
  std::atomic<std::size_t> peak_{0};
};

using QueryBudgetPtr = std::shared_ptr<QueryBudget>;

/// RAII holder for a budget charge: releases on destruction. Movable so
/// operators can stash it next to the structure whose bytes it covers.
/// Holds the budget by shared_ptr so a charge pinned inside a shared
/// structure (e.g. a shared hash-join table) can never outlive the
/// budget it charges.
class ScopedCharge {
 public:
  ScopedCharge() = default;
  ScopedCharge(QueryBudgetPtr budget, std::size_t bytes)
      : budget_(std::move(budget)), bytes_(bytes) {}
  ScopedCharge(ScopedCharge&& other) noexcept
      : budget_(std::move(other.budget_)), bytes_(other.bytes_) {
    other.budget_.reset();
    other.bytes_ = 0;
  }
  ScopedCharge& operator=(ScopedCharge&& other) noexcept {
    if (this != &other) {
      Reset();
      budget_ = std::move(other.budget_);
      bytes_ = other.bytes_;
      other.budget_.reset();
      other.bytes_ = 0;
    }
    return *this;
  }
  ScopedCharge(const ScopedCharge&) = delete;
  ScopedCharge& operator=(const ScopedCharge&) = delete;
  ~ScopedCharge() { Reset(); }

  /// Charges `bytes` to `budget` and holds them (a null budget charges
  /// nothing). On a breach returns kResourceExhausted naming `what`, with
  /// nothing charged or held.
  Status Acquire(QueryBudgetPtr budget, std::size_t bytes, const char* what) {
    Reset();
    if (budget == nullptr) return Status::OK();
    CRE_RETURN_NOT_OK(budget->Charge(bytes, what));
    budget_ = std::move(budget);
    bytes_ = bytes;
    return Status::OK();
  }

  void Reset() {
    if (budget_ != nullptr && bytes_ != 0) budget_->Release(bytes_);
    budget_.reset();
    bytes_ = 0;
  }

  std::size_t bytes() const { return bytes_; }

 private:
  QueryBudgetPtr budget_;
  std::size_t bytes_ = 0;
};

}  // namespace cre

#endif  // CRE_CORE_RESOURCE_GOVERNOR_H_
