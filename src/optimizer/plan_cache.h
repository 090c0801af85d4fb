#ifndef CRE_OPTIMIZER_PLAN_CACHE_H_
#define CRE_OPTIMIZER_PLAN_CACHE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/mutex.h"
#include "plan/plan_node.h"
#include "semantic/semantic_join.h"
#include "types/value.h"

namespace cre {

struct PlanCacheOptions {
  /// Master switch: disabled, the engine plans every query as before.
  bool enabled = true;
  /// Installed entries retained (LRU beyond this). In-flight planning
  /// placeholders don't count against the bound.
  std::size_t capacity = 64;
};

/// Parameterized plan cache: repeat traffic skips the optimizer.
///
/// The key is the *normalized plan shape* — plan structure plus every
/// identity and strategy-relevant knob (tables, columns, models,
/// thresholds, strategies, group keys, sort keys, limits) — with literal
/// constants and semantic query strings parameterized out, concatenated
/// with a signature of the engine's effective optimizer knobs (so a
/// reconfiguration re-plans naturally). Two queries that differ only in
/// literal values share one entry; a hit rebinds the cached optimized
/// plan's parameters by value substitution and returns it without running
/// a single optimizer rule.
///
/// Freshness is validated at lookup, not invalidated by callbacks:
///  - per-table version stamps: the entry records the catalog stamp of
///    every table the optimized plan touches; any mismatch against the
///    looking query's snapshot drops the entry and re-plans (appends and
///    destructive Puts both bump stamps);
///  - index-residency class: the entry records, for every managed-index
///    candidate the plan shape exposes (index-backed selects and
///    indexable semantic-join build sides, across all index families),
///    whether that index was absent at plan time. A flip between absent
///    and any non-absent state can change the chosen strategy, so it
///    re-plans; transitions among building/on-disk/resident states are
///    cost-irrelevant to the cached choice and deliberately don't.
///
/// Population is single-flight: concurrent misses on one fingerprint
/// produce one planning ticket; the others wait on the install and then
/// hit. Plans whose optimization executed data-induced-predicate subplans
/// are literal-dependent and are never cached (Install detects the DIP
/// rewrite and releases the ticket uncached).
///
/// Thread-safe; rebinding runs outside the cache lock. Cached PlanNode
/// trees are immutable after install — execution paths take const plans —
/// and hold table *names* only (never TablePtrs), so a cached plan
/// structurally cannot pin rows past any query's snapshot.
class PlanCache {
 public:
  /// One managed-index candidate whose residency class the cached plan's
  /// strategy choice could depend on.
  struct IndexCandidate {
    std::string table;
    std::string column;
    std::string model;
    SemanticJoinStrategy strategy = SemanticJoinStrategy::kHnsw;
  };

  /// Catalog version stamp of a table, as seen by the looking query's
  /// snapshot (missing tables return a stable 0).
  using VersionProbe = std::function<std::uint64_t(const std::string&)>;
  /// True when the candidate's managed index is absent (no entry, no
  /// build in flight, no persisted image).
  using AbsentProbe = std::function<bool(const IndexCandidate&)>;

  /// Normalized form of one logical plan: the fingerprint (cache key) and
  /// the parameter values extracted from it, in traversal order.
  struct Shape {
    std::string fingerprint;
    std::vector<Value> value_params;        ///< literals, pre-order
    std::vector<std::string> query_params;  ///< semantic query strings
    std::size_t multi_selects = 0;  ///< DIP multi-select nodes in the source
  };

  /// Computes the shape of a logical plan under the engine's current knob
  /// signature. Pure; does not touch the cache.
  static Shape Normalize(const PlanNode& plan,
                         const std::string& knob_signature);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t invalidations = 0;  ///< stamp / residency-class drops
    std::uint64_t evictions = 0;
    std::uint64_t uncacheable = 0;    ///< DIP plans (subset of misses)
    std::uint64_t rebind_ambiguous = 0;  ///< hits demoted to misses
    std::uint64_t single_flight_waits = 0;
    std::size_t entries = 0;
    /// Optimizer wall accumulated by misses vs lookup+rebind wall
    /// accumulated by hits — the bench's planning-overhead ratio.
    double planning_seconds = 0;
    double lookup_seconds = 0;
  };

  struct Lookup {
    /// Non-null on a hit: the cached optimized plan, parameter-rebound to
    /// the looking query. Shared when parameters already match.
    PlanPtr plan;
    /// Max table stamp the entry was planned against (for annotations).
    std::uint64_t stamp = 0;
    /// True when the caller must run the optimizer.
    bool must_plan = false;
    /// With must_plan: the caller holds the single-flight planning ticket
    /// and MUST call Install (success) or Abort (failure). Without a
    /// ticket the caller re-plans standalone (ambiguous rebind) and may
    /// Install to refresh the entry.
    bool ticket = false;
  };

  explicit PlanCache(PlanCacheOptions options);

  /// Looks `shape` up, validating stamps and residency classes via the
  /// probes. Blocks while another caller holds the fingerprint's planning
  /// ticket. Never blocks during rebinding.
  Lookup AcquireOrPlan(const Shape& shape, const VersionProbe& version,
                       const AbsentProbe& absent);

  /// Installs an optimized plan for `shape`, recording the stamps and
  /// residency classes it was planned under, and releases the ticket.
  /// DIP-rewritten plans release the ticket without caching.
  /// `planning_seconds` is the optimizer wall the caller measured.
  void Install(const Shape& shape, const PlanPtr& optimized,
               double planning_seconds, const VersionProbe& version,
               const AbsentProbe& absent);

  /// Releases a planning ticket after a failed optimization.
  void Abort(const Shape& shape);

  /// Read-only probe for EXPLAIN: true when a currently-valid installed
  /// entry exists for `shape` (no LRU update, no stats, no waiting).
  bool Peek(const Shape& shape, const VersionProbe& version,
            const AbsentProbe& absent, std::uint64_t* stamp = nullptr) const;

  Stats stats() const;
  const PlanCacheOptions& options() const { return options_; }

 private:
  struct Entry {
    PlanPtr plan;
    std::vector<Value> value_params;
    std::vector<std::string> query_params;
    /// Table name -> catalog stamp at plan time.
    std::vector<std::pair<std::string, std::uint64_t>> stamps;
    /// Candidate -> was-absent class at plan time.
    std::vector<std::pair<IndexCandidate, bool>> residency;
    std::uint64_t stamp = 0;  ///< max of stamps (annotation)
    std::uint64_t lru_tick = 0;
    bool planning = true;
  };
  using EntryPtr = std::shared_ptr<Entry>;

  /// Stamp/residency validation of an installed entry.
  bool ValidLocked(const Entry& entry, const VersionProbe& version,
                   const AbsentProbe& absent) const CRE_REQUIRES(mu_);
  /// Evicts LRU installed entries beyond capacity (never `keep`).
  void EvictLocked(const Entry* keep) CRE_REQUIRES(mu_);

  PlanCacheOptions options_;
  mutable Mutex mu_;
  CondVar cv_;
  std::unordered_map<std::string, EntryPtr> entries_ CRE_GUARDED_BY(mu_);
  std::uint64_t tick_ CRE_GUARDED_BY(mu_) = 0;
  Stats stats_ CRE_GUARDED_BY(mu_);
};

/// Rebinds the cached plan `plan` (old parameters `old_values` /
/// `old_queries`) to the new parameters. Returns nullptr when the
/// substitution is ambiguous — the same old value maps to two different
/// new values — in which case the caller must re-plan. Shares the cached
/// tree untouched when all parameters already match. Exposed for tests.
PlanPtr RebindPlan(const PlanPtr& plan, const std::vector<Value>& old_values,
                   const std::vector<Value>& new_values,
                   const std::vector<std::string>& old_queries,
                   const std::vector<std::string>& new_queries);

}  // namespace cre

#endif  // CRE_OPTIMIZER_PLAN_CACHE_H_
