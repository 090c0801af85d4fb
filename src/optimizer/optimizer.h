#ifndef CRE_OPTIMIZER_OPTIMIZER_H_
#define CRE_OPTIMIZER_OPTIMIZER_H_

#include <algorithm>
#include <string>

#include "optimizer/cardinality.h"
#include "optimizer/cost_model.h"
#include "optimizer/rules.h"
#include "vecsim/ivfpq_index.h"

namespace cre {

/// Per-rule toggles, used both for configuration and for the rule
/// ablation experiment (E8).
struct OptimizerOptions {
  bool enable_filter_pushdown = true;
  bool enable_join_reorder = true;
  bool enable_data_induced_predicates = true;
  bool enable_index_selection = true;
  bool enable_column_pruning = true;
  /// The index strategies (IVF, HNSW, IVF-PQ) can miss borderline
  /// matches. When false, index selection only ever picks exact
  /// strategies.
  bool allow_approximate_similarity = true;
  std::size_t dip_max_inducing_rows = 64;
  /// Worker threads the executor will run this plan with; the cost model
  /// discounts parallelizable operator costs accordingly. 0 = "let the
  /// engine fill in its pool size" (standalone optimizers treat it as 1).
  std::size_t degree_of_parallelism = 0;
  /// Expected cross-query reuse of managed vector indexes (see
  /// CostParams::index_reuse_horizon). 1 = never pay a cold index build
  /// speculatively; raise for repeated-traffic workloads so the optimizer
  /// invests in IndexManager builds that later queries hit warm.
  double index_reuse_horizon = 1.0;
  /// Multiplier on the amortized cold-build charge when IndexManager
  /// builds run asynchronously (see CostParams::background_build_discount;
  /// the engine lowers it automatically when async builds are on).
  double background_build_discount = 1.0;
  /// Minimum estimated group cardinality at which the parallel driver
  /// switches grouped aggregation from per-worker hash states (whose
  /// partials merge serially at the barrier) to the two-phase
  /// radix-partitioned form (per-partition merges fan out over the pool).
  /// Few groups merge cheaply, so the partition pass would only add
  /// routing overhead; many groups make the serial merge the tail. When
  /// the estimate is unavailable (unoptimized execution), 0 forces the
  /// radix form for every keyed aggregate. Mirrored by
  /// CostModel::AggregateCost, which costs both forms.
  std::size_t radix_agg_min_groups = 4096;
};

/// The holistic rule- and cost-based optimizer spanning relational and
/// model-based operators (paper Sec. V). Rules run in a fixed sequence:
/// pushdown -> cardinality annotation -> join reorder -> DIP -> strategy
/// selection -> pruning -> final annotation.
class Optimizer {
 public:
  /// `ivfpq_pq_m` is the subspace count of the IVF-PQ indexes the plans
  /// will build (the engine passes its index options' pq_m); the strategy
  /// rules skip IVF-PQ for models whose dim it does not divide.
  Optimizer(const Catalog* catalog, const ModelRegistry* models,
            const DetectorRegistry* detectors, OptimizerOptions options = {},
            SubplanExecutor subplan_executor = nullptr,
            IndexResidencyProbe index_residency = nullptr,
            std::size_t ivfpq_pq_m = IvfPqOptions{}.pq_m)
      : catalog_(catalog),
        models_(models),
        options_(options),
        estimator_(catalog, models, detectors),
        cost_(models, ParamsFor(options, ivfpq_pq_m)),
        subplan_executor_(std::move(subplan_executor)),
        index_residency_(std::move(index_residency)) {}

  /// Produces an optimized copy of `plan` (the input is not modified).
  Result<PlanPtr> Optimize(const PlanPtr& plan) const;

  /// Annotates est_rows and est_cost in place.
  Status Annotate(PlanNode* plan) const;

  /// EXPLAIN text: the optimized plan tree with annotations.
  Result<std::string> Explain(const PlanPtr& plan) const;

  const CostModel& cost_model() const { return cost_; }
  const CardinalityEstimator& estimator() const { return estimator_; }
  const OptimizerOptions& options() const { return options_; }

 private:
  static CostParams ParamsFor(const OptimizerOptions& options,
                              std::size_t ivfpq_pq_m) {
    CostParams params;
    params.ivfpq_m = static_cast<double>(ivfpq_pq_m);
    params.parallelism = static_cast<double>(
        std::max<std::size_t>(1, options.degree_of_parallelism));
    params.index_reuse_horizon = std::max(1.0, options.index_reuse_horizon);
    params.background_build_discount =
        std::min(1.0, std::max(0.0, options.background_build_discount));
    return params;
  }

  const Catalog* catalog_;
  const ModelRegistry* models_;
  OptimizerOptions options_;
  CardinalityEstimator estimator_;
  CostModel cost_;
  SubplanExecutor subplan_executor_;
  /// Engine-provided IndexManager residency signal (null = no manager).
  IndexResidencyProbe index_residency_;
};

}  // namespace cre

#endif  // CRE_OPTIMIZER_OPTIMIZER_H_
