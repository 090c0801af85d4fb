#ifndef CRE_OPTIMIZER_RULES_H_
#define CRE_OPTIMIZER_RULES_H_

#include <functional>

#include "core/result.h"
#include "optimizer/cardinality.h"
#include "optimizer/cost_model.h"
#include "plan/plan_node.h"
#include "storage/catalog.h"

namespace cre {

/// Callback the DIP rule uses to execute a small subplan at optimization
/// time (the predicates are induced from *data*, so deriving them requires
/// evaluating the inducing side). Provided by the engine.
using SubplanExecutor =
    std::function<Result<TablePtr>(const PlanPtr& subplan)>;

/// Rule 1 — filter pushdown (incl. across semantic operators and into
/// scans/detect-scans). Splits conjunctions and pushes each term to the
/// deepest node whose schema binds all referenced columns. Pushing a date
/// filter below the object detector is the paper's motivating
/// optimization (Sec. II step 3).
Result<PlanPtr> RulePushDownFilters(PlanPtr plan, const Catalog& catalog);

/// Rule 2 — join input ordering: puts the smaller estimated side on the
/// build (right) position of hash joins and semantic joins. Requires
/// cardinality annotations. Only fires when the two sides share no column
/// names (a collision would re-bind names across the swap).
Result<PlanPtr> RuleReorderJoinInputs(PlanPtr plan, const Catalog& catalog);

/// Rule 3 — data-induced predicates (paper Sec. IV, [23]): when one side
/// of a semantic join is estimated tiny, executes it, collects the
/// distinct join-key strings, and inserts a semantic multi-select with
/// those strings on the other (large) side, shrinking it before expensive
/// work. `max_inducing_rows` bounds the executed side.
Result<PlanPtr> RuleDataInducedPredicates(PlanPtr plan,
                                          const SubplanExecutor& executor,
                                          std::size_t max_inducing_rows = 64);

/// Answers "what amortization state is the managed index of family
/// `kind` over (table, column, model) in right now?" — the optimizer's
/// residency signal (kResident / kBuilding for an in-flight background
/// build / kAbsent). Provided by the engine; null means "no index
/// subsystem" (all lookups cold, index-backed semantic selects
/// unavailable).
using IndexResidencyProbe = std::function<IndexResidency(
    const std::string& table, const std::string& column,
    const std::string& model, SemanticJoinStrategy kind)>;

/// Rule 4 — cost-based physical strategy selection for semantic joins
/// (brute force vs IVF vs HNSW vs IVF-PQ), the similarity analogue of
/// index selection (Sec. V). Distinguishes three amortization states per
/// strategy: resident in the IndexManager (probe cost only), reusable
/// (bare-scan build side — cold build amortized over the expected reuse
/// horizon), and one-shot (full build cost, the pre-manager behavior).
/// Families whose Build would reject the model's dim are never picked
/// (CostModel::StrategyAcceptsModel); the select rule below skips them too.
/// Requires cardinality annotations; skips nodes with strategy_pinned.
PlanPtr RulePickSemanticJoinStrategy(
    PlanPtr plan, const CostModel& cost,
    const IndexResidencyProbe& residency = nullptr);

/// Rule 4b — index-backed semantic select: when a single-query semantic
/// select sits on a bare catalog scan and a managed whole-table index
/// (amortized) is cheaper than the embed-every-row scan, flips the node's
/// strategy to the winning index family. Only fires when `residency` is
/// non-null (an engine with an IndexManager), since the physical operator
/// needs the manager to serve the index.
PlanPtr RulePickSemanticSelectStrategy(PlanPtr plan, const CostModel& cost,
                                       const IndexResidencyProbe& residency);

/// Rule 5 — projection pruning: narrows scans to the columns actually
/// referenced above them (reduces materialization and join copying).
Result<PlanPtr> RulePruneColumns(PlanPtr plan, const Catalog& catalog);

}  // namespace cre

#endif  // CRE_OPTIMIZER_RULES_H_
