#ifndef CRE_PLAN_PLAN_NODE_H_
#define CRE_PLAN_PLAN_NODE_H_

#include <memory>
#include <string>
#include <vector>

#include "embed/model_registry.h"
#include "exec/aggregate.h"
#include "exec/project.h"
#include "expr/expr.h"
#include "semantic/semantic_join.h"
#include "storage/catalog.h"

namespace cre {

/// Logical operator kinds. Relational and semantic/model operators live in
/// the same IR so one rule set optimizes across them — the central design
/// requirement of paper Sec. IV ("a common intermediate representation").
enum class PlanKind {
  kScan = 0,        ///< catalog table scan
  kDetectScan,      ///< simulated object-detection over an image store
  kFilter,          ///< relational predicate
  kProject,         ///< projection / computed columns
  kJoin,            ///< hash equi-join
  kSemanticSelect,  ///< model-assisted context filter
  kSemanticJoin,    ///< model-assisted latent-space join
  kSemanticGroupBy, ///< on-the-fly clustering
  kAggregate,       ///< hash group-by aggregation
  kSort,
  kLimit,
};

const char* PlanKindName(PlanKind kind);

class PlanNode;
using PlanPtr = std::shared_ptr<PlanNode>;

/// A mutable logical plan node. Optimizer rules rewrite trees of these;
/// the physical planner then lowers them to PhysicalOperators. Fields are
/// public by design (the node is a passive IR record, not an invariant-
/// holding class); only the fields relevant to `kind` are meaningful.
class PlanNode {
 public:
  PlanKind kind = PlanKind::kScan;
  std::vector<PlanPtr> children;

  // kScan / kDetectScan
  std::string table_name;

  // kFilter (and pushed-into-scan predicates for kScan/kDetectScan)
  ExprPtr predicate;

  // kProject
  std::vector<ProjectionItem> projections;

  // kJoin
  std::string left_key;
  std::string right_key;

  // Semantic operators.
  std::string column;      ///< input string column (select/group-by; also
                           ///< left key of semantic join via left_key)
  std::string query;       ///< semantic select query text
  /// Plan-cache parameter slot of `query` (-1: untagged; see
  /// PlanCache::Normalize).
  int query_param = -1;
  /// Data-induced predicate form of semantic select: match ANY of these
  /// (populated by the optimizer's DIP rule; overrides `query` when
  /// non-empty).
  std::vector<std::string> queries;
  std::string model_name;  ///< registry name of the model to use
  float threshold = 0.9f;
  /// Physical similarity strategy. For kSemanticJoin any value applies;
  /// for kSemanticSelect a non-brute value selects the index-backed range
  /// search over the IndexManager (only meaningful when
  /// IndexBackedSelect() holds).
  SemanticJoinStrategy strategy = SemanticJoinStrategy::kBruteForce;
  /// When false, the physical planner may re-pick the strategy by cost.
  bool strategy_pinned = false;
  /// Optimizer annotation: a fresh shared index for this node's strategy
  /// is already resident in the IndexManager, so the cost model charges
  /// probe cost only (the amortized "warm" case, Sec. V).
  bool index_resident = false;
  /// Optimizer annotation: full four-state residency of the chosen
  /// strategy's managed index (resident / building / on-disk / absent) —
  /// what EXPLAIN renders and what the cost model charges. The on-disk
  /// state is how a warm start shows up: the first post-restart EXPLAIN
  /// prints "(on-disk)", and once the image is adopted the next prints
  /// "(resident)".
  IndexResidency index_residency = IndexResidency::kAbsent;
  /// Semantic join top-k mode (0 = threshold range join).
  std::size_t top_k = 0;

  // kAggregate
  std::vector<std::string> group_keys;
  std::vector<AggSpec> aggs;

  // kSort
  std::string sort_key;
  bool sort_ascending = true;

  // kLimit
  std::size_t limit = 0;

  /// Optimizer annotation: estimated output rows (-1 = not yet estimated).
  double est_rows = -1;
  /// Optimizer annotation: estimated cumulative cost (abstract units).
  double est_cost = -1;

  // ---- construction helpers ----
  static PlanPtr Scan(std::string table);
  static PlanPtr DetectScan(std::string store);
  static PlanPtr Filter(PlanPtr child, ExprPtr predicate);
  static PlanPtr Project(PlanPtr child, std::vector<ProjectionItem> items);
  static PlanPtr Join(PlanPtr left, PlanPtr right, std::string left_key,
                      std::string right_key);
  static PlanPtr SemanticSelect(PlanPtr child, std::string column,
                                std::string query, std::string model,
                                float threshold);
  static PlanPtr SemanticJoin(PlanPtr left, PlanPtr right,
                              std::string left_key, std::string right_key,
                              std::string model, float threshold);
  static PlanPtr SemanticGroupBy(PlanPtr child, std::string column,
                                 std::string model, float threshold);
  static PlanPtr Aggregate(PlanPtr child, std::vector<std::string> group_keys,
                           std::vector<AggSpec> aggs);
  static PlanPtr Sort(PlanPtr child, std::string key, bool ascending);
  static PlanPtr Limit(PlanPtr child, std::size_t n);

  /// True when this is a kSemanticSelect that can execute as an
  /// index-backed range search over a managed whole-table index: a single
  /// query (not a DIP multi-select) over a bare catalog scan — no pushed
  /// predicate or projection between the select and the table, so index
  /// ids coincide with table row ids.
  bool IndexBackedSelect() const {
    return kind == PlanKind::kSemanticSelect &&
           strategy != SemanticJoinStrategy::kBruteForce && queries.empty() &&
           children.size() == 1 && children[0]->kind == PlanKind::kScan &&
           children[0]->predicate == nullptr;
  }

  /// For kSemanticJoin: the bare catalog scan beneath the build (right)
  /// side if index reuse through the IndexManager is possible — the right
  /// child is either a bare scan or an identity projection of one (column
  /// pruning preserves row identity, so index ids still match build rows).
  /// Returns nullptr otherwise.
  const PlanNode* IndexableBuildScan() const;

  /// Deep copy (children cloned recursively).
  PlanPtr Clone() const;

  /// Indented tree rendering with annotations, for EXPLAIN.
  std::string ToString(int indent = 0) const;

  /// Single-line description of this node only.
  std::string Describe() const;
};

/// Total number of nodes in the tree (for tests and rule fixpoint checks).
std::size_t PlanSize(const PlanNode& node);

}  // namespace cre

#endif  // CRE_PLAN_PLAN_NODE_H_
