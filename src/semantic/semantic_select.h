#ifndef CRE_SEMANTIC_SEMANTIC_SELECT_H_
#define CRE_SEMANTIC_SEMANTIC_SELECT_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/resource_governor.h"
#include "embed/model_registry.h"
#include "exec/operator.h"
#include "vecsim/vector_index.h"

namespace cre {

/// Pre-embedded query vectors shared across operator instances. The
/// morsel-driven driver instantiates one SemanticSelect per morsel chain;
/// embedding the query constant(s) once per *query* instead of once per
/// *morsel* removes the last redundant embedding work (ROADMAP item).
/// Layout: row-major [num_queries x dim].
using SharedQueryMatrix = std::shared_ptr<const std::vector<float>>;

/// Embeds `queries` into a shared [queries.size() x dim] matrix with one
/// EmbedBatch call.
SharedQueryMatrix EmbedQueries(const EmbeddingModel& model,
                               const std::vector<std::string>& queries);

/// The paper's Semantic Select operator extension (Sec. IV):
///   column ~= "query" USING MODEL m WITH COSINE THRESHOLD >= t
/// Keeps rows whose string column embeds within the cosine threshold of
/// ANY row of the pre-embedded query matrix. One query is the literal
/// `col ~ 'query'`; several are the executable form of a data-induced
/// predicate (paper Sec. IV, [23]), whose query set the optimizer derives
/// from the data of a small join side and pushes below expensive
/// downstream work. Each batch's embed matrix is charged to `budget`
/// (null charges nothing) before it is allocated.
class SemanticSelectOperator : public PhysicalOperator {
 public:
  SemanticSelectOperator(OperatorPtr child, std::string column,
                         EmbeddingModelPtr model, float threshold,
                         SharedQueryMatrix queries,
                         QueryBudgetPtr budget = nullptr);

  const Schema& output_schema() const override {
    return child_->output_schema();
  }
  Status Open() override;
  Result<TablePtr> Next() override;
  std::string name() const override {
    return "SemanticSelect(" + column_ + " >= " +
           std::to_string(threshold_) + ")";
  }

 private:
  OperatorPtr child_;
  std::string column_;
  EmbeddingModelPtr model_;
  float threshold_;
  SharedQueryMatrix queries_;
  QueryBudgetPtr budget_;
};

/// Index-backed semantic select: instead of embedding and scoring every
/// row of the input, probes a prebuilt VectorIndex over the base table's
/// column embeddings (served by the IndexManager) with one range search
/// and gathers the matching rows in original row order. This is the
/// "index-based access for similarity search" physical alternative the
/// optimizer chooses when the amortized index cost beats the scan
/// (Sec. V / E6); it acts as a leaf over the catalog table, so the plan's
/// child scan must be a bare (predicate-free, unprojected) table scan.
///
/// Mid-query adoption support: `min_row_id` restricts the operator to
/// rows >= that id — the parallel driver swaps remaining morsels onto the
/// index after a background build lands mid-query, and the already-
/// scanned prefix must not be re-emitted. `exact_verify` re-scores every
/// index candidate with the exact brute-force dot (embedding the row
/// strings like the scanning operator does) so approximate probe scores
/// (e.g. IVF-PQ's quantized distances) can only *narrow* the candidate
/// set, never admit a row the scanning fallback would have rejected; its
/// embed matrix is charged to `budget` like the scanning select's.
class SemanticIndexSelectOperator : public PhysicalOperator {
 public:
  SemanticIndexSelectOperator(TablePtr table, std::string column,
                              std::string query, EmbeddingModelPtr model,
                              float threshold,
                              std::shared_ptr<const VectorIndex> index,
                              std::size_t min_row_id = 0,
                              bool exact_verify = false,
                              QueryBudgetPtr budget = nullptr);

  const Schema& output_schema() const override { return table_->schema(); }
  Status Open() override;
  Result<TablePtr> Next() override;
  std::string name() const override {
    return "SemanticIndexSelect[" + (index_ ? index_->name() : "?") + "](" +
           column_ + " ~ '" + query_ + "' >= " + std::to_string(threshold_) +
           ")";
  }

 private:
  TablePtr table_;
  std::string column_;
  std::string query_;
  EmbeddingModelPtr model_;
  float threshold_;
  std::shared_ptr<const VectorIndex> index_;
  std::size_t min_row_id_;
  bool exact_verify_;
  QueryBudgetPtr budget_;
  /// Matching row ids in ascending order (same order a scan would emit).
  std::vector<std::uint32_t> matches_;
  std::size_t next_ = 0;
};

}  // namespace cre

#endif  // CRE_SEMANTIC_SEMANTIC_SELECT_H_
