#ifndef CRE_SEMANTIC_SEMANTIC_GROUP_BY_H_
#define CRE_SEMANTIC_SEMANTIC_GROUP_BY_H_

#include <string>
#include <utility>
#include <vector>

#include "core/resource_governor.h"
#include "embed/model_registry.h"
#include "exec/operator.h"
#include "vecsim/kernels.h"

namespace cre {

/// Online, order-deterministic threshold clustering over embeddings: the
/// mechanism behind Semantic GroupBy and the Figure 3 on-the-fly result
/// consolidation. Each new vector joins the first existing cluster whose
/// representative is within `threshold` cosine; otherwise it founds a new
/// cluster with itself as representative.
class OnlineClusterer {
 public:
  OnlineClusterer(std::size_t dim, float threshold)
      : dim_(dim), threshold_(threshold) {}

  /// Assigns one vector; returns its cluster id.
  std::uint32_t Assign(const float* vec);

  std::size_t num_clusters() const { return reps_.size() / dim_; }

 private:
  std::size_t dim_;
  float threshold_;
  std::vector<float> reps_;  ///< row-major cluster representatives
};

/// The paper's Semantic GroupBy operator extension (Sec. IV): clusters
/// rows by the latent-space similarity of a string column and appends a
/// cluster id plus the cluster representative label. Aggregation over the
/// cluster id can then use a regular Aggregate plan node. Each batch's
/// embed matrix is charged to `budget` (when set) before it is built.
class SemanticGroupByOperator : public PhysicalOperator {
 public:
  SemanticGroupByOperator(OperatorPtr child, std::string column,
                          EmbeddingModelPtr model, float threshold,
                          QueryBudgetPtr budget = nullptr,
                          std::string cluster_column = "cluster_id",
                          std::string rep_column = "cluster_rep");

  const Schema& output_schema() const override { return schema_; }
  Status Open() override;
  Result<TablePtr> Next() override;
  std::string name() const override {
    return "SemanticGroupBy(" + column_ + " @ " +
           std::to_string(threshold_) + ")";
  }

 private:
  OperatorPtr child_;
  std::string column_;
  EmbeddingModelPtr model_;
  float threshold_;
  QueryBudgetPtr budget_;
  std::string cluster_column_;
  std::string rep_column_;
  Schema schema_;
  std::unique_ptr<OnlineClusterer> clusterer_;
  std::vector<std::string> rep_labels_;  ///< first member label per cluster
};

}  // namespace cre

#endif  // CRE_SEMANTIC_SEMANTIC_GROUP_BY_H_
