#include "semantic/semantic_group_by.h"

namespace cre {

std::uint32_t OnlineClusterer::Assign(const float* vec) {
  const std::size_t n = num_clusters();
  const DotFn dot = GetDotKernel(BestKernelVariant());
  for (std::size_t c = 0; c < n; ++c) {
    if (dot(vec, reps_.data() + c * dim_, dim_) >= threshold_) {
      return static_cast<std::uint32_t>(c);
    }
  }
  reps_.insert(reps_.end(), vec, vec + dim_);
  return static_cast<std::uint32_t>(n);
}

SemanticGroupByOperator::SemanticGroupByOperator(
    OperatorPtr child, std::string column, EmbeddingModelPtr model,
    float threshold, QueryBudgetPtr budget, std::string cluster_column,
    std::string rep_column)
    : child_(std::move(child)),
      column_(std::move(column)),
      model_(std::move(model)),
      threshold_(threshold),
      budget_(std::move(budget)),
      cluster_column_(std::move(cluster_column)),
      rep_column_(std::move(rep_column)) {}

Status SemanticGroupByOperator::Open() {
  CRE_RETURN_NOT_OK(child_->Open());
  CRE_ASSIGN_OR_RETURN(std::size_t idx,
                       child_->output_schema().RequireField(column_));
  if (child_->output_schema().field(idx).type != DataType::kString) {
    return Status::TypeError("semantic group-by column must be string");
  }
  schema_ = child_->output_schema();
  schema_.AddField({cluster_column_, DataType::kInt64, 0});
  schema_.AddField({rep_column_, DataType::kString, 0});
  clusterer_ = std::make_unique<OnlineClusterer>(model_->dim(), threshold_);
  rep_labels_.clear();
  return Status::OK();
}

Result<TablePtr> SemanticGroupByOperator::Next() {
  CRE_ASSIGN_OR_RETURN(TablePtr batch, child_->Next());
  if (batch == nullptr) return TablePtr(nullptr);
  CRE_ASSIGN_OR_RETURN(const Column* col, batch->ColumnByName(column_));
  const auto& words = col->strings();
  const std::size_t dim = model_->dim();

  ScopedCharge charge;
  CRE_RETURN_NOT_OK(charge.Acquire(budget_, words.size() * dim * sizeof(float),
                                   "semantic group-by embed matrix"));
  std::vector<float> matrix(words.size() * dim);
  model_->EmbedBatch(words, matrix.data());

  auto out = Table::Make(schema_);
  for (std::size_t c = 0; c < batch->num_columns(); ++c) {
    out->column(c) = batch->column(c);
  }
  Column& cluster_col = out->column(batch->num_columns());
  Column& rep_col = out->column(batch->num_columns() + 1);
  for (std::size_t i = 0; i < words.size(); ++i) {
    const std::uint32_t cid = clusterer_->Assign(matrix.data() + i * dim);
    if (cid == rep_labels_.size()) rep_labels_.push_back(words[i]);
    cluster_col.AppendInt64(static_cast<std::int64_t>(cid));
    rep_col.AppendString(rep_labels_[cid]);
  }
  return out;
}

}  // namespace cre
