#include "semantic/semantic_select.h"

#include <algorithm>
#include <string_view>
#include <unordered_map>

#include "vecsim/kernels.h"

namespace cre {

namespace {

/// Distinct strings of a batch plus a row -> distinct index mapping.
/// Semantic operators embed (and score) each distinct string once per
/// morsel-sized batch — on Zipfian corpora this collapses most of the
/// embedding work, and it keeps one EmbedBatch call per morsel so batched
/// backends (and the LRU cache's batched path) amortize properly.
struct DistinctBatch {
  std::vector<std::string> unique;
  std::vector<std::uint32_t> row_to_unique;
};

DistinctBatch CollectDistinct(Span<std::string> words) {
  DistinctBatch out;
  out.row_to_unique.resize(words.size());
  std::unordered_map<std::string_view, std::uint32_t> index;
  index.reserve(words.size());
  for (std::size_t i = 0; i < words.size(); ++i) {
    auto [it, inserted] = index.emplace(
        std::string_view(words[i]),
        static_cast<std::uint32_t>(out.unique.size()));
    if (inserted) out.unique.push_back(words[i]);
    out.row_to_unique[i] = it->second;
  }
  return out;
}

}  // namespace

SemanticSelectOperator::SemanticSelectOperator(OperatorPtr child,
                                               std::string column,
                                               std::string query,
                                               EmbeddingModelPtr model,
                                               float threshold,
                                               SharedQueryMatrix shared_query)
    : child_(std::move(child)),
      column_(std::move(column)),
      query_(std::move(query)),
      model_(std::move(model)),
      threshold_(threshold),
      shared_query_(std::move(shared_query)) {}

Status SemanticSelectOperator::Open() {
  CRE_RETURN_NOT_OK(child_->Open());
  CRE_ASSIGN_OR_RETURN(std::size_t idx,
                       child_->output_schema().RequireField(column_));
  if (child_->output_schema().field(idx).type != DataType::kString) {
    return Status::TypeError("semantic select column '" + column_ +
                             "' must be a string column");
  }
  if (shared_query_ != nullptr) {
    if (shared_query_->size() != model_->dim()) {
      return Status::InvalidArgument(
          "shared query matrix size does not match model dim");
    }
    query_data_ = shared_query_->data();
    return Status::OK();
  }
  query_vec_.resize(model_->dim());
  model_->Embed(query_, query_vec_.data());
  query_data_ = query_vec_.data();
  return Status::OK();
}

Result<TablePtr> SemanticSelectOperator::Next() {
  const std::size_t dim = model_->dim();
  for (;;) {
    CRE_ASSIGN_OR_RETURN(TablePtr batch, child_->Next());
    if (batch == nullptr) return TablePtr(nullptr);
    CRE_ASSIGN_OR_RETURN(const Column* col, batch->ColumnByName(column_));
    const auto& words = col->strings();

    const DistinctBatch distinct = CollectDistinct(words);
    std::vector<float> matrix(distinct.unique.size() * dim);
    model_->EmbedBatch(distinct.unique, matrix.data());

    const DotFn dot = GetDotKernel(BestKernelVariant());
    std::vector<char> match(distinct.unique.size());
    for (std::size_t u = 0; u < distinct.unique.size(); ++u) {
      match[u] = dot(query_data_, matrix.data() + u * dim, dim) >= threshold_;
    }
    std::vector<std::uint32_t> keep;
    for (std::size_t i = 0; i < words.size(); ++i) {
      if (match[distinct.row_to_unique[i]]) {
        keep.push_back(static_cast<std::uint32_t>(i));
      }
    }
    if (keep.empty()) continue;
    if (keep.size() == batch->num_rows()) return batch;
    return batch->Take(keep);
  }
}

SemanticMultiSelectOperator::SemanticMultiSelectOperator(
    OperatorPtr child, std::string column, std::vector<std::string> queries,
    EmbeddingModelPtr model, float threshold,
    SharedQueryMatrix shared_queries)
    : child_(std::move(child)),
      column_(std::move(column)),
      queries_(std::move(queries)),
      model_(std::move(model)),
      threshold_(threshold),
      shared_queries_(std::move(shared_queries)) {}

Status SemanticMultiSelectOperator::Open() {
  CRE_RETURN_NOT_OK(child_->Open());
  CRE_ASSIGN_OR_RETURN(std::size_t idx,
                       child_->output_schema().RequireField(column_));
  if (child_->output_schema().field(idx).type != DataType::kString) {
    return Status::TypeError("semantic multi-select column '" + column_ +
                             "' must be a string column");
  }
  if (shared_queries_ != nullptr) {
    if (shared_queries_->size() != queries_.size() * model_->dim()) {
      return Status::InvalidArgument(
          "shared query matrix size does not match query count * model dim");
    }
    query_data_ = shared_queries_->data();
    return Status::OK();
  }
  query_matrix_.resize(queries_.size() * model_->dim());
  model_->EmbedBatch(queries_, query_matrix_.data());
  query_data_ = query_matrix_.data();
  return Status::OK();
}

Result<TablePtr> SemanticMultiSelectOperator::Next() {
  const std::size_t dim = model_->dim();
  const DotFn dot = GetDotKernel(BestKernelVariant());
  for (;;) {
    CRE_ASSIGN_OR_RETURN(TablePtr batch, child_->Next());
    if (batch == nullptr) return TablePtr(nullptr);
    CRE_ASSIGN_OR_RETURN(const Column* col, batch->ColumnByName(column_));
    const auto& words = col->strings();

    const DistinctBatch distinct = CollectDistinct(words);
    std::vector<float> matrix(distinct.unique.size() * dim);
    model_->EmbedBatch(distinct.unique, matrix.data());

    std::vector<char> match(distinct.unique.size());
    for (std::size_t u = 0; u < distinct.unique.size(); ++u) {
      const float* v = matrix.data() + u * dim;
      for (std::size_t q = 0; q < queries_.size(); ++q) {
        if (dot(v, query_data_ + q * dim, dim) >= threshold_) {
          match[u] = 1;
          break;
        }
      }
    }
    std::vector<std::uint32_t> keep;
    for (std::size_t i = 0; i < words.size(); ++i) {
      if (match[distinct.row_to_unique[i]]) {
        keep.push_back(static_cast<std::uint32_t>(i));
      }
    }
    if (keep.empty()) continue;
    if (keep.size() == batch->num_rows()) return batch;
    return batch->Take(keep);
  }
}

SemanticIndexSelectOperator::SemanticIndexSelectOperator(
    TablePtr table, std::string column, std::string query,
    EmbeddingModelPtr model, float threshold,
    std::shared_ptr<const VectorIndex> index, std::size_t min_row_id,
    bool exact_verify)
    : table_(std::move(table)),
      column_(std::move(column)),
      query_(std::move(query)),
      model_(std::move(model)),
      threshold_(threshold),
      index_(std::move(index)),
      min_row_id_(min_row_id),
      exact_verify_(exact_verify) {}

Status SemanticIndexSelectOperator::Open() {
  matches_.clear();
  next_ = 0;
  if (index_ == nullptr) {
    return Status::InvalidArgument("semantic index select requires an index");
  }
  CRE_ASSIGN_OR_RETURN(const Column* col, table_->ColumnByName(column_));
  if (col->type() != DataType::kString) {
    return Status::TypeError("semantic index select column '" + column_ +
                             "' must be a string column");
  }
  if (index_->size() != table_->num_rows()) {
    return Status::Internal(
        "index over '" + column_ + "' covers " +
        std::to_string(index_->size()) + " rows but the table has " +
        std::to_string(table_->num_rows()) +
        " (stale index served for a changed table?)");
  }
  std::vector<float> query_vec(model_->dim());
  model_->Embed(query_, query_vec.data());
  std::vector<ScoredId> hits;
  CRE_RETURN_NOT_OK(index_->RangeSearchChecked(query_vec.data(), model_->dim(),
                                               threshold_, &hits));
  matches_.reserve(hits.size());
  for (const ScoredId& h : hits) {
    if (h.id >= min_row_id_) matches_.push_back(h.id);
  }
  // Emit in base-table row order, exactly like the scanning select would.
  std::sort(matches_.begin(), matches_.end());
  matches_.erase(std::unique(matches_.begin(), matches_.end()),
                 matches_.end());
  if (exact_verify_ && !matches_.empty()) {
    // Re-score candidates exactly: gather their strings, embed each
    // distinct one, and apply the same dot >= threshold test the
    // scanning operator uses. Approximate index scores (quantized ADC
    // distances, graph walks) then only prefilter; they can't keep a row
    // the fallback would drop.
    const std::size_t dim = model_->dim();
    std::vector<std::string> words;
    words.reserve(matches_.size());
    const auto& strings = col->strings();
    for (std::uint32_t id : matches_) words.push_back(strings[id]);
    const DistinctBatch distinct = CollectDistinct(words);
    std::vector<float> matrix(distinct.unique.size() * dim);
    model_->EmbedBatch(distinct.unique, matrix.data());
    const DotFn dot = GetDotKernel(BestKernelVariant());
    std::vector<char> match(distinct.unique.size());
    for (std::size_t u = 0; u < distinct.unique.size(); ++u) {
      match[u] =
          dot(query_vec.data(), matrix.data() + u * dim, dim) >= threshold_;
    }
    std::size_t kept = 0;
    for (std::size_t i = 0; i < matches_.size(); ++i) {
      if (match[distinct.row_to_unique[i]]) matches_[kept++] = matches_[i];
    }
    matches_.resize(kept);
  }
  return Status::OK();
}

Result<TablePtr> SemanticIndexSelectOperator::Next() {
  if (next_ >= matches_.size()) return TablePtr(nullptr);
  const std::size_t count =
      std::min(kDefaultBatchSize, matches_.size() - next_);
  std::vector<std::uint32_t> batch_ids(matches_.begin() + next_,
                                       matches_.begin() + next_ + count);
  next_ += count;
  return table_->Take(batch_ids);
}

Result<TablePtr> SemanticFilter(const TablePtr& table,
                                const std::string& column,
                                const std::string& query,
                                const EmbeddingModel& model,
                                float threshold) {
  CRE_ASSIGN_OR_RETURN(const Column* col, table->ColumnByName(column));
  if (col->type() != DataType::kString) {
    return Status::TypeError("semantic filter column must be string");
  }
  const std::size_t dim = model.dim();
  std::vector<float> qv(dim);
  model.Embed(query, qv.data());

  const auto& words = col->strings();
  const DistinctBatch distinct = CollectDistinct(words);
  std::vector<float> matrix(distinct.unique.size() * dim);
  model.EmbedBatch(distinct.unique, matrix.data());

  const DotFn dot = GetDotKernel(BestKernelVariant());
  std::vector<char> match(distinct.unique.size());
  for (std::size_t u = 0; u < distinct.unique.size(); ++u) {
    match[u] = dot(qv.data(), matrix.data() + u * dim, dim) >= threshold;
  }
  std::vector<std::uint32_t> keep;
  for (std::size_t i = 0; i < words.size(); ++i) {
    if (match[distinct.row_to_unique[i]]) {
      keep.push_back(static_cast<std::uint32_t>(i));
    }
  }
  return table->Take(keep);
}

}  // namespace cre
