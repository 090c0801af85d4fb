#include "semantic/semantic_select.h"

#include <algorithm>

#include "storage/key_table.h"
#include "vecsim/kernels.h"

namespace cre {

namespace {

/// Ascending ids of the rows of the string column `words` whose embedding
/// scores >= threshold against ANY row of the row-major [nq x dim]
/// `queries`. Each distinct string is embedded (and scored) once, with
/// one EmbedBatch call: on Zipfian corpora this collapses most of the
/// embedding work, and one call per morsel-sized batch lets batched
/// backends (and the LRU cache's batched path) amortize. A string stops
/// scoring at its first matching query. The embed matrix is charged to
/// `budget` while it lives; a breach returns kResourceExhausted.
Result<std::vector<std::uint32_t>> MatchRows(const Column& words,
                                             const std::vector<float>& queries,
                                             const EmbeddingModel& model,
                                             float threshold,
                                             const QueryBudgetPtr& budget) {
  const std::size_t dim = model.dim();
  const std::size_t num_queries = queries.size() / dim;
  KeyTable values({DataType::kString});
  std::vector<std::uint32_t> row_to_unique;
  values.FindOrAddRows(words, &row_to_unique);
  const Span<std::string> unique = values.keys()[0].strings();
  ScopedCharge charge;
  CRE_RETURN_NOT_OK(charge.Acquire(budget,
                                   unique.size() * dim * sizeof(float),
                                   "semantic select embed matrix"));
  std::vector<float> matrix(unique.size() * dim);
  model.EmbedBatch(unique, matrix.data());

  const DotFn dot = GetDotKernel(BestKernelVariant());
  std::vector<char> match(unique.size());
  for (std::size_t u = 0; u < unique.size(); ++u) {
    const float* v = matrix.data() + u * dim;
    for (std::size_t q = 0; q < num_queries; ++q) {
      if (dot(queries.data() + q * dim, v, dim) >= threshold) {
        match[u] = 1;
        break;
      }
    }
  }
  std::vector<std::uint32_t> rows;
  for (std::size_t i = 0; i < row_to_unique.size(); ++i) {
    if (match[row_to_unique[i]]) rows.push_back(static_cast<std::uint32_t>(i));
  }
  return rows;
}

}  // namespace

SharedQueryMatrix EmbedQueries(const EmbeddingModel& model,
                               const std::vector<std::string>& queries) {
  auto matrix = std::make_shared<std::vector<float>>(queries.size() *
                                                     model.dim());
  model.EmbedBatch(queries, matrix->data());
  return matrix;
}

SemanticSelectOperator::SemanticSelectOperator(OperatorPtr child,
                                               std::string column,
                                               EmbeddingModelPtr model,
                                               float threshold,
                                               SharedQueryMatrix queries,
                                               QueryBudgetPtr budget)
    : child_(std::move(child)),
      column_(std::move(column)),
      model_(std::move(model)),
      threshold_(threshold),
      queries_(std::move(queries)),
      budget_(std::move(budget)) {}

Status SemanticSelectOperator::Open() {
  CRE_RETURN_NOT_OK(child_->Open());
  CRE_ASSIGN_OR_RETURN(std::size_t idx,
                       child_->output_schema().RequireField(column_));
  if (child_->output_schema().field(idx).type != DataType::kString) {
    return Status::TypeError("semantic select column '" + column_ +
                             "' must be a string column");
  }
  if (queries_ == nullptr || queries_->empty() ||
      queries_->size() % model_->dim() != 0) {
    return Status::InvalidArgument(
        "semantic select query matrix is not [n x model dim] with n >= 1");
  }
  return Status::OK();
}

Result<TablePtr> SemanticSelectOperator::Next() {
  for (;;) {
    CRE_ASSIGN_OR_RETURN(TablePtr batch, child_->Next());
    if (batch == nullptr) return TablePtr(nullptr);
    CRE_ASSIGN_OR_RETURN(const Column* col, batch->ColumnByName(column_));
    CRE_ASSIGN_OR_RETURN(
        const std::vector<std::uint32_t> keep,
        MatchRows(*col, *queries_, *model_, threshold_, budget_));
    if (keep.empty()) continue;
    if (keep.size() == batch->num_rows()) return batch;
    return batch->Take(keep);
  }
}

SemanticIndexSelectOperator::SemanticIndexSelectOperator(
    TablePtr table, std::string column, std::string query,
    EmbeddingModelPtr model, float threshold,
    std::shared_ptr<const VectorIndex> index, std::size_t min_row_id,
    bool exact_verify, QueryBudgetPtr budget)
    : table_(std::move(table)),
      column_(std::move(column)),
      query_(std::move(query)),
      model_(std::move(model)),
      threshold_(threshold),
      index_(std::move(index)),
      min_row_id_(min_row_id),
      exact_verify_(exact_verify),
      budget_(std::move(budget)) {}

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
  const std::vector<float> query_vec = model_->EmbedToVector(query_);
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
    // Re-score candidates with the scanning select's own match routine.
    // Approximate index scores (quantized ADC distances, graph walks)
    // then only prefilter; they can't keep a row the fallback would drop.
    const Column words = col->Take(matches_);
    CRE_ASSIGN_OR_RETURN(
        const std::vector<std::uint32_t> verified,
        MatchRows(words, query_vec, *model_, threshold_, budget_));
    std::size_t kept = 0;
    for (std::uint32_t i : verified) {
      matches_[kept++] = matches_[i];
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

}  // namespace cre
