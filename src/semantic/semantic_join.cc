#include "semantic/semantic_join.h"

#include <algorithm>
#include <set>

namespace cre {

namespace {

/// Left rows probed between cancellation polls: a few hundred index
/// probes is well under a millisecond, so cancel latency inside a heavy
/// probe loop stays bounded without measurable polling overhead.
constexpr std::size_t kProbeCancelStride = 256;

Status CheckProbeCancel(const CancelFlag* cancel, std::size_t i) {
  if (i % kProbeCancelStride == 0 && cancel != nullptr &&
      cancel->cancelled()) {
    return Status::Cancelled("semantic join probe cancelled");
  }
  return Status::OK();
}

}  // namespace

const char* SemanticJoinStrategyName(SemanticJoinStrategy s) {
  switch (s) {
    case SemanticJoinStrategy::kBruteForce:
      return "brute";
    case SemanticJoinStrategy::kIvf:
      return "ivf";
    case SemanticJoinStrategy::kHnsw:
      return "hnsw";
    case SemanticJoinStrategy::kIvfPq:
      return "ivfpq";
  }
  return "?";
}

std::unique_ptr<VectorIndex> MakeVectorIndex(SemanticJoinStrategy kind,
                                             const IvfOptions& ivf,
                                             const HnswOptions& hnsw,
                                             const IvfPqOptions& ivfpq,
                                             TaskRunner* pool,
                                             const CancelFlag* cancel) {
  switch (kind) {
    case SemanticJoinStrategy::kBruteForce:
      return nullptr;
    case SemanticJoinStrategy::kIvf: {
      IvfOptions o = ivf;
      if (cancel != nullptr) o.cancel = cancel;
      return std::make_unique<IvfIndex>(o, pool);
    }
    case SemanticJoinStrategy::kHnsw: {
      HnswOptions o = hnsw;
      if (pool != nullptr) o.build_pool = pool;
      if (cancel != nullptr) o.cancel = cancel;
      return std::make_unique<HnswIndex>(o);
    }
    case SemanticJoinStrategy::kIvfPq: {
      IvfPqOptions o = ivfpq;
      if (cancel != nullptr) o.cancel = cancel;
      return std::make_unique<IvfPqIndex>(o);
    }
  }
  return nullptr;
}

const char* IndexResidencyName(IndexResidency r) {
  switch (r) {
    case IndexResidency::kAbsent:
      return "absent";
    case IndexResidency::kOnDisk:
      return "on-disk";
    case IndexResidency::kRefreshable:
      return "refreshable";
    case IndexResidency::kBuilding:
      return "building";
    case IndexResidency::kResident:
      return "resident";
  }
  return "?";
}

SemanticJoinOperator::SemanticJoinOperator(OperatorPtr left, OperatorPtr right,
                                           std::string left_key,
                                           std::string right_key,
                                           EmbeddingModelPtr model,
                                           SemanticJoinOptions options)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_key_(std::move(left_key)),
      right_key_(std::move(right_key)),
      model_(std::move(model)),
      options_(std::move(options)) {}

Status SemanticJoinOperator::Open() {
  if (opened_) return Status::OK();
  opened_ = true;
  CRE_RETURN_NOT_OK(left_->Open());
  CRE_RETURN_NOT_OK(BuildRightSide());

  const Schema& ls = left_->output_schema();
  const Schema& rs = right_->output_schema();
  std::set<std::string> names;
  for (const auto& f : ls.fields()) {
    schema_.AddField(f);
    names.insert(f.name);
  }
  for (const auto& f : rs.fields()) {
    Field nf = f;
    while (names.count(nf.name)) nf.name += "_r";
    names.insert(nf.name);
    schema_.AddField(std::move(nf));
  }
  std::string score = "similarity";
  while (names.count(score)) score += "_";
  schema_.AddField({score, DataType::kFloat64, 0});
  return Status::OK();
}

Status SemanticJoinOperator::BuildRightSide() {
  CRE_ASSIGN_OR_RETURN(build_, ExecuteToTable(right_.get()));
  CRE_ASSIGN_OR_RETURN(const Column* key, build_->ColumnByName(right_key_));
  if (key->type() != DataType::kString) {
    return Status::TypeError("semantic join right key must be string");
  }
  const auto& words = key->strings();
  const std::size_t dim = model_->dim();

  // A manager-served index lets the operator skip both the build-side
  // embedding and the index construction. Adopt it only when it provably
  // covers the collected build side (row count and dimension agree);
  // otherwise fall through to a local build — correctness never depends
  // on the cache being right.
  if (options_.shared_index != nullptr &&
      options_.strategy != SemanticJoinStrategy::kBruteForce &&
      options_.shared_index->size() == words.size() &&
      options_.shared_index->dim() == dim) {
    index_ = options_.shared_index;
    return Status::OK();
  }

  CRE_RETURN_NOT_OK(right_charge_.Acquire(
      options_.budget, words.size() * dim * sizeof(float),
      "semantic join right embed matrix"));
  right_matrix_.resize(words.size() * dim);
  model_->EmbedBatch(words, right_matrix_.data());

  // Local (per-execution) builds borrow the operator's probe pool and
  // poll the query's cancel flag, so cancellation lands mid-build and
  // mid-probe, not at the next batch boundary.
  std::unique_ptr<VectorIndex> owned =
      MakeVectorIndex(options_.strategy, options_.ivf, options_.hnsw,
                      options_.ivfpq, options_.pool, options_.cancel);
  if (owned == nullptr) {
    index_.reset();
    return Status::OK();
  }
  CRE_RETURN_NOT_OK(owned->Build(right_matrix_.data(), words.size(), dim));
  index_ = std::move(owned);
  return Status::OK();
}

Result<TablePtr> SemanticJoinOperator::Next() {
  const std::size_t dim = model_->dim();
  for (;;) {
    CRE_ASSIGN_OR_RETURN(TablePtr batch, left_->Next());
    if (batch == nullptr) return TablePtr(nullptr);
    CRE_ASSIGN_OR_RETURN(const Column* key, batch->ColumnByName(left_key_));
    if (key->type() != DataType::kString) {
      return Status::TypeError("semantic join left key must be string");
    }
    const auto& words = key->strings();
    ScopedCharge left_charge;
    CRE_RETURN_NOT_OK(left_charge.Acquire(options_.budget,
                                          words.size() * dim * sizeof(float),
                                          "semantic join left embed matrix"));
    std::vector<float> left_matrix(words.size() * dim);
    model_->EmbedBatch(words, left_matrix.data());

    std::vector<MatchPair> matches;
    if (options_.top_k > 0) {
      // Top-k mode: per left row, the k best right rows above threshold.
      const DotFn dot = GetDotKernel(BestKernelVariant());
      const std::size_t n_right = right_matrix_.size() / dim;
      for (std::size_t i = 0; i < words.size(); ++i) {
        CRE_RETURN_NOT_OK(CheckProbeCancel(options_.cancel, i));
        const float* q = left_matrix.data() + i * dim;
        std::vector<ScoredId> hits;
        if (index_ == nullptr) {
          TopKCollector collector(options_.top_k);
          for (std::size_t j = 0; j < n_right; ++j) {
            collector.Offer(static_cast<std::uint32_t>(j),
                            dot(q, right_matrix_.data() + j * dim, dim));
          }
          hits = collector.TakeSorted();
        } else {
          CRE_ASSIGN_OR_RETURN(hits,
                               index_->TopKChecked(q, dim, options_.top_k));
        }
        for (const auto& h : hits) {
          if (h.score < options_.threshold) continue;
          matches.push_back({static_cast<std::uint32_t>(i), h.id, h.score});
        }
      }
    } else if (index_ == nullptr) {
      BruteForceOptions bf;
      bf.pool = options_.pool;
      bf.cancel = options_.cancel;
      matches = SimilarityJoinBrute(left_matrix.data(), words.size(),
                                    right_matrix_.data(),
                                    right_matrix_.size() / dim, dim,
                                    options_.threshold, bf);
      // A cancelled scan returns partial matches; discard and unwind.
      CRE_RETURN_NOT_OK(CheckProbeCancel(options_.cancel, 0));
    } else {
      for (std::size_t i = 0; i < words.size(); ++i) {
        CRE_RETURN_NOT_OK(CheckProbeCancel(options_.cancel, i));
        std::vector<ScoredId> hits;
        CRE_RETURN_NOT_OK(index_->RangeSearchChecked(
            left_matrix.data() + i * dim, dim, options_.threshold, &hits));
        for (const auto& h : hits) {
          matches.push_back({static_cast<std::uint32_t>(i), h.id, h.score});
        }
      }
    }
    if (matches.empty()) continue;

    // Deterministic output order regardless of physical strategy or probe
    // parallelism: downstream order-sensitive operators (semantic
    // group-by) must see the same stream no matter how the optimizer
    // chose to execute this join.
    std::sort(matches.begin(), matches.end(),
              [](const MatchPair& a, const MatchPair& b) {
                return a.left != b.left ? a.left < b.left
                                        : a.right < b.right;
              });

    std::vector<std::uint32_t> left_rows, right_rows;
    left_rows.reserve(matches.size());
    right_rows.reserve(matches.size());
    for (const auto& m : matches) {
      left_rows.push_back(m.left);
      right_rows.push_back(m.right);
    }
    TablePtr left_part = batch->Take(left_rows);
    TablePtr right_part = build_->Take(right_rows);
    auto out = Table::Make(schema_);
    const std::size_t ln = left_part->num_columns();
    for (std::size_t c = 0; c < ln; ++c) out->column(c) = left_part->column(c);
    for (std::size_t c = 0; c < right_part->num_columns(); ++c) {
      out->column(ln + c) = right_part->column(c);
    }
    Column& score = out->column(ln + right_part->num_columns());
    for (const auto& m : matches) score.AppendFloat64(m.score);
    return out;
  }
}

Result<std::vector<MatchPair>> SemanticStringJoin(
    const std::vector<std::string>& left,
    const std::vector<std::string>& right, const EmbeddingModel& model,
    const SemanticJoinOptions& options) {
  const std::size_t dim = model.dim();
  ScopedCharge charge;
  CRE_RETURN_NOT_OK(charge.Acquire(
      options.budget, (left.size() + right.size()) * dim * sizeof(float),
      "semantic join embed matrices"));
  std::vector<float> lm(left.size() * dim), rm(right.size() * dim);
  model.EmbedBatch(left, lm.data());
  model.EmbedBatch(right, rm.data());

  std::unique_ptr<VectorIndex> index =
      MakeVectorIndex(options.strategy, options.ivf, options.hnsw,
                      options.ivfpq, options.pool, options.cancel);
  if (index == nullptr) {
    BruteForceOptions bf;
    bf.pool = options.pool;
    return SimilarityJoinBrute(lm.data(), left.size(), rm.data(),
                               right.size(), dim, options.threshold, bf);
  }
  CRE_RETURN_NOT_OK(index->Build(rm.data(), right.size(), dim));
  std::vector<MatchPair> matches;
  for (std::size_t i = 0; i < left.size(); ++i) {
    std::vector<ScoredId> hits;
    index->RangeSearch(lm.data() + i * dim, options.threshold, &hits);
    for (const auto& h : hits) {
      matches.push_back({static_cast<std::uint32_t>(i), h.id, h.score});
    }
  }
  return matches;
}

}  // namespace cre
