#include "vision/detection_scan.h"

#include <numeric>
#include <set>

#include "expr/evaluator.h"

namespace cre {

namespace {
/// Images per fan-out piece: small enough that a third thread shortens
/// a batch, large enough to amortize one counter claim.
constexpr std::size_t kImagesPerTask = 8;
}  // namespace

DetectionScanOperator::DetectionScanOperator(const ImageStore* store,
                                             const ObjectDetector* detector,
                                             ExprPtr predicate,
                                             std::size_t images_per_batch,
                                             TaskRunner* pool,
                                             const CancelFlag* cancel)
    : store_(store),
      detector_(detector),
      pool_(pool),
      cancel_(cancel),
      predicate_(std::move(predicate)),
      images_per_batch_(images_per_batch),
      schema_(ObjectDetector::DetectionSchema()) {}

Status DetectionScanOperator::Open() {
  offset_ = 0;
  qualifying_.clear();
  metadata_predicate_ = nullptr;
  post_predicate_ = nullptr;

  if (predicate_ != nullptr) {
    // Split by column: metadata terms run before inference, the rest after.
    const std::set<std::string> metadata_cols = {"image_id", "date_taken"};
    std::vector<ExprPtr> meta_terms, post_terms;
    for (const auto& term : SplitConjunction(predicate_)) {
      (term->OnlyReferences(metadata_cols) ? meta_terms : post_terms)
          .push_back(term);
    }
    metadata_predicate_ = CombineConjunction(meta_terms);
    post_predicate_ = CombineConjunction(post_terms);
  }

  if (metadata_predicate_ == nullptr) {
    qualifying_.resize(store_->size());
    std::iota(qualifying_.begin(), qualifying_.end(), 0);
    return Status::OK();
  }
  TablePtr meta = store_->MetadataTable();
  CRE_ASSIGN_OR_RETURN(qualifying_,
                       FilterIndices(*meta, *metadata_predicate_));
  return Status::OK();
}

Result<TablePtr> DetectionScanOperator::Next() {
  for (;;) {
    if (cancel_ != nullptr && cancel_->cancelled()) {
      return Status::Cancelled("detect scan cancelled");
    }
    if (offset_ >= qualifying_.size()) return TablePtr(nullptr);
    const std::size_t end =
        std::min(qualifying_.size(), offset_ + images_per_batch_);
    // Inference fans out in small pieces the workers and this thread
    // pull; pieces concatenate in image order, so the output matches the
    // serial scan row for row.
    const std::size_t count = end - offset_;
    std::vector<TablePtr> parts((count + kImagesPerTask - 1) /
                                kImagesPerTask);
    auto detect = [&](std::size_t begin, std::size_t stop) {
      auto part = Table::Make(schema_);
      for (std::size_t i = begin; i < stop; ++i) {
        // Inference dominates per-image cost, so stop between images;
        // partial pieces are discarded with the cancelled status below.
        if (cancel_ != nullptr && cancel_->cancelled()) break;
        detector_->DetectInto(store_->image(qualifying_[offset_ + i]),
                              part.get());
      }
      parts[begin / kImagesPerTask] = std::move(part);
    };
    if (pool_ != nullptr) {
      pool_->ParallelFor(count, detect, kImagesPerTask);
    } else {
      detect(0, count);
    }
    if (cancel_ != nullptr && cancel_->cancelled()) {
      return Status::Cancelled("detect scan cancelled");
    }
    auto out = Table::Make(schema_);
    for (const auto& part : parts) {
      if (part != nullptr) CRE_RETURN_NOT_OK(out->AppendTable(*part));
    }
    offset_ = end;
    if (post_predicate_ != nullptr) {
      CRE_ASSIGN_OR_RETURN(auto keep, FilterIndices(*out, *post_predicate_));
      if (keep.empty()) continue;
      if (keep.size() != out->num_rows()) return out->Take(keep);
    }
    return out;
  }
}

}  // namespace cre
