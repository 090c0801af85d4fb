#ifndef CRE_VISION_DETECTION_SCAN_H_
#define CRE_VISION_DETECTION_SCAN_H_

#include <map>
#include <memory>
#include <string>

#include "core/cancel.h"
#include "core/result.h"
#include "core/task_runner.h"
#include "exec/operator.h"
#include "expr/expr.h"
#include "vision/image_store.h"
#include "vision/object_detector.h"

namespace cre {

/// Physical operator running the (expensive, simulated) object detector
/// over an image store. A pushed-down predicate is split by column: terms
/// over {image_id, date_taken} are applied BEFORE inference on the cheap
/// metadata view — the optimization the Fig. 2 query hinges on; without
/// it every image is processed ("heavy processing on all the corpora").
/// Terms over detection outputs (object_label, confidence,
/// objects_in_image) are applied after inference per batch.
///
/// With a thread pool, each batch's inference fans out over the workers
/// (detection is embarrassingly parallel per image) with per-shard result
/// tables concatenated in image order, so output order stays identical to
/// the serial scan. Next() must be called from outside the pool's own
/// workers (the engine always materializes detect scans on the driver
/// thread).
class DetectionScanOperator : public PhysicalOperator {
 public:
  /// `cancel` (optional) is polled between batches and between images
  /// inside each inference shard, so a cancel or deadline expiry stops a
  /// detect scan without waiting out the whole 256-image batch.
  DetectionScanOperator(const ImageStore* store, const ObjectDetector* detector,
                        ExprPtr predicate = nullptr,
                        std::size_t images_per_batch = 256,
                        TaskRunner* pool = nullptr,
                        const CancelFlag* cancel = nullptr);

  const Schema& output_schema() const override { return schema_; }
  Status Open() override;
  Result<TablePtr> Next() override;
  std::string name() const override {
    return predicate_ ? "DetectScan(pushed: " + predicate_->ToString() + ")"
                      : "DetectScan";
  }

 private:
  const ImageStore* store_;
  const ObjectDetector* detector_;
  TaskRunner* pool_;
  const CancelFlag* cancel_;
  ExprPtr predicate_;
  ExprPtr metadata_predicate_;  ///< pre-inference terms (split at Open)
  ExprPtr post_predicate_;      ///< post-inference terms
  std::size_t images_per_batch_;
  Schema schema_;
  std::vector<std::uint32_t> qualifying_;
  std::size_t offset_ = 0;
};

/// Named registration of an image store + detector pair, resolvable from
/// logical DetectScan nodes.
struct DetectorBinding {
  const ImageStore* store = nullptr;
  const ObjectDetector* detector = nullptr;
};

class DetectorRegistry {
 public:
  void Put(const std::string& name, DetectorBinding binding) {
    bindings_[name] = binding;
  }
  Result<DetectorBinding> Get(const std::string& name) const {
    auto it = bindings_.find(name);
    if (it == bindings_.end()) {
      return Status::NotFound("detector binding '" + name + "' not found");
    }
    return it->second;
  }
  bool Contains(const std::string& name) const {
    return bindings_.count(name) > 0;
  }

 private:
  std::map<std::string, DetectorBinding> bindings_;
};

}  // namespace cre

#endif  // CRE_VISION_DETECTION_SCAN_H_
