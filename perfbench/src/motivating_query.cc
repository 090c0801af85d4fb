// motivating_query: the paper's Fig. 2 query. Products semantic-joined
// with the knowledge base's category export, semantic-joined with an
// object-detection scan over the shop's images. One client; each read
// cycles through price cut x KB family x date cutoff.
//
// Model inference and the optimizer do the work: pushdown below
// detection, data-induced-predicate subplans (whose plans are never
// cached, so the optimizer runs on every read) and the semantic-join
// strategy choice.

#include <algorithm>
#include <memory>

#include "datagen/shop.h"
#include "engine/query_builder.h"
#include "harness.h"

namespace perfbench {
namespace {

using cre::And;
using cre::Col;
using cre::Eq;
using cre::Gt;
using cre::Lit;

constexpr double kPriceCuts[] = {20.0, 60.0};
constexpr const char* kFamilies[] = {"clothes", "electronics", "home",
                                     "leisure"};
constexpr std::int64_t kDateCutoffs[] = {19250, 19400};
constexpr std::size_t kCombos = 16;
/// Reads per cycle: one combination is left out so the cycle is odd and
/// the median read falls inside one combination's samples, not on the
/// boundary between two.
constexpr std::size_t kCycle = kCombos - 1;
constexpr std::size_t kProbeRows = 5;
/// Detector seed of the paper's example (confidences depend on it).
constexpr std::uint64_t kDetectorSeed = 77;

struct Params {
  double price;
  const char* family;
  std::int64_t date;
};

Params ParamsOf(std::size_t combo) {
  return {kPriceCuts[combo % 2], kFamilies[(combo / 2) % 4],
          kDateCutoffs[combo / 8]};
}

cre::PlanPtr BuildPlan(cre::Engine* engine, const Params& p) {
  using cre::QueryBuilder;
  return QueryBuilder(engine)
      .Scan("products")
      .Filter(Gt(Col("price"), Lit(p.price)))
      .SemanticJoinWith(QueryBuilder(engine)
                            .Scan("kb_category")
                            .Filter(Eq(Col("object"), Lit(p.family))),
                        "type_label", "subject", "shop", 0.80f)
      .SemanticJoinWith(
          QueryBuilder(engine)
              .DetectScan("shop_images")
              .Filter(And(Gt(Col("date_taken"), Lit(cre::Value::Date(p.date))),
                          Gt(Col("objects_in_image"), Lit(2)))),
          "type_label", "object_label", "shop", 0.80f)
      .Project({"product_id", "subject", "image_id", "object_label"})
      .plan();
}

/// The two semantic joins alone, over detection output registered as the
/// table "detections" (the semantic layer's probe).
cre::PlanPtr BuildJoinOnlyPlan(cre::Engine* engine, const Params& p) {
  using cre::QueryBuilder;
  return QueryBuilder(engine)
      .Scan("products")
      .Filter(Gt(Col("price"), Lit(p.price)))
      .SemanticJoinWith(QueryBuilder(engine)
                            .Scan("kb_category")
                            .Filter(Eq(Col("object"), Lit(p.family))),
                        "type_label", "subject", "shop", 0.80f)
      .SemanticJoinWith(QueryBuilder(engine)
                            .Scan("detections")
                            .Filter(Gt(Col("objects_in_image"), Lit(2))),
                        "type_label", "object_label", "shop", 0.80f)
      .Project({"product_id", "subject", "image_id", "object_label"})
      .plan();
}

class MotivatingQuery : public Workload {
 public:
  explicit MotivatingQuery(const Config& config) : config_(config) {
    // Many cheap images rather than few costly ones: the images a read
    // detects are those its date cutoff admits, a binomial share of the
    // store, so more images make that share (and a read's cost) vary less
    // from seed to seed. 100 images at 500 us moved qps by 15% across seeds.
    products_ = config.small ? 200 : 500;
    images_ = config.small ? 120 : 800;
    detect_us_ = config.small ? 50.0 : 62.5;
  }

  std::size_t clients() const override { return 1; }
  std::size_t cycle() const override { return kCycle; }
  std::size_t warmup_ops() const override { return 2 * kCycle; }

  cre::Status PrepareReferences() override {
    const cre::ShopDataset ds = cre::GenerateShopDataset(ShopOptions());
    // Detection output does not depend on the simulated inference cost.
    cre::ObjectDetector detector(cre::ObjectDetector::Options{0.0, kDetectorSeed});
    cre::Engine ref(ReferenceEngineOptions());
    Load(&ref, ds, &detector);
    refs_.clear();
    for (std::size_t k = 0; k < kCycle; ++k) {
      auto result = ref.Execute(PinBruteForce(BuildPlan(&ref, ParamsOf(k))),
                                cre::QueryOptions());
      if (!result.ok()) return result.status();
      refs_.push_back(Answer::Of(RowHashes(*result.ValueUnsafe())));
    }
    return cre::Status::OK();
  }

  cre::Status Setup() override {
    data_ = std::make_unique<cre::ShopDataset>(
        cre::GenerateShopDataset(ShopOptions()));
    detector_ = std::make_unique<cre::ObjectDetector>(
        cre::ObjectDetector::Options{detect_us_, kDetectorSeed});
    engine_ = std::make_unique<cre::Engine>(BenchEngineOptions());
    Load(engine_.get(), *data_, detector_.get());
    plans_.clear();
    for (std::size_t k = 0; k < kCycle; ++k) {
      plans_.push_back(BuildPlan(engine_.get(), ParamsOf(k)));
    }
    return cre::Status::OK();
  }

  void Teardown() override {
    engine_.reset();
    detector_.reset();
    data_.reset();
  }

  OpResult RunOp(std::uint64_t op, Phase phase, SpanLog* log) override {
    return Read(op % kCycle, op, phase, log);
  }

  OpResult ProbeAppend(std::size_t i, SpanLog* log) override {
    // Cheap products (price 1) never pass a price cut, so the reference
    // answers stay valid after the append.
    cre::Table batch(data_->products->schema());
    for (std::size_t r = 0; r < kProbeRows; ++r) {
      const auto id = static_cast<std::int64_t>(10'000'000 + i * kProbeRows + r);
      if (!batch.AppendRow({cre::Value(id), cre::Value("probe-" + std::to_string(id)),
                            cre::Value("parka"), cre::Value(1.0),
                            cre::Value("jacket")})
               .ok()) {
        return OpResult{false, false};
      }
    }
    OpResult r;
    r.read = false;
    ScopedSpan span(log, "append", -1, i);
    const std::int64_t t0 = NowNs();
    r.ok = engine_->catalog().Append("products", batch).ok();
    r.append_ms = ElapsedMs(t0);
    return r;
  }

  OpResult ProbeRead(std::size_t i, SpanLog* log) override {
    OpResult r = Read(0, i, Phase::kProbe, log);
    r.fresh = true;
    return r;
  }

  void MarkLoopStart() override {
    images_at_start_ = detector_->images_processed();
  }

  void LayerProbes(const LoopStats& traced, const std::vector<SpanLog>&,
                   std::map<std::string, double>* m) override {
    auto& out = *m;
    const double reads = static_cast<double>(std::max<std::uint64_t>(1, traced.reads));
    out["vision.images_per_query"] =
        static_cast<double>(detector_->images_processed() - images_at_start_) /
        reads;

    // The optimizer alone, once per template (DIP subplans included).
    std::vector<double> optimize_ms;
    const cre::Optimizer optimizer = engine_->MakeOptimizer();
    for (const cre::PlanPtr& plan : plans_) {
      const std::int64_t t0 = NowNs();
      auto optimized = optimizer.Optimize(plan);
      optimize_ms.push_back(ElapsedMs(t0));
      (void)optimized;
    }
    out["optimizer.optimize_ms"] = Median(optimize_ms);

    // Inference alone, on a fixed subset of the store.
    constexpr std::uint32_t kSubset = 64;
    std::vector<std::uint32_t> subset;
    for (std::uint32_t i = 0; i < std::min<std::size_t>(kSubset, data_->images.size()); ++i) {
      subset.push_back(i);
    }
    const std::int64_t t0 = NowNs();
    cre::TablePtr detections = detector_->DetectAll(data_->images, &subset);
    out["vision.detect_us_per_image"] =
        ElapsedMs(t0) * 1e3 / static_cast<double>(subset.size());

    // The semantic joins alone, over detection output materialized once.
    cre::ObjectDetector free_detector(
        cre::ObjectDetector::Options{0.0, kDetectorSeed});
    engine_->catalog().Put("detections", free_detector.DetectAll(data_->images));
    std::vector<double> join_ms;
    for (std::size_t k = 0; k < kCycle; ++k) {
      const cre::PlanPtr plan = BuildJoinOnlyPlan(engine_.get(), ParamsOf(k));
      const std::int64_t j0 = NowNs();
      auto result = engine_->Execute(plan, cre::QueryOptions());
      join_ms.push_back(ElapsedMs(j0));
      (void)result;
    }
    (void)engine_->catalog().Drop("detections");
    out["semantic.join_ms"] = Median(join_ms);
    out["vecsim.dot_batch_ns"] = DotBatchNsPerVector(data_->model->dim());

    // The detect scan runs on every pool thread, so its share of a read's
    // wall time is its serial cost over the pool size.
    out["engine.unattributed_ms"] =
        out["engine.execute_ms"] -
        (out["optimizer.optimize_ms"] + out["semantic.join_ms"] +
         out["vision.images_per_query"] * out["vision.detect_us_per_image"] *
             1e-3 / static_cast<double>(kPoolThreads));
  }

  cre::Engine* engine() override { return engine_.get(); }

  std::map<std::string, std::string> Describe() const override {
    return {{"products", std::to_string(products_)},
            {"images", std::to_string(images_)},
            {"detect_us_per_image", std::to_string(detect_us_)},
            {"cycle", std::to_string(kCycle)}};
  }

 private:
  cre::ShopOptions ShopOptions() const {
    cre::ShopOptions so;
    so.num_products = products_;
    so.num_images = images_;
    so.num_transactions = 16;
    so.seed = config_.seed;
    return so;
  }

  static void Load(cre::Engine* engine, const cre::ShopDataset& ds,
                   const cre::ObjectDetector* detector) {
    engine->catalog().Put("products", ds.products);
    engine->catalog().Put("kb_category", ds.kb.Export("category"));
    engine->models().Put("shop", ds.model);
    engine->detectors().Put("shop_images", {&ds.images, detector});
  }

  OpResult Read(std::size_t combo, std::uint64_t op, Phase phase,
                SpanLog* log) {
    OpResult r;
    ScopedSpan root(log, "op", -1, op);
    const std::int64_t t0 = NowNs();
    cre::Result<cre::TablePtr> result = [&] {
      ScopedSpan span(log, "execute", root.id(), op);
      return engine_->Execute(plans_[combo], cre::QueryOptions());
    }();
    r.latency_ms = ElapsedMs(t0);
    if (!result.ok()) {
      r.ok = false;
      return r;
    }
    cre::TablePtr table = result.ValueUnsafe();
    if (ShouldCorrupt(op, phase)) table = CorruptAnswer(table);
    bool exact = false;
    r.recall = CompareAnswer(refs_[combo], *table, &exact);
    r.checked = true;
    r.ok = exact;
    return r;
  }

  Config config_;
  std::size_t products_;
  std::size_t images_;
  double detect_us_;
  std::vector<Answer> refs_;
  // Declaration order is destruction order in reverse: the engine goes
  // first, then the detector and data it points into.
  std::unique_ptr<cre::ShopDataset> data_;
  std::unique_ptr<cre::ObjectDetector> detector_;
  std::unique_ptr<cre::Engine> engine_;
  std::vector<cre::PlanPtr> plans_;
  std::size_t images_at_start_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeMotivatingQuery(const Config& config) {
  return std::make_unique<MotivatingQuery>(config);
}

}  // namespace perfbench
