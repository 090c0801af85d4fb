// relational_mix: SQL text through sql::ParseSql and Engine::Execute from
// two clients over the shop's transactions (150k rows) and products (15k
// rows, so GROUP BY product_id crosses the 4096-group radix threshold).
// Four templates with literals varied per read: filter + aggregate, hash
// join + group, ORDER BY ... LIMIT top-k, high-cardinality group-by.
//
// exec, expr, the morsel scheduler, sql and plan-cache rebinding do the
// work; embed, vecsim, vision and index never run. A semantic-side
// optimization must show no change here.

#include <algorithm>
#include <cstdio>
#include <memory>

#include "core/rng.h"
#include "datagen/shop.h"
#include "harness.h"
#include "sql/parser.h"

namespace perfbench {
namespace {

constexpr std::size_t kTemplates = 4;
constexpr std::size_t kVariants = 8;
constexpr std::size_t kOps = kTemplates * kVariants;
/// Reads per cycle: the last variant of the high-cardinality template is
/// left out so the cycle is odd and the median read falls inside one
/// op's samples, not on the boundary between two.
constexpr std::size_t kCycle = kOps - 1;
/// Probe rows are dated before every generated transaction, so they fall
/// outside the date filters of the templates the probe reads.
constexpr std::int64_t kProbeDate = 19000;

const char* const kSpanNames[kTemplates] = {
    "execute.filter_agg", "execute.join_agg", "execute.topk",
    "execute.high_card_agg"};
const char* const kLayerNames[kTemplates] = {
    "exec.filter_agg_ms", "exec.join_agg_ms", "exec.topk_ms",
    "exec.high_card_agg_ms"};

std::string Sql(std::size_t tmpl, std::size_t v) {
  // Literals sweep the selectivity in small steps, so each template's
  // latencies spread smoothly instead of clustering at a few values.
  char buf[320];
  const int iv = static_cast<int>(v);
  switch (tmpl) {
    case 0:
      std::snprintf(buf, sizeof(buf),
                    "SELECT quantity, COUNT(*) AS n, SUM(user_id) AS s "
                    "FROM transactions WHERE txn_date > DATE %d "
                    "AND user_id < %d GROUP BY quantity",
                    19120 + 45 * iv, 3000 + 450 * iv);
      break;
    case 1:
      std::snprintf(buf, sizeof(buf),
                    "SELECT concept, COUNT(*) AS n, SUM(quantity) AS q "
                    "FROM transactions JOIN products ON product_id = "
                    "product_id WHERE price > %d GROUP BY concept",
                    10 + 22 * iv);
      break;
    case 2:
      std::snprintf(buf, sizeof(buf),
                    "SELECT txn_id, product_id, quantity FROM transactions "
                    "WHERE quantity = %d AND txn_date < DATE %d "
                    "ORDER BY txn_id DESC LIMIT 100",
                    1 + iv % 5, 19200 + 35 * iv);
      break;
    default:
      std::snprintf(buf, sizeof(buf),
                    "SELECT product_id, COUNT(*) AS n, SUM(quantity) AS q "
                    "FROM transactions WHERE txn_date > DATE %d "
                    "GROUP BY product_id",
                    19110 + 50 * iv);
      break;
  }
  return buf;
}

class RelationalMix : public Workload {
 public:
  explicit RelationalMix(const Config& config) : config_(config) {
    products_ = config.small ? 5000 : 15000;
    transactions_ = config.small ? 50000 : 150000;
    for (std::size_t k = 0; k < kCycle; ++k) sql_.push_back(Sql(k % kTemplates, k / kTemplates));
  }

  std::size_t clients() const override { return 2; }
  std::size_t cycle() const override { return kCycle; }
  std::size_t warmup_ops() const override { return 2 * kCycle; }

  cre::Status PrepareReferences() override {
    const cre::ShopDataset ds = cre::GenerateShopDataset(ShopOptions());
    cre::Engine ref(ReferenceEngineOptions());
    Load(&ref, ds);
    refs_.clear();
    for (std::size_t k = 0; k < kCycle; ++k) {
      auto plan = cre::sql::ParseSql(sql_[k]);
      if (!plan.ok()) return plan.status();
      auto result = ref.Execute(plan.ValueUnsafe(), cre::QueryOptions());
      if (!result.ok()) return result.status();
      refs_.push_back(Answer::Of(RowHashes(*result.ValueUnsafe())));
    }
    return cre::Status::OK();
  }

  cre::Status Setup() override {
    data_ = std::make_unique<cre::ShopDataset>(
        cre::GenerateShopDataset(ShopOptions()));
    engine_ = std::make_unique<cre::Engine>(BenchEngineOptions());
    Load(engine_.get(), *data_);
    return cre::Status::OK();
  }

  void Teardown() override {
    engine_.reset();
    data_.reset();
  }

  OpResult RunOp(std::uint64_t op, Phase phase, SpanLog* log) override {
    return Read(op % kCycle, op, phase, log);
  }

  OpResult ProbeAppend(std::size_t i, SpanLog* log) override {
    const std::size_t rows = std::max<std::size_t>(1, transactions_ / 200);
    cre::Table batch(data_->transactions->schema());
    cre::Rng rng(config_.seed * 7919 + i);
    for (std::size_t r = 0; r < rows; ++r) {
      batch.column(0).AppendInt64(
          static_cast<std::int64_t>(100'000'000 + i * rows + r));
      batch.column(1).AppendInt64(static_cast<std::int64_t>(rng.Uniform(products_)));
      batch.column(2).AppendInt64(static_cast<std::int64_t>(rng.Uniform(products_ / 4 + 1)));
      batch.column(3).AppendInt64(1 + rng.UniformInt(0, 4));
      batch.column(4).AppendInt64(kProbeDate);
    }
    OpResult r;
    r.read = false;
    ScopedSpan span(log, "append", -1, i);
    const std::int64_t t0 = NowNs();
    r.ok = engine_->catalog().Append("transactions", batch).ok();
    r.append_ms = ElapsedMs(t0);
    return r;
  }

  OpResult ProbeRead(std::size_t i, SpanLog* log) override {
    // Filter+aggregate, whose date filter excludes the probe rows.
    OpResult r = Read(0, i, Phase::kProbe, log);
    r.fresh = true;
    return r;
  }

  void LayerProbes(const LoopStats&, const std::vector<SpanLog>& logs,
                   std::map<std::string, double>* m) override {
    auto& out = *m;
    for (std::size_t t = 0; t < kTemplates; ++t) {
      out[kLayerNames[t]] = Median(SpanDurationsMs(logs, kSpanNames[t]));
    }
    std::vector<double> optimize_ms;
    const cre::Optimizer optimizer = engine_->MakeOptimizer();
    for (const std::string& sql : sql_) {
      auto plan = cre::sql::ParseSql(sql);
      if (!plan.ok()) continue;
      const std::int64_t t0 = NowNs();
      auto optimized = optimizer.Optimize(plan.ValueUnsafe());
      optimize_ms.push_back(ElapsedMs(t0));
      (void)optimized;
    }
    out["optimizer.optimize_ms"] = Median(optimize_ms);

    // The governor tracks bytes only for queries that carry a memory
    // budget, and with default options none does; so each template runs
    // once more under a budget far above any query's need.
    cre::QueryOptions budgeted;
    budgeted.memory_budget_bytes = std::size_t{1} << 40;
    for (const std::string& sql : sql_) {
      auto plan = cre::sql::ParseSql(sql);
      if (!plan.ok()) continue;
      auto result = engine_->Execute(plan.ValueUnsafe(), budgeted);
      (void)result;
    }
    out["core.governor_peak_mb"] =
        GaugeTotal(engine_->metrics()->Snapshot(), "cre_governor_peak_bytes") /
        (1024.0 * 1024.0);

    out["engine.unattributed_ms"] =
        out["engine.execute_ms"] -
        out["optimizer.optimize_ms"] *
            (1.0 - out["optimizer.plan_cache_hit_ratio"]);
  }

  cre::Engine* engine() override { return engine_.get(); }

  std::map<std::string, std::string> Describe() const override {
    return {{"products", std::to_string(products_)},
            {"transactions", std::to_string(transactions_)},
            {"cycle", std::to_string(kCycle)}};
  }

 private:
  cre::ShopOptions ShopOptions() const {
    cre::ShopOptions so;
    so.num_products = products_;
    so.num_transactions = transactions_;
    so.num_images = 0;
    so.seed = config_.seed;
    return so;
  }

  static void Load(cre::Engine* engine, const cre::ShopDataset& ds) {
    engine->catalog().Put("products", ds.products);
    engine->catalog().Put("transactions", ds.transactions);
  }

  OpResult Read(std::size_t k, std::uint64_t op, Phase phase, SpanLog* log) {
    OpResult r;
    ScopedSpan root(log, "op", -1, op);
    const std::int64_t t0 = NowNs();
    cre::Result<cre::TablePtr> result = [&]() -> cre::Result<cre::TablePtr> {
      cre::Result<cre::PlanPtr> plan = [&] {
        ScopedSpan span(log, "parse", root.id(), op);
        return cre::sql::ParseSql(sql_[k]);
      }();
      if (!plan.ok()) return plan.status();
      ScopedSpan span(log, kSpanNames[k % kTemplates], root.id(), op);
      return engine_->Execute(plan.ValueUnsafe(), cre::QueryOptions());
    }();
    r.latency_ms = ElapsedMs(t0);
    if (!result.ok()) {
      r.ok = false;
      return r;
    }
    cre::TablePtr table = result.ValueUnsafe();
    if (ShouldCorrupt(op, phase)) table = CorruptAnswer(table);
    bool exact = false;
    r.recall = CompareAnswer(refs_[k], *table, &exact);
    r.checked = true;
    r.ok = exact;
    return r;
  }

  Config config_;
  std::size_t products_;
  std::size_t transactions_;
  std::vector<std::string> sql_;
  std::vector<Answer> refs_;
  std::unique_ptr<cre::ShopDataset> data_;
  std::unique_ptr<cre::Engine> engine_;
};

}  // namespace

std::unique_ptr<Workload> MakeRelationalMix(const Config& config) {
  return std::make_unique<RelationalMix>(config);
}

}  // namespace perfbench
