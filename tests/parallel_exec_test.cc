// Property tests for the morsel-driven parallel executor: for any plan,
// executing with num_threads = 1 and num_threads = N must produce the
// same result multiset, and for streamable pipelines (scan - filter -
// project - semantic select - hash join probe) the row ORDER must be
// identical too, because per-morsel outputs concatenate in morsel order.
//
// Numeric columns hold integer values so aggregate sums are exact under
// any accumulation order (doubles add associatively below 2^53), making
// the equivalence checks bit-exact rather than tolerance-based.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "datagen/vocabulary.h"
#include "embed/structured_model.h"
#include "engine/engine.h"
#include "engine/query_builder.h"
#include "exec/pipeline.h"

namespace cre {
namespace {

constexpr std::size_t kThreads = 4;
constexpr std::size_t kMorselRows = 512;  // many morsels even on small data

/// Canonical multiset fingerprint of a table: one sorted string per row.
std::vector<std::string> Fingerprint(const Table& table) {
  std::vector<std::string> rows;
  rows.reserve(table.num_rows());
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    std::string row;
    for (std::size_t c = 0; c < table.num_columns(); ++c) {
      row += table.schema().field(c).name;
      row += '=';
      row += table.GetValue(r, c).ToString();
      row += '|';
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

// Every `key=value` trace attribute named exactly `key` in an EXPLAIN
// ANALYZE rendering (a longer key such as agg_merge_ms never matches
// merge_ms).
std::vector<std::string> AttrValues(const std::string& text,
                                    const std::string& key) {
  std::vector<std::string> values;
  const std::string needle = key + "=";
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + 1)) {
    if (pos > 0 && (std::isalnum(static_cast<unsigned char>(text[pos - 1])) ||
                    text[pos - 1] == '_')) {
      continue;
    }
    const std::size_t begin = pos + needle.size();
    const std::size_t end = text.find_first_of(",} \n", begin);
    values.push_back(text.substr(begin, end - begin));
  }
  return values;
}

// The single value of trace attribute `key`, as a number; fails the test
// when the attribute is missing or rendered more than once.
double OneAttr(const std::string& text, const std::string& key) {
  const std::vector<std::string> values = AttrValues(text, key);
  EXPECT_EQ(values.size(), 1u) << key << " in:\n" << text;
  return values.empty() ? -1 : std::stod(values[0]);
}

/// Ordered row rendering, for exact order comparisons.
std::vector<std::string> OrderedRows(const Table& table) {
  std::vector<std::string> rows;
  rows.reserve(table.num_rows());
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    std::string row;
    for (std::size_t c = 0; c < table.num_columns(); ++c) {
      row += table.GetValue(r, c).ToString();
      row += '|';
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

class ParallelExecTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    seed_ = static_cast<std::uint64_t>(GetParam());

    VocabularyOptions vo;
    vo.num_groups = 10;
    vo.words_per_group = 3;
    vo.num_singletons = 15;
    vo.seed = seed_ * 131 + 3;
    groups_ = GenerateVocabulary(vo);
    SynonymStructuredModel::Options mo;
    mo.subword_noise = false;
    model_ = std::make_shared<SynonymStructuredModel>(groups_, mo);
    words_ = AllWords(groups_);

    Rng rng(seed_);
    big_ = RandomTable(rng, 6000);  // ~12 morsels at kMorselRows
    small_ = RandomTable(rng, 300);

    serial_ = MakeEngine(1);
    parallel_ = MakeEngine(kThreads);
  }

  std::unique_ptr<Engine> MakeEngine(std::size_t threads) {
    EngineOptions eo;
    eo.num_threads = threads;
    eo.morsel_rows = kMorselRows;
    eo.optimizer.allow_approximate_similarity = false;
    auto engine = std::make_unique<Engine>(eo);
    engine->catalog().Put("big", big_);
    engine->catalog().Put("small", small_);
    engine->models().Put("m", model_);
    return engine;
  }

  TablePtr RandomTable(Rng& rng, std::size_t n) {
    auto t = Table::Make(Schema({{"id", DataType::kInt64, 0},
                                 {"word", DataType::kString, 0},
                                 {"num", DataType::kFloat64, 0},
                                 {"flag", DataType::kInt64, 0}}));
    t->Reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      t->column(0).AppendInt64(static_cast<std::int64_t>(rng.Uniform(80)));
      t->column(1).AppendString(words_[rng.Uniform(words_.size())]);
      // Integer-valued doubles: parallel partial sums merge exactly.
      t->column(2).AppendFloat64(static_cast<double>(rng.Uniform(1000)));
      t->column(3).AppendInt64(static_cast<std::int64_t>(rng.Uniform(4)));
    }
    return t;
  }

  ExprPtr RandomPredicate(Rng& rng) {
    switch (rng.Uniform(4)) {
      case 0:
        return Gt(Col("num"), Lit(static_cast<double>(rng.Uniform(1000))));
      case 1:
        return Le(Col("num"), Lit(static_cast<double>(rng.Uniform(1000))));
      case 2:
        return Eq(Col("flag"),
                  Lit(static_cast<std::int64_t>(rng.Uniform(4))));
      default:
        return And(Gt(Col("num"), Lit(static_cast<double>(rng.Uniform(500)))),
                   Ne(Col("flag"), Lit(0)));
    }
  }

  /// Random plans over every operator kind the driver handles.
  PlanPtr RandomPlan(Rng& rng) {
    PlanPtr plan = PlanNode::Scan("big");
    const std::size_t steps = 1 + rng.Uniform(4);
    bool joined = false;
    for (std::size_t s = 0; s < steps; ++s) {
      switch (rng.Uniform(8)) {
        case 0:
          plan = PlanNode::Filter(plan, RandomPredicate(rng));
          break;
        case 1:
          plan = PlanNode::SemanticSelect(
              plan, "word", words_[rng.Uniform(words_.size())], "m",
              0.7f + 0.2f * static_cast<float>(rng.NextDouble()));
          break;
        case 2:
          if (!joined) {
            plan = PlanNode::Join(plan, PlanNode::Scan("small"), "id", "id");
            joined = true;
          }
          break;
        case 3:
          if (!joined) {
            PlanPtr right = PlanNode::Filter(PlanNode::Scan("small"),
                                             RandomPredicate(rng));
            plan = PlanNode::SemanticJoin(plan, right, "word", "word", "m",
                                          0.85f);
            joined = true;
          }
          break;
        case 4:
          plan = PlanNode::Aggregate(
              plan, {"flag"},
              {{AggKind::kCount, "", "n"},
               {AggKind::kSum, "num", "total"},
               {AggKind::kMin, "num", "lo"},
               {AggKind::kMax, "num", "hi"},
               {AggKind::kAvg, "num", "mean"}});
          break;
        case 5:
          plan = PlanNode::SemanticGroupBy(plan, "word", "m", 0.85f);
          break;
        case 6:
          plan = PlanNode::Sort(plan, "num", rng.Bernoulli(0.5));
          break;
        default:
          plan = PlanNode::Limit(plan, 50 + rng.Uniform(4000));
          break;
      }
      // Aggregate output drops most columns; stop stacking semantic ops
      // that need "word" afterwards.
      if (plan->kind == PlanKind::kAggregate) break;
    }
    return plan;
  }

  std::uint64_t seed_ = 0;
  std::vector<SynonymGroup> groups_;
  std::shared_ptr<SynonymStructuredModel> model_;
  std::vector<std::string> words_;
  TablePtr big_;
  TablePtr small_;
  std::unique_ptr<Engine> serial_;
  std::unique_ptr<Engine> parallel_;
};

TEST_P(ParallelExecTest, FuzzedPlansMatchSerialExecution) {
  Rng rng(seed_ * 7919 + 11);
  for (int trial = 0; trial < 6; ++trial) {
    PlanPtr plan = RandomPlan(rng);
    auto serial = serial_->ExecuteUnoptimized(plan);
    ASSERT_TRUE(serial.ok()) << serial.status() << "\n" << plan->ToString();
    auto parallel = parallel_->ExecuteUnoptimized(plan);
    ASSERT_TRUE(parallel.ok()) << parallel.status() << "\n"
                               << plan->ToString();
    EXPECT_EQ(Fingerprint(*serial.ValueOrDie()),
              Fingerprint(*parallel.ValueOrDie()))
        << "plan:\n"
        << plan->ToString();

    // The optimized parallel execution must agree with the serial one too.
    auto optimized = parallel_->Execute(plan);
    ASSERT_TRUE(optimized.ok()) << optimized.status() << "\n"
                                << plan->ToString();
    EXPECT_EQ(Fingerprint(*serial.ValueOrDie()),
              Fingerprint(*optimized.ValueOrDie()))
        << "plan:\n"
        << plan->ToString();
  }
}

TEST_P(ParallelExecTest, StreamablePipelinePreservesRowOrder) {
  // scan -> filter -> semantic select -> join probe -> project: entirely
  // streamable, so morsel-order concatenation must reproduce the serial
  // row order exactly, run after run.
  Rng rng(seed_ * 271 + 1);
  PlanPtr plan = PlanNode::Scan("big");
  plan = PlanNode::Filter(plan, Gt(Col("num"), Lit(100.0)));
  plan = PlanNode::SemanticSelect(plan, "word",
                                  words_[rng.Uniform(words_.size())], "m",
                                  0.75f);
  plan = PlanNode::Join(plan, PlanNode::Scan("small"), "id", "id");
  std::vector<ProjectionItem> items;
  items.push_back({"id", Col("id")});
  items.push_back({"word", Col("word")});
  items.push_back({"num2", Expr::Arith(ArithOp::kAdd, Col("num"),
                                       Col("num_r"))});
  plan = PlanNode::Project(plan, std::move(items));

  // Whole plan is one streamable segment over the base scan.
  PipelineSegment segment = DecomposePipeline(*plan);
  EXPECT_EQ(segment.source->kind, PlanKind::kScan);
  EXPECT_EQ(segment.ops.size(), 4u);

  auto serial = serial_->ExecuteUnoptimized(plan);
  ASSERT_TRUE(serial.ok()) << serial.status();
  auto run1 = parallel_->ExecuteUnoptimized(plan);
  ASSERT_TRUE(run1.ok()) << run1.status();
  auto run2 = parallel_->ExecuteUnoptimized(plan);
  ASSERT_TRUE(run2.ok()) << run2.status();

  const auto expected = OrderedRows(*serial.ValueOrDie());
  EXPECT_GT(expected.size(), 0u);
  EXPECT_EQ(expected, OrderedRows(*run1.ValueOrDie()));
  EXPECT_EQ(expected, OrderedRows(*run2.ValueOrDie()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelExecTest, ::testing::Range(1, 7));

TEST_P(ParallelExecTest, ParallelSortReproducesSerialOrderByteExactly) {
  // The sort key has heavy duplication (num draws from 1000 values over
  // 6000 rows), so this exercises stability: equal keys must keep input
  // order through per-run sorts and the partitioned loser-tree merge.
  for (const bool ascending : {true, false}) {
    for (const char* key : {"num", "word", "id"}) {
      PlanPtr plan = PlanNode::Sort(PlanNode::Scan("big"), key, ascending);
      auto serial = serial_->ExecuteUnoptimized(plan);
      ASSERT_TRUE(serial.ok()) << serial.status();
      auto run1 = parallel_->ExecuteUnoptimized(plan);
      ASSERT_TRUE(run1.ok()) << run1.status();
      auto run2 = parallel_->ExecuteUnoptimized(plan);
      ASSERT_TRUE(run2.ok()) << run2.status();
      const auto expected = OrderedRows(*serial.ValueOrDie());
      EXPECT_EQ(expected, OrderedRows(*run1.ValueOrDie()))
          << key << (ascending ? " asc" : " desc");
      EXPECT_EQ(expected, OrderedRows(*run2.ValueOrDie()))
          << key << (ascending ? " asc" : " desc");
    }
  }
}

TEST_P(ParallelExecTest, LimitThroughMorselSchedulerMatchesSerial) {
  // Limit over a streamable chain routes through the budgeted morsel
  // scheduler; the first-N-rows semantics must hold byte-exactly for
  // budgets below, at, and above the child's output size.
  Rng rng(seed_ * 31 + 7);
  PlanPtr child = PlanNode::Filter(PlanNode::Scan("big"),
                                   Gt(Col("num"), Lit(250.0)));
  child = PlanNode::SemanticSelect(child, "word",
                                   words_[rng.Uniform(words_.size())], "m",
                                   0.75f);
  for (const std::size_t limit : {1ul, 37ul, 700ul, 100000ul}) {
    PlanPtr plan = PlanNode::Limit(child, limit);
    auto serial = serial_->ExecuteUnoptimized(plan);
    ASSERT_TRUE(serial.ok()) << serial.status();
    auto run1 = parallel_->ExecuteUnoptimized(plan);
    ASSERT_TRUE(run1.ok()) << run1.status();
    auto run2 = parallel_->ExecuteUnoptimized(plan);
    ASSERT_TRUE(run2.ok()) << run2.status();
    EXPECT_EQ(OrderedRows(*serial.ValueOrDie()),
              OrderedRows(*run1.ValueOrDie()))
        << "limit=" << limit;
    EXPECT_EQ(OrderedRows(*run1.ValueOrDie()),
              OrderedRows(*run2.ValueOrDie()))
        << "limit=" << limit;
  }
}

TEST_P(ParallelExecTest, TopKSortLimitMatchesSerial) {
  for (const bool ascending : {true, false}) {
    for (const std::size_t k : {5ul, 250ul, 9000ul}) {
      PlanPtr plan = PlanNode::Limit(
          PlanNode::Sort(PlanNode::Scan("big"), "num", ascending), k);
      auto serial = serial_->ExecuteUnoptimized(plan);
      ASSERT_TRUE(serial.ok()) << serial.status();
      auto parallel = parallel_->ExecuteUnoptimized(plan);
      ASSERT_TRUE(parallel.ok()) << parallel.status();
      EXPECT_EQ(OrderedRows(*serial.ValueOrDie()),
                OrderedRows(*parallel.ValueOrDie()))
          << "k=" << k << (ascending ? " asc" : " desc");
    }
  }
}

TEST(ParallelExecPlain, AggregatePartialsMergeExactly) {
  EngineOptions serial_opts;
  serial_opts.num_threads = 1;
  EngineOptions parallel_opts;
  parallel_opts.num_threads = kThreads;
  parallel_opts.morsel_rows = 256;
  Engine serial(serial_opts), parallel(parallel_opts);

  auto t = Table::Make(Schema({{"k", DataType::kInt64, 0},
                               {"v", DataType::kFloat64, 0}}));
  Rng rng(42);
  for (std::size_t i = 0; i < 20000; ++i) {
    t->column(0).AppendInt64(static_cast<std::int64_t>(rng.Uniform(37)));
    t->column(1).AppendFloat64(static_cast<double>(rng.Uniform(100000)));
  }
  serial.catalog().Put("t", t);
  parallel.catalog().Put("t", t);

  PlanPtr plan = PlanNode::Aggregate(PlanNode::Scan("t"), {"k"},
                                     {{AggKind::kCount, "", "n"},
                                      {AggKind::kSum, "v", "sum"},
                                      {AggKind::kMin, "v", "lo"},
                                      {AggKind::kMax, "v", "hi"},
                                      {AggKind::kAvg, "v", "mean"}});
  auto a = serial.ExecuteUnoptimized(plan).ValueOrDie();
  auto b = parallel.ExecuteUnoptimized(plan).ValueOrDie();
  EXPECT_EQ(a->num_rows(), 37u);
  EXPECT_EQ(Fingerprint(*a), Fingerprint(*b));
  // Chunk-index merge order: parallel group output order is stable
  // run-to-run for a fixed thread count.
  auto c = parallel.ExecuteUnoptimized(plan).ValueOrDie();
  EXPECT_EQ(OrderedRows(*b), OrderedRows(*c));
}

TEST(ParallelExecPlain, RadixAggregationMatchesSerialAtHighCardinality) {
  EngineOptions serial_opts;
  serial_opts.num_threads = 1;
  EngineOptions radix_opts;
  radix_opts.num_threads = kThreads;
  radix_opts.morsel_rows = 256;
  // Unoptimized plans carry no group estimate; threshold 0 forces the
  // radix form so this test pins its serial/parallel equivalence.
  radix_opts.optimizer.radix_agg_min_groups = 0;
  Engine serial(serial_opts), radix(radix_opts);

  auto t = Table::Make(Schema({{"k", DataType::kInt64, 0},
                               {"v", DataType::kFloat64, 0}}));
  Rng rng(97);
  for (std::size_t i = 0; i < 30000; ++i) {
    // ~8000 distinct groups: high cardinality relative to input.
    t->column(0).AppendInt64(static_cast<std::int64_t>(rng.Uniform(8000)));
    t->column(1).AppendFloat64(static_cast<double>(rng.Uniform(100000)));
  }
  serial.catalog().Put("t", t);
  radix.catalog().Put("t", t);

  PlanPtr plan = PlanNode::Aggregate(PlanNode::Scan("t"), {"k"},
                                     {{AggKind::kCount, "", "n"},
                                      {AggKind::kSum, "v", "sum"},
                                      {AggKind::kMin, "v", "lo"},
                                      {AggKind::kMax, "v", "hi"},
                                      {AggKind::kAvg, "v", "mean"}});
  auto a = serial.ExecuteUnoptimized(plan).ValueOrDie();
  auto b = radix.ExecuteUnoptimized(plan).ValueOrDie();
  EXPECT_EQ(Fingerprint(*a), Fingerprint(*b));
  // Partition-then-chunk merge order: radix output order is stable
  // run-to-run for a fixed thread count.
  auto c = radix.ExecuteUnoptimized(plan).ValueOrDie();
  EXPECT_EQ(OrderedRows(*b), OrderedRows(*c));

  // The optimized path estimates group cardinality (30000 * 0.1 = 3000)
  // and compares it with the threshold set_optimizer_options installs
  // last: above the estimate it runs the hash form, below it the radix
  // form.
  auto run_with_threshold = [&](std::size_t min_groups) {
    OptimizerOptions o;
    o.radix_agg_min_groups = min_groups;
    o.allow_approximate_similarity = false;
    radix.set_optimizer_options(o);
    return radix.ExplainAnalyze(plan).ValueOrDie();
  };
  const std::string hash_text = run_with_threshold(std::size_t{1} << 20);
  EXPECT_EQ(AttrValues(hash_text, "agg_mode"),
            std::vector<std::string>{"hash"})
      << hash_text;
  const std::string radix_text = run_with_threshold(1000);
  EXPECT_EQ(AttrValues(radix_text, "agg_mode"),
            std::vector<std::string>{"radix"})
      << radix_text;
  auto optimized = radix.Execute(plan).ValueOrDie();
  EXPECT_EQ(Fingerprint(*a), Fingerprint(*optimized));
}

// Grouping oracle: every group-key type against a std::map reference
// keyed by raw values (never by formatted strings), at dop 1 and dop 4,
// in the hash and the radix form. Values are integer-valued doubles, so
// sums are exact under any merge order and must match bit for bit.
TEST(ParallelExecPlain, GroupingMatchesRawValueOracle) {
  auto t = Table::Make(Schema({{"i", DataType::kInt64, 0},
                               {"d", DataType::kDate, 0},
                               {"b", DataType::kBool, 0},
                               {"s", DataType::kString, 0},
                               {"j", DataType::kInt64, 0},
                               {"v", DataType::kFloat64, 0}}));
  Rng rng(2024);
  for (std::size_t r = 0; r < 20000; ++r) {
    t->column(0).AppendInt64(static_cast<std::int64_t>(rng.Uniform(3000)) -
                             1500);
    t->column(1).AppendInt64(18000 + static_cast<std::int64_t>(
                                         rng.Uniform(400)));
    t->column(2).AppendBool(rng.Bernoulli(0.3));
    t->column(3).AppendString("s" + std::to_string(rng.Uniform(60)));
    t->column(4).AppendInt64(static_cast<std::int64_t>(rng.Uniform(40)));
    t->column(5).AppendFloat64(static_cast<double>(rng.Uniform(100000)) -
                               50000.0);
  }

  // Raw key: the int64 part (int64, date or bool keys) and the string part.
  using RefKey = std::pair<std::int64_t, std::string>;
  struct RefAcc {
    std::int64_t n = 0;
    double sum = 0;
    double lo = std::numeric_limits<double>::max();
    double hi = std::numeric_limits<double>::lowest();
  };
  auto key_of = [](const Table& table, std::size_t row,
                   const std::vector<std::size_t>& cols) {
    RefKey key{0, ""};
    for (const std::size_t c : cols) {
      const Column& col = table.column(c);
      if (col.type() == DataType::kString) {
        key.second = col.strings()[row];
      } else if (col.type() == DataType::kBool) {
        key.first = col.bools()[row];
      } else {
        key.first = col.i64()[row];
      }
    }
    return key;
  };

  const std::vector<std::vector<std::string>> key_sets = {
      {"i"}, {"d"}, {"b"}, {"s"}, {"j", "s"}};
  for (const auto& keys : key_sets) {
    std::vector<std::size_t> in_cols;
    for (const auto& k : keys) {
      in_cols.push_back(t->schema().RequireField(k).ValueOrDie());
    }
    std::map<RefKey, RefAcc> ref;
    const auto v = t->column(5).f64();
    for (std::size_t r = 0; r < t->num_rows(); ++r) {
      RefAcc& acc = ref[key_of(*t, r, in_cols)];
      ++acc.n;
      acc.sum += v[r];
      acc.lo = std::min(acc.lo, v[r]);
      acc.hi = std::max(acc.hi, v[r]);
    }

    PlanPtr plan = PlanNode::Aggregate(PlanNode::Scan("t"), keys,
                                       {{AggKind::kCount, "", "n"},
                                        {AggKind::kSum, "v", "sum"},
                                        {AggKind::kMin, "v", "lo"},
                                        {AggKind::kMax, "v", "hi"},
                                        {AggKind::kAvg, "v", "mean"}});
    std::vector<std::size_t> out_cols(keys.size());
    for (std::size_t k = 0; k < keys.size(); ++k) out_cols[k] = k;
    std::vector<std::string> serial_hash_order;
    for (const std::size_t threads : {std::size_t{1}, kThreads}) {
      for (const bool radix : {false, true}) {
        SCOPED_TRACE(keys.back() + " threads=" + std::to_string(threads) +
                     (radix ? " radix" : " default"));
        EngineOptions eo;
        eo.num_threads = threads;
        eo.morsel_rows = 256;
        if (radix) eo.optimizer.radix_agg_min_groups = 0;
        Engine engine(eo);
        engine.catalog().Put("t", t);
        auto out = engine.ExecuteUnoptimized(plan).ValueOrDie();
        ASSERT_EQ(out->num_rows(), ref.size());
        for (std::size_t r = 0; r < out->num_rows(); ++r) {
          auto it = ref.find(key_of(*out, r, out_cols));
          ASSERT_NE(it, ref.end()) << r;
          const RefAcc& want = it->second;
          const std::size_t a = keys.size();
          EXPECT_EQ(out->GetValue(r, a).AsInt64(), want.n);
          EXPECT_EQ(out->GetValue(r, a + 1).AsFloat64(), want.sum);
          EXPECT_EQ(out->GetValue(r, a + 2).AsFloat64(), want.lo);
          EXPECT_EQ(out->GetValue(r, a + 3).AsFloat64(), want.hi);
          EXPECT_EQ(out->GetValue(r, a + 4).AsFloat64(),
                    want.sum / static_cast<double>(want.n));
        }
        // Output order is fixed run to run; the hash form emits groups in
        // first-seen order at every thread count.
        auto again = engine.ExecuteUnoptimized(plan).ValueOrDie();
        EXPECT_EQ(OrderedRows(*out), OrderedRows(*again));
        if (!radix) {
          if (threads == 1) serial_hash_order = OrderedRows(*out);
          EXPECT_EQ(OrderedRows(*out), serial_hash_order);
        }
      }
    }
  }
}

TEST(ParallelExecPlain, ExplainAnnotatesPipelineSchedulingAndBudget) {
  EngineOptions parallel_opts;
  parallel_opts.num_threads = kThreads;
  EngineOptions serial_opts;
  serial_opts.num_threads = 1;
  Engine parallel(parallel_opts), serial(serial_opts);
  auto t = Table::Make(Schema({{"x", DataType::kInt64, 0}}));
  for (std::size_t i = 0; i < 100; ++i) {
    t->column(0).AppendInt64(static_cast<std::int64_t>(i));
  }
  parallel.catalog().Put("t", t);
  serial.catalog().Put("t", t);

  PlanPtr plan = PlanNode::Limit(
      PlanNode::Filter(PlanNode::Scan("t"), Gt(Col("x"), Lit(10))), 5);
  const std::string par = parallel.Explain(plan).ValueOrDie();
  EXPECT_NE(par.find("pipelines (dop=" + std::to_string(kThreads) + ")"),
            std::string::npos)
      << par;
  EXPECT_NE(par.find("shared row budget"), std::string::npos) << par;
  EXPECT_NE(par.find("morsel scheduler"), std::string::npos) << par;

  // Dop 1 takes the same routes through the same driver.
  const std::string ser = serial.Explain(plan).ValueOrDie();
  EXPECT_NE(ser.find("[morsel scheduler, shared row budget, dop=1]"),
            std::string::npos)
      << ser;

  // Top-k folding and the sort's parallel form are visible too.
  PlanPtr topk = PlanNode::Limit(
      PlanNode::Sort(PlanNode::Scan("t"), "x", false), 3);
  const std::string topk_explain = parallel.Explain(topk).ValueOrDie();
  EXPECT_NE(topk_explain.find("parallel top-k sort"), std::string::npos)
      << topk_explain;
}

TEST(ParallelExecPlain, GlobalAggregateOverEmptyInput) {
  EngineOptions eo;
  eo.num_threads = kThreads;
  Engine engine(eo);
  auto t = Table::Make(Schema({{"v", DataType::kFloat64, 0}}));
  engine.catalog().Put("empty", t);
  PlanPtr plan = PlanNode::Aggregate(PlanNode::Scan("empty"), {},
                                     {{AggKind::kCount, "", "n"},
                                      {AggKind::kSum, "v", "sum"}});
  auto out = engine.ExecuteUnoptimized(plan).ValueOrDie();
  ASSERT_EQ(out->num_rows(), 1u);
  EXPECT_EQ(out->GetValue(0, 0).AsInt64(), 0);
}

std::unique_ptr<Engine> MakeBreakerEngine(EngineOptions eo = {}) {
  eo.num_threads = kThreads;
  eo.morsel_rows = 512;
  auto engine = std::make_unique<Engine>(eo);
  auto t = Table::Make(Schema({{"k", DataType::kInt64, 0},
                               {"v", DataType::kFloat64, 0}}));
  Rng rng(5);
  for (std::size_t i = 0; i < 20000; ++i) {
    t->column(0).AppendInt64(static_cast<std::int64_t>(rng.Uniform(50)));
    t->column(1).AppendFloat64(static_cast<double>(rng.Uniform(1000)));
  }
  engine->catalog().Put("t", t);
  return engine;
}

// Breaker phase timings are recorded once, on the trace spans, and
// EXPLAIN ANALYZE shows them in its trace section.
TEST(ParallelExecPlain, SortAndAggregatePhasesInExplainAnalyzeTrace) {
  auto engine = MakeBreakerEngine();
  PlanPtr plan = PlanNode::Aggregate(
      PlanNode::Sort(PlanNode::Scan("t"), "v", true), {"k"},
      {{AggKind::kSum, "v", "sum"}});
  const std::string text = engine->ExplainAnalyze(plan).ValueOrDie();
  const std::string trace = text.substr(text.find("trace:\n"));
  EXPECT_GT(OneAttr(trace, "runs"), 1.0) << "20000 rows sort in runs";
  EXPECT_GE(OneAttr(trace, "merge_partitions"), 1.0);
  EXPECT_GE(OneAttr(trace, "local_sort_ms"), 0.0);
  EXPECT_GE(OneAttr(trace, "merge_ms"), 0.0);
  ASSERT_EQ(AttrValues(trace, "agg_mode"),
            std::vector<std::string>{"hash"});
  EXPECT_GE(OneAttr(trace, "agg_accumulate_ms"), 0.0);
  EXPECT_GE(OneAttr(trace, "agg_merge_ms"), 0.0);
  EXPECT_TRUE(AttrValues(trace, "agg_partitions").empty()) << trace;
  // The plan tree carries counters only; no per-node phase sub-lines.
  EXPECT_EQ(text.find("phase:"), std::string::npos) << text;
}

TEST(ParallelExecPlain, RadixAggregatePartitionsInExplainAnalyzeTrace) {
  EngineOptions eo;
  eo.optimizer.radix_agg_min_groups = 0;  // every keyed aggregate is radix
  auto engine = MakeBreakerEngine(eo);
  PlanPtr plan = PlanNode::Aggregate(PlanNode::Scan("t"), {"k"},
                                     {{AggKind::kSum, "v", "sum"}});
  const std::string text = engine->ExplainAnalyze(plan).ValueOrDie();
  ASSERT_EQ(AttrValues(text, "agg_mode"), std::vector<std::string>{"radix"})
      << text;
  EXPECT_GE(OneAttr(text, "agg_partitions"), 2.0);
  EXPECT_GE(OneAttr(text, "agg_accumulate_ms"), 0.0);
  EXPECT_GE(OneAttr(text, "agg_merge_ms"), 0.0);
}

TEST(ParallelExecPlain, LimitBudgetInExplainAnalyzeTrace) {
  auto engine = MakeBreakerEngine();
  // LIMIT over a sort is a top-k sort.
  PlanPtr topk_plan =
      PlanNode::Limit(PlanNode::Sort(PlanNode::Scan("t"), "v", false), 7);
  const std::string topk = engine->ExplainAnalyze(topk_plan).ValueOrDie();
  EXPECT_EQ(OneAttr(topk, "top_k"), 7.0);
  EXPECT_GT(OneAttr(topk, "runs"), 1.0);
  EXPECT_TRUE(AttrValues(topk, "morsels_run").empty()) << topk;

  // Any other LIMIT runs its child's morsels under a shared row budget.
  PlanPtr budget_plan = PlanNode::Limit(PlanNode::Scan("t"), 7);
  const std::string budget = engine->ExplainAnalyze(budget_plan).ValueOrDie();
  const double run = OneAttr(budget, "morsels_run");
  const double total = OneAttr(budget, "morsels_total");
  EXPECT_GE(run, 1.0) << budget;
  EXPECT_LE(run, total) << budget;
  EXPECT_GT(total, 1.0) << budget;
  EXPECT_TRUE(AttrValues(budget, "top_k").empty()) << budget;
}

// A default engine runs on the geometry it was configured with: after a
// few hundred queries of mixed shape (hash and radix aggregates, top-k,
// filtered scans), the morsel size it reports and the pipeline routing
// EXPLAIN renders are the ones it started with.
TEST(ParallelExecPlain, DefaultEngineKeepsItsGeometry) {
  EngineOptions eo;
  eo.num_threads = kThreads;
  Engine engine(eo);
  auto t = Table::Make(Schema({{"k", DataType::kInt64, 0},
                               {"g", DataType::kInt64, 0},
                               {"v", DataType::kFloat64, 0}}));
  Rng rng(11);
  for (std::size_t i = 0; i < 60000; ++i) {
    t->column(0).AppendInt64(static_cast<std::int64_t>(rng.Uniform(20000)));
    t->column(1).AppendInt64(static_cast<std::int64_t>(rng.Uniform(8)));
    t->column(2).AppendFloat64(static_cast<double>(rng.Uniform(1000)));
  }
  engine.catalog().Put("t", t);

  const std::vector<PlanPtr> plans = {
      PlanNode::Aggregate(
          PlanNode::Filter(PlanNode::Scan("t"), Gt(Col("v"), Lit(500.0))),
          {"g"}, {{AggKind::kSum, "v", "sum"}}),
      PlanNode::Aggregate(PlanNode::Scan("t"), {"k"},
                          {{AggKind::kSum, "v", "sum"}}),
      PlanNode::Limit(PlanNode::Sort(PlanNode::Scan("t"), "v", false), 5),
      PlanNode::Filter(PlanNode::Scan("t"), Gt(Col("v"), Lit(990.0))),
  };
  auto routing = [&](const PlanPtr& plan) {
    const std::string text = engine.Explain(plan).ValueOrDie();
    const std::size_t begin = text.find("pipelines (dop=");
    const std::size_t end = text.find("serving:");
    EXPECT_NE(begin, std::string::npos) << text;
    EXPECT_NE(end, std::string::npos) << text;
    return text.substr(begin, end - begin);
  };
  auto morsel_rows_gauge = [&] {
    for (const auto& g : engine.metrics()->Snapshot().gauges) {
      if (g.name == "cre_scheduler_morsel_rows") return g.value;
    }
    return -1.0;
  };
  std::vector<std::string> before;
  for (const PlanPtr& plan : plans) before.push_back(routing(plan));
  EXPECT_NE(before[0].find("serial merge"), std::string::npos) << before[0];
  EXPECT_NE(before[1].find("radix-partitioned"), std::string::npos)
      << before[1];
  EXPECT_EQ(morsel_rows_gauge(), static_cast<double>(eo.morsel_rows));

  for (std::size_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(engine.Execute(plans[i % plans.size()]).ok()) << i;
  }

  EXPECT_EQ(morsel_rows_gauge(), static_cast<double>(eo.morsel_rows));
  for (std::size_t p = 0; p < plans.size(); ++p) {
    EXPECT_EQ(routing(plans[p]), before[p]) << "plan " << p;
  }
}

TEST(ParallelExecPlain, PipelineBreakerClassification) {
  auto scan = PlanNode::Scan("t");
  EXPECT_TRUE(IsPipelineBreaker(*scan));
  EXPECT_TRUE(IsMorselStreamable(*PlanNode::Filter(scan, Gt(Col("x"),
                                                            Lit(1)))));
  EXPECT_TRUE(IsMorselStreamable(
      *PlanNode::Join(scan, PlanNode::Scan("u"), "a", "b")));
  EXPECT_TRUE(IsMorselStreamable(
      *PlanNode::SemanticSelect(scan, "w", "q", "m", 0.9f)));
  EXPECT_TRUE(IsPipelineBreaker(
      *PlanNode::Aggregate(scan, {}, {{AggKind::kCount, "", "n"}})));
  EXPECT_TRUE(IsPipelineBreaker(*PlanNode::Sort(scan, "x", true)));
  EXPECT_TRUE(IsPipelineBreaker(*PlanNode::Limit(scan, 5)));
  EXPECT_TRUE(
      IsPipelineBreaker(*PlanNode::SemanticGroupBy(scan, "w", "m", 0.9f)));

  // Filter -> join-probe -> filter over one base scan is one segment.
  PlanPtr plan = PlanNode::Filter(
      PlanNode::Join(PlanNode::Filter(scan, Gt(Col("x"), Lit(1))),
                     PlanNode::Scan("u"), "a", "b"),
      Lt(Col("y"), Lit(9)));
  PipelineSegment segment = DecomposePipeline(*plan);
  EXPECT_EQ(segment.source, scan.get());
  ASSERT_EQ(segment.ops.size(), 3u);
  EXPECT_EQ(segment.ops[1]->kind, PlanKind::kJoin);
}

// EXPLAIN ANALYZE counts rows exactly at every dop: per-morsel operator
// instances share their plan node's slot, so concurrent updates must still
// total exactly.
class ExplainAnalyzeDopTest : public ::testing::TestWithParam<std::size_t> {};

INSTANTIATE_TEST_SUITE_P(Dop, ExplainAnalyzeDopTest,
                         ::testing::Values(std::size_t{1}, kThreads));

TEST_P(ExplainAnalyzeDopTest, PushedFilterCountsRowsExactly) {
  EngineOptions eo;
  eo.num_threads = GetParam();
  eo.morsel_rows = 128;
  Engine engine(eo);
  auto t = Table::Make(Schema({{"x", DataType::kInt64, 0}}));
  for (std::size_t i = 0; i < 5000; ++i) {
    t->column(0).AppendInt64(static_cast<std::int64_t>(i));
  }
  engine.catalog().Put("numbers", t);
  QueryBuilder qb(&engine);
  qb.Scan("numbers").Filter(Gt(Col("x"), Lit(2499)));
  const std::string text = engine.ExplainAnalyze(qb.plan()).ValueOrDie();
  double wall_ms = 0;
  std::size_t rows = 0;
  ASSERT_EQ(std::sscanf(text.c_str(), "EXPLAIN ANALYZE  wall=%lfms rows=%zu",
                        &wall_ms, &rows),
            2)
      << text;
  EXPECT_GT(wall_ms, 0.0);
  EXPECT_EQ(rows, 2500u);
  // The optimizer pushes the predicate into the scan, which lowers to a
  // Filter-over-scan pipeline counted on the Scan's line.
  const std::size_t scan = text.find("Scan(numbers, pushed: ");
  ASSERT_NE(scan, std::string::npos) << text;
  const std::string line = text.substr(scan, text.find('\n', scan) - scan);
  EXPECT_NE(line.find("[rows=2500 "), std::string::npos) << line;
}

}  // namespace
}  // namespace cre
