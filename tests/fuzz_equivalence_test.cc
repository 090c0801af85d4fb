// Property test: for randomly generated logical plans over random data,
// the optimizer must never change query results — optimized and
// as-written executions agree row-for-row (up to row order, which the
// engine does not guarantee without ORDER BY). Each plan then re-runs with
// every literal and select query re-drawn: the same shape, so a plan-cache
// hit that binds the new parameters into the cached plan.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "datagen/vocabulary.h"
#include "embed/structured_model.h"
#include "engine/engine.h"

namespace cre {
namespace {

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

class FuzzEquivalenceTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    seed_ = static_cast<std::uint64_t>(GetParam());
    Rng rng(seed_);

    EngineOptions eo;
    // Equivalence requires exact similarity strategies (approximate
    // indexes may drop borderline matches by design).
    eo.optimizer.allow_approximate_similarity = false;
    engine_ = std::make_unique<Engine>(eo);

    // Vocabulary with synonym structure for the semantic operators.
    VocabularyOptions vo;
    vo.num_groups = 12;
    vo.words_per_group = 3;
    vo.num_singletons = 20;
    vo.seed = seed_ * 31 + 7;
    groups_ = GenerateVocabulary(vo);
    SynonymStructuredModel::Options mo;
    mo.subword_noise = false;
    model_ = std::make_shared<SynonymStructuredModel>(groups_, mo);
    engine_->models().Put("m", model_);
    words_ = AllWords(groups_);

    // Two random tables sharing join-compatible columns.
    engine_->catalog().Put("t1", RandomTable(rng, 200));
    engine_->catalog().Put("t2", RandomTable(rng, 60));
  }

  TablePtr RandomTable(Rng& rng, std::size_t n) {
    auto t = Table::Make(Schema({{"id", DataType::kInt64, 0},
                                 {"word", DataType::kString, 0},
                                 {"num", DataType::kFloat64, 0},
                                 {"flag", DataType::kInt64, 0}}));
    t->Reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      t->column(0).AppendInt64(static_cast<std::int64_t>(rng.Uniform(50)));
      t->column(1).AppendString(words_[rng.Uniform(words_.size())]);
      t->column(2).AppendFloat64(rng.NextDouble() * 100.0);
      t->column(3).AppendInt64(static_cast<std::int64_t>(rng.Uniform(4)));
    }
    return t;
  }

  ExprPtr RandomPredicate(Rng& rng) {
    switch (rng.Uniform(5)) {
      case 0:
        return Gt(Col("num"), Lit(rng.NextDouble() * 100.0));
      case 1:
        return Le(Col("num"), Lit(rng.NextDouble() * 100.0));
      case 2:
        return Eq(Col("flag"),
                  Lit(static_cast<std::int64_t>(rng.Uniform(4))));
      case 3:
        return And(Gt(Col("num"), Lit(rng.NextDouble() * 50.0)),
                   Ne(Col("flag"), Lit(0)));
      default:
        return Or(Lt(Col("num"), Lit(rng.NextDouble() * 30.0)),
                  Eq(Col("flag"), Lit(1)));
    }
  }

  /// Builds a random plan of filters / semantic ops / joins / limits.
  PlanPtr RandomPlan(Rng& rng) {
    PlanPtr plan = PlanNode::Scan("t1");
    const std::size_t steps = 1 + rng.Uniform(4);
    bool joined = false;
    for (std::size_t s = 0; s < steps; ++s) {
      switch (rng.Uniform(6)) {
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
            PlanPtr right = PlanNode::Filter(PlanNode::Scan("t2"),
                                             RandomPredicate(rng));
            plan = PlanNode::SemanticJoin(plan, right, "word", "word", "m",
                                          0.85f);
            joined = true;
          }
          break;
        case 3:
          if (!joined) {
            plan = PlanNode::Join(plan, PlanNode::Scan("t2"), "id", "id");
            joined = true;
          }
          break;
        case 4:
          plan = PlanNode::SemanticGroupBy(plan, "word", "m", 0.85f);
          break;
        default:
          plan = PlanNode::Sort(plan, "num", rng.Bernoulli(0.5));
          break;
      }
    }
    return plan;
  }

  /// Same type, new value: keeps the plan's shape (and cache key).
  ExprPtr RedrawExpr(const ExprPtr& e, Rng& rng) {
    if (e->kind() == ExprKind::kLiteral) {
      if (e->literal().is_int64()) {
        return Lit(static_cast<std::int64_t>(rng.Uniform(4)));
      }
      return Lit(rng.NextDouble() * 100.0);
    }
    std::vector<ExprPtr> children;
    for (const ExprPtr& child : e->children()) {
      children.push_back(RedrawExpr(child, rng));
    }
    return children.empty() ? e : e->WithChildren(std::move(children));
  }

  /// A copy of `plan` with every literal and select query re-drawn.
  PlanPtr Redraw(const PlanPtr& plan, Rng& rng) {
    PlanPtr copy = plan->Clone();
    std::vector<PlanNode*> stack = {copy.get()};
    while (!stack.empty()) {
      PlanNode* n = stack.back();
      stack.pop_back();
      if (n->predicate) n->predicate = RedrawExpr(n->predicate, rng);
      if (n->kind == PlanKind::kSemanticSelect) {
        n->query = words_[rng.Uniform(words_.size())];
      }
      for (const PlanPtr& child : n->children) stack.push_back(child.get());
    }
    return copy;
  }

  std::uint64_t seed_ = 0;
  std::unique_ptr<Engine> engine_;
  std::vector<SynonymGroup> groups_;
  std::shared_ptr<SynonymStructuredModel> model_;
  std::vector<std::string> words_;
};

TEST_P(FuzzEquivalenceTest, OptimizerPreservesResults) {
  Rng rng(seed_ * 977 + 5);
  Rng redraw_rng(seed_ * 131 + 3);  // leaves `rng`'s plan sequence as is
  for (int trial = 0; trial < 8; ++trial) {
    PlanPtr plan = RandomPlan(rng);
    const PlanCache::Stats before = engine_->plan_cache()->stats();
    auto naive = engine_->ExecuteUnoptimized(plan);
    ASSERT_TRUE(naive.ok()) << naive.status() << "\n" << plan->ToString();
    auto optimized = engine_->Execute(plan);
    ASSERT_TRUE(optimized.ok()) << optimized.status() << "\n"
                                << plan->ToString();
    EXPECT_EQ(Fingerprint(*naive.ValueOrDie()),
              Fingerprint(*optimized.ValueOrDie()))
        << "plan:\n"
        << plan->ToString();

    // The re-drawn plan hits the entry the run above installed, unless
    // that plan was uncacheable (a DIP rewrite).
    const PlanCache::Stats planned = engine_->plan_cache()->stats();
    PlanPtr redrawn = Redraw(plan, redraw_rng);
    auto bound = engine_->Execute(redrawn);
    ASSERT_TRUE(bound.ok()) << bound.status() << "\n" << redrawn->ToString();
    auto bound_naive = engine_->ExecuteUnoptimized(redrawn);
    ASSERT_TRUE(bound_naive.ok()) << bound_naive.status();
    EXPECT_EQ(Fingerprint(*bound_naive.ValueOrDie()),
              Fingerprint(*bound.ValueOrDie()))
        << "re-drawn plan:\n"
        << redrawn->ToString();
    if (planned.uncacheable == before.uncacheable) {
      EXPECT_GT(engine_->plan_cache()->stats().hits, planned.hits)
          << redrawn->ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzEquivalenceTest,
                         ::testing::Range(1, 9));

}  // namespace
}  // namespace cre
