// E9 - semantic operator throughput (Sec. IV): google-benchmark over
// SemanticSelect (one query and a 16-query data-induced predicate),
// SemanticJoin (per strategy), and SemanticGroupBy as cardinality grows.

#include <benchmark/benchmark.h>

#include <memory>

#include "datagen/corpus.h"
#include "datagen/vocabulary.h"
#include "embed/structured_model.h"
#include "exec/scan.h"
#include "semantic/semantic_group_by.h"
#include "semantic/semantic_join.h"
#include "semantic/semantic_select.h"

namespace cre {
namespace {

struct Shared {
  std::shared_ptr<SynonymStructuredModel> model;
  std::vector<std::string> words;
};

Shared& SharedData() {
  static Shared* shared = [] {
    auto* s = new Shared();
    VocabularyOptions vo;
    vo.num_groups = 1000;
    vo.words_per_group = 4;
    vo.num_singletons = 5000;
    auto groups = GenerateVocabulary(vo);
    SynonymStructuredModel::Options mo;
    mo.subword_noise = false;
    s->model = std::make_shared<SynonymStructuredModel>(groups, mo);
    CorpusGenerator gen(AllWords(groups),
                        CorpusGenerator::Options{1.0, 0.0, 5});
    s->words = gen.Sample(1 << 16);
    return s;
  }();
  return *shared;
}

TablePtr WordTable(std::size_t n) {
  auto& shared = SharedData();
  auto table = Table::Make(Schema({{"word", DataType::kString, 0}}));
  table->Reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    table->column(0).AppendString(shared.words[i % shared.words.size()]);
  }
  return table;
}

/// range(0) rows; range(1) queries: 1 is a literal `col ~ 'query'`, 16 a
/// data-induced predicate's query set. Each iteration embeds its queries
/// once, as the engine does once per query.
void BM_SemanticSelect(benchmark::State& state) {
  auto& shared = SharedData();
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t num_queries = static_cast<std::size_t>(state.range(1));
  auto table = WordTable(n);
  const std::vector<std::string> queries(
      shared.model->vocabulary().begin(),
      shared.model->vocabulary().begin() + num_queries);
  for (auto _ : state) {
    SemanticSelectOperator op(std::make_unique<TableScanOperator>(table),
                              "word", shared.model, 0.9f,
                              EmbedQueries(*shared.model, queries));
    auto out = ExecuteToTable(&op).ValueOrDie();
    benchmark::DoNotOptimize(out->num_rows());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_SemanticSelect)->ArgsProduct({{1024, 4096, 16384}, {1, 16}});

void BM_SemanticJoin(benchmark::State& state) {
  auto& shared = SharedData();
  const auto strategy = static_cast<SemanticJoinStrategy>(state.range(0));
  const std::size_t n = static_cast<std::size_t>(state.range(1));
  std::vector<std::string> left(shared.words.begin(),
                                shared.words.begin() + n);
  std::vector<std::string> right(shared.words.begin() + n,
                                 shared.words.begin() + 2 * n);
  for (auto _ : state) {
    SemanticJoinOptions options;
    options.threshold = 0.9f;
    options.strategy = strategy;
    auto matches =
        SemanticStringJoin(left, right, *shared.model, options).ValueOrDie();
    benchmark::DoNotOptimize(matches.size());
  }
  state.SetLabel(SemanticJoinStrategyName(strategy));
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_SemanticJoin)
    ->ArgsProduct({{static_cast<long>(SemanticJoinStrategy::kBruteForce),
                    static_cast<long>(SemanticJoinStrategy::kIvf)},
                   {512, 2048}});

void BM_SemanticGroupBy(benchmark::State& state) {
  auto& shared = SharedData();
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  auto table = WordTable(n);
  for (auto _ : state) {
    SemanticGroupByOperator op(std::make_unique<TableScanOperator>(table),
                               "word", shared.model, 0.9f);
    auto out = ExecuteToTable(&op).ValueOrDie();
    benchmark::DoNotOptimize(out->num_rows());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_SemanticGroupBy)->Arg(512)->Arg(2048);

}  // namespace
}  // namespace cre
