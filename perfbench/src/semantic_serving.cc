// semantic_serving and ingest_refresh: short SQL similarity reads,
//   SELECT id FROM words WHERE word SIMILAR TO 'q' USING m THRESHOLD t
// over a string table of about 200k rows with about 10k distinct values.
// The model is a subword HashEmbeddingModel behind a CachingEmbeddingModel
// whose capacity is smaller than the query working set. Query strings are
// Zipf(1.0) over the vocabulary, 20% of them misspelled. A resident HNSW
// index is built during set-up.
//
// semantic_serving (2 clients): reads take a fraction of a millisecond,
// so fixed per-query costs dominate: parse, admission, snapshot pin,
// plan-cache rebind, embed and HNSW probe.
//
// ingest_refresh (1 client): every K reads the client appends a seeded
// batch of 0.5% of the base rows through Catalog::Append, part of it
// never-seen strings, and renews the index with IndexManager::GetOrBuild
// (the incremental HNSW refresh); the next read re-plans against the new
// table version. The only workload that writes. Each batch is far below
// the 25% refresh/rebuild crossover, so the index is never rebuilt.

#include <algorithm>
#include <memory>
#include <unordered_map>

#include "core/rng.h"
#include "datagen/vocabulary.h"
#include "embed/embedding_cache.h"
#include "embed/hash_embedding_model.h"
#include "harness.h"
#include "sql/parser.h"
#include "vecsim/kernels.h"

namespace perfbench {
namespace {

constexpr float kThreshold = 0.75f;
/// Scores within this distance of the threshold may fall either way
/// (kernel rounding differs between the engine and the reference).
constexpr float kScoreSlack = 1e-4f;
constexpr double kMisspellShare = 0.2;
/// Share of appended rows holding never-seen strings. Each new string is
/// one HNSW insert in the refresh, which dominates an epoch's write time.
constexpr double kNewWordShare = 0.1;

struct Sizes {
  std::size_t rows;
  std::size_t groups;  ///< synonym groups of 4 words each
  std::size_t singletons;
  std::size_t queries;  ///< query strings per cycle
  std::size_t cache_capacity;
  std::size_t epochs;  ///< ingest_refresh: appends per timed loop
  std::size_t reads_per_epoch;
};

/// Everything generated from the seed. Row ids are positions: the base
/// table holds rows [0, base_rows), batch e rows
/// [base_rows + e*batch_rows, base_rows + (e+1)*batch_rows).
struct Inputs {
  std::vector<std::string> words;      ///< distinct table values
  std::vector<std::uint32_t> word_of;  ///< row id -> index into words
  std::vector<std::string> queries;    ///< one cycle of query strings
  std::size_t base_rows = 0;
  std::size_t batch_rows = 0;
  std::size_t batches = 0;
};

Inputs Generate(const Sizes& s, std::uint64_t seed) {
  Inputs in;
  cre::VocabularyOptions vo;
  vo.num_groups = s.groups;
  vo.words_per_group = 4;
  vo.num_singletons = s.singletons;
  vo.seed = seed;
  std::unordered_map<std::string, std::uint32_t> index_of;
  auto intern = [&](const std::string& w) {
    auto [it, added] =
        index_of.emplace(w, static_cast<std::uint32_t>(in.words.size()));
    if (added) in.words.push_back(w);
    return it->second;
  };
  for (const std::string& w : cre::AllWords(cre::GenerateVocabulary(vo))) {
    intern(w);
  }
  const std::size_t vocab = in.words.size();

  cre::Rng rng(seed ^ 0x5e3a47ULL);
  in.base_rows = s.rows;
  in.batch_rows = std::max<std::size_t>(1, s.rows / 200);
  in.batches = std::max(s.epochs, kWriteProbes);
  in.word_of.reserve(in.base_rows + in.batches * in.batch_rows);
  for (std::size_t i = 0; i < in.base_rows; ++i) {
    in.word_of.push_back(static_cast<std::uint32_t>(rng.Uniform(vocab)));
  }

  // Zipf ranks over a seeded permutation of the vocabulary.
  std::vector<std::uint32_t> rank_to_word(vocab);
  for (std::uint32_t i = 0; i < vocab; ++i) rank_to_word[i] = i;
  for (std::size_t i = vocab - 1; i > 0; --i) {
    std::swap(rank_to_word[i], rank_to_word[rng.Uniform(i + 1)]);
  }
  const cre::Zipf zipf(vocab, 1.0);
  for (std::size_t q = 0; q < s.queries; ++q) {
    std::string w = in.words[rank_to_word[zipf.Sample(rng)]];
    if (rng.Bernoulli(kMisspellShare)) w = cre::Misspell(w, rng);
    in.queries.push_back(std::move(w));
  }

  // Append batches: mostly known words, part never seen (longer than any
  // generated vocabulary word, so distinct from all of them).
  for (std::size_t b = 0; b < in.batches; ++b) {
    for (std::size_t r = 0; r < in.batch_rows; ++r) {
      if (rng.Bernoulli(kNewWordShare)) {
        in.word_of.push_back(intern(cre::RandomWord(rng, 11, 14)));
      } else {
        in.word_of.push_back(static_cast<std::uint32_t>(rng.Uniform(vocab)));
      }
    }
  }
  return in;
}

cre::TablePtr BuildRows(const Inputs& in, std::size_t begin, std::size_t end) {
  cre::TablePtr t = cre::Table::Make(cre::Schema(
      {{"id", cre::DataType::kInt64, 0}, {"word", cre::DataType::kString, 0}}));
  t->Reserve(end - begin);
  for (std::size_t i = begin; i < end; ++i) {
    t->column(0).AppendInt64(static_cast<std::int64_t>(i));
    t->column(1).AppendString(in.words[in.word_of[i]]);
  }
  return t;
}

std::string ReadSql(const std::string& q) {
  return "SELECT id FROM words WHERE word SIMILAR TO '" + q +
         "' USING m THRESHOLD " + std::to_string(kThreshold);
}

/// Exact brute-force answer of one query string: the table values whose
/// score clears the threshold (`must`) or comes within the slack of it
/// (`may`), as sorted word indexes.
struct QueryRef {
  std::vector<std::uint32_t> must;
  std::vector<std::uint32_t> may;
};

bool Contains(const std::vector<std::uint32_t>& v, std::uint32_t x) {
  return std::binary_search(v.begin(), v.end(), x);
}

class SemanticWorkload : public Workload {
 public:
  SemanticWorkload(const Config& config, bool ingest)
      : config_(config), ingest_(ingest) {
    sizes_ = config.small ? Sizes{20000, 100, 600, 512, 128, 6, 50}
                          : Sizes{200000, 1000, 6000, 4096, 1024, 80, 500};
  }

  std::size_t clients() const override { return ingest_ ? 1 : 2; }
  std::size_t cycle() const override {
    return ingest_ ? sizes_.reads_per_epoch + 2 : sizes_.queries;
  }
  std::size_t max_cycles() const override {
    return ingest_ ? sizes_.epochs : 0;
  }
  std::size_t warmup_ops() const override { return sizes_.queries; }
  double recall_floor() const override { return 0.95; }
  bool writes_when_timed() const override { return ingest_; }

  cre::Status PrepareReferences() override {
    ref_ = Generate(sizes_, config_.seed);
    const cre::HashEmbeddingModel model;
    const std::size_t dim = model.dim();
    std::vector<float> words(ref_.words.size() * dim);
    model.EmbedBatch(ref_.words, words.data());

    query_of_.clear();
    std::unordered_map<std::string, std::uint32_t> distinct;
    std::vector<std::string> distinct_queries;
    for (const std::string& q : ref_.queries) {
      auto [it, added] = distinct.emplace(q, distinct_queries.size());
      if (added) distinct_queries.push_back(q);
      query_of_.push_back(it->second);
    }
    std::vector<float> qvecs(distinct_queries.size() * dim);
    model.EmbedBatch(distinct_queries, qvecs.data());
    const cre::DotBatchFn dot = cre::GetDotBatchKernel(cre::BestKernelVariant());
    std::vector<float> scores(ref_.words.size());
    query_refs_.assign(distinct_queries.size(), QueryRef());
    for (std::size_t q = 0; q < distinct_queries.size(); ++q) {
      dot(qvecs.data() + q * dim, words.data(), ref_.words.size(), dim,
          scores.data());
      for (std::uint32_t w = 0; w < scores.size(); ++w) {
        if (scores[w] >= kThreshold + kScoreSlack) query_refs_[q].must.push_back(w);
        if (scores[w] >= kThreshold - kScoreSlack) query_refs_[q].may.push_back(w);
      }
    }
    ids_of_word_.assign(ref_.words.size(), {});
    for (std::uint32_t id = 0; id < ref_.word_of.size(); ++id) {
      ids_of_word_[ref_.word_of[id]].push_back(id);
    }
    distinct_queries_ = std::move(distinct_queries);
    sql_.clear();
    for (const std::string& q : ref_.queries) sql_.push_back(ReadSql(q));
    return cre::Status::OK();
  }

  cre::Status Setup() override {
    const Inputs in = Generate(sizes_, config_.seed);
    cre::TablePtr base = BuildRows(in, 0, in.base_rows);
    batches_.clear();
    for (std::size_t b = 0; b < in.batches; ++b) {
      const std::size_t begin = in.base_rows + b * in.batch_rows;
      batches_.push_back(BuildRows(in, begin, begin + in.batch_rows));
    }
    inner_ = std::make_shared<cre::HashEmbeddingModel>();
    model_ = std::make_shared<cre::CachingEmbeddingModel>(
        inner_, sizes_.cache_capacity);
    engine_ = std::make_unique<cre::Engine>(BenchEngineOptions());
    engine_->catalog().Put("words", base);
    engine_->models().Put("m", model_);
    rows_visible_ = in.base_rows;
    copied_per_row_.clear();
    refresh_ms_.clear();
    auto index = engine_->index_manager()->GetOrBuild(Key());
    return index.ok() ? cre::Status::OK() : index.status();
  }

  void Teardown() override {
    engine_.reset();
    model_.reset();
    inner_.reset();
    batches_.clear();
  }

  OpResult RunOp(std::uint64_t op, Phase phase, SpanLog* log) override {
    const std::size_t q = sizes_.queries;
    if (!ingest_ || phase == Phase::kWarmup) {
      return Read(op % q, op, phase, log);
    }
    const std::size_t k = sizes_.reads_per_epoch;
    const std::size_t epoch = op / (k + 2);
    const std::size_t pos = op % (k + 2);
    const std::size_t read_index = (epoch * (k + 1) + std::min(pos, k)) % q;
    if (pos < k) return Read(read_index, op, phase, log);
    if (pos == k) return Append(epoch, op, log);
    OpResult r = Read(read_index, op, phase, log);
    r.fresh = true;
    return r;
  }

  OpResult ProbeAppend(std::size_t i, SpanLog* log) override {
    return Append(i, i, log);
  }

  OpResult ProbeRead(std::size_t i, SpanLog* log) override {
    OpResult r = Read(0, i, Phase::kProbe, log);
    r.fresh = true;
    return r;
  }

  void LayerProbes(const LoopStats&, const std::vector<SpanLog>&,
                   std::map<std::string, double>* m) override {
    auto& out = *m;
    cre::IndexManager* manager = engine_->index_manager();
    auto index = manager->GetOrBuild(Key());
    std::vector<double> lookup_us;
    for (int i = 0; i < 1000; ++i) {
      const std::int64_t t0 = NowNs();
      auto again = manager->GetOrBuild(Key());
      lookup_us.push_back(ElapsedMs(t0) * 1e3);
      (void)again;
    }
    out["index.lookup_us"] = Median(lookup_us);

    // Uncached embedding of the cycle's distinct query strings.
    const std::size_t dim = inner_->dim();
    std::vector<float> qvecs(distinct_queries_.size() * dim);
    const std::int64_t e0 = NowNs();
    inner_->EmbedBatch(distinct_queries_, qvecs.data());
    out["embed.us_per_string"] =
        ElapsedMs(e0) * 1e3 / static_cast<double>(distinct_queries_.size());

    if (index.ok()) {
      const cre::VectorIndex& vi = *index.ValueUnsafe();
      std::vector<double> probe_us;
      double results = 0;
      const std::size_t probes = std::min<std::size_t>(512, distinct_queries_.size());
      std::vector<cre::ScoredId> hits;
      for (std::size_t q = 0; q < probes; ++q) {
        hits.clear();
        const std::int64_t t0 = NowNs();
        vi.RangeSearch(qvecs.data() + q * dim, kThreshold, &hits);
        probe_us.push_back(ElapsedMs(t0) * 1e3);
        results += static_cast<double>(hits.size());
      }
      out["vecsim.range_search_us"] = Median(probe_us);
      out["vecsim.results_per_probe"] = results / static_cast<double>(probes);
    }
    out["vecsim.dot_batch_ns"] = DotBatchNsPerVector(dim);

    std::vector<double> optimize_ms;
    const cre::Optimizer optimizer = engine_->MakeOptimizer();
    for (std::size_t q = 0; q < std::min<std::size_t>(64, distinct_queries_.size()); ++q) {
      auto plan = cre::sql::ParseSql(ReadSql(distinct_queries_[q]));
      if (!plan.ok()) continue;
      const std::int64_t t0 = NowNs();
      auto optimized = optimizer.Optimize(plan.ValueUnsafe());
      optimize_ms.push_back(ElapsedMs(t0));
      (void)optimized;
    }
    out["optimizer.optimize_ms"] = Median(optimize_ms);
    out["storage.rows_copied_per_appended_row"] = Median(copied_per_row_);

    out["engine.unattributed_ms"] =
        out["engine.execute_ms"] -
        (out["embed.us_per_string"] * out["embed.strings_per_query"] +
         out["index.lookup_us"] + out["vecsim.range_search_us"] +
         out["storage.snapshot_us"]) * 1e-3 -
        out["optimizer.optimize_ms"] *
            (1.0 - out["optimizer.plan_cache_hit_ratio"]);
  }

  cre::Engine* engine() override { return engine_.get(); }

  std::map<std::string, std::string> Describe() const override {
    std::map<std::string, std::string> d = {
        {"rows", std::to_string(sizes_.rows)},
        {"distinct_values", std::to_string(ref_.words.size())},
        {"queries_per_cycle", std::to_string(sizes_.queries)},
        {"distinct_queries_per_cycle", std::to_string(distinct_queries_.size())},
        {"embed_cache_capacity", std::to_string(sizes_.cache_capacity)},
        {"threshold", std::to_string(kThreshold)},
        {"batch_rows", std::to_string(ref_.batch_rows)}};
    if (!refresh_ms_.empty()) {
      d["refresh_p50_ms"] = std::to_string(Median(refresh_ms_));
    }
    if (ingest_) {
      d["epochs"] = std::to_string(sizes_.epochs);
      d["reads_per_epoch"] = std::to_string(sizes_.reads_per_epoch);
    }
    return d;
  }

 private:
  static cre::IndexKey Key() {
    return {"words", "word", "m", cre::SemanticJoinStrategy::kHnsw};
  }

  OpResult Append(std::size_t batch, std::uint64_t op, SpanLog* log) {
    OpResult r;
    r.read = false;
    if (batch >= batches_.size()) {
      r.ok = false;
      return r;
    }
    {
      ScopedSpan span(log, "append", -1, op);
      const std::int64_t t0 = NowNs();
      auto appended = engine_->catalog().Append("words", *batches_[batch]);
      r.append_ms = ElapsedMs(t0);
      r.ok = appended.ok();
      if (!r.ok) return r;
      rows_visible_ = appended.ValueUnsafe()->num_rows();
      copied_per_row_.push_back(static_cast<double>(rows_visible_) /
                                static_cast<double>(batches_[batch]->num_rows()));
    }
    // The writer renews the index right after its append. Left stale, the
    // index is costed as a refresh over every base row, a brute-force
    // scan wins, and every later read scans the whole table.
    ScopedSpan span(log, "refresh", -1, op);
    const std::int64_t t0 = NowNs();
    r.ok = engine_->index_manager()->GetOrBuild(Key()).ok();
    refresh_ms_.push_back(ElapsedMs(t0));
    return r;
  }

  OpResult Read(std::size_t qi, std::uint64_t op, Phase phase, SpanLog* log) {
    OpResult r;
    const std::size_t visible = rows_visible_;
    ScopedSpan root(log, "op", -1, op);
    const std::int64_t t0 = NowNs();
    cre::Result<cre::TablePtr> result = [&]() -> cre::Result<cre::TablePtr> {
      cre::Result<cre::PlanPtr> plan = [&] {
        ScopedSpan span(log, "parse", root.id(), op);
        return cre::sql::ParseSql(sql_[qi]);
      }();
      if (!plan.ok()) return plan.status();
      ScopedSpan span(log, "execute", root.id(), op);
      return engine_->Execute(plan.ValueUnsafe(), cre::QueryOptions());
    }();
    r.latency_ms = ElapsedMs(t0);
    if (!result.ok()) {
      r.ok = false;
      return r;
    }
    auto ids = result.ValueUnsafe()->ColumnByName("id");
    if (!ids.ok()) {
      r.ok = false;
      return r;
    }
    std::vector<std::int64_t> got = ids.ValueUnsafe()->i64();
    // The self-test's corruption: a row the reference does not allow.
    if (ShouldCorrupt(op, phase)) got.push_back(static_cast<std::int64_t>(visible));

    const QueryRef& ref = query_refs_[query_of_[qi]];
    std::size_t expected = 0;
    for (std::uint32_t w : ref.must) {
      const auto& ids_w = ids_of_word_[w];
      expected += static_cast<std::size_t>(
          std::lower_bound(ids_w.begin(), ids_w.end(), visible) - ids_w.begin());
    }
    std::size_t found = 0;
    r.checked = true;
    for (std::int64_t id : got) {
      if (id < 0 || static_cast<std::size_t>(id) >= visible ||
          !Contains(ref.may, ref_.word_of[static_cast<std::size_t>(id)])) {
        r.ok = false;
      } else if (Contains(ref.must, ref_.word_of[static_cast<std::size_t>(id)])) {
        ++found;
      }
    }
    r.recall = expected == 0 ? 1.0
                             : static_cast<double>(std::min(found, expected)) /
                                   static_cast<double>(expected);
    return r;
  }

  Config config_;
  bool ingest_;
  Sizes sizes_;
  // References (computed before set-up).
  Inputs ref_;
  std::vector<std::uint32_t> query_of_;  ///< cycle position -> distinct query
  std::vector<QueryRef> query_refs_;
  std::vector<std::vector<std::uint32_t>> ids_of_word_;
  std::vector<std::string> distinct_queries_;
  std::vector<std::string> sql_;
  // Set-up state.
  std::vector<cre::TablePtr> batches_;
  std::shared_ptr<cre::HashEmbeddingModel> inner_;
  std::shared_ptr<cre::CachingEmbeddingModel> model_;
  std::unique_ptr<cre::Engine> engine_;
  std::size_t rows_visible_ = 0;
  std::vector<double> copied_per_row_;
  std::vector<double> refresh_ms_;
};

}  // namespace

std::unique_ptr<Workload> MakeSemanticServing(const Config& config) {
  return std::make_unique<SemanticWorkload>(config, /*ingest=*/false);
}

std::unique_ptr<Workload> MakeIngestRefresh(const Config& config) {
  return std::make_unique<SemanticWorkload>(config, /*ingest=*/true);
}

}  // namespace perfbench
