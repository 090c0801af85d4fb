// Reproduces Figure 4: additive effects of logical and physical
// optimizations on a model-assisted semantic similarity join (log-scale
// execution time, with and without a 1%-selectivity filter pushdown).
//
// Workload (paper Sec. V): join two arrays of N strings (default 10k,
// override with CRE_FIG4_N) on embedding cosine >= 0.9, dim-100 vectors.
// The Wikipedia corpus is replaced by a synthetic Zipfian corpus over a
// structured vocabulary (see DESIGN.md substitutions).
//
// Rungs (cumulative):
//   A  interpreted, eager re-embedding inside the pair loop ("first tool
//      at hand": per-element indirect calls, per-pair temporaries)
//   B  + cache embeddings (embed each row once - optimize data access)
//   C  + software prefetch of the vocabulary hash table / matrix rows
//   D  + compiled tight loop (C++, scalar kernel)
//   E  + SIMD (AVX2+FMA kernel)
//   F  + parallel scale-up (all cores)
// Each rung reports the no-pushdown and pushdown variants. Interpreted
// no-pushdown rungs are measured on a subsample and extrapolated
// quadratically (marked '*'); everything else is measured in full.

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "baseline/interpreted_join.h"
#include "bench/bench_util.h"
#include "core/rng.h"
#include "core/timer.h"
#include "datagen/corpus.h"
#include "datagen/vocabulary.h"
#include "embed/structured_model.h"
#include "engine/scheduler.h"
#include "vecsim/brute_force.h"

namespace cre {
namespace {

struct Workload {
  std::vector<std::string> left_words, right_words;
  std::vector<std::int64_t> left_attr, right_attr;
  std::shared_ptr<SynonymStructuredModel> model;
  float threshold = 0.9f;
  std::int64_t cutoff = 1;  // attr in [0,100): cutoff 1 => 1% selectivity
};

struct RungResult {
  std::string name;
  double no_push_s = 0;
  double no_push_embed_s = 0;  ///< embedding/data-access share (measured)
  bool no_push_extrapolated = false;
  double push_s = 0;
  std::size_t push_matches = 0;
};

/// Indices of rows passing the 1% filter.
std::vector<std::size_t> Passing(const std::vector<std::int64_t>& attr,
                                 std::int64_t cutoff) {
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < attr.size(); ++i) {
    if (attr[i] < cutoff) idx.push_back(i);
  }
  return idx;
}

/// Interpreted pair loop over cached embeddings; returns seconds.
double InterpretedPairLoop(const float* lm, std::size_t nl, const float* rm,
                           std::size_t nr, std::size_t dim, float threshold,
                           std::size_t* matches) {
  const std::function<double(double, double)> mul = [](double x, double y) {
    return x * y;
  };
  const std::function<double(double, double)> add = [](double x, double y) {
    return x + y;
  };
  Timer t;
  std::size_t found = 0;
  for (std::size_t i = 0; i < nl; ++i) {
    for (std::size_t j = 0; j < nr; ++j) {
      if (InterpretedDot(lm + i * dim, rm + j * dim, dim, mul, add) >=
          threshold) {
        ++found;
      }
    }
  }
  if (matches != nullptr) *matches = found;
  return t.Seconds();
}

/// Rung A: eager per-pair embedding, interpreted arithmetic.
double EagerInterpreted(const Workload& w, const std::vector<std::size_t>& li,
                        const std::vector<std::size_t>& ri,
                        std::size_t* matches = nullptr) {
  const std::size_t dim = w.model->dim();
  std::vector<float> va(dim), vb(dim);
  const std::function<double(double, double)> mul = [](double x, double y) {
    return x * y;
  };
  const std::function<double(double, double)> add = [](double x, double y) {
    return x + y;
  };
  Timer t;
  std::size_t found = 0;
  for (const std::size_t i : li) {
    w.model->Embed(w.left_words[i], va.data());
    for (const std::size_t j : ri) {
      w.model->Embed(w.right_words[j], vb.data());
      if (InterpretedDot(va.data(), vb.data(), dim, mul, add) >=
          w.threshold) {
        ++found;
      }
    }
  }
  if (matches != nullptr) *matches = found;
  return t.Seconds();
}

std::vector<float> EmbedRows(const Workload& w,
                             const std::vector<std::string>& words,
                             const std::vector<std::size_t>& idx,
                             bool prefetch, double* seconds) {
  std::vector<std::string> selected;
  selected.reserve(idx.size());
  for (const std::size_t i : idx) selected.push_back(words[i]);
  std::vector<float> matrix(selected.size() * w.model->dim());
  Timer t;
  w.model->EmbedBatchPrefetch(selected, matrix.data(), prefetch);
  *seconds = t.Seconds();
  return matrix;
}

std::vector<std::size_t> AllIndices(std::size_t n) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  return idx;
}

std::vector<std::size_t> Subsample(std::size_t total, std::size_t take) {
  std::vector<std::size_t> idx;
  const std::size_t n = std::min(total, take);
  const double step = static_cast<double>(total) / n;
  for (std::size_t i = 0; i < n; ++i) {
    idx.push_back(static_cast<std::size_t>(i * step));
  }
  return idx;
}

}  // namespace

void RunFigure4() {
  const std::size_t n = bench::EnvSize("CRE_FIG4_N", 10000);
  const std::size_t dim = 100;

  bench::PrintHeader(
      "Figure 4 - additive optimization ladder, semantic similarity join\n"
      "N=" + std::to_string(n) + " strings/side, dim=" + std::to_string(dim) +
      ", cosine >= 0.9, filter selectivity 1%");

  // ---- build vocabulary, model, corpus ----
  Timer setup;
  VocabularyOptions vo;
  vo.num_groups = 5000;
  vo.words_per_group = 4;
  vo.num_singletons = 120000;
  auto groups = GenerateVocabulary(vo);
  SynonymStructuredModel::Options mo;
  mo.dim = dim;
  mo.subword_noise = false;  // hash noise: fast build for a 140k vocab
  Workload w;
  w.model = std::make_shared<SynonymStructuredModel>(groups, mo);

  CorpusGenerator gen(AllWords(groups), CorpusGenerator::Options{1.0, 0.0, 7});
  w.left_words = gen.Sample(n);
  w.right_words = gen.Sample(n);
  Rng rng(13);
  for (std::size_t i = 0; i < n; ++i) {
    w.left_attr.push_back(static_cast<std::int64_t>(rng.Uniform(100)));
    w.right_attr.push_back(static_cast<std::int64_t>(rng.Uniform(100)));
  }
  std::printf("setup: vocab=%zu words, corpus built in %.1fs\n",
              w.model->vocab_size(), setup.Seconds());

  const auto left_pass = Passing(w.left_attr, w.cutoff);
  const auto right_pass = Passing(w.right_attr, w.cutoff);
  std::printf("filter keeps %zu x %zu rows (%.2f%% x %.2f%%)\n\n",
              left_pass.size(), right_pass.size(),
              100.0 * left_pass.size() / n, 100.0 * right_pass.size() / n);

  std::vector<RungResult> rungs;
  QueryScheduler scheduler(std::max(1u, std::thread::hardware_concurrency()));
  auto pool = scheduler.Admit();

  // ---- rung A: interpreted, eager ----
  {
    RungResult r;
    r.name = "A interpreted eager";
    const auto ls = Subsample(n, 300);
    const auto rs = Subsample(n, 300);
    const double sample_s = EagerInterpreted(w, ls, rs);
    const double scale = (static_cast<double>(n) / ls.size()) *
                         (static_cast<double>(n) / rs.size());
    r.no_push_s = sample_s * scale;
    r.no_push_extrapolated = true;
    r.push_s = EagerInterpreted(w, left_pass, right_pass, &r.push_matches);
    rungs.push_back(r);
  }

  // ---- rungs B/C: cached embeddings (+ prefetch) ----
  for (const bool prefetch : {false, true}) {
    RungResult r;
    r.name = prefetch ? "C + prefetch vocab/rows" : "B + cache embeddings";
    // No-pushdown: embed all rows once (measured), pair loop on subsample.
    double embed_l_s = 0, embed_r_s = 0;
    auto lm = EmbedRows(w, w.left_words, AllIndices(n), prefetch, &embed_l_s);
    auto rm =
        EmbedRows(w, w.right_words, AllIndices(n), prefetch, &embed_r_s);
    const std::size_t sample = 1000;
    const auto ls = Subsample(n, sample);
    std::vector<float> lsub(ls.size() * dim);
    for (std::size_t i = 0; i < ls.size(); ++i) {
      std::copy(lm.begin() + ls[i] * dim, lm.begin() + (ls[i] + 1) * dim,
                lsub.begin() + i * dim);
    }
    const double pair_s = InterpretedPairLoop(
        lsub.data(), ls.size(), rm.data(), n, dim, w.threshold, nullptr);
    r.no_push_s = embed_l_s + embed_r_s +
                  pair_s * (static_cast<double>(n) / ls.size());
    r.no_push_embed_s = embed_l_s + embed_r_s;
    r.no_push_extrapolated = true;

    // Pushdown: embed only passing rows, full pair loop.
    double el = 0, er = 0;
    auto lpm = EmbedRows(w, w.left_words, left_pass, prefetch, &el);
    auto rpm = EmbedRows(w, w.right_words, right_pass, prefetch, &er);
    std::size_t matches = 0;
    const double push_pair_s =
        InterpretedPairLoop(lpm.data(), left_pass.size(), rpm.data(),
                            right_pass.size(), dim, w.threshold, &matches);
    r.push_s = el + er + push_pair_s;
    r.push_matches = matches;
    rungs.push_back(r);
  }

  // ---- rungs D/E/F: compiled kernels ----
  double embed_all_s = 0;
  double el_full = 0, er_full = 0;
  auto lm = EmbedRows(w, w.left_words, AllIndices(n), true, &el_full);
  auto rm = EmbedRows(w, w.right_words, AllIndices(n), true, &er_full);
  embed_all_s = el_full + er_full;
  double elp = 0, erp = 0;
  auto lpm = EmbedRows(w, w.left_words, left_pass, true, &elp);
  auto rpm = EmbedRows(w, w.right_words, right_pass, true, &erp);
  const double embed_push_s = elp + erp;

  struct CompiledRung {
    const char* name;
    KernelVariant variant;
    TaskRunner* pool;
  };
  const CompiledRung compiled[] = {
      {"D + compiled (C++ scalar)", KernelVariant::kScalar, nullptr},
      {"E + SIMD (AVX2)", KernelVariant::kAvx2, nullptr},
      {"F + parallel (all cores)", KernelVariant::kAvx2, pool.get()},
  };
  for (const auto& c : compiled) {
    RungResult r;
    r.name = c.name;
    BruteForceOptions options;
    options.variant = c.variant;
    options.pool = c.pool;
    Timer t1;
    auto all = SimilarityJoinBrute(lm.data(), n, rm.data(), n, dim,
                                   w.threshold, options);
    r.no_push_s = embed_all_s + t1.Seconds();
    r.no_push_embed_s = embed_all_s;
    Timer t2;
    auto pushed =
        SimilarityJoinBrute(lpm.data(), left_pass.size(), rpm.data(),
                            right_pass.size(), dim, w.threshold, options);
    r.push_s = embed_push_s + t2.Seconds();
    r.push_matches = pushed.size();
    (void)all;
    rungs.push_back(r);
  }

  // ---- report ----
  std::printf("%-28s %16s %12s %16s %10s\n", "rung (cumulative)",
              "no pushdown [s]", "(embed [s])", "pushdown 1% [s]", "matches");
  const double base = rungs.front().no_push_s;
  for (const auto& r : rungs) {
    std::printf("%-28s %15.4f%s %12.4f %16.5f %10zu\n", r.name.c_str(),
                r.no_push_s, r.no_push_extrapolated ? "*" : " ",
                r.no_push_embed_s, r.push_s, r.push_matches);
  }
  std::printf("\n(*) extrapolated quadratically from a subsample\n");
  std::printf("end-to-end improvement (no-pushdown A -> pushdown F): %.0fx\n",
              base / rungs.back().push_s);
}

}  // namespace cre

int main() {
  cre::RunFigure4();
  return 0;
}
