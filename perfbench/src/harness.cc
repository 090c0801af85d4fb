#include "harness.h"

#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <limits>
#include <mutex>
#include <sstream>
#include <thread>

#include "core/rng.h"
#include "vecsim/kernels.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "unknown"
#endif

namespace perfbench {

using cre::DataType;

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ElapsedMs(std::int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-6;
}

cre::EngineOptions BenchEngineOptions() {
  cre::EngineOptions o;
  o.num_threads = kPoolThreads;
  o.obs.trace_sample_every = 0;
  o.obs.slow_query_seconds = 0;
  // The tuner does not settle: with it on, a timed phase saw 75 to 5971
  // refits, morsel_rows ended anywhere between 44k and 93k rows on one
  // workload, and run-to-run medians moved by up to 24%.
  o.tuning.enabled = false;
  return o;
}

cre::EngineOptions ReferenceEngineOptions() {
  cre::EngineOptions o = BenchEngineOptions();
  o.num_threads = 1;
  o.plan_cache.enabled = false;
  o.optimizer.allow_approximate_similarity = false;
  return o;
}

namespace {

void PinInPlace(cre::PlanNode* node) {
  if (node->kind == cre::PlanKind::kSemanticSelect ||
      node->kind == cre::PlanKind::kSemanticJoin) {
    node->strategy = cre::SemanticJoinStrategy::kBruteForce;
    node->strategy_pinned = true;
  }
  for (auto& c : node->children) PinInPlace(c.get());
}

std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t HashString(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) h = (h ^ c) * 0x100000001b3ULL;
  return h;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace

cre::PlanPtr PinBruteForce(const cre::PlanPtr& plan) {
  cre::PlanPtr copy = plan->Clone();
  PinInPlace(copy.get());
  return copy;
}

std::vector<std::uint64_t> RowHashes(const cre::Table& table) {
  const std::size_t n = table.num_rows();
  std::vector<std::uint64_t> h(n, 0x5eedULL);
  for (std::size_t c = 0; c < table.num_columns(); ++c) {
    const cre::Column& col = table.column(c);
    switch (col.type()) {
      case DataType::kInt64:
      case DataType::kDate:
        for (std::size_t r = 0; r < n; ++r) {
          h[r] = Mix(h[r] ^ static_cast<std::uint64_t>(col.i64()[r]));
        }
        break;
      case DataType::kFloat64:
        for (std::size_t r = 0; r < n; ++r) {
          h[r] = Mix(h[r] ^ static_cast<std::uint64_t>(
                                std::llround(col.f64()[r] * 1e6)));
        }
        break;
      case DataType::kBool:
        for (std::size_t r = 0; r < n; ++r) {
          h[r] = Mix(h[r] ^ col.bools()[r]);
        }
        break;
      case DataType::kString:
        for (std::size_t r = 0; r < n; ++r) {
          h[r] = Mix(h[r] ^ HashString(col.strings()[r]));
        }
        break;
      case DataType::kFloatVector:
        break;
    }
  }
  return h;
}

Answer Answer::Of(std::vector<std::uint64_t> hashes) {
  Answer a;
  for (std::uint64_t h : hashes) a.sum += h;
  std::sort(hashes.begin(), hashes.end());
  a.sorted = std::move(hashes);
  return a;
}

double CompareAnswer(const Answer& ref, const cre::Table& result, bool* exact) {
  std::vector<std::uint64_t> got = RowHashes(result);
  std::uint64_t sum = 0;
  for (std::uint64_t h : got) sum += h;
  if (got.size() == ref.sorted.size() && sum == ref.sum) {
    // Equal sums over equal counts: confirm on the sorted multiset.
    std::sort(got.begin(), got.end());
    if (got == ref.sorted) {
      *exact = true;
      return 1.0;
    }
  } else {
    std::sort(got.begin(), got.end());
  }
  *exact = false;
  if (ref.sorted.empty()) return got.empty() ? 1.0 : 0.0;
  std::size_t common = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < ref.sorted.size() && j < got.size()) {
    if (ref.sorted[i] == got[j]) {
      ++common;
      ++i;
      ++j;
    } else if (ref.sorted[i] < got[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return static_cast<double>(common) / static_cast<double>(ref.sorted.size());
}

cre::TablePtr CorruptAnswer(const cre::TablePtr& result) {
  if (result->num_rows() == 0) return result;
  return result->Slice(0, result->num_rows() - 1);
}

// ---- spans ----

std::int32_t SpanLog::Open(const char* name, std::int32_t parent,
                           std::uint64_t op) {
  spans_.push_back({name, NowNs(), 0, parent, op});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void SpanLog::Close(std::int32_t id) {
  spans_[static_cast<std::size_t>(id)].end_ns = NowNs();
}

std::vector<double> SpanDurationsMs(const std::vector<SpanLog>& logs,
                                    const std::string& name, bool prefix) {
  std::vector<double> out;
  for (const SpanLog& log : logs) {
    for (const Span& s : log.spans()) {
      const bool match = prefix ? std::string(s.name).rfind(name, 0) == 0
                                : name == s.name;
      if (match) out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
    }
  }
  return out;
}

void WriteSpans(const std::string& path, const std::vector<SpanLog>& logs) {
  std::ofstream out(path);
  if (!out) return;
  out << std::fixed << std::setprecision(3);
  out << "{\"columns\":[\"thread\",\"id\",\"parent\",\"name\",\"op\","
         "\"start_us\",\"end_us\",\"self_us\"],\"spans\":[\n";
  std::map<std::string, double> self_total_ms;
  bool first = true;
  std::int64_t origin = std::numeric_limits<std::int64_t>::max();
  for (const SpanLog& log : logs) {
    for (const Span& s : log.spans()) origin = std::min(origin, s.start_ns);
  }
  for (std::size_t t = 0; t < logs.size(); ++t) {
    const std::vector<Span>& spans = logs[t].spans();
    // A client thread's spans nest and never overlap their siblings, so
    // the time children cover is the sum of their durations.
    std::vector<std::int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const double self_us =
          static_cast<double>(std::max<std::int64_t>(
              0, (s.end_ns - s.start_ns) - child_ns[i])) * 1e-3;
      self_total_ms[s.name] += self_us * 1e-3;
      out << (first ? "" : ",\n") << '[' << t << ',' << i << ',' << s.parent
          << ",\"" << s.name << "\"," << s.op << ','
          << static_cast<double>(s.start_ns - origin) * 1e-3 << ','
          << static_cast<double>(s.end_ns - origin) * 1e-3 << ',' << self_us
          << ']';
      first = false;
    }
  }
  out << "\n],\"self_ms_by_name\":{";
  first = true;
  for (const auto& [name, ms] : self_total_ms) {
    out << (first ? "" : ",") << '"' << name << "\":" << ms;
    first = false;
  }
  out << "}}\n";
}

// ---- the closed loop ----

void LoopStats::Add(const OpResult& r) {
  ++ops;
  if (!r.ok) ++failed;
  if (r.read) {
    ++reads;
    read_ms.push_back(r.latency_ms);
    if (r.fresh) fresh_ms.push_back(r.latency_ms);
    if (r.checked) {
      ++checked;
      recall_sum += r.recall;
    }
  } else {
    append_ms.push_back(r.append_ms);
  }
}

LoopStats RunLoop(Workload* w, Phase phase, std::uint64_t first_op,
                  double seconds, std::uint64_t max_ops,
                  std::vector<SpanLog>* logs) {
  const std::size_t clients = w->clients();
  const std::uint64_t cycle = std::max<std::size_t>(1, w->cycle());
  std::mutex mu;
  std::uint64_t next = first_op;
  std::uint64_t stop = max_ops > 0 ? first_op + max_ops
                                   : std::numeric_limits<std::uint64_t>::max();
  bool time_up = false;
  if (logs != nullptr) logs->assign(clients, SpanLog());
  std::vector<LoopStats> per_client(clients);

  // A timed loop runs in rounds, each on freshly started client threads,
  // so one unlucky placement of the threads on cores does not set the
  // whole run's figures. Only the last round ends on a cycle boundary.
  const int rounds = seconds > 0 ? kLoopRounds : 1;
  const double cpu0 = ProcessCpuSeconds();
  const std::int64_t start = NowNs();
  for (int round = 0; round < rounds && next < stop; ++round) {
    const bool last = round == rounds - 1;
    const double round_end_ms = seconds * 1e3 * (round + 1) / rounds;
    bool round_over = false;
    auto client = [&](std::size_t c) {
      SpanLog* log = logs != nullptr ? &(*logs)[c] : nullptr;
      for (;;) {
        std::uint64_t op;
        {
          std::lock_guard<std::mutex> lock(mu);
          if (seconds > 0 && !time_up && !round_over &&
              ElapsedMs(start) >= round_end_ms) {
            if (last) {
              // Finish the cycle in progress so every run has the same mix.
              time_up = true;
              const std::uint64_t done = next - first_op;
              stop = std::min(stop,
                              first_op + (done + cycle - 1) / cycle * cycle);
            } else {
              round_over = true;
            }
          }
          if (round_over || next >= stop) break;
          op = next++;
        }
        per_client[c].Add(w->RunOp(op, phase, log));
      }
    };
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) threads.emplace_back(client, c);
    for (auto& t : threads) t.join();
  }

  LoopStats total;
  total.wall_s = static_cast<double>(NowNs() - start) * 1e-9;
  total.cpu_s = ProcessCpuSeconds() - cpu0;
  total.next_op = next;
  for (const LoopStats& s : per_client) {
    total.read_ms.insert(total.read_ms.end(), s.read_ms.begin(), s.read_ms.end());
    total.fresh_ms.insert(total.fresh_ms.end(), s.fresh_ms.begin(),
                          s.fresh_ms.end());
    total.append_ms.insert(total.append_ms.end(), s.append_ms.begin(),
                           s.append_ms.end());
    total.ops += s.ops;
    total.reads += s.reads;
    total.failed += s.failed;
    total.checked += s.checked;
    total.recall_sum += s.recall_sum;
  }
  return total;
}

// ---- statistics ----

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double CounterTotal(const cre::MetricsSnapshot& s, const std::string& name) {
  double total = 0;
  for (const auto& c : s.counters) {
    if (c.name == name) total += static_cast<double>(c.value);
  }
  return total;
}

double GaugeTotal(const cre::MetricsSnapshot& s, const std::string& name) {
  double total = 0;
  for (const auto& g : s.gauges) {
    if (g.name == name) total += g.value;
  }
  return total;
}

void HistogramTotals(const cre::MetricsSnapshot& s, const std::string& name,
                     double* sum, double* count) {
  *sum = 0;
  *count = 0;
  for (const auto& h : s.histograms) {
    if (h.name == name) {
      *sum += h.hist.sum;
      *count += static_cast<double>(h.hist.count);
    }
  }
}

double DotBatchNsPerVector(std::size_t dim) {
  constexpr std::size_t kVectors = 4096;
  cre::Rng rng(dim);
  std::vector<float> base(kVectors * dim);
  std::vector<float> query(dim);
  std::vector<float> out(kVectors);
  for (float& v : base) v = rng.NextFloat() - 0.5f;
  for (float& v : query) v = rng.NextFloat() - 0.5f;
  const cre::DotBatchFn kernel =
      cre::GetDotBatchKernel(cre::BestKernelVariant());
  std::vector<double> ns;
  for (int rep = 0; rep < 31; ++rep) {
    const std::int64_t t0 = NowNs();
    kernel(query.data(), base.data(), kVectors, dim, out.data());
    ns.push_back(static_cast<double>(NowNs() - t0) / kVectors);
  }
  return Median(ns);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

std::string HostRecordJson(const Config& config, const Workload& w) {
  utsname u{};
  uname(&u);
  std::ostringstream os;
  os << "{\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN) << ",\"cpu_model\":\""
     << JsonEscape(CpuModel()) << "\",\"kernel\":\"" << JsonEscape(u.release)
     << "\",\"compiler\":\"" << JsonEscape(PERFBENCH_COMPILER)
     << "\",\"flags\":\"" << JsonEscape(PERFBENCH_FLAGS)
     << "\",\"kernel_dispatch\":\""
     << cre::KernelVariantName(cre::BestKernelVariant())
     << "\",\"pool_threads\":" << kPoolThreads
     << ",\"clients\":" << w.clients() << ",\"seed\":" << config.seed
     << ",\"workload\":\"" << JsonEscape(config.workload)
     << "\",\"seconds\":" << config.seconds
     << ",\"trace\":" << (config.trace ? 1 : 0)
     << ",\"setup_reps\":" << (config.trace ? 1 : config.setup_reps)
     << ",\"small\":" << (config.small ? 1 : 0);
  for (const auto& [k, v] : w.Describe()) {
    os << ",\"" << JsonEscape(k) << "\":\"" << JsonEscape(v) << '"';
  }
  os << '}';
  return os.str();
}

}  // namespace perfbench
