// Shared machinery of the benchmark: engine configurations, answer
// digests, the span log of traced runs, the closed-loop client driver,
// metric helpers over MetricsRegistry snapshots, and result printing.
//
// The benchmark is an outside program: it reaches the engine only through
// public calls (Engine::Execute, sql::ParseSql, Optimizer::Optimize,
// Catalog, IndexManager, EmbeddingModel, VectorIndex, ObjectDetector,
// MetricsRegistry::Snapshot).

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"

namespace perfbench {

/// Settings of one benchmark process, from the command line.
struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Test-sized inputs, for the benchmark's own tests.
  bool small = false;
  /// Index of a timed read whose answer is corrupted before its check
  /// (self-test of the answer checks); -1 = none.
  std::int64_t corrupt_op = -1;
  /// Set-ups per run; setup_s reports their median.
  int setup_reps = 3;
  /// Directory for the run record and the span log.
  std::string out_dir = ".bench_build/results";
};

/// Engine pool threads and the most client threads of any workload:
/// together at most 4 busy threads.
constexpr std::size_t kPoolThreads = 2;

std::int64_t NowNs();
double ElapsedMs(std::int64_t start_ns);

/// The benchmarked engine: a fixed 2-thread pool; per-query tracing, the
/// slow-query log and the knob tuner off; every other option at its
/// default.
cre::EngineOptions BenchEngineOptions();
/// The reference engine: serial, plan cache off, exact similarity only.
cre::EngineOptions ReferenceEngineOptions();
/// A copy of `plan` with every semantic operator pinned to brute force.
cre::PlanPtr PinBruteForce(const cre::PlanPtr& plan);

// ---- answer checks ----

/// One hash per row over every column; floats are compared at 1e-6.
std::vector<std::uint64_t> RowHashes(const cre::Table& table);

/// A reference answer as an order-insensitive multiset of row hashes.
struct Answer {
  std::vector<std::uint64_t> sorted;
  std::uint64_t sum = 0;
  static Answer Of(std::vector<std::uint64_t> hashes);
};

/// Share of the reference's rows present in `result` (multiset
/// intersection over reference size; 1 when both are empty). `exact`
/// is set when the two multisets are equal.
double CompareAnswer(const Answer& ref, const cre::Table& result, bool* exact);

/// The self-test's corruption: the result minus its last row.
cre::TablePtr CorruptAnswer(const cre::TablePtr& result);

// ---- spans of traced runs ----

struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;  ///< index in the same log, -1 = root
  std::uint64_t op;
};

/// Spans of one client thread, kept in memory until the run ends.
class SpanLog {
 public:
  std::int32_t Open(const char* name, std::int32_t parent, std::uint64_t op);
  void Close(std::int32_t id);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Records one span around a scope; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::int32_t parent,
             std::uint64_t op)
      : log_(log), id_(log ? log->Open(name, parent, op) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::int32_t id() const { return id_; }

 private:
  SpanLog* log_;
  std::int32_t id_;
};

/// Durations in ms of every span named `name` (or, when `prefix`, of
/// every span whose name starts with it).
std::vector<double> SpanDurationsMs(const std::vector<SpanLog>& logs,
                                    const std::string& name,
                                    bool prefix = false);

/// Writes every span, with its self time (duration minus the time its
/// children cover), as JSON.
void WriteSpans(const std::string& path, const std::vector<SpanLog>& logs);

// ---- operations and the closed loop ----

enum class Phase { kWarmup, kTimed, kProbe };

/// Outcome of one operation.
struct OpResult {
  bool read = true;
  bool ok = true;        ///< OK status and, if checked, a passing answer
  bool checked = false;  ///< compared with a reference answer
  double recall = 1.0;
  double latency_ms = 0;  ///< reads: submit (with SQL parse) to result
  bool fresh = false;     ///< the first read after an append
  double append_ms = 0;   ///< writes: the Catalog::Append call
};

/// What the client loop measured.
struct LoopStats {
  std::vector<double> read_ms;
  std::vector<double> fresh_ms;
  std::vector<double> append_ms;
  std::uint64_t ops = 0;
  std::uint64_t reads = 0;
  std::uint64_t failed = 0;
  std::uint64_t checked = 0;
  double recall_sum = 0;
  double wall_s = 0;
  double cpu_s = 0;
  std::uint64_t next_op = 0;  ///< first op index after this loop

  void Add(const OpResult& r);
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::size_t clients() const = 0;
  /// Ops per parameter cycle; timed loops end on a cycle boundary.
  virtual std::size_t cycle() const = 0;
  /// Cap on cycles per timed loop (0 = none).
  virtual std::size_t max_cycles() const { return 0; }
  virtual std::size_t warmup_ops() const = 0;
  /// Lowest acceptable mean recall (1 on exact workloads).
  virtual double recall_floor() const { return 1.0; }
  /// True when the timed phase itself appends; otherwise a short write
  /// probe runs after it.
  virtual bool writes_when_timed() const { return false; }

  /// Generates this seed's inputs and computes every reference answer.
  /// Runs before the set-up timer starts.
  virtual cre::Status PrepareReferences() = 0;
  /// The timed set-up: data generation, catalog load, model
  /// registration and synchronous index builds (warm-up ops follow).
  virtual cre::Status Setup() = 0;
  /// Releases the set-up so it can be repeated.
  virtual void Teardown() = 0;

  virtual OpResult RunOp(std::uint64_t op, Phase phase, SpanLog* log) = 0;

  /// Write probe of workloads whose timed phase does not write: one
  /// append, then the first read after it. Appended rows never change a
  /// probe read's reference answer.
  virtual OpResult ProbeAppend(std::size_t i, SpanLog* log) = 0;
  virtual OpResult ProbeRead(std::size_t i, SpanLog* log) = 0;

  /// Called right before the traced loop starts (work-counter baselines).
  virtual void MarkLoopStart() {}
  /// Per-layer probes after a traced loop. `m` already holds the
  /// counter-derived and span-derived metrics; the workload adds its own.
  virtual void LayerProbes(const LoopStats& traced,
                           const std::vector<SpanLog>& logs,
                           std::map<std::string, double>* m) = 0;

  virtual cre::Engine* engine() = 0;
  /// Host/configuration facts worth recording (sizes, model dims).
  virtual std::map<std::string, std::string> Describe() const = 0;

  /// Timed op whose answer the self-test corrupts (-1 = none).
  std::int64_t corrupt_op = -1;

 protected:
  bool ShouldCorrupt(std::uint64_t op, Phase phase) const {
    return phase == Phase::kTimed && corrupt_op >= 0 &&
           op == static_cast<std::uint64_t>(corrupt_op);
  }
};

std::unique_ptr<Workload> MakeMotivatingQuery(const Config& config);
std::unique_ptr<Workload> MakeRelationalMix(const Config& config);
std::unique_ptr<Workload> MakeSemanticServing(const Config& config);
std::unique_ptr<Workload> MakeIngestRefresh(const Config& config);

/// Appends, each followed by the first read after it, in the write probe
/// of workloads whose timed phase does not write.
constexpr std::size_t kWriteProbes = 48;

/// Rounds of a timed loop (each starts fresh client threads).
constexpr int kLoopRounds = 10;

/// Runs `w` closed-loop on its client threads from op `first_op`. Runs
/// exactly `max_ops` ops when `seconds` <= 0; otherwise stops at the
/// first cycle boundary after `seconds`, or after `max_ops` (0 = no cap).
LoopStats RunLoop(Workload* w, Phase phase, std::uint64_t first_op,
                  double seconds, std::uint64_t max_ops,
                  std::vector<SpanLog>* logs);

// ---- statistics and metric snapshots ----

double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// Sum over every label set of a counter (or gauge) in `s`; 0 if absent.
double CounterTotal(const cre::MetricsSnapshot& s, const std::string& name);
double GaugeTotal(const cre::MetricsSnapshot& s, const std::string& name);
/// Sum and count of a histogram over every label set.
void HistogramTotals(const cre::MetricsSnapshot& s, const std::string& name,
                     double* sum, double* count);

/// ns per scored vector of GetDotBatchKernel(BestKernelVariant()) at
/// dimension `dim` (median of repeated 4096-vector batches).
double DotBatchNsPerVector(std::size_t dim);

/// ru_maxrss of this process in MiB.
double PeakRssMb();
/// User + system CPU seconds of this process.
double ProcessCpuSeconds();

/// Host and configuration record as one JSON object.
std::string HostRecordJson(const Config& config, const Workload& w);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
