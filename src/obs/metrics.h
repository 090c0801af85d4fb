#ifndef CRE_OBS_METRICS_H_
#define CRE_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/mutex.h"

namespace cre {

/// Label set of one metric instrument (dimension key/value pairs, e.g.
/// {kind=execute}). Order is preserved as given; two instruments with the
/// same name and the same label sequence are the same instrument.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

class MetricsRegistry;

/// Monotonic event count. Increment is one relaxed atomic add; a disabled
/// registry turns it into a load + branch.
class Counter {
 public:
  void Increment(std::uint64_t n = 1) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  explicit Counter(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  const std::atomic<bool>* enabled_;
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time measurement (resident bytes, queue depth).
class Gauge {
 public:
  void Set(double v) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    value_.store(v, std::memory_order_relaxed);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  explicit Gauge(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  const std::atomic<bool>* enabled_;
  std::atomic<double> value_{0};
};

/// Aggregated view of one histogram at snapshot time. Buckets are the
/// registry-wide log-spaced latency grid (see Histogram); Percentile
/// interpolates linearly inside the winning bucket, so its error is
/// bounded by the bucket width (one sub-octave, < 19% relative).
struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0;
  double max = 0;
  std::vector<std::uint64_t> buckets;  ///< per-bucket counts (not cumulative)

  double Percentile(double q) const;
  /// Upper bound of bucket `i` in seconds (+inf for the last).
  static double BucketUpperBound(std::size_t i);
  static std::size_t num_buckets();
};

/// Log-bucketed latency/size histogram with sharded atomic buckets:
/// concurrent Observe calls from different threads land on different
/// cache lines (shard = hashed thread id), so a hot histogram never
/// becomes a coherence bottleneck. Bucket grid: 4 buckets per octave
/// (factor 2^(1/4)) from 1 microsecond up through ~19 minutes, plus an
/// underflow and an overflow bucket — percentile error is bounded at
/// ~19% anywhere in that range. Observe is wait-free (two relaxed adds,
/// one CAS-loop max update).
class Histogram {
 public:
  static constexpr std::size_t kBucketsPerOctave = 4;
  static constexpr std::size_t kOctaves = 30;  // 1us * 2^30 ~= 1074s
  /// underflow + graded + overflow
  static constexpr std::size_t kNumBuckets = 2 + kBucketsPerOctave * kOctaves;
  static constexpr double kMinValue = 1e-6;
  static constexpr std::size_t kShards = 8;

  void Observe(double v);

  HistogramSnapshot Snapshot() const;

 private:
  friend class MetricsRegistry;
  explicit Histogram(const std::atomic<bool>* enabled) : enabled_(enabled) {}

  static std::size_t BucketIndex(double v);

  struct alignas(64) Shard {
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> sum{0};
    std::atomic<double> max{0};
    std::atomic<std::uint64_t> buckets[kNumBuckets] = {};
  };

  const std::atomic<bool>* enabled_;
  Shard shards_[kShards];
};

/// Everything the registry knows at one instant: owned instruments plus
/// whatever the registered collectors emitted. Export as JSON (for the
/// bench artifacts) or Prometheus text exposition format (for a future
/// /metrics endpoint).
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    MetricLabels labels;
    std::uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    MetricLabels labels;
    double value = 0;
  };
  struct HistogramValue {
    std::string name;
    MetricLabels labels;
    HistogramSnapshot hist;
  };

  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;

  std::string ToJson() const;
  std::string ToPrometheusText() const;
};

/// The engine-wide metrics registry: one coherent namespace over every
/// subsystem's counters (scheduler, index manager, governor, plan cache,
/// embedding caches) plus engine-owned latency histograms. Two kinds of
/// instruments:
///
///  - owned Counter/Gauge/Histogram, registered by name+labels and
///    updated on the hot path (lock-free; a disabled registry reduces
///    every update to a relaxed load + branch);
///  - collectors: callbacks that run at Snapshot() time and emit
///    point-in-time values from subsystems that already keep their own
///    internal ledgers (IndexManager::Stats, scheduler queue depths,
///    embed-cache hit counts) — migrating those namespaces into the
///    registry without forcing their internals onto registry types.
///
/// Thread-safe. Instrument pointers are stable for the registry's
/// lifetime; repeated registration of the same (name, labels) returns the
/// same instrument.
class MetricsRegistry {
 public:
  explicit MetricsRegistry(bool enabled = true) : enabled_(enabled) {}

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// Runtime toggle (the overhead bench flips it mid-process). Disabling
  /// stops instrument updates and empties snapshots; existing instrument
  /// pointers stay valid.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  Counter* counter(const std::string& name, MetricLabels labels = {});
  Gauge* gauge(const std::string& name, MetricLabels labels = {});
  Histogram* histogram(const std::string& name, MetricLabels labels = {});

  /// Sink a collector writes into at snapshot time.
  class Emitter {
   public:
    void Counter(const std::string& name, MetricLabels labels,
                 std::uint64_t value) {
      snapshot_->counters.push_back({name, std::move(labels), value});
    }
    void Gauge(const std::string& name, MetricLabels labels, double value) {
      snapshot_->gauges.push_back({name, std::move(labels), value});
    }

   private:
    friend class MetricsRegistry;
    explicit Emitter(MetricsSnapshot* snapshot) : snapshot_(snapshot) {}
    MetricsSnapshot* snapshot_;
  };

  /// Registers a snapshot-time collector. Collectors run under no
  /// registry lock ordering guarantees beyond "during Snapshot"; they
  /// must be safe to call from any thread.
  void AddCollector(std::function<void(Emitter*)> collector);

  /// Point-in-time view: owned instruments plus collector output. An
  /// empty snapshot when the registry is disabled.
  MetricsSnapshot Snapshot() const;

 private:
  /// Identity of an instrument: name plus flattened labels.
  using InstrumentKey = std::pair<std::string, MetricLabels>;

  std::atomic<bool> enabled_;
  mutable Mutex mu_;
  std::deque<std::unique_ptr<Counter>> counters_ CRE_GUARDED_BY(mu_);
  std::deque<std::unique_ptr<Gauge>> gauges_ CRE_GUARDED_BY(mu_);
  std::deque<std::unique_ptr<Histogram>> histograms_ CRE_GUARDED_BY(mu_);
  std::map<InstrumentKey, Counter*> counter_index_ CRE_GUARDED_BY(mu_);
  std::map<InstrumentKey, Gauge*> gauge_index_ CRE_GUARDED_BY(mu_);
  std::map<InstrumentKey, Histogram*> histogram_index_ CRE_GUARDED_BY(mu_);
  std::vector<std::function<void(Emitter*)>> collectors_ CRE_GUARDED_BY(mu_);
};

}  // namespace cre

#endif  // CRE_OBS_METRICS_H_
