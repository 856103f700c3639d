#ifndef CHAMELEON_OBS_METRICS_H_
#define CHAMELEON_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/quantile_digest.h"
#include "src/util/status.h"
#include "src/util/table_printer.h"
#include "src/util/thread_annotations.h"

namespace chameleon::obs {

/// Monotonic event counter. Thread-safe: a single relaxed atomic add per
/// Increment, so instrumented hot paths pay one uncontended RMW.
class Counter {
 public:
  /// Adds `delta` (negative deltas are ignored: counters only go up).
  void Increment(int64_t delta = 1) {
    if (delta > 0) value_.fetch_add(delta, std::memory_order_relaxed);
  }

  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Last-write-wins instantaneous value (queue depth, estimated p, ...).
/// Thread-safe via an atomic double.
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }

  /// Adds `delta` with a CAS loop (for +1/-1 in-flight style gauges).
  void Add(double delta) {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
  }

  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram. `bounds` are inclusive upper bounds in strictly
/// increasing order; bucket i counts observations v with
/// bounds[i-1] < v <= bounds[i], and one implicit overflow bucket counts
/// v > bounds.back(). Every observation also feeds a QuantileDigest, so
/// p50/p90/p99 are queryable without choosing bucket bounds that happen
/// to bracket them. Thread-safe: per-bucket atomic counts plus CAS-added
/// sum (concurrent Observe calls never lose an observation) and a
/// mutex-guarded digest. The digest contents depend on observation
/// *order*, so its quantiles are part of the determinism contract only
/// for metrics observed from the pipeline's serial path — which is every
/// stable metric (DESIGN.md §9).
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  const std::vector<double>& bounds() const { return bounds_; }

  /// Per-bucket counts, bounds().size() + 1 entries (last = overflow).
  std::vector<int64_t> BucketCounts() const;

  /// Interpolated quantile of everything observed so far (0 when empty).
  double Quantile(double q) const;

  /// Copy of the underlying digest (for merging across registries).
  QuantileDigest Digest() const;

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<int64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
  mutable std::mutex digest_mutex_;
  QuantileDigest digest_ CHAMELEON_GUARDED_BY(digest_mutex_);
};

/// One exported metric, flattened for table/JSON rendering.
struct MetricSample {
  std::string name;
  std::string type;  // "counter" | "gauge" | "histogram"
  double value = 0.0;  // counter/gauge value; histogram observation count
  double sum = 0.0;                // histogram only
  std::vector<double> bounds;      // histogram only
  std::vector<int64_t> buckets;    // histogram only, bounds.size() + 1
  double p50 = 0.0;                // histogram only, digest quantiles
  double p90 = 0.0;
  double p99 = 0.0;
  /// Histogram only: a copy of the mergeable quantile digest, so
  /// registry snapshots can be merged across requests (obs::Aggregator)
  /// without losing tail resolution. Empty for counters/gauges.
  QuantileDigest digest;
};

/// Name-indexed metric registry. Registration is idempotent: the first
/// call for a name creates the instrument, later calls return the same
/// pointer (a histogram's bounds are fixed by the first registration).
/// Returned pointers stay valid for the registry's lifetime. Thread-safe:
/// lookup/creation is mutex-guarded; the returned instruments synchronize
/// themselves, so cache the pointer outside loops.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  [[nodiscard]] obs::Counter* Counter(const std::string& name);
  [[nodiscard]] obs::Gauge* Gauge(const std::string& name);
  [[nodiscard]] obs::Histogram* Histogram(const std::string& name,
                                          const std::vector<double>& bounds);

  /// All metrics, sorted by name.
  std::vector<MetricSample> Snapshot() const;

  /// Rows (metric, type, value, detail) ready for util::TablePrinter.
  util::TablePrinter ToTable() const;

  /// One JSON object per metric, one per line (JSONL).
  std::string ToJson() const;

  /// Writes ToJson() to `path`.
  [[nodiscard]] util::Status Write(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<obs::Counter>> counters_
      CHAMELEON_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<obs::Gauge>> gauges_
      CHAMELEON_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<obs::Histogram>> histograms_
      CHAMELEON_GUARDED_BY(mutex_);
};

/// The determinism contract (DESIGN.md §9): a stable metric must be
/// bit-identical at every `num_threads` for a fixed configuration. The
/// exemptions are load/schedule-dependent by nature and documented as
/// such: everything under `threadpool.` (no pool even exists on the
/// serial path) and `mup.count_queries` (the parallel lattice traversal
/// prefetches parent counts instead of short-circuiting).
bool IsStableMetric(const std::string& name);

/// Formats a double for export: shortest representation that
/// round-trips, so snapshots and goldens are stable.
std::string FormatMetricValue(double value);

}  // namespace chameleon::obs

#endif  // CHAMELEON_OBS_METRICS_H_
