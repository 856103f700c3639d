#ifndef CHAMELEON_OBS_AGGREGATE_H_
#define CHAMELEON_OBS_AGGREGATE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/quantile_digest.h"
#include "src/util/thread_annotations.h"

namespace chameleon::obs {

/// One metric folded across many per-request registries (DESIGN.md §15).
/// Merge rules: counters and histogram counts/sums/bucket vectors add;
/// gauges are last-write-wins in absorb order; histogram digests merge
/// (QuantileDigest::Merge) and bucket bounds are fixed by the first
/// sample that carries them.
struct MergedMetric {
  std::string type;  // "counter" | "gauge" | "histogram"
  double value = 0.0;
  double sum = 0.0;                // histogram only
  std::vector<double> bounds;      // histogram only
  std::vector<int64_t> buckets;    // histogram only
  QuantileDigest digest;           // histogram only
};

/// Name-keyed merge view of one or more registry snapshots.
using MergedMetrics = std::map<std::string, MergedMetric>;

/// Folds `sample` into `into` under the merge rules above. A type
/// mismatch on an existing name keeps the first-seen type and ignores
/// the conflicting sample (aggregates must never crash the daemon).
void MergeSample(MergedMetrics* into, const MetricSample& sample);

/// Folds every sample of `from` into `into` (in `from`'s name order, so
/// two merges of the same operand sets in the same order are
/// deterministic).
void MergeAll(MergedMetrics* into, const MergedMetrics& from);

/// Flattens a merge view back to export-ready samples, sorted by name.
/// Histogram p50/p90/p99 are re-derived from the merged digest.
std::vector<MetricSample> MergedToSamples(const MergedMetrics& merged);

/// Daemon-global rollup of per-request telemetry: each finished request's
/// registry snapshot is absorbed at a virtual timestamp, and Scrape
/// renders three views — the lifetime total plus rolling short/long
/// windows ("window1m." / "window5m." name prefixes). SLO counters
/// (deadline misses, parked rounds, admission rejects) ride through the
/// same machinery via AddCounter, so they get windowed views for free.
///
/// The aggregate is operational telemetry, not a determinism artifact:
/// counter totals, histogram counts/sums and bucket vectors are
/// order-independent and therefore reproducible, but gauge values,
/// window assignment, and merged-digest quantiles depend on request
/// completion order (DESIGN.md §15 — never gate CI on those).
///
/// Thread-safe; completion-path callers serialize through the mutex.
class Aggregator {
 public:
  Aggregator() = default;
  Aggregator(const Aggregator&) = delete;
  Aggregator& operator=(const Aggregator&) = delete;

  /// Folds a registry snapshot in at virtual time `at_ms` (monotone per
  /// caller; out-of-order timestamps clamp to the newest bucket).
  void Absorb(const Registry& registry, double at_ms);

  /// Same, from an already-taken snapshot (tests, replay).
  void AbsorbSamples(const std::vector<MetricSample>& samples, double at_ms);

  /// Adds `delta` to counter `name` at `at_ms` (the SLO counters' path).
  void AddCounter(const std::string& name, int64_t delta, double at_ms);

  /// Total + windowed views as of `now_ms`, sorted by name. Windowed
  /// names carry "window1m." / "window5m." prefixes; the total view
  /// keeps bare names, so one OpenMetrics document serves all three.
  std::vector<MetricSample> Scrape(double now_ms) const;

  /// Registry snapshots absorbed so far (requests, not samples).
  int64_t absorbed() const;

 private:
  struct Bucket {
    double start_ms = 0.0;
    MergedMetrics metrics;
  };

  // Takes mutex_ itself; `count_request` bumps the absorbed() counter.
  void AbsorbMerged(const MergedMetrics& merged, double at_ms,
                    bool count_request);

  mutable std::mutex mutex_;
  MergedMetrics total_ CHAMELEON_GUARDED_BY(mutex_);
  std::deque<Bucket> buckets_ CHAMELEON_GUARDED_BY(mutex_);
  int64_t absorbed_ CHAMELEON_GUARDED_BY(mutex_) = 0;
};

}  // namespace chameleon::obs

#endif  // CHAMELEON_OBS_AGGREGATE_H_
