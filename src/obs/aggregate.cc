#include "src/obs/aggregate.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>

namespace chameleon::obs {
namespace {

/// Rolling window spans, on the daemon's virtual-millisecond axis.
constexpr double kShortWindowMs = 60000.0;   // the "1m" view
constexpr double kLongWindowMs = 300000.0;   // the "5m" view
/// Granularity of window bookkeeping: absorbs landing within one
/// bucket merge eagerly; windows are therefore accurate to one bucket.
constexpr double kBucketMs = 5000.0;

}  // namespace

void MergeSample(MergedMetrics* into, const MetricSample& sample) {
  auto [it, inserted] = into->try_emplace(sample.name);
  MergedMetric& merged = it->second;
  if (inserted) {
    merged.type = sample.type;
    merged.bounds = sample.bounds;
    merged.buckets.assign(sample.buckets.size(), 0);
  } else if (merged.type != sample.type) {
    return;  // first-seen type wins; conflicting sample dropped
  }
  if (sample.type == "gauge") {
    merged.value = sample.value;
    return;
  }
  if (sample.type == "counter") {
    merged.value += sample.value;
    return;
  }
  // Histogram: counts, sums and aligned bucket vectors add; digests fold
  // through QuantileDigest::Merge. Bucket bounds are fixed by the first
  // sample — a later sample with different bounds contributes count/sum/
  // digest but not its (incomparable) bucket vector.
  merged.value += sample.value;
  merged.sum += sample.sum;
  if (sample.bounds == merged.bounds &&
      sample.buckets.size() == merged.buckets.size()) {
    for (size_t i = 0; i < sample.buckets.size(); ++i) {
      merged.buckets[i] += sample.buckets[i];
    }
  }
  merged.digest.Merge(sample.digest);
}

void MergeAll(MergedMetrics* into, const MergedMetrics& from) {
  for (const auto& [name, metric] : from) {
    auto [it, inserted] = into->try_emplace(name);
    MergedMetric& merged = it->second;
    if (inserted) {
      merged = metric;
      continue;
    }
    if (merged.type != metric.type) continue;
    if (metric.type == "gauge") {
      merged.value = metric.value;
      continue;
    }
    if (metric.type == "counter") {
      merged.value += metric.value;
      continue;
    }
    merged.value += metric.value;
    merged.sum += metric.sum;
    if (metric.bounds == merged.bounds &&
        metric.buckets.size() == merged.buckets.size()) {
      for (size_t i = 0; i < metric.buckets.size(); ++i) {
        merged.buckets[i] += metric.buckets[i];
      }
    }
    merged.digest.Merge(metric.digest);
  }
}

std::vector<MetricSample> MergedToSamples(const MergedMetrics& merged) {
  std::vector<MetricSample> samples;
  samples.reserve(merged.size());
  for (const auto& [name, metric] : merged) {  // map order == name order
    MetricSample sample;
    sample.name = name;
    sample.type = metric.type;
    sample.value = metric.value;
    if (metric.type == "histogram") {
      sample.sum = metric.sum;
      sample.bounds = metric.bounds;
      sample.buckets = metric.buckets;
      sample.p50 = metric.digest.Quantile(0.5);
      sample.p90 = metric.digest.Quantile(0.9);
      sample.p99 = metric.digest.Quantile(0.99);
      sample.digest = metric.digest;
    }
    samples.push_back(std::move(sample));
  }
  return samples;
}

void Aggregator::AbsorbMerged(const MergedMetrics& merged, double at_ms,
                              bool count_request) {
  std::lock_guard<std::mutex> lock(mutex_);
  MergeAll(&total_, merged);
  // Timestamps may regress slightly when completions race on the virtual
  // axis; clamp into the newest bucket so windows never grow backwards.
  if (!buckets_.empty() && at_ms < buckets_.back().start_ms) {
    at_ms = buckets_.back().start_ms;
  }
  const double bucket_start = std::floor(at_ms / kBucketMs) * kBucketMs;
  if (buckets_.empty() || buckets_.back().start_ms < bucket_start) {
    buckets_.push_back(Bucket{bucket_start, {}});
  }
  MergeAll(&buckets_.back().metrics, merged);
  // Buckets older than the long window can never be scraped again.
  const double horizon = at_ms - kLongWindowMs;
  while (!buckets_.empty() &&
         buckets_.front().start_ms + kBucketMs <= horizon) {
    buckets_.pop_front();
  }
  if (count_request) ++absorbed_;
}

void Aggregator::Absorb(const Registry& registry, double at_ms) {
  AbsorbSamples(registry.Snapshot(), at_ms);
}

void Aggregator::AbsorbSamples(const std::vector<MetricSample>& samples,
                               double at_ms) {
  MergedMetrics merged;
  for (const MetricSample& sample : samples) MergeSample(&merged, sample);
  AbsorbMerged(merged, at_ms, /*count_request=*/true);
}

void Aggregator::AddCounter(const std::string& name, int64_t delta,
                            double at_ms) {
  if (delta <= 0) return;
  MetricSample sample;
  sample.name = name;
  sample.type = "counter";
  sample.value = static_cast<double>(delta);
  MergedMetrics merged;
  MergeSample(&merged, sample);
  AbsorbMerged(merged, at_ms, /*count_request=*/false);
}

std::vector<MetricSample> Aggregator::Scrape(double now_ms) const {
  MergedMetrics total;
  MergedMetrics short_window;
  MergedMetrics long_window;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    total = total_;
    for (const Bucket& bucket : buckets_) {
      // A bucket is in the window if any part of its span is.
      if (bucket.start_ms + kBucketMs > now_ms - kLongWindowMs) {
        MergeAll(&long_window, bucket.metrics);
      }
      if (bucket.start_ms + kBucketMs > now_ms - kShortWindowMs) {
        MergeAll(&short_window, bucket.metrics);
      }
    }
  }
  std::vector<MetricSample> out = MergedToSamples(total);
  for (MetricSample& sample : MergedToSamples(short_window)) {
    sample.name = "window1m." + sample.name;
    out.push_back(std::move(sample));
  }
  for (MetricSample& sample : MergedToSamples(long_window)) {
    sample.name = "window5m." + sample.name;
    out.push_back(std::move(sample));
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.name < b.name;
            });
  return out;
}

int64_t Aggregator::absorbed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return absorbed_;
}

}  // namespace chameleon::obs
