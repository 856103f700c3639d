#include "src/obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <utility>

namespace chameleon::obs {

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {}

void Histogram::Observe(double value) {
  // First bucket whose inclusive upper bound admits `value`; past-the-end
  // is the overflow bucket.
  const size_t bucket =
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin();
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double current = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(current, current + value,
                                     std::memory_order_relaxed)) {
  }
  {
    std::lock_guard<std::mutex> lock(digest_mutex_);
    digest_.Add(value);
  }
}

double Histogram::Quantile(double q) const {
  std::lock_guard<std::mutex> lock(digest_mutex_);
  return digest_.Quantile(q);
}

QuantileDigest Histogram::Digest() const {
  std::lock_guard<std::mutex> lock(digest_mutex_);
  return digest_;
}

std::vector<int64_t> Histogram::BucketCounts() const {
  std::vector<int64_t> counts(buckets_.size());
  for (size_t i = 0; i < buckets_.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

obs::Counter* Registry::Counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<obs::Counter>();
  return slot.get();
}

obs::Gauge* Registry::Gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<obs::Gauge>();
  return slot.get();
}

obs::Histogram* Registry::Histogram(const std::string& name,
                                    const std::vector<double>& bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<obs::Histogram>(bounds);
  return slot.get();
}

std::vector<MetricSample> Registry::Snapshot() const {
  std::vector<MetricSample> samples;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [name, counter] : counters_) {
      MetricSample sample;
      sample.name = name;
      sample.type = "counter";
      sample.value = static_cast<double>(counter->value());
      samples.push_back(std::move(sample));
    }
    for (const auto& [name, gauge] : gauges_) {
      MetricSample sample;
      sample.name = name;
      sample.type = "gauge";
      sample.value = gauge->value();
      samples.push_back(std::move(sample));
    }
    for (const auto& [name, histogram] : histograms_) {
      MetricSample sample;
      sample.name = name;
      sample.type = "histogram";
      sample.value = static_cast<double>(histogram->count());
      sample.sum = histogram->sum();
      sample.bounds = histogram->bounds();
      sample.buckets = histogram->BucketCounts();
      sample.p50 = histogram->Quantile(0.5);
      sample.p90 = histogram->Quantile(0.9);
      sample.p99 = histogram->Quantile(0.99);
      sample.digest = histogram->Digest();
      samples.push_back(std::move(sample));
    }
  }
  std::sort(samples.begin(), samples.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.name < b.name;
            });
  return samples;
}

util::TablePrinter Registry::ToTable() const {
  util::TablePrinter table({"metric", "type", "value", "detail"});
  for (const MetricSample& sample : Snapshot()) {
    std::string detail;
    if (sample.type == "histogram") {
      detail = "sum=" + FormatMetricValue(sample.sum) +
               " p50=" + FormatMetricValue(sample.p50) +
               " p90=" + FormatMetricValue(sample.p90) +
               " p99=" + FormatMetricValue(sample.p99) + " buckets=[";
      for (size_t i = 0; i < sample.buckets.size(); ++i) {
        if (i > 0) detail += " ";
        detail += (i < sample.bounds.size()
                       ? "le" + FormatMetricValue(sample.bounds[i])
                       : std::string("inf")) +
                  ":" + util::Fmt(sample.buckets[i]);
      }
      detail += "]";
    }
    table.AddRow({sample.name, sample.type, FormatMetricValue(sample.value),
                  detail});
  }
  return table;
}

std::string Registry::ToJson() const {
  std::string out;
  for (const MetricSample& sample : Snapshot()) {
    out += "{\"name\":\"" + sample.name + "\",\"type\":\"" + sample.type +
           "\",\"value\":" + FormatMetricValue(sample.value);
    if (sample.type == "histogram") {
      out += ",\"sum\":" + FormatMetricValue(sample.sum) + ",\"bounds\":[";
      for (size_t i = 0; i < sample.bounds.size(); ++i) {
        if (i > 0) out += ",";
        out += FormatMetricValue(sample.bounds[i]);
      }
      out += "],\"buckets\":[";
      for (size_t i = 0; i < sample.buckets.size(); ++i) {
        if (i > 0) out += ",";
        out += util::Fmt(sample.buckets[i]);
      }
      out += "],\"p50\":" + FormatMetricValue(sample.p50) +
             ",\"p90\":" + FormatMetricValue(sample.p90) +
             ",\"p99\":" + FormatMetricValue(sample.p99);
    }
    out += "}\n";
  }
  return out;
}

util::Status Registry::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return util::Status::IoError("cannot open metrics file: " + path);
  }
  out << ToJson();
  out.close();
  if (!out) return util::Status::IoError("failed writing metrics: " + path);
  return util::Status::Ok();
}

bool IsStableMetric(const std::string& name) {
  if (name.rfind("threadpool.", 0) == 0) return false;
  return name != "mup.count_queries";
}

std::string FormatMetricValue(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.15g", value);
  if (std::strtod(buffer, nullptr) != value) {
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  }
  return buffer;
}

}  // namespace chameleon::obs
