// Order statistics for the benchmark's latency metrics.
#ifndef PERFBENCH_SRC_STATS_H_
#define PERFBENCH_SRC_STATS_H_

#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank p-quantile (p in [0, 100]) of unsorted samples; 0 when
/// empty.
double Percentile(std::vector<double> samples, double p);

double Median(std::vector<double> samples);

double Mean(const std::vector<double>& samples);

/// The tail a latency metric reports: the highest percentile of the
/// ladder 50, 75, 90, 95, 99, 99.9 that still has at least `min_beyond`
/// samples strictly above its nearest rank.
struct TailPick {
  double percentile = 50.0;
  double value = 0.0;
  int64_t samples = 0;  ///< sample count n
  int64_t beyond = 0;   ///< samples ranked above the percentile
  /// False when even the median has fewer than `min_beyond` samples
  /// beyond it; the median is reported anyway.
  bool qualified = false;
};

TailPick SelectTail(std::vector<double> samples, int64_t min_beyond = 10);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_STATS_H_
