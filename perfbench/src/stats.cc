#include "src/stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {
namespace {

/// 1-based nearest rank of the p-quantile: ceil(p/100 * n), at least 1.
int64_t NearestRank(int64_t n, double p) {
  const double exact = p / 100.0 * static_cast<double>(n);
  // Guard against 0.75 * 40 landing a hair above 30 in binary.
  int64_t rank = static_cast<int64_t>(std::ceil(exact - 1e-9));
  return std::clamp<int64_t>(rank, 1, n);
}

/// Samples ranked above the nearest-rank p-quantile of n samples.
int64_t SamplesBeyond(int64_t n, double p) {
  if (n <= 0) return 0;
  return n - NearestRank(n, p);
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const int64_t n = static_cast<int64_t>(samples.size());
  const int64_t index = NearestRank(n, p) - 1;
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return samples[index];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

TailPick SelectTail(std::vector<double> samples, int64_t min_beyond) {
  static constexpr double kLadder[] = {50.0, 75.0, 90.0, 95.0, 99.0, 99.9};
  TailPick pick;
  pick.samples = static_cast<int64_t>(samples.size());
  for (double p : kLadder) {
    if (SamplesBeyond(pick.samples, p) < min_beyond) break;
    pick.percentile = p;
    pick.qualified = true;
  }
  pick.beyond = SamplesBeyond(pick.samples, pick.percentile);
  pick.value = Percentile(std::move(samples), pick.percentile);
  return pick;
}

}  // namespace perfbench
