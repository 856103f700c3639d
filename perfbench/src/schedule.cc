#include "src/schedule.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "src/common.h"
#include "src/util/rng.h"

namespace perfbench {
namespace {

using chameleon::daemon::DatasetKind;
using chameleon::daemon::RepairRequestSpec;

/// The offered rates, rate_lo, rate_mid and rate_hi, in requests/s. They
/// were set once from the daemon's measured capacity on the reference
/// machine (see README.md, "serve-mix"): a rate near capacity overloads the
/// daemon whenever the machine slows, and the figures stop repeating.
constexpr double kRates[] = {3.0, 4.0, 5.0};
constexpr int kCycles = 3;
/// Shares of micro, feret and utkface requests at every rate. A utkface
/// request holds a worker for about 2 s, a quarter of the daemon's work at
/// a 5% share: kept to one per rate, so the waits it causes do not swamp
/// the tails whenever the machine slows.
constexpr double kShares[] = {0.72, 0.25, 0.03};
/// Distinct repair seeds per kind. Requests take turns among them, so
/// every request has an in-process reference digest.
constexpr int kSpecsPerKind[] = {12, 3, 2};
constexpr int64_t kFeretTau = 20;
constexpr double kIncrementalShare = 0.25;
constexpr int kClients = 64;

/// Splits `n` into counts proportional to `shares` (largest remainder).
std::vector<int> Apportion(int n, const std::vector<double>& shares) {
  std::vector<int> counts(shares.size());
  std::vector<std::pair<double, size_t>> remainders;
  int assigned = 0;
  for (size_t i = 0; i < shares.size(); ++i) {
    const double exact = shares[i] * n;
    counts[i] = static_cast<int>(std::floor(exact));
    assigned += counts[i];
    remainders.push_back({exact - counts[i], i});
  }
  std::stable_sort(remainders.begin(), remainders.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (size_t k = 0; assigned < n; ++k, ++assigned) {
    ++counts[remainders[k % remainders.size()].second];
  }
  return counts;
}

}  // namespace

int ServeSchedule::WindowAt(double t_ms) const {
  const auto after = std::upper_bound(window_start_ms.begin(),
                                      window_start_ms.end(), t_ms);
  if (after == window_start_ms.begin() || after == window_start_ms.end()) {
    return -1;
  }
  return static_cast<int>(after - window_start_ms.begin()) - 1;
}

ServeSchedule MakeServeSchedule(uint64_t seed, double seconds) {
  ServeSchedule schedule;
  schedule.rates.assign(std::begin(kRates), std::end(kRates));
  const std::vector<double>& rates = schedule.rates;
  const int steps = static_cast<int>(rates.size());
  const int cycles = kCycles;
  schedule.windows = steps * cycles;
  // Every rate offers the same number of requests, so every rate's tail is
  // the same percentile; a rate's windows last that count over the rate.
  double seconds_per_request = 0.0;
  for (double rate : rates) seconds_per_request += 1.0 / rate;
  const int n = std::max(1, static_cast<int>(seconds / seconds_per_request));
  schedule.window_start_ms = {0.0};
  for (int w = 0; w < schedule.windows; ++w) {
    schedule.window_start_ms.push_back(schedule.window_start_ms.back() +
                                       n / rates[w % steps] / cycles * 1000.0);
  }

  // Distinct specs per kind, [micro..., feret..., utkface...], with fixed
  // repair seeds 11, 12, ... (11 is the protocol default): what a repair
  // accepts depends on its seed, so a fixed pool keeps resolved_share and
  // the cost per accepted tuple from moving with the workload seed.
  std::vector<std::vector<int>> by_kind(3);
  const auto add_specs = [&](DatasetKind kind, int count, int64_t tau) {
    for (int i = 0; i < count; ++i) {
      RepairRequestSpec spec;
      spec.dataset = kind;
      if (tau > 0) spec.tau = tau;
      spec.seed = 11 + static_cast<uint64_t>(i);
      by_kind[static_cast<int>(kind)].push_back(
          static_cast<int>(schedule.specs.size()));
      schedule.specs.push_back(spec);
    }
  };
  add_specs(DatasetKind::kMicro, kSpecsPerKind[0], 0);
  add_specs(DatasetKind::kFeret, kSpecsPerKind[1], kFeretTau);
  add_specs(DatasetKind::kUtkFace, kSpecsPerKind[2], 0);

  const std::vector<double> shares(std::begin(kShares), std::end(kShares));
  chameleon::util::Rng rng(DeriveSeed(seed, 7));
  for (int step = 0; step < steps; ++step) {
    std::vector<int> kinds;
    const std::vector<int> counts = Apportion(n, shares);
    for (int k = 0; k < 3; ++k) kinds.insert(kinds.end(), counts[k], k);
    const std::vector<size_t> kind_order = rng.Permutation(kinds.size());
    const int incremental = static_cast<int>(
        std::lround(kIncrementalShare * n));
    const std::vector<size_t> incremental_order = rng.Permutation(n);
    // Within a kind, specs take turns in a seeded order, so every spec
    // appears equally often (to within one) at every rate.
    std::vector<std::vector<size_t>> turn_order(3);
    std::vector<size_t> turns(3, 0);
    for (int k = 0; k < 3; ++k) turn_order[k] = rng.Permutation(by_kind[k].size());

    const std::vector<int> per_window =
        Apportion(n, std::vector<double>(cycles, 1.0 / cycles));
    int i = 0;
    for (int cycle = 0; cycle < cycles; ++cycle) {
      const int window = cycle * steps + step;
      std::vector<double> due(per_window[cycle]);
      for (double& d : due) {
        d = schedule.window_start_ms[window] +
            rng.NextDouble() * schedule.window_ms(window);
      }
      std::sort(due.begin(), due.end());
      for (double due_ms : due) {
        Arrival arrival;
        arrival.due_ms = due_ms;
        arrival.step = step;
        arrival.window = window;
        const int kind = kinds[kind_order[i]];
        const std::vector<size_t>& order = turn_order[kind];
        arrival.spec = by_kind[kind][order[turns[kind]++ % order.size()]];
        arrival.incremental =
            static_cast<int>(incremental_order[i]) < incremental;
        arrival.client = static_cast<int>(rng.NextBounded(kClients));
        schedule.arrivals.push_back(arrival);
        ++i;
      }
    }
  }
  std::stable_sort(schedule.arrivals.begin(), schedule.arrivals.end(),
                   [](const Arrival& a, const Arrival& b) {
                     return a.due_ms < b.due_ms;
                   });
  return schedule;
}

}  // namespace perfbench
