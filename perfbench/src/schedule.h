// The serve-mix request schedule: arrival times and request specs, drawn
// only from the workload seed.
#ifndef PERFBENCH_SRC_SCHEDULE_H_
#define PERFBENCH_SRC_SCHEDULE_H_

#include <cstdint>
#include <vector>

#include "tools/chameleond/protocol.h"

namespace perfbench {

struct Arrival {
  double due_ms = 0.0;  ///< offset from the start of the first window
  int step = 0;         ///< index into the rates
  int window = 0;       ///< index of the window it is due in
  int spec = 0;         ///< index into ServeSchedule::specs
  bool incremental = false;
  int client = 0;
};

struct ServeSchedule {
  /// Distinct request specs (id, client and incremental left unset).
  std::vector<chameleon::daemon::RepairRequestSpec> specs;
  std::vector<Arrival> arrivals;  ///< sorted by due_ms
  std::vector<double> rates;
  /// Window w runs at rates[w % rates.size()] over
  /// [window_start_ms[w], window_start_ms[w + 1]).
  int windows = 0;
  std::vector<double> window_start_ms;  ///< windows + 1 entries

  double window_ms(int w) const {
    return window_start_ms[w + 1] - window_start_ms[w];
  }
  /// When the last window ends.
  double end_ms() const { return window_start_ms.back(); }
  /// The window that holds `t_ms`, or -1 outside every window.
  int WindowAt(double t_ms) const;
};

/// Poisson arrivals at each of the fixed rates 3, 4 and 5 requests/s over
/// `seconds` at most. The rates take turns in three cycles of windows
/// (lo, mid, hi, lo, ...), so each rate samples the whole run rather than
/// one third of it. Every rate offers the same number of requests,
/// floor(seconds / (1/3 + 1/4 + 1/5)) (40 at 32 s), split evenly over its
/// windows, whose length is that count over the rate; so every rate reports
/// the same tail percentile. A window's requests fall at the order
/// statistics of uniform draws over it, which is a Poisson process
/// conditioned on its count (so the percentile is the same on every run).
///
/// Every rate carries the same mix: 72% micro, 25% feret (tau 20) and 3%
/// utkface requests, exactly (largest-remainder rounding), a quarter of
/// them incremental, spread over 64 client names (independent users, each
/// far below its in-flight cap). The feret share spans the 72nd to 97th
/// percentile, so whichever of p75 and p90 a rate's tail picks lands
/// inside one request kind, not on the step between two kinds.
ServeSchedule MakeServeSchedule(uint64_t seed, double seconds);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SCHEDULE_H_
