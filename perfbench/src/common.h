// Shared plumbing for the benchmark workloads: run arguments, the result
// every workload fills in, wall clocks, and seed derivation.
#ifndef PERFBENCH_SRC_COMMON_H_
#define PERFBENCH_SRC_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds between two steady-clock points.
inline double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Milliseconds since `from`.
inline double MsSince(Clock::time_point from) {
  return MsBetween(from, Clock::now());
}

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Path of the chameleond binary (serve-mix only).
  std::string daemon_path;
  /// serve-mix latency limit on latency_ms_tail, for max_rate_rps.
  double slo_ms = 0.0;
  /// Testing aid for the correctness gate: flips every expected digest
  /// (and miscounts one MUP of every expected frontier), so a healthy
  /// program must fail the run.
  bool corrupt_reference = false;
};

/// One printed metric: a value as measured, with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload reports. `notes` are human-readable lines printed
/// before the final JSON object (context, tail percentiles, defects).
struct WorkloadResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  /// By metric name: why a value is not a measurement of its own (a
  /// placeholder for a concept or layer the workload does not have, or an
  /// alias of another metric). The result line has no room for it, so it
  /// shows on the '#' lines.
  std::map<std::string, std::string> stand_ins;

  /// Adds a metric; a non-empty `stand_in` marks it as not measured.
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& stand_in = "") {
    metrics.push_back({name, value, unit});
    if (!stand_in.empty()) stand_ins[name] = stand_in;
  }
  void Note(const std::string& line) { notes.push_back(line); }
  /// Records a failed correctness check: the run is then incorrect.
  void Fail(const std::string& why) {
    correct = false;
    notes.push_back("CHECK FAILED: " + why);
  }
};

/// Closed-loop workloads have one operating point: the client's own
/// rate. They report max_rate_rps as their throughput and every
/// rate_*.latency_ms_tail as their tail, marked as aliases, because every
/// workload must print every end-to-end metric.
void AddClosedLoopRateMetrics(double ops_per_s, double tail_ms,
                              WorkloadResult* result);

/// Times a workload's repeated set-ups; setup_s is their median. The first
/// runs before the measured window and the rest between operations at
/// evenly spaced points of it, so the median samples the machine at
/// several moments: its speed drifts by up to half over tens of seconds,
/// and back-to-back set-ups would all land in one phase. Set-up time spent
/// inside the window is left out of the window's length.
class SetupRepeats {
 public:
  SetupRepeats(int repeats, double window_ms)
      : repeats_(repeats), window_ms_(window_ms) {}

  /// Whether another set-up is due `elapsed_ms` into the window.
  bool Due(double elapsed_ms) const {
    return !complete() &&
           elapsed_ms >= window_ms_ * static_cast<double>(ms_.size()) / repeats_;
  }
  bool complete() const { return static_cast<int>(ms_.size()) >= repeats_; }
  void Add(double ms, bool in_window) {
    ms_.push_back(ms);
    if (in_window) in_window_ms_ += ms;
  }
  int repeats() const { return repeats_; }
  const std::vector<double>& ms() const { return ms_; }
  double in_window_ms() const { return in_window_ms_; }

 private:
  int repeats_;
  double window_ms_;
  std::vector<double> ms_;
  double in_window_ms_ = 0.0;
};

/// Independent, reproducible seed for stream `stream` of workload seed
/// `seed` (splitmix64 finalizer over the pair).
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

/// CPUs this process may run on.
int Nproc();

/// min(4, nproc): the thread count every workload uses.
int WorkerThreads();

/// Peak resident set of this process, in MB.
double SelfPeakRssMb();

/// Median wall time of an empty timed span (two clock reads and a
/// subtraction), in microseconds: the floor a span adds to what it times.
double SpanFloorUs();

/// Formats a double with all its digits.
std::string FormatNumber(double value);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_COMMON_H_
