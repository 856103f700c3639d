#include "src/common.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

namespace perfbench {

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void AddClosedLoopRateMetrics(double ops_per_s, double tail_ms,
                              WorkloadResult* result) {
  const std::string closed = " (closed loop: one operating point)";
  result->Add("max_rate_rps", ops_per_s, "1/s", "alias of ops_per_s" + closed);
  for (const char* rate : {"rate_lo", "rate_mid", "rate_hi"}) {
    result->Add(std::string(rate) + ".latency_ms_tail", tail_ms, "ms",
                "alias of latency_ms_tail" + closed);
  }
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return 1;
}

int WorkerThreads() { return std::min(4, Nproc()); }

double SelfPeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double SpanFloorUs() {
  // Mean of the fastest 99%: the clock ticks in whole nanoseconds, so a
  // median would read the same integer on every run, and the slowest
  // 1% are preemptions, not span cost.
  std::vector<double> samples;
  samples.reserve(4000);
  for (int i = 0; i < 4000; ++i) {
    const Clock::time_point start = Clock::now();
    const Clock::time_point end = Clock::now();
    samples.push_back(MsBetween(start, end) * 1000.0);
  }
  std::sort(samples.begin(), samples.end());
  const size_t kept = samples.size() * 99 / 100;
  double sum = 0.0;
  for (size_t i = 0; i < kept; ++i) sum += samples[i];
  return sum / static_cast<double>(kept);
}

std::string FormatNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace perfbench
