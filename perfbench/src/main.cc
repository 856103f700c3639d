// chameleon_perfbench: runs one benchmark workload and prints its
// metrics. perfbench/run.py builds this binary and forwards its flags:
//
//   chameleon_perfbench --workload=repair-feret|serve-mix|coverage-stream
//       --seed=N --seconds=S --trace=0|1 --manifest=BENCHMARK.json
//       [--daemon=PATH --slo-ms=MS] [--source=ID]
//       [--corrupt-reference]
//
// The last stdout line is the JSON result; lines before it start with
// '#'. Exit status: 0 when every output check passed, 1 when one failed
// (the result line still prints), 2 on bad usage or a non-Release build.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>

#include "src/common.h"
#include "src/manifest.h"
#include "src/workloads.h"

namespace perfbench {
namespace {

int Usage(const std::string& why) {
  std::fprintf(stderr, "chameleon_perfbench: %s\n", why.c_str());
  return 2;
}

/// Per-layer metrics of layers a workload does not run. The result line
/// must carry every declared name, so they are placeholders, marked on the
/// '#' lines: counts read 0, times read the span floor (an empty span; a
/// time that read the same on every run would pass for a broken clock).
void AddIdleLayers(const Manifest& manifest, WorkloadResult* result) {
  std::set<std::string> printed;
  for (const Metric& metric : result->metrics) printed.insert(metric.name);
  const double floor_us = SpanFloorUs();
  for (const DeclaredMetric& declared : manifest.per_layer) {
    if (printed.count(declared.name) > 0) continue;
    double value = 0.0;
    if (declared.unit == "us") value = floor_us;
    if (declared.unit == "ms") value = floor_us / 1e3;
    if (declared.unit == "s") value = floor_us / 1e6;
    result->Add(declared.name, value, declared.unit,
                value == 0.0 ? "placeholder: layer not run on this workload"
                             : "placeholder: layer not run on this workload "
                               "(span floor)");
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::signal(SIGPIPE, SIG_IGN);  // a dead daemon surfaces as a write error

  RunArgs args;
  std::string manifest_path = "BENCHMARK.json";
  std::string source = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (arg != "--corrupt-reference" && i + 1 < argc) {
      value = argv[++i];
    }
    if (arg == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      args.trace = value == "1";
    } else if (arg == "--daemon") {
      args.daemon_path = value;
    } else if (arg == "--slo-ms") {
      args.slo_ms = std::atof(value.c_str());
    } else if (arg == "--manifest") {
      manifest_path = value;
    } else if (arg == "--source") {
      source = value;
    } else if (arg == "--corrupt-reference") {
      args.corrupt_reference = true;
    } else {
      return Usage("unknown flag '" + arg + "'");
    }
  }
  if (!have_workload) return Usage("--workload is required");
  if (args.seconds <= 0.0) return Usage("--seconds must be positive");
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    return Usage(std::string("refusing a ") + PERFBENCH_BUILD_TYPE +
                 " build: timings need CMAKE_BUILD_TYPE=Release");
  }
  auto manifest = LoadManifest(manifest_path);
  if (!manifest.ok()) return Usage(manifest.status().ToString());

  WorkloadResult result;
  if (args.workload == "repair-feret") {
    result = RunRepairFeret(args);
  } else if (args.workload == "serve-mix") {
    result = RunServeMix(args);
  } else if (args.workload == "coverage-stream") {
    result = RunCoverageStream(args);
  } else {
    return Usage("unknown workload '" + args.workload + "'");
  }
  if (args.trace) AddIdleLayers(*manifest, &result);

  std::printf("# workload=%s seed=%llu seconds=%g trace=%d nproc=%d threads=%d "
              "build=%s source=%s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, Nproc(), WorkerThreads(),
              PERFBENCH_BUILD_TYPE, source.c_str());
  for (const std::string& note : result.notes) std::printf("# %s\n", note.c_str());
  for (const Metric& metric : result.metrics) {
    const auto stand_in = result.stand_ins.find(metric.name);
    std::printf("# %-40s %18s %s%s\n", metric.name.c_str(),
                FormatNumber(metric.value).c_str(), metric.unit.c_str(),
                stand_in == result.stand_ins.end()
                    ? ""
                    : ("  [" + stand_in->second + "]").c_str());
  }
  if (!args.trace) {
    // failed_share rides in the result's attempted/failed fields: it is 0
    // on a healthy run, and a metric that reads 0 cannot carry a bound.
    const double failed_share =
        result.attempted > 0
            ? static_cast<double>(result.failed) / result.attempted
            : 0.0;
    std::printf("# %-40s %18s %s\n", "failed_share",
                FormatNumber(failed_share).c_str(), "share");
  }
  chameleon::util::Status checked =
      CheckMetrics(*manifest, args.trace, result.metrics);
  if (!checked.ok()) {
    std::fflush(stdout);
    std::fprintf(stderr, "chameleon_perfbench: %s\n", checked.ToString().c_str());
    return 2;
  }
  if (result.attempted < 1) result.Fail("no operation was attempted");
  std::printf("%s\n", RenderResultLine(result).c_str());
  return result.correct ? 0 : 1;
}
