#ifndef CHAMELEON_BENCH_KERNEL_GATE_H_
#define CHAMELEON_BENCH_KERNEL_GATE_H_

// The in-process gate that bench_masks and bench_render share. Each case
// times a fast kernel beside its naive reference over the same inputs,
// alternating repetition by repetition, so host drift hits both sides of
// the ratio alike. The gate fails a case whose outputs differ from the
// reference's or whose speedup (reference median / fast median over
// repetitions) falls below its floor; ratios taken in one process hold
// when the host slows, which absolute ns do not.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench/experiment_common.h"
#include "src/image/face_renderer.h"
#include "src/image/image.h"
#include "src/obs/quantile_digest.h"
#include "src/util/stopwatch.h"

namespace chameleon::bench {

/// The gates' inputs: `count` FERET-style portraits of `size` px, from a
/// fixed seed.
inline std::vector<image::Image> FeretStyleFaces(int size, int count) {
  util::Rng rng(2024);
  const fm::FaceStyleFn style_fn = datasets::FeretFaceStyleFn();
  image::RenderOptions render;
  render.size = size;
  std::vector<image::Image> faces;
  for (int i = 0; i < count; ++i) {
    const image::FaceStyle style = style_fn({i % 2, (i / 2) % 5}, &rng);
    const image::SceneStyle scene =
        image::JitterScene(datasets::FeretScene(), 12.0, &rng);
    faces.push_back(image::RenderFace(style, scene, render, &rng));
  }
  return faces;
}

struct KernelCase {
  std::string name;
  /// Each runs its kernel once over every input and returns a value
  /// derived from the outputs, which keeps them observable.
  std::function<size_t()> fast;
  std::function<size_t()> reference;
  /// Whether the fast outputs equal the reference outputs (the caller
  /// compares them; the meaning of "equal" is the kernel's contract).
  bool identical = true;
  double min_speedup = 0.0;  ///< 0: only identity is gated
};

// Keeps the timed results observable, so no call is optimised away.
inline volatile size_t g_kernel_gate_sink = 0;

/// Times every case over `repetitions` repetitions of `inputs` calls,
/// prints one line per case, and returns the exit code: 1 when a case is
/// not identical or misses its floor, or when `--json=<path>` was given
/// and the schema-v1 report (the fast kernels' ns per call, with
/// `config` plus the repetitions and each speedup as config) could not
/// be written.
inline int RunKernelGate(
    const std::string& bench_name, const std::vector<KernelCase>& cases,
    int inputs, int repetitions, bool smoke,
    const std::vector<std::pair<std::string, std::string>>& config,
    int argc, char** argv) {
  auto time_repetition = [inputs](const std::function<size_t()>& kernel) {
    util::Stopwatch timer;
    g_kernel_gate_sink = g_kernel_gate_sink + kernel();
    return timer.ElapsedSeconds() * 1e9 / static_cast<double>(inputs);
  };
  struct Result {
    double fast_min_ns = 1e300;  // per call, min over repetitions
    double speedup = 0.0;
    obs::QuantileDigest fast_digest;
  };
  std::vector<Result> results(cases.size());
  int exit_code = 0;
  for (size_t i = 0; i < cases.size(); ++i) {
    const KernelCase& c = cases[i];
    Result& result = results[i];
    obs::QuantileDigest reference_digest;
    for (int r = 0; r < repetitions; ++r) {
      const double fast_ns = time_repetition(c.fast);
      reference_digest.Add(time_repetition(c.reference));
      result.fast_digest.Add(fast_ns);
      result.fast_min_ns = std::min(result.fast_min_ns, fast_ns);
    }
    result.speedup = reference_digest.Quantile(0.5) /
                     result.fast_digest.Quantile(0.5);
    std::printf("  %-28s %9.0f ns/call (median %9.0f) vs reference %10.0f "
                "-> %5.1fx  %s\n",
                c.name.c_str(), result.fast_min_ns,
                result.fast_digest.Quantile(0.5),
                reference_digest.Quantile(0.5), result.speedup,
                c.identical ? "identical" : "MISMATCH");
    if (!c.identical) {
      std::fprintf(stderr, "FAIL: %s output differs from the reference\n",
                   c.name.c_str());
      exit_code = 1;
    }
    if (result.speedup < c.min_speedup) {
      std::fprintf(stderr,
                   "FAIL: %s only %.1fx faster than the reference (gate: "
                   "%.1fx)\n",
                   c.name.c_str(), result.speedup, c.min_speedup);
      exit_code = 1;
    }
  }

  const std::string json_path = JsonPathFromArgs(argc, argv);
  if (!json_path.empty()) {
    BenchJsonReport report(bench_name);
    report.set_smoke(smoke);
    for (const auto& [key, value] : config) report.AddConfig(key, value);
    report.AddConfig("repetitions", std::to_string(repetitions));
    for (size_t i = 0; i < cases.size(); ++i) {
      char speedup[32];
      std::snprintf(speedup, sizeof(speedup), "%.2f", results[i].speedup);
      report.AddConfig("speedup_" + cases[i].name, speedup);
      report.AddCase(cases[i].name, results[i].fast_min_ns, repetitions,
                     results[i].fast_digest);
    }
    const util::Status status = report.WriteJson(json_path);
    if (!status.ok()) {
      std::fprintf(stderr, "bench json: %s\n", status.ToString().c_str());
      exit_code = 1;
    }
  }
  return exit_code;
}

}  // namespace chameleon::bench

#endif  // CHAMELEON_BENCH_KERNEL_GATE_H_
