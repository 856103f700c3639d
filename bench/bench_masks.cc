// Cost of the image kernels on the guided-query path (DESIGN.md §11):
// GenerateMask at each delineation level, and DilateDisc (r = 6, the
// moderate radius at 64 px), ExtractForeground and GaussianBlur
// (sigma 0.5, FERET's render blur), each timed beside the naive
// reference kernel in tests/image_reference_kernels.h, in this process.
//
// Inputs are FERET-style 64 px portraits; DilateDisc dilates their
// foreground masks. Fast and reference timings alternate repetition by
// repetition, so host drift hits both sides of each ratio alike.
//
// The binary self-checks the kernels' contract and exits 1 unless every
// fast output is byte-identical to the reference output and each kernel
// keeps its in-process speedup floor over the reference (medians over
// repetitions): DilateDisc 3x, GaussianBlur 2x, ExtractForeground 1.5x.
// The floors sit well under the 10-16x, 2.8-3.9x and 1.8-2.5x measured
// on a 4-vCPU Xeon VM, and unlike absolute ns they hold when the host
// slows.
//
// Flags: --json=<path> (schema-v1 report of the fast kernels' ns/call),
// --smoke (fewer repetitions).

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/experiment_common.h"
#include "src/image/face_renderer.h"
#include "src/image/filter.h"
#include "src/image/foreground.h"
#include "src/image/mask_generator.h"
#include "src/obs/quantile_digest.h"
#include "src/util/stopwatch.h"
#include "tests/image_reference_kernels.h"

namespace {

namespace image = chameleon::image;
using image::Image;

constexpr int kSize = 64;
constexpr int kFaces = 16;
constexpr int kDilateRadius = 6;
constexpr double kBlurSigma = 0.5;

std::vector<Image> FeretStyleFaces() {
  chameleon::util::Rng rng(2024);
  const chameleon::fm::FaceStyleFn style_fn =
      chameleon::datasets::FeretFaceStyleFn();
  image::RenderOptions render;
  render.size = kSize;
  std::vector<Image> faces;
  for (int i = 0; i < kFaces; ++i) {
    const image::FaceStyle style = style_fn({i % 2, (i / 2) % 5}, &rng);
    const image::SceneStyle scene =
        image::JitterScene(chameleon::datasets::FeretScene(), 12.0, &rng);
    faces.push_back(image::RenderFace(style, scene, render, &rng));
  }
  return faces;
}

// The mask levels of GenerateMask, built from the reference kernels.
Image ReferenceMask(const Image& guide, image::MaskLevel level) {
  Image mask = image::reference::ExtractForeground(guide);
  switch (level) {
    case image::MaskLevel::kAccurate:
      return mask;
    case image::MaskLevel::kModerate:
      return image::reference::DilateDisc(
          mask, std::max(1, static_cast<int>(image::kModerateDilationFraction *
                                             guide.width())));
    case image::MaskLevel::kImprecise: {
      Image box(guide.width(), guide.height(), 1, 0);
      int x0;
      int y0;
      int x1;
      int y1;
      if (image::MaskBoundingBox(mask, &x0, &y0, &x1, &y1)) {
        for (int y = y0; y <= y1; ++y) {
          for (int x = x0; x <= x1; ++x) box.at(x, y, 0) = 255;
        }
      }
      return box;
    }
  }
  return mask;
}

using Kernel = std::function<Image(const Image&)>;

struct Case {
  std::string name;
  Kernel fast;
  Kernel reference;
  const std::vector<Image>* inputs;
  double min_speedup = 0.0;  // 0: only byte identity is gated
};

struct CaseResult {
  bool identical = true;
  double fast_min_ns = 0.0;  // per call, min over repetitions
  double speedup = 0.0;      // reference median / fast median
  chameleon::obs::QuantileDigest fast_digest;
};

// Keeps the timed outputs observable, so no call is optimised away.
volatile size_t g_sink = 0;

// Nanoseconds per call of `kernel` over all inputs, one repetition.
double TimeRepetition(const Kernel& kernel, const std::vector<Image>& inputs) {
  chameleon::util::Stopwatch timer;
  for (const Image& input : inputs) {
    g_sink = g_sink + kernel(input).pixels().size();
  }
  return timer.ElapsedSeconds() * 1e9 / static_cast<double>(inputs.size());
}

CaseResult RunCase(const Case& c, int repetitions) {
  CaseResult result;
  for (const Image& input : *c.inputs) {
    if (!(c.fast(input) == c.reference(input))) result.identical = false;
  }
  chameleon::obs::QuantileDigest reference_digest;
  result.fast_min_ns = 1e300;
  for (int r = 0; r < repetitions; ++r) {
    const double fast_ns = TimeRepetition(c.fast, *c.inputs);
    reference_digest.Add(TimeRepetition(c.reference, *c.inputs));
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
              result.identical ? "identical" : "MISMATCH");
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") smoke = true;
  }
  const int repetitions = smoke ? 100 : 400;

  const std::vector<Image> faces = FeretStyleFaces();
  std::vector<Image> outlines;
  for (const Image& face : faces) {
    outlines.push_back(image::ExtractForeground(face));
  }

  std::vector<Case> cases;
  for (image::MaskLevel level :
       {image::MaskLevel::kAccurate, image::MaskLevel::kModerate,
        image::MaskLevel::kImprecise}) {
    std::string name = "generate_mask_";
    name += level == image::MaskLevel::kAccurate   ? "accurate"
            : level == image::MaskLevel::kModerate ? "moderate"
                                                   : "imprecise";
    cases.push_back({name,
                     [level](const Image& in) {
                       return image::GenerateMask(in, level);
                     },
                     [level](const Image& in) {
                       return ReferenceMask(in, level);
                     },
                     &faces});
  }
  cases.push_back({"dilate_disc_r6",
                   [](const Image& in) {
                     return image::DilateDisc(in, kDilateRadius);
                   },
                   [](const Image& in) {
                     return image::reference::DilateDisc(in, kDilateRadius);
                   },
                   &outlines, 3.0});
  cases.push_back({"extract_foreground",
                   [](const Image& in) { return image::ExtractForeground(in); },
                   [](const Image& in) {
                     return image::reference::ExtractForeground(in);
                   },
                   &faces, 1.5});
  cases.push_back({"gaussian_blur_s0.5",
                   [](const Image& in) {
                     return image::GaussianBlur(in, kBlurSigma);
                   },
                   [](const Image& in) {
                     return image::reference::GaussianBlur(in, kBlurSigma);
                   },
                   &faces, 2.0});

  std::printf("bench_masks: %d FERET-style faces at %d px, %d repetitions\n",
              kFaces, kSize, repetitions);
  std::vector<CaseResult> results;
  for (const Case& c : cases) results.push_back(RunCase(c, repetitions));

  int exit_code = 0;
  for (size_t i = 0; i < cases.size(); ++i) {
    if (!results[i].identical) {
      std::fprintf(stderr, "FAIL: %s output differs from the reference\n",
                   cases[i].name.c_str());
      exit_code = 1;
    }
    if (results[i].speedup < cases[i].min_speedup) {
      std::fprintf(stderr,
                   "FAIL: %s only %.1fx faster than the reference (gate: "
                   "%.1fx)\n",
                   cases[i].name.c_str(), results[i].speedup,
                   cases[i].min_speedup);
      exit_code = 1;
    }
  }

  const std::string json_path = chameleon::bench::JsonPathFromArgs(argc, argv);
  if (!json_path.empty()) {
    chameleon::bench::BenchJsonReport report("bench_masks");
    report.set_smoke(smoke);
    report.AddConfig("size", std::to_string(kSize));
    report.AddConfig("faces", std::to_string(kFaces));
    report.AddConfig("repetitions", std::to_string(repetitions));
    for (size_t i = 0; i < cases.size(); ++i) {
      char speedup[32];
      std::snprintf(speedup, sizeof(speedup), "%.2f", results[i].speedup);
      report.AddConfig("speedup_" + cases[i].name, speedup);
      report.AddCase(cases[i].name, results[i].fast_min_ns, repetitions,
                     results[i].fast_digest);
    }
    const chameleon::util::Status status = report.WriteJson(json_path);
    if (!status.ok()) {
      std::fprintf(stderr, "bench json: %s\n", status.ToString().c_str());
      if (exit_code == 0) exit_code = 1;
    }
  }
  return exit_code;
}
