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
#include <utility>
#include <vector>

#include "bench/experiment_common.h"
#include "bench/kernel_gate.h"
#include "src/image/filter.h"
#include "src/image/foreground.h"
#include "src/image/mask_generator.h"
#include "tests/image_reference_kernels.h"

namespace {

namespace image = chameleon::image;
using image::Image;

constexpr int kSize = 64;
constexpr int kFaces = 16;
constexpr int kDilateRadius = 6;
constexpr double kBlurSigma = 0.5;

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

// A gate case for `fast` beside `reference` over `inputs`: identical when
// every output matches byte for byte.
chameleon::bench::KernelCase MakeCase(std::string name, Kernel fast,
                                      Kernel reference,
                                      const std::vector<Image>* inputs,
                                      double min_speedup = 0.0) {
  chameleon::bench::KernelCase c;
  c.name = std::move(name);
  for (const Image& input : *inputs) {
    if (!(fast(input) == reference(input))) c.identical = false;
  }
  auto run_all = [inputs](Kernel kernel) {
    return [inputs, kernel] {
      size_t bytes = 0;
      for (const Image& input : *inputs) bytes += kernel(input).pixels().size();
      return bytes;
    };
  };
  c.fast = run_all(std::move(fast));
  c.reference = run_all(std::move(reference));
  c.min_speedup = min_speedup;
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") smoke = true;
  }
  const int repetitions = smoke ? 100 : 400;

  const std::vector<Image> faces =
      chameleon::bench::FeretStyleFaces(kSize, kFaces);
  std::vector<Image> outlines;
  for (const Image& face : faces) {
    outlines.push_back(image::ExtractForeground(face));
  }

  std::vector<chameleon::bench::KernelCase> cases;
  for (image::MaskLevel level :
       {image::MaskLevel::kAccurate, image::MaskLevel::kModerate,
        image::MaskLevel::kImprecise}) {
    std::string name = "generate_mask_";
    name += level == image::MaskLevel::kAccurate   ? "accurate"
            : level == image::MaskLevel::kModerate ? "moderate"
                                                   : "imprecise";
    cases.push_back(MakeCase(
        name, [level](const Image& in) { return image::GenerateMask(in, level); },
        [level](const Image& in) { return ReferenceMask(in, level); },
        &faces));
  }
  cases.push_back(MakeCase(
      "dilate_disc_r6",
      [](const Image& in) { return image::DilateDisc(in, kDilateRadius); },
      [](const Image& in) {
        return image::reference::DilateDisc(in, kDilateRadius);
      },
      &outlines, 3.0));
  cases.push_back(MakeCase(
      "extract_foreground",
      [](const Image& in) { return image::ExtractForeground(in); },
      [](const Image& in) { return image::reference::ExtractForeground(in); },
      &faces, 1.5));
  cases.push_back(MakeCase(
      "gaussian_blur_s0.5",
      [](const Image& in) { return image::GaussianBlur(in, kBlurSigma); },
      [](const Image& in) {
        return image::reference::GaussianBlur(in, kBlurSigma);
      },
      &faces, 2.0));

  std::printf("bench_masks: %d FERET-style faces at %d px, %d repetitions\n",
              kFaces, kSize, repetitions);
  return chameleon::bench::RunKernelGate(
      "bench_masks", cases, kFaces, repetitions, smoke,
      {{"size", std::to_string(kSize)}, {"faces", std::to_string(kFaces)}},
      argc, argv);
}
