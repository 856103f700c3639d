// Cost of the pixel work every simulated query pays (DESIGN.md §11,
// "Render and embedding cost"): AddGaussianNoise, the sensor grain of
// every RenderFace (sigma 2) and the artifact noise of low-realism renders
// (sigma 18 at artifact level 1); SimulatedEmbedder::RawFeatures, the
// features behind every embedding; and the guided render, which renders
// only the pixels its mask keeps. The kernels are timed beside the
// per-byte or per-pixel reference copies in
// tests/image_reference_kernels.h, and the guided render beside the full
// render composited with CompositeWithMask, in this process.
//
// Inputs are FERET-style portraits, each noised or rendered from its own
// seeded rng. The guided cases regenerate a 64 px face onto 64 px guides
// under their moderate masks, and onto 24 px guides (chameleond's micro
// corpus), half of them with artifacts. Fast and reference timings
// alternate repetition by repetition, so host drift hits both sides of
// each ratio alike.
//
// The binary self-checks each contract and exits 1 unless every fast
// output equals the reference output bit for bit (for the noise and the
// renders: the bytes, and the rng's next NextGaussian and NextU64) and
// each case keeps its in-process speedup floor over the reference
// (medians over repetitions): noise 1.3x, features 2.5x, guided render
// 1.05x on 64 px guides and 1.5x on 24 px guides. The floors sit under
// the 1.5-1.9x, 4.6-5.3x, 1.2x and 2.7x measured on a 4-vCPU Xeon VM,
// and unlike absolute ns they hold when the host slows.
//
// Flags: --json=<path> (schema-v1 report of the fast kernels' ns/call),
// --smoke (fewer repetitions).

#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench/experiment_common.h"
#include "bench/kernel_gate.h"
#include "src/embedding/simulated_embedder.h"
#include "src/image/face_renderer.h"
#include "src/image/filter.h"
#include "src/image/image.h"
#include "src/image/mask_generator.h"
#include "src/util/rng.h"
#include "tests/image_reference_kernels.h"

namespace {

namespace image = chameleon::image;
using chameleon::util::Rng;
using image::Image;

constexpr int kSize = 64;
constexpr int kFaces = 16;

// A kernel's whole observable output as bytes, so one comparison covers
// every kernel: the noised image or composite plus the rng's next two
// draws, or the feature vector.
template <typename Input>
using Kernel = std::function<std::string(const Input&, const Rng&)>;

// An image's bytes followed by `rng`'s next NextGaussian and NextU64.
std::string ImageAndNextDraws(const Image& image, Rng* rng) {
  const double next_gaussian = rng->NextGaussian();
  const uint64_t next_u64 = rng->NextU64();
  std::string bytes(image.pixels().begin(), image.pixels().end());
  bytes.append(reinterpret_cast<const char*>(&next_gaussian),
               sizeof(next_gaussian));
  bytes.append(reinterpret_cast<const char*>(&next_u64), sizeof(next_u64));
  return bytes;
}

using NoiseFn = void (*)(Image*, double, Rng*);

// AddGaussianNoise over the whole image, as a NoiseFn.
void WholeImageNoise(Image* image, double stddev, Rng* rng) {
  image::AddGaussianNoise(image, stddev, rng);
}

Kernel<Image> Noise(NoiseFn noise, double stddev) {
  return [noise, stddev](const Image& input, const Rng& rng) {
    Image out = input;
    Rng stream = rng;
    noise(&out, stddev, &stream);
    return ImageAndNextDraws(out, &stream);
  };
}

using FeaturesFn = std::vector<double> (*)(const Image&);

Kernel<Image> Features(FeaturesFn features) {
  return [features](const Image& input, const Rng& /*rng*/) {
    const std::vector<double> raw = features(input);
    return std::string(reinterpret_cast<const char*>(raw.data()),
                       raw.size() * sizeof(double));
  };
}

// One guided query's render: a target face regenerated onto `guide`
// where `mask` is set, as SimulatedFoundationModel::Generate does.
struct GuidedRender {
  Image guide;
  Image mask;
  image::FaceStyle style;
  image::SceneStyle scene;
  image::RenderOptions options;
};

// The composite of a render onto the guide, rendering only the masked
// pixels (`keep_masked`) or the whole face.
Kernel<GuidedRender> Composite(bool keep_masked) {
  return [keep_masked](const GuidedRender& query, const Rng& rng) {
    Rng stream = rng;
    const Image render =
        image::RenderFace(query.style, query.scene, query.options, &stream,
                          keep_masked ? &query.mask : nullptr);
    return ImageAndNextDraws(
        image::CompositeWithMask(query.guide, render, query.mask), &stream);
  };
}

// `count` guided queries onto FERET-style guides of `guide_size` px under
// their moderate masks; every odd one renders with artifacts.
std::vector<GuidedRender> GuidedRenders(int guide_size, int count) {
  Rng rng(static_cast<uint64_t>(8000 + guide_size));
  const chameleon::fm::FaceStyleFn style_fn =
      chameleon::datasets::FeretFaceStyleFn();
  std::vector<GuidedRender> queries;
  for (const Image& guide :
       chameleon::bench::FeretStyleFaces(guide_size, count)) {
    GuidedRender query;
    query.guide = guide;
    query.mask = image::GenerateMask(guide, image::MaskLevel::kModerate);
    const int i = static_cast<int>(queries.size());
    query.style = style_fn({i % 2, (i + 3) % 5}, &rng);
    query.scene =
        image::JitterScene(chameleon::datasets::FeretScene(), 12.0, &rng);
    query.options.size = kSize;
    query.options.artifact_level = i % 2 == 1 ? 0.2 : 0.0;
    queries.push_back(std::move(query));
  }
  return queries;
}

// A gate case for `fast` beside `reference` over the inputs, each with
// its own rng: identical when every output matches bit for bit.
template <typename Input>
chameleon::bench::KernelCase MakeCase(std::string name, Kernel<Input> fast,
                                      Kernel<Input> reference,
                                      const std::vector<Input>* inputs,
                                      const std::vector<Rng>* rngs,
                                      double min_speedup) {
  chameleon::bench::KernelCase c;
  c.name = std::move(name);
  for (size_t i = 0; i < inputs->size(); ++i) {
    if (fast((*inputs)[i], (*rngs)[i]) !=
        reference((*inputs)[i], (*rngs)[i])) {
      c.identical = false;
    }
  }
  auto run_all = [inputs, rngs](Kernel<Input> kernel) {
    return [inputs, rngs, kernel] {
      size_t bytes = 0;
      for (size_t i = 0; i < inputs->size(); ++i) {
        bytes += kernel((*inputs)[i], (*rngs)[i]).size();
      }
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
  const int repetitions = smoke ? 40 : 200;

  const std::vector<Image> faces =
      chameleon::bench::FeretStyleFaces(kSize, kFaces);
  // One stream per face; every odd one starts with a cached spare.
  std::vector<Rng> rngs;
  for (int i = 0; i < kFaces; ++i) {
    Rng rng(7000 + i);
    if (i % 2 == 1) rng.NextGaussian();
    rngs.push_back(rng);
  }

  const std::vector<GuidedRender> guided_64 = GuidedRenders(kSize, kFaces);
  const std::vector<GuidedRender> guided_24 = GuidedRenders(24, kFaces);

  const std::vector<chameleon::bench::KernelCase> cases = {
      MakeCase(
          "add_gaussian_noise_s2", Noise(WholeImageNoise, 2.0),
          Noise(image::reference::AddGaussianNoise, 2.0), &faces, &rngs, 1.3),
      MakeCase("add_gaussian_noise_s18", Noise(WholeImageNoise, 18.0),
               Noise(image::reference::AddGaussianNoise, 18.0), &faces,
               &rngs, 1.3),
      MakeCase(
          "raw_features",
          Features(chameleon::embedding::SimulatedEmbedder::RawFeatures),
          Features(image::reference::RawFeatures), &faces, &rngs, 2.5),
      MakeCase("guided_render_64_moderate", Composite(true), Composite(false),
               &guided_64, &rngs, 1.05),
      MakeCase("guided_render_24", Composite(true), Composite(false),
               &guided_24, &rngs, 1.5),
  };

  std::printf("bench_render: %d FERET-style faces at %d px, %d repetitions\n",
              kFaces, kSize, repetitions);
  return chameleon::bench::RunKernelGate(
      "bench_render", cases, kFaces, repetitions, smoke,
      {{"size", std::to_string(kSize)}, {"faces", std::to_string(kFaces)}},
      argc, argv);
}
