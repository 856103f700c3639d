// Cost of the two pixel kernels every simulated query pays (DESIGN.md
// §11, "Render and embedding cost"): AddGaussianNoise, the sensor grain
// of every RenderFace (sigma 2) and the artifact noise of low-realism
// renders (sigma 18 at artifact level 1), and
// SimulatedEmbedder::RawFeatures, the features behind every embedding. Each is timed beside the per-byte or
// per-pixel reference copy in tests/image_reference_kernels.h, in this
// process.
//
// Inputs are FERET-style 64 px portraits, each noised from its own seeded
// rng. Fast and reference timings alternate repetition by repetition, so
// host drift hits both sides of each ratio alike.
//
// The binary self-checks the kernels' contract and exits 1 unless every
// fast output equals the reference output bit for bit (for the noise:
// the bytes, and the rng's next NextGaussian and NextU64) and each kernel
// keeps its in-process speedup floor over the reference (medians over
// repetitions): noise 1.3x, features 2.5x. The floors sit well under the
// 1.5-1.9x and 4.6-5.3x measured on a 4-vCPU Xeon VM, and unlike
// absolute ns they hold when the host slows.
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
#include "src/image/filter.h"
#include "src/util/rng.h"
#include "tests/image_reference_kernels.h"

namespace {

namespace image = chameleon::image;
using chameleon::util::Rng;
using image::Image;

constexpr int kSize = 64;
constexpr int kFaces = 16;

// A kernel's whole observable output as bytes, so one comparison covers
// both kernels: the noised image plus the rng's next two draws, or the
// feature vector.
using Kernel = std::function<std::string(const Image&, const Rng&)>;

using NoiseFn = void (*)(Image*, double, Rng*);

Kernel Noise(NoiseFn noise, double stddev) {
  return [noise, stddev](const Image& input, const Rng& rng) {
    Image out = input;
    Rng stream = rng;
    noise(&out, stddev, &stream);
    const double next_gaussian = stream.NextGaussian();
    const uint64_t next_u64 = stream.NextU64();
    std::string bytes(out.pixels().begin(), out.pixels().end());
    bytes.append(reinterpret_cast<const char*>(&next_gaussian),
                 sizeof(next_gaussian));
    bytes.append(reinterpret_cast<const char*>(&next_u64), sizeof(next_u64));
    return bytes;
  };
}

using FeaturesFn = std::vector<double> (*)(const Image&);

Kernel Features(FeaturesFn features) {
  return [features](const Image& input, const Rng& /*rng*/) {
    const std::vector<double> raw = features(input);
    return std::string(reinterpret_cast<const char*>(raw.data()),
                       raw.size() * sizeof(double));
  };
}

// A gate case for `fast` beside `reference` over the faces, each with
// its own rng: identical when every output matches bit for bit.
chameleon::bench::KernelCase MakeCase(std::string name, Kernel fast,
                                      Kernel reference,
                                      const std::vector<Image>* inputs,
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
  auto run_all = [inputs, rngs](Kernel kernel) {
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

  const std::vector<chameleon::bench::KernelCase> cases = {
      MakeCase("add_gaussian_noise_s2", Noise(image::AddGaussianNoise, 2.0),
               Noise(image::reference::AddGaussianNoise, 2.0), &faces, &rngs,
               1.3),
      MakeCase("add_gaussian_noise_s18", Noise(image::AddGaussianNoise, 18.0),
               Noise(image::reference::AddGaussianNoise, 18.0), &faces,
               &rngs, 1.3),
      MakeCase("raw_features",
               Features(chameleon::embedding::SimulatedEmbedder::RawFeatures),
               Features(image::reference::RawFeatures), &faces, &rngs, 2.5),
  };

  std::printf("bench_render: %d FERET-style faces at %d px, %d repetitions\n",
              kFaces, kSize, repetitions);
  return chameleon::bench::RunKernelGate(
      "bench_render", cases, kFaces, repetitions, smoke,
      {{"size", std::to_string(kSize)}, {"faces", std::to_string(kFaces)}},
      argc, argv);
}
