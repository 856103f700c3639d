#include "src/embedding/simulated_embedder.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "src/util/rng.h"

namespace chameleon::embedding {
namespace {

// Downsampled luminance grid side. Deliberately coarse: each cell mixes
// subject and backdrop, so photographic context dominates the embedding
// and subject identity (e.g. skin tone) contributes a diluted signal —
// matching the behaviour of generic CNN embeddings on portraits.
constexpr int kGrid = 4;
// 16 luminance cells + 12 per-quadrant channel means + 3 global channel
// means + 6 border-band channel means + 1 gradient energy.
constexpr int kRawDim = kGrid * kGrid + 12 + 3 + 6 + 1;

}  // namespace

int SimulatedEmbedder::raw_dim() { return kRawDim; }

SimulatedEmbedder::SimulatedEmbedder(int dim, uint64_t seed) : dim_(dim) {
  util::Rng rng(seed);
  projection_ = linalg::Matrix(dim, kRawDim);
  const double scale = 1.0 / std::sqrt(static_cast<double>(kRawDim));
  for (int r = 0; r < dim; ++r) {
    for (int c = 0; c < kRawDim; ++c) {
      projection_.at(r, c) = rng.NextGaussian(0.0, scale);
    }
  }
}

std::vector<double> SimulatedEmbedder::RawFeatures(const image::Image& image) {
  // Equal to the per-pixel loops over Image::at and Image::Luminance, to
  // the last bit (DESIGN.md §11, "Render and embedding cost"): the
  // luminance plane uses Luminance's expression, each double sum adds the
  // same terms in the same order, and the channel sums are integers below
  // 2^53, which int64 and the per-pixel double accumulators both hold
  // exactly.
  const int w = image.width();
  const int h = image.height();
  const int ch = image.channels();
  const uint8_t* pixels = image.pixels().data();

  // One pass: the luminance plane, and per row the channel sums of the
  // left half [0, w/2) and the right half [w/2, w).
  const int half_w = w / 2;
  std::vector<double> lum(static_cast<size_t>(w) * h);
  std::vector<int64_t> row_sums(static_cast<size_t>(h) * 6, 0);
  for (int y = 0; y < h; ++y) {
    const uint8_t* row = pixels + static_cast<size_t>(y) * w * ch;
    double* lum_row = lum.data() + static_cast<size_t>(y) * w;
    int64_t* sums = row_sums.data() + static_cast<size_t>(y) * 6;
    for (int half = 0; half < 2; ++half) {
      int64_t* acc = sums + 3 * half;
      for (int x = half == 0 ? 0 : half_w; x < (half == 0 ? half_w : w);
           ++x) {
        const uint8_t* px = row + static_cast<size_t>(x) * ch;
        lum_row[x] = ch == 1 ? px[0]
                             : 0.299 * px[0] + 0.587 * px[1] + 0.114 * px[2];
        for (int c = 0; c < 3; ++c) acc[c] += px[ch == 3 ? c : 0];
      }
    }
  }
  // Channel sums of rows [y0, y1) over the left and/or the right half.
  auto channel_sums = [&](int y0, int y1, bool left, bool right,
                          int64_t out[3]) {
    out[0] = out[1] = out[2] = 0;
    for (int y = y0; y < y1; ++y) {
      const int64_t* sums = row_sums.data() + static_cast<size_t>(y) * 6;
      for (int c = 0; c < 3; ++c) {
        out[c] += (left ? sums[c] : 0) + (right ? sums[3 + c] : 0);
      }
    }
  };

  std::vector<double> features;
  features.reserve(kRawDim);

  // Downsampled luminance grid (area means).
  for (int gy = 0; gy < kGrid; ++gy) {
    const int y0 = gy * h / kGrid;
    const int y1 = (gy + 1) * h / kGrid;
    for (int gx = 0; gx < kGrid; ++gx) {
      const int x0 = gx * w / kGrid;
      const int x1 = (gx + 1) * w / kGrid;
      double sum = 0.0;
      for (int y = y0; y < y1; ++y) {
        const double* lum_row = lum.data() + static_cast<size_t>(y) * w;
        for (int x = x0; x < x1; ++x) sum += lum_row[x];
      }
      const int count = (y1 - y0) * (x1 - x0);
      features.push_back(count > 0 ? sum / (count * 255.0) : 0.0);
    }
  }

  // Per-quadrant channel means: coarse color composition.
  int64_t sums[3] = {0, 0, 0};
  for (int qy = 0; qy < 2; ++qy) {
    for (int qx = 0; qx < 2; ++qx) {
      const int y0 = qy * h / 2;
      const int y1 = (qy + 1) * h / 2;
      channel_sums(y0, y1, qx == 0, qx == 1, sums);
      const int64_t count = static_cast<int64_t>(y1 - y0) *
                            (qx == 0 ? half_w : w - half_w);
      for (int64_t s : sums) {
        features.push_back(
            count > 0 ? static_cast<double>(s) / (count * 255.0) : 0.0);
      }
    }
  }

  // Global channel means.
  channel_sums(0, h, true, true, sums);
  for (int64_t s : sums) {
    features.push_back(static_cast<double>(s) /
                       (static_cast<double>(w) * h * 255.0));
  }

  // Border bands (top 10% and bottom 10% rows): the context signature.
  const int band = std::max(1, h / 10);
  for (const int y_start : {0, h - band}) {
    channel_sums(y_start, y_start + band, true, true, sums);
    const int64_t count = static_cast<int64_t>(band) * w;
    for (int64_t s : sums) {
      features.push_back(
          count > 0 ? static_cast<double>(s) / (count * 255.0) : 0.0);
    }
  }

  // Gradient energy: texture signature.
  double grad = 0.0;
  for (int y = 0; y < h - 1; ++y) {
    const double* lum_row = lum.data() + static_cast<size_t>(y) * w;
    const double* next_row = lum_row + w;
    for (int x = 0; x < w - 1; ++x) {
      grad += std::fabs(lum_row[x + 1] - lum_row[x]) +
              std::fabs(next_row[x] - lum_row[x]);
    }
  }
  features.push_back(grad / (static_cast<double>(w) * h * 255.0));

  return features;
}

std::vector<double> SimulatedEmbedder::Embed(const image::Image& image) const {
  return projection_.Multiply(RawFeatures(image));
}

}  // namespace chameleon::embedding
