#ifndef CHAMELEON_TESTS_IMAGE_REFERENCE_KERNELS_H_
#define CHAMELEON_TESTS_IMAGE_REFERENCE_KERNELS_H_

// Naive reference copies of the image kernels on the guided-query path
// and behind every render and embedding: a per-pixel clamped Gaussian
// blur, a disc-stamping dilation, a per-pixel foreground threshold with a
// vector-stack component search, a per-byte Gaussian noise loop and the
// embedder's per-pixel raw features. The production kernels in
// src/image/ and src/embedding/ must match these to the last bit (and
// the noise must leave the rng in the same state); image_test and
// embedding_test check that on seeded random inputs, and bench_masks and
// bench_render time both side by side. Written for clarity, not speed.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/image/foreground.h"
#include "src/image/image.h"
#include "src/util/rng.h"

namespace chameleon::image::reference {

inline Image GaussianBlur(const Image& input, double sigma) {
  if (sigma <= 0.0 || input.empty()) return input;
  const int radius = std::max(1, static_cast<int>(std::ceil(3.0 * sigma)));
  std::vector<double> kernel(2 * radius + 1);
  double sum = 0.0;
  for (int i = -radius; i <= radius; ++i) {
    kernel[i + radius] = std::exp(-(i * i) / (2.0 * sigma * sigma));
    sum += kernel[i + radius];
  }
  for (double& k : kernel) k /= sum;

  const int w = input.width();
  const int h = input.height();
  const int ch = input.channels();
  std::vector<double> temp(static_cast<size_t>(w) * h * ch, 0.0);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      for (int c = 0; c < ch; ++c) {
        double acc = 0.0;
        for (int i = -radius; i <= radius; ++i) {
          const int sx = std::clamp(x + i, 0, w - 1);
          acc += kernel[i + radius] * input.at(sx, y, c);
        }
        temp[(static_cast<size_t>(y) * w + x) * ch + c] = acc;
      }
    }
  }
  Image out(w, h, ch);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      for (int c = 0; c < ch; ++c) {
        double acc = 0.0;
        for (int i = -radius; i <= radius; ++i) {
          const int sy = std::clamp(y + i, 0, h - 1);
          acc += kernel[i + radius] *
                 temp[(static_cast<size_t>(sy) * w + x) * ch + c];
        }
        out.at(x, y, c) = static_cast<uint8_t>(std::clamp(acc, 0.0, 255.0));
      }
    }
  }
  return out;
}

inline Image DilateDisc(const Image& mask, int radius) {
  if (radius <= 0) return mask;
  const int w = mask.width();
  const int h = mask.height();
  std::vector<std::pair<int, int>> offsets;
  for (int dy = -radius; dy <= radius; ++dy) {
    for (int dx = -radius; dx <= radius; ++dx) {
      if (dx * dx + dy * dy <= radius * radius) offsets.emplace_back(dx, dy);
    }
  }
  Image out(w, h, 1, 0);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      if (mask.at(x, y, 0) == 0) continue;
      for (const auto& [dx, dy] : offsets) {
        const int nx = x + dx;
        const int ny = y + dy;
        if (nx >= 0 && nx < w && ny >= 0 && ny < h) out.at(nx, ny, 0) = 255;
      }
    }
  }
  return out;
}

inline Image ExtractForeground(const Image& input,
                               const ForegroundOptions& options = {}) {
  const int w = input.width();
  const int h = input.height();
  Image mask(w, h, 1, 0);
  if (input.empty()) return mask;

  double bg_top[3] = {0, 0, 0};
  double bg_bottom[3] = {0, 0, 0};
  for (int c = 0; c < input.channels(); ++c) {
    double top_sum = 0.0;
    double bottom_sum = 0.0;
    for (int x = 0; x < w; ++x) {
      top_sum += input.at(x, 0, c);
      bottom_sum += input.at(x, h - 1, c);
    }
    bg_top[c] = top_sum / w;
    bg_bottom[c] = bottom_sum / w;
  }

  for (int y = 0; y < h; ++y) {
    const double t = h > 1 ? static_cast<double>(y) / (h - 1) : 0.0;
    for (int x = 0; x < w; ++x) {
      double dist = 0.0;
      for (int c = 0; c < input.channels(); ++c) {
        const double expected = bg_top[c] + t * (bg_bottom[c] - bg_top[c]);
        dist += std::fabs(input.at(x, y, c) - expected);
      }
      dist /= input.channels();
      if (dist > options.color_threshold) mask.at(x, y, 0) = 255;
    }
  }

  if (!options.largest_component_only) return mask;

  std::vector<int> label(static_cast<size_t>(w) * h, 0);
  int next_label = 0;
  int best_label = 0;
  int64_t best_size = 0;
  std::vector<int> queue;
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const int idx = y * w + x;
      if (mask.at(x, y, 0) == 0 || label[idx] != 0) continue;
      ++next_label;
      int64_t size = 0;
      queue.clear();
      queue.push_back(idx);
      label[idx] = next_label;
      while (!queue.empty()) {
        const int cur = queue.back();
        queue.pop_back();
        ++size;
        const int cy = cur / w;
        const int cx = cur % w;
        constexpr int kDx[] = {1, -1, 0, 0};
        constexpr int kDy[] = {0, 0, 1, -1};
        for (int dir = 0; dir < 4; ++dir) {
          const int nx = cx + kDx[dir];
          const int ny = cy + kDy[dir];
          if (nx < 0 || nx >= w || ny < 0 || ny >= h) continue;
          const int nidx = ny * w + nx;
          if (mask.at(nx, ny, 0) != 0 && label[nidx] == 0) {
            label[nidx] = next_label;
            queue.push_back(nidx);
          }
        }
      }
      if (size > best_size) {
        best_size = size;
        best_label = next_label;
      }
    }
  }
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      mask.at(x, y, 0) = label[y * w + x] == best_label && best_label != 0
                             ? 255
                             : 0;
    }
  }
  return mask;
}

inline void AddGaussianNoise(Image* image, double stddev, util::Rng* rng) {
  if (stddev <= 0.0) return;
  for (uint8_t& p : image->mutable_pixels()) {
    const double v = p + rng->NextGaussian(0.0, stddev);
    p = static_cast<uint8_t>(std::clamp(v, 0.0, 255.0));
  }
}

// SimulatedEmbedder::RawFeatures: 4x4 luminance grid, quadrant, global
// and border-band channel means, and gradient energy.
inline std::vector<double> RawFeatures(const Image& image) {
  constexpr int kGrid = 4;
  std::vector<double> features;
  features.reserve(38);

  // Downsampled luminance grid (area means).
  const int w = image.width();
  const int h = image.height();
  for (int gy = 0; gy < kGrid; ++gy) {
    const int y0 = gy * h / kGrid;
    const int y1 = (gy + 1) * h / kGrid;
    for (int gx = 0; gx < kGrid; ++gx) {
      const int x0 = gx * w / kGrid;
      const int x1 = (gx + 1) * w / kGrid;
      double sum = 0.0;
      int count = 0;
      for (int y = y0; y < y1; ++y) {
        for (int x = x0; x < x1; ++x) {
          sum += image.Luminance(x, y);
          ++count;
        }
      }
      features.push_back(count > 0 ? sum / (count * 255.0) : 0.0);
    }
  }

  // Per-quadrant channel means: coarse color composition.
  for (int qy = 0; qy < 2; ++qy) {
    for (int qx = 0; qx < 2; ++qx) {
      const int x0 = qx * w / 2;
      const int x1 = (qx + 1) * w / 2;
      const int y0 = qy * h / 2;
      const int y1 = (qy + 1) * h / 2;
      double sums[3] = {0, 0, 0};
      int64_t count = 0;
      for (int y = y0; y < y1; ++y) {
        for (int x = x0; x < x1; ++x) {
          for (int c = 0; c < 3; ++c) {
            sums[c] += image.at(x, y, image.channels() == 3 ? c : 0);
          }
          ++count;
        }
      }
      for (double s : sums) {
        features.push_back(count > 0 ? s / (count * 255.0) : 0.0);
      }
    }
  }

  // Global channel means.
  double channel_sum[3] = {0, 0, 0};
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      for (int c = 0; c < 3; ++c) {
        channel_sum[c] += image.at(x, y, image.channels() == 3 ? c : 0);
      }
    }
  }
  for (double s : channel_sum) {
    features.push_back(s / (static_cast<double>(w) * h * 255.0));
  }

  // Border bands (top 10% and bottom 10% rows): the context signature.
  const int band = std::max(1, h / 10);
  auto band_means = [&](int y_start, int y_end) {
    double sums[3] = {0, 0, 0};
    int64_t count = 0;
    for (int y = y_start; y < y_end; ++y) {
      for (int x = 0; x < w; ++x) {
        for (int c = 0; c < 3; ++c) {
          sums[c] += image.at(x, y, image.channels() == 3 ? c : 0);
        }
        ++count;
      }
    }
    for (double s : sums) {
      features.push_back(count > 0 ? s / (count * 255.0) : 0.0);
    }
  };
  band_means(0, band);
  band_means(h - band, h);

  // Gradient energy: texture signature.
  double grad = 0.0;
  for (int y = 0; y < h - 1; ++y) {
    for (int x = 0; x < w - 1; ++x) {
      grad += std::fabs(image.Luminance(x + 1, y) - image.Luminance(x, y)) +
              std::fabs(image.Luminance(x, y + 1) - image.Luminance(x, y));
    }
  }
  features.push_back(grad / (static_cast<double>(w) * h * 255.0));

  return features;
}

}  // namespace chameleon::image::reference

#endif  // CHAMELEON_TESTS_IMAGE_REFERENCE_KERNELS_H_
