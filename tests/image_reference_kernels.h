#ifndef CHAMELEON_TESTS_IMAGE_REFERENCE_KERNELS_H_
#define CHAMELEON_TESTS_IMAGE_REFERENCE_KERNELS_H_

// Naive reference copies of the image kernels on the guided-query path:
// a per-pixel clamped Gaussian blur, a disc-stamping dilation and a
// per-pixel foreground threshold with a vector-stack component search.
// The production kernels in src/image/ must match these byte for byte;
// image_test checks that on seeded random inputs and bench_masks times
// both side by side. Written for clarity, not speed.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/image/foreground.h"
#include "src/image/image.h"

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

}  // namespace chameleon::image::reference

#endif  // CHAMELEON_TESTS_IMAGE_REFERENCE_KERNELS_H_
