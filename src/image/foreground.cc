#include "src/image/foreground.h"

#include <cmath>
#include <cstdint>
#include <vector>

namespace chameleon::image {

Image ExtractForeground(const Image& input, const ForegroundOptions& options) {
  const int w = input.width();
  const int h = input.height();
  const int ch = input.channels();
  Image mask(w, h, 1, 0);
  if (input.empty()) return mask;
  const size_t row = static_cast<size_t>(w) * ch;
  const uint8_t* pixels = input.pixels().data();

  // The synthetic scenes use vertical gradients, so compare against the
  // row-interpolated background: top-row mean blended towards the
  // bottom-row mean.
  double bg_top[3] = {0, 0, 0};
  double bg_bottom[3] = {0, 0, 0};
  const uint8_t* top = pixels;
  const uint8_t* bottom = pixels + (h - 1) * row;
  for (int c = 0; c < ch; ++c) {
    double top_sum = 0.0;
    double bottom_sum = 0.0;
    for (int x = 0; x < w; ++x) {
      top_sum += top[x * ch + c];
      bottom_sum += bottom[x * ch + c];
    }
    bg_top[c] = top_sum / w;
    bg_bottom[c] = bottom_sum / w;
  }

  uint8_t* out = mask.mutable_pixels().data();
  for (int y = 0; y < h; ++y) {
    const double t = h > 1 ? static_cast<double>(y) / (h - 1) : 0.0;
    double expected[3] = {0, 0, 0};
    for (int c = 0; c < ch; ++c) {
      expected[c] = bg_top[c] + t * (bg_bottom[c] - bg_top[c]);
    }
    const uint8_t* in = pixels + y * row;
    uint8_t* o = out + static_cast<size_t>(y) * w;
    for (int x = 0; x < w; ++x) {
      double dist = 0.0;
      for (int c = 0; c < ch; ++c) {
        dist += std::fabs(in[x * ch + c] - expected[c]);
      }
      dist /= ch;
      if (dist > options.color_threshold) o[x] = 255;
    }
  }

  if (!options.largest_component_only) return mask;

  // Largest 4-connected component by breadth-first search over a flat
  // queue. `label` pads the image with a one-pixel frame and starts at -1
  // on the frame and on background pixels, 0 on unvisited foreground, so
  // the search needs no bounds checks. Components are found in raster
  // order of their first pixel and a later one must be strictly larger
  // to win, so of equal-size components the first found is kept.
  const int stride = w + 2;
  std::vector<int> label(static_cast<size_t>(stride) * (h + 2), -1);
  for (int y = 0; y < h; ++y) {
    const uint8_t* o = out + static_cast<size_t>(y) * w;
    int* l = label.data() + static_cast<size_t>(y + 1) * stride + 1;
    for (int x = 0; x < w; ++x) l[x] = o[x] != 0 ? 0 : -1;
  }
  std::vector<int> queue(static_cast<size_t>(w) * h);
  int next_label = 0;
  int best_label = 0;
  int best_size = 0;
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const int start = (y + 1) * stride + x + 1;
      if (label[start] != 0) continue;
      ++next_label;
      int head = 0;
      int tail = 0;
      label[start] = next_label;
      queue[tail++] = start;
      while (head < tail) {
        const int cur = queue[head++];
        for (int next : {cur + 1, cur - 1, cur + stride, cur - stride}) {
          if (label[next] == 0) {
            label[next] = next_label;
            queue[tail++] = next;
          }
        }
      }
      if (tail > best_size) {
        best_size = tail;
        best_label = next_label;
      }
    }
  }
  for (int y = 0; y < h; ++y) {
    uint8_t* o = out + static_cast<size_t>(y) * w;
    const int* l = label.data() + static_cast<size_t>(y + 1) * stride + 1;
    for (int x = 0; x < w; ++x) o[x] = l[x] == best_label ? 255 : 0;
  }
  return mask;
}

bool MaskBoundingBox(const Image& mask, int* x0, int* y0, int* x1, int* y1) {
  *x0 = mask.width();
  *y0 = mask.height();
  *x1 = -1;
  *y1 = -1;
  for (int y = 0; y < mask.height(); ++y) {
    for (int x = 0; x < mask.width(); ++x) {
      if (mask.at(x, y, 0) == 0) continue;
      if (x < *x0) *x0 = x;
      if (y < *y0) *y0 = y;
      if (x > *x1) *x1 = x;
      if (y > *y1) *y1 = y;
    }
  }
  return *x1 >= *x0 && *y1 >= *y0;
}

}  // namespace chameleon::image
