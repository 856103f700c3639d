#include "src/image/filter.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace chameleon::image {

Image GaussianBlur(const Image& input, double sigma) {
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
  const size_t row = static_cast<size_t>(w) * ch;

  // Both passes run tap by tap over whole rows, so every output still sums
  // kernel[i] * sample in tap order (i = -radius..radius), in double, with
  // the sample index clamped to the image: byte-identical to the per-pixel
  // loop, but the inner loops read one contiguous row. Only the columns
  // whose tap leaves the image pay for std::clamp.
  std::vector<double> temp(row * h, 0.0);
  std::vector<double> samples(row);
  for (int y = 0; y < h; ++y) {
    const uint8_t* pixels = input.pixels().data() + y * row;
    std::copy(pixels, pixels + row, samples.begin());
    const double* in = samples.data();
    double* acc = temp.data() + y * row;
    for (int i = -radius; i <= radius; ++i) {
      const double k = kernel[i + radius];
      // Columns [lo, hi) read in-range column x + i.
      const int lo = std::clamp(-i, 0, w);
      const int hi = std::max(lo, std::min(w, w - i));
      auto border = [&](int x) {
        const double* src = in + std::clamp(x + i, 0, w - 1) * ch;
        for (int c = 0; c < ch; ++c) acc[x * ch + c] += k * src[c];
      };
      for (int x = 0; x < lo; ++x) border(x);
      const int shift = i * ch;
      for (int j = lo * ch; j < hi * ch; ++j) acc[j] += k * in[j + shift];
      for (int x = hi; x < w; ++x) border(x);
    }
  }
  Image out(w, h, ch);
  std::vector<double> acc(row);
  for (int y = 0; y < h; ++y) {
    std::fill(acc.begin(), acc.end(), 0.0);
    for (int i = -radius; i <= radius; ++i) {
      const double k = kernel[i + radius];
      const double* src = temp.data() + std::clamp(y + i, 0, h - 1) * row;
      for (size_t j = 0; j < row; ++j) acc[j] += k * src[j];
    }
    uint8_t* dst = out.mutable_pixels().data() + y * row;
    for (size_t j = 0; j < row; ++j) {
      dst[j] = static_cast<uint8_t>(std::clamp(acc[j], 0.0, 255.0));
    }
  }
  return out;
}

void AddGaussianNoise(Image* image, double stddev, util::Rng* rng) {
  if (stddev <= 0.0) return;
  for (uint8_t& p : image->mutable_pixels()) {
    const double v = p + rng->NextGaussian(0.0, stddev);
    p = static_cast<uint8_t>(std::clamp(v, 0.0, 255.0));
  }
}

void AddBanding(Image* image, int period, double amplitude) {
  if (period <= 0 || amplitude <= 0.0) return;
  for (int y = 0; y < image->height(); ++y) {
    if ((y / period) % 2 == 0) continue;
    for (int x = 0; x < image->width(); ++x) {
      for (int c = 0; c < image->channels(); ++c) {
        const double v = image->at(x, y, c) + amplitude;
        image->at(x, y, c) = static_cast<uint8_t>(std::clamp(v, 0.0, 255.0));
      }
    }
  }
}

Image DilateDisc(const Image& mask, int radius) {
  if (radius <= 0) return mask;
  const int w = mask.width();
  const int h = mask.height();
  const int ch = mask.channels();
  Image out(w, h, 1, 0);
  if (out.empty()) return out;
  // Any two pixels are less than w + h apart, so a larger disc covers no
  // more.
  const int r = std::min(radius, w + h);

  // Row pass: dx = distance to the nearest foreground pixel in the same
  // row, capped at r + 1 (too far for any disc).
  std::vector<int> dx(static_cast<size_t>(w) * h);
  for (int y = 0; y < h; ++y) {
    const uint8_t* in = mask.pixels().data() + static_cast<size_t>(y) * w * ch;
    int* d = dx.data() + static_cast<size_t>(y) * w;
    int run = r + 1;
    for (int x = 0; x < w; ++x) {
      run = in[x * ch] != 0 ? 0 : std::min(run + 1, r + 1);
      d[x] = run;
    }
    run = r + 1;
    for (int x = w - 1; x >= 0; --x) {
      run = in[x * ch] != 0 ? 0 : std::min(run + 1, r + 1);
      d[x] = std::min(d[x], run);
    }
  }

  // Column pass: (x, y) is set iff some row y + dy holds a foreground
  // pixel with dx^2 + dy^2 <= r^2, i.e. dx <= reach[|dy|], the widest
  // half-chord of the disc at that height. The same test as stamping the
  // disc on every foreground pixel, in O(w * h * min(2r + 1, h)).
  std::vector<int> reach(r + 1);
  const int64_t r2 = static_cast<int64_t>(r) * r;
  for (int k = 0, m = r; k <= r; ++k) {
    while (static_cast<int64_t>(m) * m + static_cast<int64_t>(k) * k > r2) --m;
    reach[k] = m;
  }
  for (int y = 0; y < h; ++y) {
    uint8_t* o = out.mutable_pixels().data() + static_cast<size_t>(y) * w;
    for (int sy = std::max(0, y - r); sy <= std::min(h - 1, y + r); ++sy) {
      const int limit = reach[std::abs(sy - y)];
      const int* d = dx.data() + static_cast<size_t>(sy) * w;
      for (int x = 0; x < w; ++x) o[x] |= d[x] <= limit ? 255 : 0;
    }
  }
  return out;
}

double MeanAbsoluteDifference(const Image& a, const Image& b) {
  double sum = 0.0;
  for (int y = 0; y < a.height(); ++y) {
    for (int x = 0; x < a.width(); ++x) {
      sum += std::fabs(a.Luminance(x, y) - b.Luminance(x, y));
    }
  }
  return sum / (static_cast<double>(a.width()) * a.height());
}

}  // namespace chameleon::image
