#include "src/image/filter.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace chameleon::image {

namespace {

// Columns [begin, end) of one image row; empty when begin >= end.
struct Span {
  int begin = 0;
  int end = 0;
};

// For each row of a width x height image, one column span that holds
// every pixel `keep` keeps in that row: the mask's first to last non-zero
// column over the rows within `grow`, widened by `grow`. A superset where
// the mask has holes, which a filter may compute anyway.
std::vector<Span> KeptSpans(const KeepRegion& keep, int width, int height) {
  std::vector<Span> spans(height, Span{0, width});
  if (keep.mask == nullptr) return spans;
  const Image& mask = *keep.mask;
  const int mask_width = std::min(width, mask.width());
  std::vector<Span> own(height);
  for (int y = 0; y < std::min(height, mask.height()); ++y) {
    int begin = 0;
    while (begin < mask_width && mask.at(begin, y, 0) == 0) ++begin;
    int end = mask_width;
    while (end > begin && mask.at(end - 1, y, 0) == 0) --end;
    own[y] = Span{begin, end};
  }
  const int grow = std::max(0, keep.grow);
  for (int y = 0; y < height; ++y) {
    Span span{width, 0};
    for (int sy = std::max(0, y - grow); sy <= std::min(height - 1, y + grow);
         ++sy) {
      if (own[sy].begin >= own[sy].end) continue;
      span.begin = std::min(span.begin, own[sy].begin);
      span.end = std::max(span.end, own[sy].end);
    }
    spans[y] = span.begin < span.end
                   ? Span{std::max(0, span.begin - grow),
                          std::min(width, span.end + grow)}
                   : Span{};
  }
  return spans;
}

}  // namespace

int BlurRadius(double sigma) {
  if (sigma <= 0.0) return 0;
  return std::max(1, static_cast<int>(std::ceil(3.0 * sigma)));
}

Image GaussianBlur(const Image& input, double sigma, const KeepRegion& keep) {
  if (sigma <= 0.0 || input.empty()) return input;
  const int radius = BlurRadius(sigma);
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
  // The vertical pass writes the kept pixels and reads the horizontal
  // pass's output up to `radius` rows away in the same column, so the
  // horizontal pass covers the keep region grown by the radius.
  const std::vector<Span> kept = KeptSpans(keep, w, h);
  const std::vector<Span> needed =
      KeptSpans(KeepRegion{keep.mask, keep.grow + radius}, w, h);

  // Both passes run tap by tap over row spans, so every output still sums
  // kernel[i] * sample in tap order (i = -radius..radius), in double, with
  // the sample index clamped to the image: byte-identical to the per-pixel
  // loop, but the inner loops read one contiguous row. Only the columns
  // whose tap leaves the image pay for std::clamp.
  std::vector<double> temp(row * h, 0.0);
  std::vector<double> samples(row);
  for (int y = 0; y < h; ++y) {
    const auto [begin, end] = needed[y];
    if (begin >= end) continue;
    const uint8_t* pixels = input.pixels().data() + y * row;
    std::copy(pixels, pixels + row, samples.begin());
    const double* in = samples.data();
    double* acc = temp.data() + y * row;
    for (int i = -radius; i <= radius; ++i) {
      const double k = kernel[i + radius];
      // Columns [lo, hi) of the span read in-range column x + i.
      const int lo = std::clamp(-i, begin, end);
      const int hi = std::clamp(w - i, lo, end);
      auto border = [&](int x) {
        const double* src = in + std::clamp(x + i, 0, w - 1) * ch;
        for (int c = 0; c < ch; ++c) acc[x * ch + c] += k * src[c];
      };
      for (int x = begin; x < lo; ++x) border(x);
      const int shift = i * ch;
      for (int j = lo * ch; j < hi * ch; ++j) acc[j] += k * in[j + shift];
      for (int x = hi; x < end; ++x) border(x);
    }
  }
  Image out(w, h, ch);
  std::vector<double> acc(row);
  for (int y = 0; y < h; ++y) {
    const size_t begin = static_cast<size_t>(kept[y].begin) * ch;
    const size_t end = static_cast<size_t>(kept[y].end) * ch;
    if (begin >= end) continue;
    std::fill(acc.begin() + begin, acc.begin() + end, 0.0);
    for (int i = -radius; i <= radius; ++i) {
      const double k = kernel[i + radius];
      const double* src = temp.data() + std::clamp(y + i, 0, h - 1) * row;
      for (size_t j = begin; j < end; ++j) acc[j] += k * src[j];
    }
    uint8_t* dst = out.mutable_pixels().data() + y * row;
    for (size_t j = begin; j < end; ++j) {
      dst[j] = static_cast<uint8_t>(std::clamp(acc[j], 0.0, 255.0));
    }
  }
  return out;
}

namespace {

// cos and sin of 2 * M_PI * j / kAngleSteps for j = 0..kAngleSteps, the
// read-only table behind AddGaussianNoise's angles.
constexpr int kAngleSteps = 1024;

struct AngleTable {
  double cos[kAngleSteps + 1];
  double sin[kAngleSteps + 1];
};

const AngleTable& Angles() {
  static const AngleTable table = [] {
    AngleTable t;
    for (int j = 0; j <= kAngleSteps; ++j) {
      const double angle =
          2.0 * M_PI * (static_cast<double>(j) / kAngleSteps);
      t.cos[j] = std::cos(angle);
      t.sin[j] = std::sin(angle);
    }
    return t;
  }();
  return table;
}

// cos and sin of 2 * M_PI * u2 for u2 in [0, 1), within about 1e-15: the
// nearest table angle j, plus angle addition over the residual |delta| <=
// M_PI / 1024, whose Taylor series stop where the next term is < 1e-17.
// u2 * 1024, its nearest integer and the residual t - j are exact.
void ApproxCosSin(const AngleTable& table, double u2, double* cosine,
                  double* sine) {
  const double t = u2 * kAngleSteps;
  const int j = static_cast<int>(t + 0.5);
  const double delta = (t - j) * (2.0 * M_PI / kAngleSteps);
  const double d2 = delta * delta;
  const double cos_delta_m1 = d2 * (-0.5 + d2 * (1.0 / 24.0));
  const double sin_delta =
      delta * (1.0 + d2 * (-1.0 / 6.0 + d2 * (1.0 / 120.0)));
  *cosine = table.cos[j] + (table.cos[j] * cos_delta_m1 -
                            table.sin[j] * sin_delta);
  *sine = table.sin[j] + (table.sin[j] * cos_delta_m1 +
                          table.cos[j] * sin_delta);
}

// The byte of a noisy value v, clamped to [0, 255] and truncated: a
// non-decreasing function of v.
uint8_t ClampByte(double v) {
  return static_cast<uint8_t>(std::clamp(v, 0.0, 255.0));
}

// The per-byte loop's byte for pixel p and exact normal n. Its noise is
// rng->NextGaussian(0.0, stddev) = 0.0 + stddev * n, spelled the same
// way here so that a build contracting multiply-adds treats both alike.
uint8_t LoopByte(uint8_t p, double stddev, double n) {
  return ClampByte(p + (0.0 + stddev * n));
}

}  // namespace

void AddGaussianNoise(Image* image, double stddev, util::Rng* rng,
                      const KeepRegion& keep) {
  if (stddev <= 0.0) return;
  // Byte-identical to the per-byte loop
  //   p = clamp(p + rng->NextGaussian(0.0, stddev), 0, 255)
  // and leaves rng exactly as it would (DESIGN.md §11, "Render and
  // embedding cost"). Each pair draws NextGaussian's uniforms and its
  // exact radius, but reads cos/sin from ApproxCosSin, so the approximate
  // normal n' is within 1e-13 of the exact n. The byte is monotone in
  // v = p + stddev * n, so when v' -/+ margin give the same byte, v gives
  // it too; the margin is 1e-9 times (1 + stddev), far above the error.
  // Otherwise, and for a sine left as the spare, the exact BoxMullerPair
  // decides. A pair with no kept byte draws its uniforms and nothing else.
  uint8_t* const pixels = image->mutable_pixels().data();
  uint8_t* const end = pixels + image->mutable_pixels().size();
  uint8_t* p = pixels;
  double spare = 0.0;
  if (p != end && rng->TakeGaussianSpare(&spare)) {
    *p = LoopByte(*p, stddev, spare);
    ++p;
  }
  const AngleTable& table = Angles();
  const double margin = 1e-9 * (1.0 + stddev);
  double u1 = 0.0;
  double u2 = 0.0;
  // Noises every pair from p on that starts before `stop`; a last single
  // byte leaves its pair's sine as the spare.
  auto noise_until = [&](const uint8_t* stop) {
    while (p < stop) {
      rng->NextGaussianUniforms(&u1, &u2);
      const double radius = util::BoxMullerRadius(u1);
      double approx[2] = {0.0, 0.0};
      ApproxCosSin(table, u2, &approx[0], &approx[1]);
      const int count = end - p >= 2 ? 2 : 1;
      double exact[2] = {0.0, 0.0};
      for (int k = 0; k < count; ++k) {
        const double v = p[k] + stddev * (radius * approx[k]);
        const uint8_t low = ClampByte(v - margin);
        if (low == ClampByte(v + margin)) {
          p[k] = low;
        } else {
          util::BoxMullerPair(radius, u2, &exact[0], &exact[1]);
          p[k] = LoopByte(p[k], stddev, exact[k]);
        }
      }
      if (count == 1) {
        util::BoxMullerPair(radius, u2, &exact[0], &exact[1]);
        rng->SetGaussianSpare(exact[1]);
      }
      p += count;
    }
  };
  // Draws the uniforms of every pair from p on that ends before `stop`.
  auto skip_until = [&](const uint8_t* stop) {
    while (stop - p >= 2) {
      rng->NextGaussianUniforms(&u1, &u2);
      p += 2;
    }
  };
  const int ch = image->channels();
  const size_t row = static_cast<size_t>(image->width()) * ch;
  const std::vector<Span> kept =
      KeptSpans(keep, image->width(), image->height());
  for (int y = 0; y < image->height(); ++y) {
    if (kept[y].begin >= kept[y].end) continue;
    uint8_t* const row_pixels = pixels + y * row;
    skip_until(row_pixels + kept[y].begin * ch);
    noise_until(row_pixels + kept[y].end * ch);
  }
  skip_until(end);
  noise_until(end);
}

void AddBanding(Image* image, int period, double amplitude,
                const KeepRegion& keep) {
  if (period <= 0 || amplitude <= 0.0) return;
  const std::vector<Span> kept =
      KeptSpans(keep, image->width(), image->height());
  for (int y = 0; y < image->height(); ++y) {
    if ((y / period) % 2 == 0) continue;
    for (int x = kept[y].begin; x < kept[y].end; ++x) {
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
