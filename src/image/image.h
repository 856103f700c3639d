#ifndef CHAMELEON_IMAGE_IMAGE_H_
#define CHAMELEON_IMAGE_IMAGE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace chameleon::image {

/// 8-bit raster with 1 (grayscale) or 3 (RGB) channels, row-major,
/// interleaved. The multi-modal payload of a tuple in this library.
class Image {
 public:
  Image() = default;
  Image(int width, int height, int channels, uint8_t fill = 0)
      : width_(width),
        height_(height),
        channels_(channels),
        pixels_(static_cast<size_t>(width) * height * channels, fill) {}

  int width() const { return width_; }
  int height() const { return height_; }
  int channels() const { return channels_; }
  bool empty() const { return pixels_.empty(); }

  uint8_t& at(int x, int y, int c = 0) {
    return pixels_[(static_cast<size_t>(y) * width_ + x) * channels_ + c];
  }
  uint8_t at(int x, int y, int c = 0) const {
    return pixels_[(static_cast<size_t>(y) * width_ + x) * channels_ + c];
  }

  bool InBounds(int x, int y) const {
    return x >= 0 && x < width_ && y >= 0 && y < height_;
  }

  const std::vector<uint8_t>& pixels() const { return pixels_; }
  std::vector<uint8_t>& mutable_pixels() { return pixels_; }

  /// Sets all channels at (x, y); no-op out of bounds.
  void SetPixel(int x, int y, uint8_t r, uint8_t g, uint8_t b);
  void SetPixel(int x, int y, uint8_t gray);

  /// Luminance in [0, 255] (BT.601 weights for RGB).
  double Luminance(int x, int y) const;

  /// Grayscale copy (1 channel).
  Image ToGrayscale() const;

  /// Nearest-neighbor resize.
  Image Resized(int new_width, int new_height) const;

  /// Fraction of pixels that are non-zero in channel 0 (mask coverage).
  double NonZeroFraction() const;

  bool operator==(const Image& other) const {
    return width_ == other.width_ && height_ == other.height_ &&
           channels_ == other.channels_ && pixels_ == other.pixels_;
  }

 private:
  int width_ = 0;
  int height_ = 0;
  int channels_ = 0;
  std::vector<uint8_t> pixels_;
};

/// Composites `fg` over `bg` where `mask` is non-zero: out has `bg`'s
/// size and channels, and each pixel (x, y) of it is fg's (x, y) where
/// mask's channel 0 at (x, y) is non-zero, else bg's. `fg` and `mask` are
/// read at bg's (x, y) and must be at least as large; nothing checks that
/// they share bg's dimensions. chameleond's simulator composites its 64 px
/// render onto smaller guides this way (ROADMAP item 1). Only fg's pixels
/// under a non-zero mask are read, so a guided render passes the same
/// mask to RenderFace as its keep mask and computes nothing else.
Image CompositeWithMask(const Image& bg, const Image& fg, const Image& mask);

}  // namespace chameleon::image

#endif  // CHAMELEON_IMAGE_IMAGE_H_
