#ifndef CHAMELEON_IMAGE_FILTER_H_
#define CHAMELEON_IMAGE_FILTER_H_

#include "src/image/image.h"
#include "src/util/rng.h"

namespace chameleon::image {

/// The pixels of an image that a caller keeps from a filter: (x, y) is
/// kept when `mask`'s channel 0 is non-zero at some pixel (x', y') of the
/// image with |x' - x| <= grow and |y' - y| <= grow. The mask is read at
/// the image's (x, y) with bounds checks, so the image's pixels outside
/// the mask keep nothing. A null mask keeps every pixel.
///
/// A filter given a keep region computes every kept byte exactly as it
/// would without one, makes the same rng draws in the same order, and
/// leaves the other bytes unspecified (DESIGN.md §11, "Render and
/// embedding cost").
struct KeepRegion {
  const Image* mask = nullptr;
  int grow = 0;
};

/// The radius of GaussianBlur's kernel: max(1, ceil(3 * sigma)), or 0 for
/// sigma <= 0, which does not blur.
int BlurRadius(double sigma);

/// Separable Gaussian blur with the given sigma (kernel radius 3*sigma).
Image GaussianBlur(const Image& input, double sigma,
                   const KeepRegion& keep = {});

/// Adds iid Gaussian pixel noise with the given stddev (clamped to
/// [0, 255]); the knob the foundation-model simulator uses for artifacts.
/// Byte-identical to adding rng->NextGaussian(0.0, stddev) to each byte in
/// turn, and leaves `rng` exactly as that loop would.
void AddGaussianNoise(Image* image, double stddev, util::Rng* rng,
                      const KeepRegion& keep = {});

/// Adds horizontal banding artifacts of the given amplitude every
/// `period` rows — a caricature of generative inpainting seams.
void AddBanding(Image* image, int period, double amplitude,
                const KeepRegion& keep = {});

/// Binary dilation of a 1-channel mask with a disc of the given radius.
Image DilateDisc(const Image& mask, int radius);

/// Mean absolute luminance difference between two same-sized images.
double MeanAbsoluteDifference(const Image& a, const Image& b);

}  // namespace chameleon::image

#endif  // CHAMELEON_IMAGE_FILTER_H_
