#ifndef CHAMELEON_IMAGE_FILTER_H_
#define CHAMELEON_IMAGE_FILTER_H_

#include "src/image/image.h"
#include "src/util/rng.h"

namespace chameleon::image {

/// Separable Gaussian blur with the given sigma (kernel radius 3*sigma).
Image GaussianBlur(const Image& input, double sigma);

/// Adds iid Gaussian pixel noise with the given stddev (clamped to
/// [0, 255]); the knob the foundation-model simulator uses for artifacts.
/// Byte-identical to adding rng->NextGaussian(0.0, stddev) to each byte in
/// turn, and leaves `rng` exactly as that loop would.
void AddGaussianNoise(Image* image, double stddev, util::Rng* rng);

/// Adds horizontal banding artifacts of the given amplitude every
/// `period` rows — a caricature of generative inpainting seams.
void AddBanding(Image* image, int period, double amplitude);

/// Binary dilation of a 1-channel mask with a disc of the given radius.
Image DilateDisc(const Image& mask, int radius);

/// Mean absolute luminance difference between two same-sized images.
double MeanAbsoluteDifference(const Image& a, const Image& b);

}  // namespace chameleon::image

#endif  // CHAMELEON_IMAGE_FILTER_H_
