#ifndef CHAMELEON_IMAGE_MASK_GENERATOR_H_
#define CHAMELEON_IMAGE_MASK_GENERATOR_H_

#include <string>

#include "src/image/foreground.h"
#include "src/image/image.h"

namespace chameleon::image {

/// Mask delineation levels of §5.4: how tightly the regenerated region
/// hugs the guide image's foreground subject.
enum class MaskLevel {
  /// §5.4.1 — the raw background-remover outline.
  kAccurate,
  /// §5.4.2 — the outline dilated with circles of radius 10% of the
  /// image width.
  kModerate,
  /// §5.4.3 — the bounding rectangle of the outline.
  kImprecise,
};

const char* MaskLevelName(MaskLevel level);

/// Fraction of image width used as the dilation radius for kModerate
/// (the paper's "10 percent of the image size").
inline constexpr double kModerateDilationFraction = 0.10;

/// Produces the regeneration mask (1-channel, 255 = regenerate) for a
/// guide image at the requested delineation level:
/// MaskFromForeground(ExtractForeground(guide, fg_options), level).
Image GenerateMask(const Image& guide, MaskLevel level,
                   const ForegroundOptions& fg_options = {});

/// The mask at `level` derived from a guide's foreground outline (its
/// ExtractForeground result), for callers that keep the outline too.
Image MaskFromForeground(const Image& foreground, MaskLevel level);

}  // namespace chameleon::image

#endif  // CHAMELEON_IMAGE_MASK_GENERATOR_H_
