#include "src/image/mask_generator.h"

#include <algorithm>

#include "src/image/filter.h"

namespace chameleon::image {

const char* MaskLevelName(MaskLevel level) {
  switch (level) {
    case MaskLevel::kAccurate:
      return "Accurate";
    case MaskLevel::kModerate:
      return "Moderate";
    case MaskLevel::kImprecise:
      return "Imprecise";
  }
  return "Unknown";
}

Image GenerateMask(const Image& guide, MaskLevel level,
                   const ForegroundOptions& fg_options) {
  return MaskFromForeground(ExtractForeground(guide, fg_options), level);
}

Image MaskFromForeground(const Image& foreground, MaskLevel level) {
  switch (level) {
    case MaskLevel::kAccurate:
      return foreground;
    case MaskLevel::kModerate: {
      const int radius = std::max(
          1, static_cast<int>(kModerateDilationFraction * foreground.width()));
      return DilateDisc(foreground, radius);
    }
    case MaskLevel::kImprecise: {
      int x0;
      int y0;
      int x1;
      int y1;
      Image box(foreground.width(), foreground.height(), 1, 0);
      if (MaskBoundingBox(foreground, &x0, &y0, &x1, &y1)) {
        for (int y = y0; y <= y1; ++y) {
          for (int x = x0; x <= x1; ++x) box.at(x, y, 0) = 255;
        }
      }
      return box;
    }
  }
  return foreground;
}

}  // namespace chameleon::image
