#ifndef CHAMELEON_IQA_NIQE_H_
#define CHAMELEON_IQA_NIQE_H_

#include <vector>

#include "src/image/image.h"
#include "src/linalg/matrix.h"
#include "src/util/status.h"

namespace chameleon::iqa {

/// Natural Image Quality Evaluator (Mittal et al., 2013), reimplemented
/// from scratch on this library's raster type: per-patch natural scene
/// statistics (GGD fit of MSCN coefficients + AGGD fits of four pairwise
/// orientations, 18 features) are modeled as a multivariate Gaussian over
/// a pristine corpus; the score of a test image is the Mahalanobis-style
/// distance between the pristine MVG and the test image's own patch MVG.
/// Higher score = less natural. Patches are 16 px squares, and a fixed
/// ridge regularizes the pooled covariance (both in niqe.cc).
class Niqe {
 public:
  /// Fits the pristine model from a corpus of (assumed natural) images.
  [[nodiscard]] static util::Result<Niqe> Train(
      const std::vector<image::Image>& pristine);

  /// Quality score; higher is worse.
  double Score(const image::Image& image) const;

  int feature_dim() const { return static_cast<int>(mean_.size()); }
  const std::vector<double>& pristine_mean() const { return mean_; }

  /// 18-dimensional NSS feature vector of one patch-worth of MSCN data —
  /// exposed for testing and for BRISQUE feature reuse.
  static std::vector<double> PatchFeatures(
      const std::vector<double>& mscn_patch, int patch_width,
      int patch_height);

 private:
  Niqe() = default;

  std::vector<double> mean_;
  linalg::Matrix covariance_;
};

}  // namespace chameleon::iqa

#endif  // CHAMELEON_IQA_NIQE_H_
