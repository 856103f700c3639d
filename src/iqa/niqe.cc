#include "src/iqa/niqe.h"

#include <cmath>

#include "src/iqa/ggd_fit.h"
#include "src/iqa/mscn.h"

namespace chameleon::iqa {
namespace {

constexpr int kPatchSize = 16;
/// Ridge added to covariance diagonals before inversion.
constexpr double kRegularization = 1e-3;

// Extracts per-patch features from an image: MSCN once, then 18 NSS
// features per non-overlapping kPatchSize square.
std::vector<std::vector<double>> ImagePatchFeatures(const image::Image& image) {
  const image::Image gray =
      image.channels() == 1 ? image : image.ToGrayscale();
  const Field mscn = ComputeMscn(gray);

  std::vector<std::vector<double>> features;
  for (int py = 0; py + kPatchSize <= mscn.height; py += kPatchSize) {
    for (int px = 0; px + kPatchSize <= mscn.width; px += kPatchSize) {
      std::vector<double> patch;
      patch.reserve(static_cast<size_t>(kPatchSize) * kPatchSize);
      for (int y = py; y < py + kPatchSize; ++y) {
        for (int x = px; x < px + kPatchSize; ++x) {
          patch.push_back(mscn.at(x, y));
        }
      }
      features.push_back(
          Niqe::PatchFeatures(patch, kPatchSize, kPatchSize));
    }
  }
  return features;
}

// Mean and covariance of a feature sample.
void FitMvg(const std::vector<std::vector<double>>& samples,
            std::vector<double>* mean, linalg::Matrix* covariance) {
  const size_t dim = samples.empty() ? 0 : samples[0].size();
  mean->assign(dim, 0.0);
  *covariance = linalg::Matrix(dim, dim);
  if (samples.empty()) return;
  for (const auto& s : samples) {
    for (size_t i = 0; i < dim; ++i) (*mean)[i] += s[i];
  }
  for (double& v : *mean) v /= static_cast<double>(samples.size());
  if (samples.size() < 2) return;
  for (const auto& s : samples) {
    for (size_t i = 0; i < dim; ++i) {
      const double di = s[i] - (*mean)[i];
      for (size_t j = 0; j < dim; ++j) {
        covariance->at(i, j) += di * (s[j] - (*mean)[j]);
      }
    }
  }
  const double inv = 1.0 / static_cast<double>(samples.size() - 1);
  for (size_t i = 0; i < dim; ++i) {
    for (size_t j = 0; j < dim; ++j) covariance->at(i, j) *= inv;
  }
}

}  // namespace

std::vector<double> Niqe::PatchFeatures(const std::vector<double>& mscn_patch,
                                        int patch_width, int patch_height) {
  std::vector<double> features;
  features.reserve(18);
  const GgdParams ggd = FitGgd(mscn_patch);
  features.push_back(ggd.alpha);
  features.push_back(ggd.sigma * ggd.sigma);

  Field field{patch_width, patch_height, mscn_patch};
  for (Orientation orientation :
       {Orientation::kHorizontal, Orientation::kVertical,
        Orientation::kDiagonal, Orientation::kAntiDiagonal}) {
    const AggdParams aggd = FitAggd(PairwiseProducts(field, orientation));
    features.push_back(aggd.alpha);
    features.push_back(aggd.mean);
    features.push_back(aggd.sigma_left * aggd.sigma_left);
    features.push_back(aggd.sigma_right * aggd.sigma_right);
  }
  return features;
}

util::Result<Niqe> Niqe::Train(const std::vector<image::Image>& pristine) {
  if (pristine.empty()) {
    return util::Status::InvalidArgument("NIQE needs a pristine corpus");
  }
  std::vector<std::vector<double>> all_features;
  for (const auto& img : pristine) {
    auto features = ImagePatchFeatures(img);
    all_features.insert(all_features.end(), features.begin(), features.end());
  }
  if (all_features.size() < 4) {
    return util::Status::InvalidArgument(
        "pristine corpus yields too few patches; use larger images");
  }
  Niqe model;
  FitMvg(all_features, &model.mean_, &model.covariance_);
  return model;
}

double Niqe::Score(const image::Image& image) const {
  const auto features = ImagePatchFeatures(image);
  if (features.empty()) return 0.0;
  std::vector<double> test_mean;
  linalg::Matrix test_cov;
  FitMvg(features, &test_mean, &test_cov);

  const size_t dim = mean_.size();
  linalg::Matrix pooled(dim, dim);
  for (size_t i = 0; i < dim; ++i) {
    for (size_t j = 0; j < dim; ++j) {
      pooled.at(i, j) = 0.5 * (covariance_.at(i, j) + test_cov.at(i, j));
    }
    pooled.at(i, i) += kRegularization;
  }
  std::vector<double> diff(dim);
  for (size_t i = 0; i < dim; ++i) diff[i] = mean_[i] - test_mean[i];

  auto solved = pooled.CholeskySolve(diff);
  if (!solved.ok()) {
    // Fall back to a diagonal approximation if pooling went indefinite.
    double score = 0.0;
    for (size_t i = 0; i < dim; ++i) {
      score += diff[i] * diff[i] / (pooled.at(i, i) + 1e-9);
    }
    return std::sqrt(std::max(0.0, score));
  }
  double quad = 0.0;
  for (size_t i = 0; i < dim; ++i) quad += diff[i] * (*solved)[i];
  return std::sqrt(std::max(0.0, quad));
}

}  // namespace chameleon::iqa
