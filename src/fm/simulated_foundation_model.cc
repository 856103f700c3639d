#include "src/fm/simulated_foundation_model.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>

#include "src/util/thread_pool.h"

namespace chameleon::fm {
namespace {

constexpr int kImageSize = 64;
/// The paper reports $0.016 per DALL·E 2 image.
constexpr double kQueryCost = 0.016;
/// Seed for the hidden difficulty table and the prior palettes.
constexpr uint64_t kSeed = 1234;

/// Realism of an unguided (prompt-only) generation.
constexpr double kNoGuideRealismMean = 1.01;
constexpr double kNoGuideRealismStddev = 0.06;

/// Noise on a guided generation's realism.
constexpr double kRealismNoiseStddev = 0.035;

/// Penalty at maximal mask tightness (accurate outline).
constexpr double kTightnessPenalty = 0.12;

/// Per-attribute-edit difficulty range [min, max] for the hidden
/// table; each additional ordinal step adds 20% of the base cost.
constexpr double kDifficultyMin = 0.02;
constexpr double kDifficultyMax = 0.10;

/// Background continuation error (per unit of regenerated area
/// fraction), in 0-255 channel units.
constexpr double kContextErrorScale = 10.0;

/// Semantic edit incompleteness: guided generations keep a random
/// residue of the guide subject's appearance (inpainting rarely
/// commits fully to the prompt). Sampled per query as
/// |N(0, kEditResidueStddev)|, clamped to [0, 0.5].
constexpr double kEditResidueStddev = 0.06;

/// How many imagination palettes the unguided model draws from; the
/// first one matches the data-set scene passed to the constructor.
constexpr int kNumPriorPalettes = 6;

uint8_t ClampByte(double v) {
  return static_cast<uint8_t>(std::clamp(v, 0.0, 255.0));
}

// Estimates a scene palette from the guide's border columns — the visual
// context the model can "see" around the mask. Portrait subjects
// (shoulders) reach the bottom rows, so the vertical background gradient
// is fitted by linear regression over edge-column pixels in the top 3/4
// of the image and extrapolated to the full height.
image::SceneStyle EstimateScene(const image::Image& img) {
  const int w = img.width();
  const int h = img.height();
  const int edge = std::max(1, w / 24);
  const int y_limit = 3 * h / 4;

  double sum_y = 0.0;
  double sum_yy = 0.0;
  double sum_c[3] = {0, 0, 0};
  double sum_yc[3] = {0, 0, 0};
  int64_t count = 0;
  for (int y = 0; y < y_limit; ++y) {
    for (int x = 0; x < w; ++x) {
      if (x >= edge && x < w - edge) continue;
      sum_y += y;
      sum_yy += static_cast<double>(y) * y;
      for (int c = 0; c < 3; ++c) {
        const double v = img.at(x, y, img.channels() == 3 ? c : 0);
        sum_c[c] += v;
        sum_yc[c] += y * v;
      }
      ++count;
    }
  }
  image::SceneStyle scene;
  if (count < 2) return scene;
  const double denom = count * sum_yy - sum_y * sum_y;
  for (int c = 0; c < 3; ++c) {
    double slope = 0.0;
    if (std::fabs(denom) > 1e-9) {
      slope = (count * sum_yc[c] - sum_y * sum_c[c]) / denom;
    }
    const double intercept = (sum_c[c] - slope * sum_y) / count;
    const double top = intercept;
    const double bottom = intercept + slope * (h - 1);
    if (c == 0) {
      scene.background_top.r = ClampByte(top);
      scene.background_bottom.r = ClampByte(bottom);
    } else if (c == 1) {
      scene.background_top.g = ClampByte(top);
      scene.background_bottom.g = ClampByte(bottom);
    } else {
      scene.background_top.b = ClampByte(top);
      scene.background_bottom.b = ClampByte(bottom);
    }
  }
  return scene;
}

image::Color PerturbColor(image::Color c, double stddev, util::Rng* rng) {
  const double shift_r = rng->NextGaussian(0, stddev);
  const double shift_g = rng->NextGaussian(0, stddev);
  const double shift_b = rng->NextGaussian(0, stddev);
  return image::Color{ClampByte(c.r + shift_r), ClampByte(c.g + shift_g),
                      ClampByte(c.b + shift_b)};
}

}  // namespace

SimulatedFoundationModel::SimulatedFoundationModel(
    const data::AttributeSchema& schema, FaceStyleFn face_style_fn,
    const image::SceneStyle& dataset_scene, const Options& options)
    : schema_(schema),
      face_style_fn_(std::move(face_style_fn)),
      options_(options) {
  util::Rng rng(kSeed);

  // Imagination palettes: the first matches the data set's scene, the
  // rest are the model's own ideas of a portrait backdrop.
  prior_palettes_.push_back(dataset_scene);
  for (int i = 1; i < kNumPriorPalettes; ++i) {
    image::SceneStyle scene;
    scene.background_top =
        image::Color{ClampByte(rng.NextInt(30, 220)),
                     ClampByte(rng.NextInt(30, 220)),
                     ClampByte(rng.NextInt(30, 220))};
    scene.background_bottom = PerturbColor(scene.background_top, 30.0, &rng);
    scene.blur_sigma = dataset_scene.blur_sigma;
    prior_palettes_.push_back(scene);
  }

  // Hidden per-(attribute, combination) edit-difficulty table. Arm base
  // costs are spread evenly over [kDifficultyMin, kDifficultyMax] in a
  // seeded random arm order — the model is systematically better at
  // editing some attributes than others, which is the signal LinUCB
  // exploits; combinations jitter mildly around their arm's base.
  const int64_t k = schema_.NumCombinations();
  const int d = schema_.num_attributes();
  if (d > 0 && k > kMaxDifficultyCells / d) {
    schema_too_wide_ = true;
    return;
  }
  const std::vector<size_t> arm_order = rng.Permutation(d);
  difficulty_.resize(d);
  for (int a = 0; a < d; ++a) {
    const double span = kDifficultyMax - kDifficultyMin;
    const double base =
        kDifficultyMin +
        (d > 1 ? span * static_cast<double>(arm_order[a]) / (d - 1)
               : 0.5 * span);
    difficulty_[a].resize(k);
    const double jitter = 0.15 * span;
    for (int64_t c = 0; c < k; ++c) {
      difficulty_[a][c] = std::max(
          0.01, base + rng.NextGaussian(0.0, jitter));
    }
  }
}

double SimulatedFoundationModel::query_cost() const { return kQueryCost; }

double SimulatedFoundationModel::EditDifficulty(
    int attribute, const std::vector<int>& target_values) const {
  const int64_t index = schema_.CombinationIndex(target_values);
  return difficulty_[attribute][index];
}

util::Result<GenerationResult> SimulatedFoundationModel::Generate(
    const GenerationRequest& request, util::Rng* rng) {
  if (schema_too_wide_) {
    return util::Status::InvalidArgument(
        "the simulator's edit-difficulty table holds at most " +
        std::to_string(kMaxDifficultyCells) +
        " (attribute, combination) cells, and this schema has more");
  }
  if (!schema_.IsValidCombination(request.target_values)) {
    return util::Status::InvalidArgument(
        "target combination does not match the schema");
  }
  const bool guided = request.guide != nullptr;
  if (guided && (request.guide_values == nullptr || request.mask == nullptr ||
                 request.guide_foreground == nullptr)) {
    return util::Status::InvalidArgument(
        "guided generation needs guide_values, a mask and the guide's "
        "foreground");
  }
  RecordQuery();

  GenerationResult result;
  result.values = request.target_values;
  image::FaceStyle style = face_style_fn_(request.target_values, rng);

  if (!guided) {
    // Prompt-only: full render under one of the model's own palettes.
    const image::SceneStyle scene =
        prior_palettes_[rng->NextBounded(prior_palettes_.size())];
    result.latent_realism =
        rng->NextGaussian(kNoGuideRealismMean, kNoGuideRealismStddev);
    image::RenderOptions render;
    render.size = kImageSize;
    render.artifact_level = std::max(0.0, 0.95 - result.latent_realism);
    result.image = image::RenderFace(style, scene, render, rng);
    return result;
  }

  // --- Guided generation ---
  // Realism: base minus mask-tightness and semantic-edit penalties.
  const double mask_fraction = request.mask->NonZeroFraction();
  const double fg_fraction = request.guide_foreground->NonZeroFraction();
  const double tightness =
      mask_fraction > 1e-6
          ? std::clamp(fg_fraction / mask_fraction, 0.0, 1.0)
          : 1.0;
  double realism = options_.guided_base_realism -
                   kTightnessPenalty * tightness * tightness;

  for (int a = 0; a < schema_.num_attributes(); ++a) {
    const int guide_value = (*request.guide_values)[a];
    const int target_value = request.target_values[a];
    if (guide_value == target_value) continue;
    double cost = EditDifficulty(a, request.target_values);
    if (schema_.attribute(a).ordinal) {
      const int distance = std::abs(guide_value - target_value);
      cost *= 1.0 + 0.20 * (distance - 1);
    }
    realism -= cost;
  }
  realism += rng->NextGaussian(0.0, kRealismNoiseStddev);
  result.latent_realism = realism;

  // Edit residue: the inpainted subject keeps a random fraction of the
  // guide subject's appearance.
  const double residue = std::clamp(
      std::fabs(rng->NextGaussian(0.0, kEditResidueStddev)), 0.0, 0.5);
  const image::FaceStyle guide_style =
      face_style_fn_(*request.guide_values, rng);
  auto blend = [&](image::Color a, image::Color b) {
    return image::Color{ClampByte(a.r + residue * (b.r - a.r)),
                        ClampByte(a.g + residue * (b.g - a.g)),
                        ClampByte(a.b + residue * (b.b - a.b))};
  };
  style.skin = blend(style.skin, guide_style.skin);
  style.hair = blend(style.hair, guide_style.hair);

  // Image: keep unmasked guide pixels; re-render the masked region with
  // the target's appearance over a background that continues the guide's
  // palette, with error growing in the regenerated area.
  image::SceneStyle scene = EstimateScene(*request.guide);
  const double bg_error = kContextErrorScale * mask_fraction;
  scene.background_top = PerturbColor(scene.background_top, bg_error, rng);
  scene.background_bottom =
      PerturbColor(scene.background_bottom, bg_error, rng);

  // Only the masked pixels reach the composite, so only they are
  // rendered; the rng ends as a full render leaves it.
  image::RenderOptions render;
  render.size = kImageSize;
  render.artifact_level = std::clamp(1.0 - realism, 0.0, 1.0);
  const image::Image regenerated =
      image::RenderFace(style, scene, render, rng, request.mask);
  result.image = image::CompositeWithMask(*request.guide, regenerated,
                                          *request.mask);
  return result;
}

std::vector<util::Result<GenerationResult>>
SimulatedFoundationModel::GenerateBatch(std::span<const BatchItem> items) {
  util::ThreadPool* pool = util::ThreadPool::Current();
  if (pool == nullptr) return FoundationModel::GenerateBatch(items);
  std::vector<std::optional<util::Result<GenerationResult>>> slots(
      items.size());
  pool->ParallelFor(static_cast<int64_t>(items.size()), 1,
                    [&](int64_t begin, int64_t end, int64_t /*chunk*/) {
                      for (int64_t i = begin; i < end; ++i) {
                        slots[i].emplace(
                            Generate(*items[i].request, items[i].rng));
                      }
                    });
  std::vector<util::Result<GenerationResult>> results;
  results.reserve(items.size());
  for (auto& slot : slots) results.push_back(std::move(*slot));
  return results;
}

}  // namespace chameleon::fm
