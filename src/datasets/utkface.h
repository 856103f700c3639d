#ifndef CHAMELEON_DATASETS_UTKFACE_H_
#define CHAMELEON_DATASETS_UTKFACE_H_

#include <cstdint>
#include <vector>

#include "src/data/pattern.h"
#include "src/data/schema.h"
#include "src/datasets/synthetic_corpus.h"
#include "src/fm/corpus.h"
#include "src/fm/simulated_foundation_model.h"
#include "src/image/face_renderer.h"
#include "src/util/status.h"

namespace chameleon::datasets {

/// Attribute indices of the UTKFace schema.
inline constexpr int kUtkGender = 0;
inline constexpr int kUtkRace = 1;
inline constexpr int kUtkAgeGroup = 2;

inline constexpr int kUtkNumRaces = 5;
inline constexpr int kUtkNumAgeGroups = 9;

struct UtkFaceOptions {
  RenderSpec render;
  /// Corpus size for the full data set (the real UTKFace has >20k faces).
  int num_tuples = 20000;
  uint64_t seed = 7;
};

/// gender {Male, Female} x race {White, Black, Asian, Indian, Others} x
/// age_group (ordinal, 9 buckets: 0-2, 3-9, ..., 70+).
data::AttributeSchema UtkFaceSchema();

image::SceneStyle UtkFaceScene();
fm::FaceStyleFn UtkFaceStyleFn();

/// The full synthetic UTKFace corpus: tuples sampled iid from published
/// UTKFace-like marginals (White-heavy, young-adult-heavy), calibrated so
/// that tau=200/350 leave only level-2/3 MUPs while tau=1000/2000 also
/// produce level-1 MUPs — the regimes Figure 6 sweeps.
/// Defaults to annotation-only (set options.render.render_images for
/// payloads).
[[nodiscard]] util::Result<fm::Corpus> MakeUtkFace(const embedding::Embedder* embedder,
                                     const UtkFaceOptions& options);

/// The §6.4.1 challenge subset: every one of the 90 combinations gets
/// `kChallengeBaseCount` tuples except 16 designated rare combinations
/// (two per age group in buckets 1..8, alternating gender/race) which get
/// `kChallengeRareCount` — yielding exactly 16 level-3 MUPs at tau = 10.
inline constexpr int kChallengeBaseCount = 12;
inline constexpr int kChallengeRareCount = 3;
struct ChallengeOptions {
  RenderSpec render;
  uint64_t seed = 11;
};
[[nodiscard]] util::Result<fm::Corpus> MakeUtkFaceChallengeSubset(
    const embedding::Embedder* embedder, const ChallengeOptions& options);

/// The 16 rare combinations of the challenge subset, as level-3 patterns
/// (for verifying MUP discovery output).
std::vector<data::Pattern> ChallengeRarePatterns();

}  // namespace chameleon::datasets

#endif  // CHAMELEON_DATASETS_UTKFACE_H_
