#include "src/datasets/utkface.h"

#include <algorithm>
#include <map>

namespace chameleon::datasets {
namespace {

// Marginal distributions approximating the published UTKFace statistics,
// tuned so the Figure 6 threshold sweep produces level-1 MUPs only at
// tau >= 1000 (see header).
constexpr double kGenderMarginal[] = {0.52, 0.48};
constexpr double kRaceMarginal[] = {0.475, 0.21, 0.18, 0.105, 0.03};
constexpr double kAgeMarginal[] = {0.03, 0.06, 0.09, 0.28, 0.21,
                                   0.125, 0.105, 0.07, 0.03};

// Race -> skin palette group.
constexpr int kSkinGroup[] = {0, 4, 1, 2, 3};

int SampleMarginal(const double* marginal, int n, util::Rng* rng) {
  double pick = rng->NextDouble();
  for (int i = 0; i < n; ++i) {
    if (pick < marginal[i]) return i;
    pick -= marginal[i];
  }
  return n - 1;
}

}  // namespace

data::AttributeSchema UtkFaceSchema() {
  data::AttributeSchema schema;
  (void)schema.AddAttribute({"gender", {"Male", "Female"}, false});
  (void)schema.AddAttribute(
      {"race", {"White", "Black", "Asian", "Indian", "Others"}, false});
  (void)schema.AddAttribute({"age_group",
                             {"0-2", "3-9", "10-19", "20-29", "30-39",
                              "40-49", "50-59", "60-69", "70+"},
                             true});
  return schema;
}

image::SceneStyle UtkFaceScene() {
  image::SceneStyle scene;
  // In-the-wild bluish outdoor-ish backdrop.
  scene.background_top = {92, 118, 150};
  scene.background_bottom = {140, 150, 160};
  scene.blur_sigma = 0.7;
  return scene;
}

fm::FaceStyleFn UtkFaceStyleFn() {
  return [](const std::vector<int>& values, util::Rng* rng) {
    const bool feminine = values[kUtkGender] == 1;
    const int skin_group = kSkinGroup[values[kUtkRace]];
    const double age01 =
        static_cast<double>(values[kUtkAgeGroup]) / (kUtkNumAgeGroups - 1);
    return image::MakeFaceStyle(skin_group, kUtkNumRaces, feminine, age01,
                                rng);
  };
}

util::Result<fm::Corpus> MakeUtkFace(const embedding::Embedder* embedder,
                                     const UtkFaceOptions& options) {
  fm::Corpus corpus;
  corpus.dataset = data::Dataset(UtkFaceSchema());
  util::Rng rng(options.seed);

  // Sample annotations first, then batch by combination for FillCorpus.
  std::map<std::vector<int>, int> histogram;
  for (int i = 0; i < options.num_tuples; ++i) {
    std::vector<int> values(3);
    values[kUtkGender] = SampleMarginal(kGenderMarginal, 2, &rng);
    values[kUtkRace] = SampleMarginal(kRaceMarginal, kUtkNumRaces, &rng);
    values[kUtkAgeGroup] =
        SampleMarginal(kAgeMarginal, kUtkNumAgeGroups, &rng);
    ++histogram[values];
  }
  CombinationCounts counts(histogram.begin(), histogram.end());
  CHAMELEON_RETURN_NOT_OK(FillCorpus(&corpus, counts, UtkFaceStyleFn(),
                                     UtkFaceScene(), embedder, options.render,
                                     &rng));
  return corpus;
}

std::vector<data::Pattern> ChallengeRarePatterns() {
  // Two rare (gender, race) combinations per age bucket 1..8: the
  // gender alternates with the bucket, the race walks through the
  // domain, and the two picks within a bucket differ in both.
  std::vector<data::Pattern> rare;
  for (int age = 1; age <= 8; ++age) {
    const int gender_a = age % 2;
    const int race_a = age % kUtkNumRaces;
    const int gender_b = 1 - gender_a;
    const int race_b = (age + 2) % kUtkNumRaces;
    rare.push_back(data::Pattern({gender_a, race_a, age}));
    rare.push_back(data::Pattern({gender_b, race_b, age}));
  }
  return rare;
}

util::Result<fm::Corpus> MakeUtkFaceChallengeSubset(
    const embedding::Embedder* embedder, const ChallengeOptions& options) {
  fm::Corpus corpus;
  const data::AttributeSchema schema = UtkFaceSchema();
  corpus.dataset = data::Dataset(schema);
  util::Rng rng(options.seed);

  const std::vector<data::Pattern> rare = ChallengeRarePatterns();
  auto is_rare = [&](const std::vector<int>& values) {
    for (const auto& p : rare) {
      if (p.Matches(values)) return true;
    }
    return false;
  };

  CombinationCounts counts;
  for (int64_t c = 0; c < schema.NumCombinations(); ++c) {
    const std::vector<int> values = schema.CombinationFromIndex(c);
    counts.push_back(
        {values, is_rare(values) ? kChallengeRareCount : kChallengeBaseCount});
  }
  CHAMELEON_RETURN_NOT_OK(FillCorpus(&corpus, counts, UtkFaceStyleFn(),
                                     UtkFaceScene(), embedder, options.render,
                                     &rng));
  return corpus;
}

}  // namespace chameleon::datasets
