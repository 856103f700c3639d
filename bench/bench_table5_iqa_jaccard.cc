// Reproduces Table 5: can automated no-reference image-quality tools
// replace the human evaluators of the quality test? 271 synthetic images
// are generated from UTKFace guides at mixed mask levels; human ground
// truth labels them via the §3.2 procedure (alpha = 0.1); NIQE, BRISQUE
// and NIMA thresholds are then calibrated to reject exactly as many
// images as the humans did, and the rejected sets are compared by
// Jaccard similarity. The paper's finding is negative: all tools land
// far from the human ground truth (Jaccard 0.07-0.13).
//
// Exits 1 unless the table has the EXPERIMENTS.md shape (the `paper`
// ctest label runs it): the humans reject some images, and every tool's
// Jaccard against those rejections is below 0.2.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/experiment_common.h"
#include "src/core/guide_selection.h"
#include "src/datasets/utkface.h"
#include "src/embedding/simulated_embedder.h"
#include "src/fm/evaluator_pool.h"
#include "src/fm/simulated_foundation_model.h"
#include "src/image/mask_generator.h"
#include "src/iqa/brisque.h"
#include "src/iqa/nima.h"
#include "src/iqa/niqe.h"
#include "src/stats/summary.h"
#include "src/stats/t_test.h"
#include "src/util/table_printer.h"

using namespace chameleon;

namespace {

constexpr int kNumImages = 271;     // paper's synthetic pool size
constexpr int kEvaluationsPerImage = 6;  // "more than five evaluators"
/// Every tool must stay below this Jaccard for the paper's negative result.
constexpr double kMaxJaccard = 0.2;

/// Indices of the `count` highest-scoring entries (used when a higher
/// tool score means worse quality).
std::vector<int64_t> WorstByScore(const std::vector<double>& scores,
                                  int64_t count, bool higher_is_worse) {
  std::vector<int64_t> order(scores.size());
  for (size_t i = 0; i < scores.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    return higher_is_worse ? scores[a] > scores[b] : scores[a] < scores[b];
  });
  order.resize(count);
  return order;
}

}  // namespace

int main(int argc, char** argv) {
  util::Stopwatch bench_stopwatch;
  std::printf("=== Table 5: IQA tools vs human ground truth ===\n");

  const embedding::SimulatedEmbedder embedder;
  datasets::ChallengeOptions challenge_options;
  auto corpus =
      datasets::MakeUtkFaceChallengeSubset(&embedder, challenge_options);
  if (!corpus.ok()) {
    std::fprintf(stderr, "%s\n", corpus.status().ToString().c_str());
    return 1;
  }

  // Generate the synthetic pool: similar-tuple guides, mask level cycling
  // through the three delineation levels (the paper's "varying" setup).
  fm::SimulatedFoundationModel::Options fm_options;
  fm::SimulatedFoundationModel model(corpus->dataset.schema(),
                                     datasets::UtkFaceStyleFn(),
                                     datasets::UtkFaceScene(), fm_options);
  const fm::EvaluatorPool evaluators(2024);
  // Alternate guide strategies so the pool spans the full quality range
  // the pipeline produces (similar-tuple edits are clean; random guides
  // require multi-attribute edits and yield the unrealistic tail).
  core::SimilarTupleSelector similar_selector(corpus->dataset.schema());
  core::RandomGuideSelector random_selector;
  util::Rng rng(555);

  const auto rare = datasets::ChallengeRarePatterns();
  std::vector<image::Image> generated;
  std::vector<double> realism;
  const image::MaskLevel levels[] = {image::MaskLevel::kAccurate,
                                     image::MaskLevel::kModerate,
                                     image::MaskLevel::kImprecise};
  while (static_cast<int>(generated.size()) < kNumImages) {
    const auto& target_pattern = rare[generated.size() % rare.size()];
    const std::vector<int> target = target_pattern.cells();
    core::GuideSelector& selector =
        generated.size() % 2 == 0
            ? static_cast<core::GuideSelector&>(similar_selector)
            : static_cast<core::GuideSelector&>(random_selector);
    auto choice = selector.Select(corpus->dataset, target, &rng);
    if (!choice.ok() || !choice->has_guide) continue;
    const auto& guide_tuple = corpus->dataset.tuple(choice->tuple_index);
    const image::Image& guide = corpus->images[guide_tuple.payload_id];
    const image::Image foreground = image::ExtractForeground(guide);
    const image::Image mask = image::MaskFromForeground(
        foreground, levels[generated.size() % 3]);
    fm::GenerationRequest request;
    request.target_values = target;
    request.guide = &guide;
    request.guide_values = &choice->guide_values;
    request.mask = &mask;
    request.guide_foreground = &foreground;
    auto result = model.Generate(request, &rng);
    if (!result.ok()) continue;
    generated.push_back(std::move(result->image));
    realism.push_back(result->latent_realism);
  }

  // Human ground truth: §3.2 labeling with alpha = 0.1 against the
  // real-image label rate p.
  const double p = evaluators.EstimateRealLabelRate(
      corpus->RealTupleRealism(), 500, &rng);
  std::vector<int64_t> human_rejects;
  for (int i = 0; i < kNumImages; ++i) {
    const std::vector<int> labels =
        evaluators.Evaluate(realism[i], kEvaluationsPerImage, &rng);
    const auto t = stats::OneSampleTTestLower(labels, p);
    if (t.Rejects(0.1)) human_rejects.push_back(i);
  }
  std::printf("humans rejected %zu of %d images (p=%.2f; paper: 27 of 271)\n",
              human_rejects.size(), kNumImages, p);
  if (human_rejects.empty()) {
    std::fprintf(stderr, "FAIL: humans rejected no image; nothing to compare\n");
    std::printf("Paper shape: BROKEN\n");
    return bench::FinishExperiment(argc, argv, "bench_table5_iqa_jaccard",
                                   bench_stopwatch.ElapsedSeconds(), 1);
  }

  // Train the IQA tools on the real corpus and calibrate each threshold
  // to reject exactly |human_rejects| images.
  auto niqe = iqa::Niqe::Train(corpus->images);
  auto brisque = iqa::Brisque::Train(corpus->images);
  util::Rng nima_rng(77);
  auto nima = iqa::Nima::Train(corpus->images, &nima_rng);
  if (!niqe.ok() || !brisque.ok() || !nima.ok()) {
    std::fprintf(stderr, "IQA training failed\n");
    return 1;
  }

  std::vector<double> niqe_scores;
  std::vector<double> brisque_scores;
  std::vector<double> nima_scores;
  for (const auto& img : generated) {
    niqe_scores.push_back(niqe->Score(img));
    brisque_scores.push_back(brisque->Score(img));
    nima_scores.push_back(nima->Score(img));
  }
  const int64_t k = static_cast<int64_t>(human_rejects.size());
  const auto niqe_rejects = WorstByScore(niqe_scores, k, true);
  const auto brisque_rejects = WorstByScore(brisque_scores, k, true);
  const auto nima_rejects = WorstByScore(nima_scores, k, false);  // low=bad

  const struct {
    const char* name;
    const std::vector<int64_t>& rejects;
  } tools[] = {{"NIQE", niqe_rejects},
               {"BRISQUE", brisque_rejects},
               {"NIMA", nima_rejects}};
  util::TablePrinter table({"Quality Assessment Algorithm", "Jaccard"});
  bool shaped = true;
  for (const auto& tool : tools) {
    const double jaccard = stats::JaccardSimilarity(tool.rejects, human_rejects);
    table.AddRow({tool.name, util::Fmt(jaccard, 3)});
    if (!(jaccard < kMaxJaccard)) {
      std::fprintf(stderr, "FAIL: %s Jaccard %.3f, expected < %.1f\n",
                   tool.name, jaccard, kMaxJaccard);
      shaped = false;
    }
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\nExpected shape (paper: NIQE 0.127, BRISQUE 0.068, NIMA 0.068):\n"
      "all tools score low — none reliably isolates unrealistic images.\n");
  std::printf("Paper shape: %s\n", shaped ? "holds" : "BROKEN");
  return bench::FinishExperiment(argc, argv, "bench_table5_iqa_jaccard",
                                 bench_stopwatch.ElapsedSeconds(),
                                 shaped ? 0 : 1);
}
