// Reproduces Figure 4: the unfairness (disparate performance) of the
// classifier for the uncovered FERET groups before vs after repair —
// p-Disparity(g) = max(0, 1 - rho_g / rho_all) for precision, recall and
// F1 (panels a-c) — and the price of fairness (panel d): the change in
// overall precision/recall/F1 caused by the repair. Exits 1 unless every
// uncovered group's F1-disparity falls after the repair (the paper's
// shape).

#include <cstdio>

#include "bench/experiment_common.h"
#include "src/core/chameleon.h"
#include "src/embedding/simulated_embedder.h"
#include "src/fm/evaluator_pool.h"
#include "src/fm/simulated_foundation_model.h"
#include "src/util/table_printer.h"

using namespace chameleon;

int main(int argc, char** argv) {
  util::Stopwatch bench_stopwatch;
  std::printf("=== Figure 4: disparity reduction after repair ===\n");

  const embedding::SimulatedEmbedder embedder;
  datasets::FeretOptions feret_options;
  auto corpus = datasets::MakeFeret(&embedder, feret_options);
  auto test = datasets::MakeFeretTestSet(&embedder, feret_options);
  if (!corpus.ok() || !test.ok()) {
    std::fprintf(stderr, "corpus construction failed\n");
    return 1;
  }
  const auto before =
      bench::TrainAndEvaluateEthnicityClassifier(*corpus, *test);

  fm::SimulatedFoundationModel::Options fm_options;
  fm::SimulatedFoundationModel model(corpus->dataset.schema(),
                                     datasets::FeretFaceStyleFn(),
                                     datasets::FeretScene(), fm_options);
  const fm::EvaluatorPool evaluators(2024);
  core::ChameleonOptions options;
  options.tau = 100;
  options.seed = 99;
  core::Chameleon system(&model, &embedder, &evaluators, options);
  auto repair = system.RepairMinLevelMups(&*corpus);
  if (!repair.ok()) {
    std::fprintf(stderr, "repair failed: %s\n",
                 repair.status().ToString().c_str());
    return 1;
  }
  const auto after =
      bench::TrainAndEvaluateEthnicityClassifier(*corpus, *test);

  const auto& schema = corpus->dataset.schema();
  const int groups[] = {datasets::kFeretBlack, datasets::kFeretHispanic,
                        datasets::kFeretMiddleEastern};

  struct MetricDef {
    const char* name;
    double (nn::ClassMetrics::*group_fn)() const;
    double (nn::ClassificationReport::*overall_fn)() const;
  };
  const MetricDef metrics[] = {
      {"F1", &nn::ClassMetrics::F1, &nn::ClassificationReport::WeightedF1},
      {"Precision", &nn::ClassMetrics::Precision,
       &nn::ClassificationReport::WeightedPrecision},
      {"Recall", &nn::ClassMetrics::Recall,
       &nn::ClassificationReport::WeightedRecall},
  };

  // The paper's shape: the repair lowers every group's F1-disparity.
  bool shaped = true;
  for (const auto& metric : metrics) {
    std::printf("\n(%s-Disparity)\n", metric.name);
    util::TablePrinter table({"Group", "Before repair", "After repair",
                              "Reduction"});
    const double overall_before = (before.*(metric.overall_fn))();
    const double overall_after = (after.*(metric.overall_fn))();
    for (int g : groups) {
      const double d_before = nn::Disparity(
          (before.class_metrics(g).*(metric.group_fn))(), overall_before);
      const double d_after = nn::Disparity(
          (after.class_metrics(g).*(metric.group_fn))(), overall_after);
      table.AddRow({schema.attribute(1).values[g], util::Fmt(d_before),
                    util::Fmt(d_after), util::Fmt(d_before - d_after)});
      if (&metric == &metrics[0] && !(d_after < d_before)) {
        std::fprintf(stderr, "FAIL: %s F1-disparity %.4f -> %.4f, expected "
                     "a fall\n", schema.attribute(1).values[g].c_str(),
                     d_before, d_after);
        shaped = false;
      }
    }
    std::printf("%s", table.ToString().c_str());
  }

  std::printf("\n(d) Price of fairness: overall performance change\n");
  util::TablePrinter price({"Metric", "FERETDB", "Repaired", "Change"});
  price.AddRow({"Precision", util::Fmt(before.WeightedPrecision()),
                util::Fmt(after.WeightedPrecision()),
                util::Fmt(after.WeightedPrecision() -
                          before.WeightedPrecision())});
  price.AddRow({"Recall", util::Fmt(before.WeightedRecall()),
                util::Fmt(after.WeightedRecall()),
                util::Fmt(after.WeightedRecall() - before.WeightedRecall())});
  price.AddRow({"F1", util::Fmt(before.WeightedF1()),
                util::Fmt(after.WeightedF1()),
                util::Fmt(after.WeightedF1() - before.WeightedF1())});
  std::printf("%s", price.ToString().c_str());
  std::printf("\nPaper shape: %s\n", shaped ? "holds" : "BROKEN");
  return bench::FinishExperiment(argc, argv, "bench_figure4_disparity",
                                 bench_stopwatch.ElapsedSeconds(),
                                 shaped ? 0 : 1);
}
