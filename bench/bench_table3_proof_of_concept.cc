// Reproduces Table 3 and the §6.3 proof of concept: a race-predicting
// classifier is trained on the FERET corpus before and after repairing
// the three uncovered ethnicity groups (Black, Hispanic, Middle Eastern)
// with Chameleon at tau = 100, and evaluated on the same all-real test
// set. Also prints the repair-run statistics the paper reports in-text
// (307 queries, 75% pass rate, $4.91 cost for the authors' run).
//
// Exits 1 unless the repair has the EXPERIMENTS.md shape (the `paper`
// ctest label runs it): each of the three groups ends at exactly tau
// images (100/100/100), and the run accepted exactly the plan's size.

#include <cstdio>

#include "bench/experiment_common.h"
#include "src/core/chameleon.h"
#include "src/embedding/simulated_embedder.h"
#include "src/fm/evaluator_pool.h"
#include "src/fm/simulated_foundation_model.h"
#include "src/util/table_printer.h"

using namespace chameleon;

namespace {

constexpr uint64_t kSeed = 99;
constexpr int64_t kTau = 100;
constexpr int kRepairedGroups[] = {datasets::kFeretBlack,
                                   datasets::kFeretHispanic,
                                   datasets::kFeretMiddleEastern};

/// Images of ethnicity `e` in the corpus.
int64_t GroupCount(const fm::Corpus& corpus, int e) {
  return corpus.dataset.CountMatching(
      data::Pattern({data::Pattern::kUnspecified, e}));
}

/// Prints every way the repaired corpus departs from the paper's shape;
/// returns whether it has that shape.
bool HasPaperShape(const fm::Corpus& corpus, const core::RepairReport& repair) {
  bool ok = true;
  for (int e : kRepairedGroups) {
    const int64_t count = GroupCount(corpus, e);
    if (count != kTau) {
      std::fprintf(stderr, "FAIL: %s has %lld images, expected %lld\n",
                   corpus.dataset.schema().attribute(1).values[e].c_str(),
                   static_cast<long long>(count),
                   static_cast<long long>(kTau));
      ok = false;
    }
  }
  const int64_t planned = core::PlanTotal(repair.plan);
  if (repair.accepted != planned) {
    std::fprintf(stderr, "FAIL: accepted %lld, expected the plan's %lld\n",
                 static_cast<long long>(repair.accepted),
                 static_cast<long long>(planned));
    ok = false;
  }
  return ok;
}

void AddReportRows(util::TablePrinter* table, const char* dataset_label,
                   const fm::Corpus& corpus,
                   const nn::ClassificationReport& report) {
  const auto& schema = corpus.dataset.schema();
  table->AddRow({dataset_label, "Overall",
                 util::Fmt(static_cast<int64_t>(corpus.dataset.size())),
                 util::Fmt(report.WeightedPrecision()),
                 util::Fmt(report.WeightedRecall()),
                 util::Fmt(report.WeightedF1())});
  for (int e : kRepairedGroups) {
    const auto& m = report.class_metrics(e);
    table->AddRow({dataset_label, schema.attribute(1).values[e],
                   util::Fmt(GroupCount(corpus, e)), util::Fmt(m.Precision()),
                   util::Fmt(m.Recall()), util::Fmt(m.F1())});
  }
}

}  // namespace

int main(int argc, char** argv) {
  util::Stopwatch bench_stopwatch;
  std::printf(
      "=== Table 3: repairing lack of coverage on FERETDB (tau=%lld, "
      "seed=%llu) ===\n",
      static_cast<long long>(kTau), static_cast<unsigned long long>(kSeed));

  const embedding::SimulatedEmbedder embedder;
  datasets::FeretOptions feret_options;
  auto corpus = datasets::MakeFeret(&embedder, feret_options);
  auto test = datasets::MakeFeretTestSet(&embedder, feret_options);
  if (!corpus.ok() || !test.ok()) {
    std::fprintf(stderr, "corpus construction failed\n");
    return 1;
  }

  util::TablePrinter table(
      {"Train set", "Group", "#Images", "Precision", "Recall", "F1"});

  const auto before =
      bench::TrainAndEvaluateEthnicityClassifier(*corpus, *test);
  AddReportRows(&table, "FERETDB", *corpus, before);

  // Repair with Greedy selection + LinUCB guides + Moderate masks — the
  // configuration §6.3 names.
  fm::SimulatedFoundationModel::Options fm_options;
  fm::SimulatedFoundationModel model(corpus->dataset.schema(),
                                     datasets::FeretFaceStyleFn(),
                                     datasets::FeretScene(), fm_options);
  const fm::EvaluatorPool evaluators(2024);
  core::ChameleonOptions options;
  options.tau = kTau;
  options.selection = core::SelectionAlgorithm::kGreedy;
  options.guide_strategy = core::GuideStrategy::kLinUcb;
  options.mask_level = image::MaskLevel::kModerate;
  options.seed = kSeed;
  core::Chameleon system(&model, &embedder, &evaluators, options);
  auto repair = system.RepairMinLevelMups(&*corpus);
  if (!repair.ok()) {
    std::fprintf(stderr, "repair failed: %s\n",
                 repair.status().ToString().c_str());
    return 1;
  }

  const auto after =
      bench::TrainAndEvaluateEthnicityClassifier(*corpus, *test);
  AddReportRows(&table, "Repaired", *corpus, after);

  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\n--- repair run (paper: 307 queries, 231 accepted = 75%%, $4.91) "
      "---\n");
  std::printf("queries issued:        %lld\n",
              static_cast<long long>(repair->queries));
  std::printf("accepted:              %lld (%.0f%%)\n",
              static_cast<long long>(repair->accepted),
              100.0 * repair->AcceptanceRate());
  std::printf("estimated p:           %.2f (paper: 0.86)\n",
              repair->estimated_p);
  std::printf("cost at $%.3f/image:   $%.2f\n", model.query_cost(),
              repair->total_cost);
  std::printf("level-1 MUPs resolved: %s\n",
              repair->fully_resolved ? "yes" : "NO");
  const bool shaped = HasPaperShape(*corpus, *repair);
  std::printf("Paper shape: %s\n", shaped ? "holds" : "BROKEN");
  return bench::FinishExperiment(argc, argv, "bench_table3_proof_of_concept",
                                 bench_stopwatch.ElapsedSeconds(),
                                 shaped ? 0 : 1);
}
