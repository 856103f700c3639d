// Reproduces Figure 6: the cost (total number of images to generate) of
// resolving the smallest-level MUPs of the full UTKFace corpus under the
// Greedy, Random, and Min-Gap combination-selection algorithms, for
// tau in {200, 350, 1000, 2000}. At 200/350 the smallest MUP level is 2;
// at 1000/2000 level-1 MUPs appear and the repair targets those.
//
// Exits 1 unless the table has the EXPERIMENTS.md shape (the `paper`
// ctest label runs it): Greedy cheapest at every tau, Greedy < Min-Gap <
// Random at tau 200 and 350, and Min-Gap > Random at tau 2000.

#include <cstdio>
#include <map>

#include "bench/experiment_common.h"
#include "src/core/combination_selection.h"
#include "src/coverage/mup_finder.h"
#include "src/coverage/pattern_counter.h"
#include "src/datasets/utkface.h"
#include "src/embedding/simulated_embedder.h"
#include "src/util/rng.h"
#include "src/util/table_printer.h"

using namespace chameleon;

namespace {

/// Total images each algorithm needs at one tau.
struct Costs {
  int64_t greedy = 0;
  int64_t min_gap = 0;
  int64_t random = 0;
};

/// Prints every way `costs` departs from the paper's shape; returns
/// whether it has that shape.
bool HasPaperShape(const std::map<int64_t, Costs>& costs) {
  bool ok = true;
  auto expect = [&ok](bool holds, int64_t tau, const char* claim) {
    if (holds) return;
    std::fprintf(stderr, "FAIL: tau=%lld: expected %s\n",
                 static_cast<long long>(tau), claim);
    ok = false;
  };
  for (int64_t tau : {200, 350, 1000, 2000}) {
    const auto it = costs.find(tau);
    if (it == costs.end()) {
      expect(false, tau, "a level to repair");
      continue;
    }
    const Costs& c = it->second;
    expect(c.greedy < c.min_gap && c.greedy < c.random, tau,
           "Greedy cheapest");
    if (tau == 200 || tau == 350) {
      expect(c.min_gap < c.random, tau, "Min-Gap < Random");
    }
    if (tau == 2000) expect(c.min_gap > c.random, tau, "Min-Gap > Random");
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  util::Stopwatch bench_stopwatch;
  std::printf(
      "=== Figure 6: combination-selection cost on UTKFace "
      "(n=20000) ===\n");

  const embedding::SimulatedEmbedder embedder;
  datasets::UtkFaceOptions options;
  options.render.render_images = false;  // annotations are sufficient
  auto corpus = datasets::MakeUtkFace(&embedder, options);
  if (!corpus.ok()) {
    std::fprintf(stderr, "%s\n", corpus.status().ToString().c_str());
    return 1;
  }
  const auto& schema = corpus->dataset.schema();
  const auto counter = *coverage::PatternCounter::FromDataset(corpus->dataset);
  coverage::MupFinder finder(schema, counter);

  util::TablePrinter table({"tau", "target level", "#MUPs(all)",
                            "#MUPs(target)", "Greedy", "Min-Gap", "Random"});
  std::map<int64_t, Costs> costs;

  for (int64_t tau : {200, 350, 1000, 2000}) {
    coverage::MupFinderOptions mup_options;
    mup_options.tau = tau;
    const auto all_mups = finder.FindMups(mup_options);
    const auto targets = coverage::MupFinder::MinLevel(all_mups);
    if (targets.empty()) {
      table.AddRow({util::Fmt(tau), "-", "0", "0", "0", "0", "0"});
      continue;
    }
    const int target_level = targets[0].Level();

    const auto greedy = core::GreedySelect(schema, targets);
    const auto min_gap = core::MinGapSelect(schema, all_mups, target_level);
    util::Rng rng(tau);  // deterministic per-threshold baseline draw
    const auto random =
        core::RandomSelect(schema, all_mups, target_level, &rng);

    const Costs row{core::PlanTotal(greedy), core::PlanTotal(min_gap),
                    core::PlanTotal(random)};
    costs[tau] = row;
    table.AddRow({util::Fmt(tau), util::Fmt(target_level),
                  util::Fmt(static_cast<int64_t>(all_mups.size())),
                  util::Fmt(static_cast<int64_t>(targets.size())),
                  util::Fmt(row.greedy), util::Fmt(row.min_gap),
                  util::Fmt(row.random)});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\nExpected shape (paper): Greedy lowest everywhere; Min-Gap beats\n"
      "Random on level-2 repairs (tau=200/350) but degrades badly on\n"
      "level-1 repairs (tau=1000/2000).\n");
  const bool shaped = HasPaperShape(costs);
  std::printf("Paper shape: %s\n", shaped ? "holds" : "BROKEN");
  return bench::FinishExperiment(argc, argv, "bench_figure6_combination_selection",
                                 bench_stopwatch.ElapsedSeconds(),
                                 shaped ? 0 : 1);
}
