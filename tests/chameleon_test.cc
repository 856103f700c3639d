// Integration tests: the full Chameleon repair pipeline over simulated
// corpora, foundation model, embedder and evaluators.

#include "gtest/gtest.h"
#include "src/core/chameleon.h"
#include "src/coverage/mup_finder.h"
#include "src/coverage/pattern_counter.h"
#include "src/datasets/feret.h"
#include "src/datasets/utkface.h"
#include "src/embedding/simulated_embedder.h"
#include "src/fm/evaluator_pool.h"
#include "src/fm/simulated_foundation_model.h"
#include "src/obs/observability.h"

namespace chameleon::core {
namespace {

class ChameleonFeretTest : public ::testing::Test {
 protected:
  ChameleonFeretTest()
      : embedder_(),
        evaluators_(2024),
        corpus_(*datasets::MakeFeret(&embedder_, datasets::FeretOptions())),
        model_(corpus_.dataset.schema(), datasets::FeretFaceStyleFn(),
               datasets::FeretScene(),
               fm::SimulatedFoundationModel::Options()) {}

  std::vector<coverage::Mup> CurrentMups(int64_t tau) const {
    const auto counter =
        *coverage::PatternCounter::FromDataset(corpus_.dataset);
    coverage::MupFinder finder(corpus_.dataset.schema(), counter);
    coverage::MupFinderOptions options;
    options.tau = tau;
    return finder.FindMups(options);
  }

  embedding::SimulatedEmbedder embedder_;
  fm::EvaluatorPool evaluators_;
  fm::Corpus corpus_;
  fm::SimulatedFoundationModel model_;
};

TEST_F(ChameleonFeretTest, NoOpWhenAlreadyCovered) {
  ChameleonOptions options;
  options.tau = 1;  // everything covered
  Chameleon system(&model_, &embedder_, &evaluators_, options);
  auto report = system.RepairMinLevelMups(&corpus_);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->fully_resolved);
  EXPECT_EQ(report->queries, 0);
  EXPECT_TRUE(report->initial_mups.empty());
  EXPECT_EQ(corpus_.dataset.NumSynthetic(), 0);
}

TEST_F(ChameleonFeretTest, RepairsLevel1MupsEndToEnd) {
  constexpr int64_t kTau = 40;
  const size_t before_size = corpus_.dataset.size();
  ASSERT_FALSE(CurrentMups(kTau).empty());

  ChameleonOptions options;
  options.tau = kTau;
  options.guide_strategy = GuideStrategy::kLinUcb;
  options.mask_level = image::MaskLevel::kModerate;
  options.seed = 11;
  Chameleon system(&model_, &embedder_, &evaluators_, options);
  auto report = system.RepairMinLevelMups(&corpus_);
  ASSERT_TRUE(report.ok());

  EXPECT_TRUE(report->fully_resolved);
  EXPECT_GT(report->accepted, 0);
  EXPECT_GE(report->queries, report->accepted);
  EXPECT_EQ(report->accepted,
            static_cast<int64_t>(corpus_.dataset.size() - before_size));
  EXPECT_EQ(corpus_.dataset.NumSynthetic(), report->accepted);
  EXPECT_NEAR(report->estimated_p, 0.86, 0.05);
  EXPECT_NEAR(report->total_cost, report->queries * model_.query_cost(),
              1e-9);

  // The smallest-level MUPs must be gone (level-1 at this tau); any
  // remaining MUPs must sit deeper in the lattice.
  for (const auto& m : CurrentMups(kTau)) {
    EXPECT_GT(m.Level(), 1);
  }

  // The plan total matches the accepted tuple count for a full repair.
  EXPECT_EQ(PlanTotal(report->plan), report->accepted);

  // Records cover every query, and every accepted record passed both.
  EXPECT_EQ(static_cast<int64_t>(report->records.size()), report->queries);
  int64_t accepted_records = 0;
  for (const auto& r : report->records) {
    if (r.accepted) {
      ++accepted_records;
      EXPECT_TRUE(r.distribution_pass);
      EXPECT_TRUE(r.quality_pass);
    }
  }
  EXPECT_EQ(accepted_records, report->accepted);
}

TEST_F(ChameleonFeretTest, SyntheticTuplesMatchTheirTargets) {
  ChameleonOptions options;
  options.tau = 30;
  options.seed = 13;
  Chameleon system(&model_, &embedder_, &evaluators_, options);
  auto report = system.RepairMinLevelMups(&corpus_);
  ASSERT_TRUE(report.ok());
  for (const auto& t : corpus_.dataset.tuples()) {
    if (!t.synthetic) continue;
    EXPECT_FALSE(t.embedding.empty());
    ASSERT_GE(t.payload_id, 0);
    ASSERT_LT(t.payload_id, static_cast<int64_t>(corpus_.images.size()));
    // Its values must match some planned combination.
    bool planned = false;
    for (const auto& entry : report->plan) {
      planned |= entry.values == t.values;
    }
    EXPECT_TRUE(planned);
  }
}

TEST_F(ChameleonFeretTest, QueryCapStopsTheLoop) {
  ChameleonOptions options;
  options.tau = 100;
  options.max_queries = 25;
  options.seed = 17;
  Chameleon system(&model_, &embedder_, &evaluators_, options);
  auto report = system.RepairMinLevelMups(&corpus_);
  ASSERT_TRUE(report.ok());
  EXPECT_LE(report->queries, 25);
  EXPECT_FALSE(report->fully_resolved);
}

TEST_F(ChameleonFeretTest, HugeTauSaturatesTheAttemptCap) {
  // tau near INT64_MAX makes the root's gap (tau - n) the plan count, and
  // the per-entry attempt cap × that count overflows int64: the attempt cap
  // saturates instead, and the query cap still ends the run.
  ChameleonOptions options;
  options.tau = int64_t{1} << 62;
  options.max_queries = 3;
  Chameleon system(&model_, &embedder_, &evaluators_, options);
  auto report = system.RepairMinLevelMups(&corpus_);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->queries, 3);
  EXPECT_FALSE(report->fully_resolved);
}

TEST_F(ChameleonFeretTest, AcceptanceCountersAreConsistent) {
  ChameleonOptions options;
  options.tau = 40;
  options.seed = 19;
  Chameleon system(&model_, &embedder_, &evaluators_, options);
  auto report = system.RepairMinLevelMups(&corpus_);
  ASSERT_TRUE(report.ok());
  EXPECT_LE(report->accepted, report->distribution_passes);
  EXPECT_LE(report->accepted, report->quality_passes);
  EXPECT_LE(report->distribution_passes, report->queries);
  EXPECT_LE(report->quality_passes, report->queries);
  EXPECT_GT(report->DistributionAcceptanceRate(), 0.2);
  EXPECT_GT(report->QualityAcceptanceRate(), 0.5);
}

TEST_F(ChameleonFeretTest, NoGuideStrategyAlsoRepairs) {
  ChameleonOptions options;
  options.tau = 30;
  options.guide_strategy = GuideStrategy::kNoGuide;
  options.seed = 23;
  options.max_queries = 20000;
  Chameleon system(&model_, &embedder_, &evaluators_, options);
  auto report = system.RepairMinLevelMups(&corpus_);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->accepted, 0);
  for (const auto& r : report->records) EXPECT_EQ(r.arm, -1);
}

TEST(ChameleonChallengeTest, ResolvesDesignedLevel3Mups) {
  const embedding::SimulatedEmbedder embedder;
  datasets::ChallengeOptions challenge;
  auto corpus = datasets::MakeUtkFaceChallengeSubset(&embedder, challenge);
  ASSERT_TRUE(corpus.ok());
  fm::SimulatedFoundationModel model(corpus->dataset.schema(),
                                     datasets::UtkFaceStyleFn(),
                                     datasets::UtkFaceScene(),
                                     fm::SimulatedFoundationModel::Options());
  const fm::EvaluatorPool evaluators(2024);
  ChameleonOptions options;
  options.tau = 10;
  options.guide_strategy = GuideStrategy::kSimilarTuple;
  options.mask_level = image::MaskLevel::kModerate;
  options.seed = 29;
  Chameleon system(&model, &embedder, &evaluators, options);
  auto report = system.RepairMinLevelMups(&*corpus);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->initial_mups.size(), 16u);
  EXPECT_TRUE(report->fully_resolved);

  const auto counter = *coverage::PatternCounter::FromDataset(corpus->dataset);
  coverage::MupFinder finder(corpus->dataset.schema(), counter);
  coverage::MupFinderOptions mup_options;
  mup_options.tau = 10;
  EXPECT_TRUE(finder.FindMups(mup_options).empty());
}


// Runs one full repair on a fresh FERET corpus with the given threading
// configuration and returns the report (plus the resulting corpus size
// via *out_synthetic).
RepairReport RunSeededRepair(int num_threads, int rejection_batch,
                             int64_t* out_synthetic) {
  embedding::SimulatedEmbedder embedder;
  fm::EvaluatorPool evaluators(2024);
  fm::Corpus corpus = *datasets::MakeFeret(&embedder, datasets::FeretOptions());
  fm::SimulatedFoundationModel model(corpus.dataset.schema(),
                                     datasets::FeretFaceStyleFn(),
                                     datasets::FeretScene(),
                                     fm::SimulatedFoundationModel::Options());
  ChameleonOptions options;
  options.tau = 40;
  options.seed = 11;
  options.num_threads = num_threads;
  options.rejection_batch = rejection_batch;
  Chameleon system(&model, &embedder, &evaluators, options);
  auto report = system.RepairMinLevelMups(&corpus);
  EXPECT_TRUE(report.ok());
  *out_synthetic = corpus.dataset.NumSynthetic();
  return *report;
}

void ExpectReportsBitIdentical(const RepairReport& a, const RepairReport& b) {
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.distribution_passes, b.distribution_passes);
  EXPECT_EQ(a.quality_passes, b.quality_passes);
  EXPECT_EQ(a.estimated_p, b.estimated_p);
  EXPECT_EQ(a.fully_resolved, b.fully_resolved);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].target_values, b.records[i].target_values);
    EXPECT_EQ(a.records[i].embedding, b.records[i].embedding);
    EXPECT_EQ(a.records[i].decision_value, b.records[i].decision_value);
    EXPECT_EQ(a.records[i].quality_p_value, b.records[i].quality_p_value);
    EXPECT_EQ(a.records[i].arm, b.records[i].arm);
    EXPECT_EQ(a.records[i].accepted, b.records[i].accepted);
  }
}

TEST(ChameleonDeterminismTest, ParallelRunIsBitIdenticalToSerial) {
  // The determinism contract: for a fixed rejection_batch, the worker
  // count must not change a single bit of the run — candidates are
  // submitted serially and merged in submission order.
  int64_t serial_synthetic = 0;
  const RepairReport serial =
      RunSeededRepair(/*num_threads=*/1, /*rejection_batch=*/4,
                      &serial_synthetic);
  for (int threads : {2, 4}) {
    int64_t parallel_synthetic = 0;
    const RepairReport parallel =
        RunSeededRepair(threads, /*rejection_batch=*/4, &parallel_synthetic);
    ExpectReportsBitIdentical(serial, parallel);
    EXPECT_EQ(serial_synthetic, parallel_synthetic);
  }
}

TEST(ChameleonDeterminismTest, BatchOfOneIsTheLegacySerialLoop) {
  // rejection_batch = 1 must reproduce the pre-batching loop exactly,
  // at every thread count (no pool is even constructed).
  int64_t legacy_synthetic = 0;
  const RepairReport legacy =
      RunSeededRepair(/*num_threads=*/1, /*rejection_batch=*/1,
                      &legacy_synthetic);
  int64_t threaded_synthetic = 0;
  const RepairReport threaded =
      RunSeededRepair(/*num_threads=*/4, /*rejection_batch=*/1,
                      &threaded_synthetic);
  ExpectReportsBitIdentical(legacy, threaded);
  EXPECT_EQ(legacy_synthetic, threaded_synthetic);
  EXPECT_GT(legacy.accepted, 0);
}

TEST(ChameleonInstrumentationContractTest, MetricIdentitiesHoldAtEveryThreadCount) {
  // The instrumentation contract ties the obs registry to ground truth
  // the pipeline already exposes: the fm.queries counter must equal the
  // model's own query count, and every non-parked query must receive
  // exactly one accept/reject verdict. These identities must hold at
  // every thread count — instrumentation fires on the serial
  // submission/merge path, never inside workers.
  for (int threads : {1, 2, 8}) {
    embedding::SimulatedEmbedder embedder;
    fm::EvaluatorPool evaluators(2024);
    fm::Corpus corpus =
        *datasets::MakeFeret(&embedder, datasets::FeretOptions());
    fm::SimulatedFoundationModel model(corpus.dataset.schema(),
                                       datasets::FeretFaceStyleFn(),
                                       datasets::FeretScene(),
                                       fm::SimulatedFoundationModel::Options());
    obs::Observability observability;
    ChameleonOptions options;
    options.tau = 40;
    options.seed = 11;
    options.num_threads = threads;
    options.rejection_batch = 4;
    options.observability = &observability;
    Chameleon system(&model, &embedder, &evaluators, options);
    auto report = system.RepairMinLevelMups(&corpus);
    ASSERT_TRUE(report.ok());

    obs::Registry& registry = observability.registry;
    const int64_t fm_queries = registry.Counter("fm.queries")->value();
    const int64_t fm_parked = registry.Counter("fm.parked")->value();
    const int64_t accepted = registry.Counter("rejection.accepted")->value();
    const int64_t rejected = registry.Counter("rejection.rejected")->value();

    EXPECT_EQ(fm_queries, model.num_queries()) << threads << " threads";
    EXPECT_EQ(accepted + rejected, fm_queries - fm_parked)
        << threads << " threads";
    EXPECT_EQ(report->queries, fm_queries - fm_parked) << threads << " threads";
    EXPECT_EQ(report->accepted, accepted) << threads << " threads";
    EXPECT_EQ(fm_parked, 0) << "healthy model must park nothing";
    EXPECT_GT(accepted, 0);

    // The decision-value histogram sees exactly the evaluated candidates.
    EXPECT_EQ(
        registry.Histogram("rejection.decision_value", {})->count(),
        fm_queries - fm_parked)
        << threads << " threads";
  }
}

TEST_F(ChameleonFeretTest, IterativeRepairWorksDownTheLattice) {
  // §4's iterative scheme: each RepairMinLevelMups round resolves the
  // smallest-level MUPs; repeating drains the whole lattice.
  constexpr int64_t kTau = 25;
  ChameleonOptions options;
  options.tau = kTau;
  options.seed = 31;
  Chameleon system(&model_, &embedder_, &evaluators_, options);

  int previous_min_level = -1;
  for (int round = 0; round < 4; ++round) {
    auto report = system.RepairMinLevelMups(&corpus_);
    ASSERT_TRUE(report.ok());
    if (report->initial_mups.empty()) break;
    const int level = report->initial_mups[0].Level();
    EXPECT_GT(level, previous_min_level)
        << "each round must target a deeper (or done) level";
    previous_min_level = level;
    EXPECT_TRUE(report->fully_resolved);
  }
  EXPECT_TRUE(CurrentMups(kTau).empty())
      << "lattice should be fully covered after iterating";
}

}  // namespace
}  // namespace chameleon::core
