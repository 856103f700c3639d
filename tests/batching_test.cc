// Batched FM queries: the BatchCoalescer's flush triggers, the
// BackendPool's routing and slot-order contracts, and the pipeline-level
// determinism guarantee — accepted tuples are bit-identical across fm
// batch sizes and thread counts, with and without injected faults
// (DESIGN.md §11).

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/chameleon.h"
#include "src/datasets/feret.h"
#include "src/embedding/simulated_embedder.h"
#include "src/fm/backend_pool.h"
#include "src/fm/batching.h"
#include "src/fm/evaluator_pool.h"
#include "src/fm/flaky_foundation_model.h"
#include "src/fm/foundation_model.h"
#include "src/fm/resilient_foundation_model.h"
#include "src/fm/simulated_foundation_model.h"
#include "src/obs/observability.h"
#include "src/util/rng.h"
#include "src/util/status.h"
#include "src/util/thread_pool.h"

namespace chameleon::fm {
namespace {

// ---------------------------------------------------------------------------
// BatchCoalescer flush triggers
// ---------------------------------------------------------------------------

/// Deterministic backend that records the size of every batch it serves.
/// Each result echoes the request's values and stamps latent_realism from
/// the model's own call counter, so slot routing mistakes are visible.
class RecordingModel : public FoundationModel {
 public:
  [[nodiscard]] util::Result<GenerationResult> Generate(
      const GenerationRequest& request, util::Rng* /*rng*/) override {
    RecordQuery();
    GenerationResult result;
    result.image = image::Image(2, 2, 3, 7);
    result.values = request.target_values;
    result.latent_realism = static_cast<double>(calls_++);
    return result;
  }

  [[nodiscard]] std::vector<util::Result<GenerationResult>> GenerateBatch(
      std::span<const BatchItem> items) override {
    batch_sizes_.push_back(static_cast<int>(items.size()));
    return FoundationModel::GenerateBatch(items);
  }

  double query_cost() const override { return 1.0; }
  const std::vector<int>& batch_sizes() const { return batch_sizes_; }

 private:
  std::vector<int> batch_sizes_;
  int64_t calls_ = 0;
};

GenerationRequest RequestFor(int i) {
  GenerationRequest request;
  request.target_values = {i, i + 1};
  return request;
}

TEST(BatchCoalescerTest, SizeTriggerFlushesFullBatches) {
  RecordingModel model;
  BatchCoalescerOptions options;
  options.max_batch_size = 3;
  options.window_ms = 1e9;  // never trips
  BatchCoalescer coalescer(&model, options);

  std::vector<GenerationRequest> requests;
  std::vector<util::Rng> rngs;
  std::vector<BatchCoalescer::Slot> slots(7);
  for (int i = 0; i < 7; ++i) {
    requests.push_back(RequestFor(i));
    rngs.emplace_back(static_cast<uint64_t>(i));
  }
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(coalescer.Enqueue(&requests[i], &rngs[i], &slots[i]).ok());
  }
  // Two full batches of 3 flushed on size; the 7th request still pending.
  EXPECT_EQ(model.batch_sizes(), (std::vector<int>{3, 3}));
  EXPECT_EQ(coalescer.pending(), 1u);
  EXPECT_FALSE(slots[6].has_value());

  ASSERT_TRUE(coalescer.Flush().ok());
  EXPECT_EQ(model.batch_sizes(), (std::vector<int>{3, 3, 1}));
  EXPECT_EQ(coalescer.pending(), 0u);

  const BatchCoalescerStats& stats = coalescer.stats();
  EXPECT_EQ(stats.enqueued, 7);
  EXPECT_EQ(stats.flushes, 3);
  EXPECT_EQ(stats.flushed_requests, 7);
  EXPECT_EQ(stats.size_flushes, 2);
  EXPECT_EQ(stats.window_flushes, 0);
  EXPECT_EQ(stats.forced_flushes, 1);
  EXPECT_EQ(stats.max_batch, 3);

  // Every slot answered, in arrival order, with its own request's values.
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(slots[i].has_value()) << "slot " << i;
    ASSERT_TRUE(slots[i]->ok());
    EXPECT_EQ((*slots[i])->values, requests[i].target_values);
    EXPECT_DOUBLE_EQ((*slots[i])->latent_realism, static_cast<double>(i));
  }
}

TEST(BatchCoalescerTest, WindowTriggerFlushesAgedBatch) {
  RecordingModel model;
  BatchCoalescerOptions options;
  options.max_batch_size = 100;
  options.window_ms = 2.5;
  options.arrival_interval_ms = 1.0;
  BatchCoalescer coalescer(&model, options);

  std::vector<GenerationRequest> requests;
  std::vector<util::Rng> rngs;
  std::vector<BatchCoalescer::Slot> slots(5);
  for (int i = 0; i < 5; ++i) {
    requests.push_back(RequestFor(i));
    rngs.emplace_back(static_cast<uint64_t>(i));
  }
  // Arrivals at t = 0,1,2,3,4 ms. The arrival at t=3 ages the window
  // opened at t=0 past 2.5 ms, so {0,1,2} flush before 3 is queued; the
  // same happens again when a later arrival would age the new window.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(coalescer.Enqueue(&requests[i], &rngs[i], &slots[i]).ok());
  }
  EXPECT_EQ(model.batch_sizes(), (std::vector<int>{3}));
  EXPECT_EQ(coalescer.stats().window_flushes, 1);
  EXPECT_EQ(coalescer.pending(), 2u);

  ASSERT_TRUE(coalescer.Flush().ok());
  EXPECT_EQ(model.batch_sizes(), (std::vector<int>{3, 2}));
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(slots[i].has_value());
    ASSERT_TRUE(slots[i]->ok());
    EXPECT_EQ((*slots[i])->values, requests[i].target_values);
  }
}

TEST(BatchCoalescerTest, FlushOnEmptyIsANoOp) {
  RecordingModel model;
  BatchCoalescer coalescer(&model, {});
  ASSERT_TRUE(coalescer.Flush().ok());
  ASSERT_TRUE(coalescer.Flush().ok());
  EXPECT_EQ(coalescer.stats().flushes, 0);
  EXPECT_TRUE(model.batch_sizes().empty());
}

TEST(BatchCoalescerTest, EnqueueRejectsNullArguments) {
  RecordingModel model;
  BatchCoalescer coalescer(&model, {});
  GenerationRequest request = RequestFor(0);
  util::Rng rng(1);
  BatchCoalescer::Slot slot;
  EXPECT_EQ(coalescer.Enqueue(nullptr, &rng, &slot).code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(coalescer.Enqueue(&request, nullptr, &slot).code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(coalescer.Enqueue(&request, &rng, nullptr).code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(coalescer.pending(), 0u);
}

TEST(BatchCoalescerTest, PerRequestFailuresLandInTheirOwnSlots) {
  // A failing request must not poison its batchmates: the default
  // GenerateBatch carries each per-request error in its own slot.
  FlakyOptions flaky_options;
  flaky_options.outage_start = 1;  // second call in the batch fails
  flaky_options.outage_length = 1;
  RecordingModel inner;
  FlakyFoundationModel model(&inner, flaky_options);

  BatchCoalescerOptions options;
  options.max_batch_size = 3;
  BatchCoalescer coalescer(&model, options);
  std::vector<GenerationRequest> requests;
  std::vector<util::Rng> rngs;
  std::vector<BatchCoalescer::Slot> slots(3);
  requests.reserve(3);  // enqueued pointers must survive the loop
  rngs.reserve(3);
  for (int i = 0; i < 3; ++i) {
    requests.push_back(RequestFor(i));
    rngs.emplace_back(static_cast<uint64_t>(i));
    ASSERT_TRUE(coalescer.Enqueue(&requests[i], &rngs[i], &slots[i]).ok());
  }
  ASSERT_TRUE(slots[0].has_value());
  ASSERT_TRUE(slots[1].has_value());
  ASSERT_TRUE(slots[2].has_value());
  EXPECT_TRUE(slots[0]->ok());
  EXPECT_EQ(slots[1]->status().code(), util::StatusCode::kUnavailable);
  EXPECT_TRUE(slots[2]->ok());
  EXPECT_EQ((*slots[2])->values, requests[2].target_values);
}

// ---------------------------------------------------------------------------
// Default GenerateBatch == loop over Generate
// ---------------------------------------------------------------------------

TEST(FoundationModelTest, DefaultGenerateBatchMatchesLoopOverGenerate) {
  const auto schema = datasets::FeretSchema();
  const SimulatedFoundationModel::Options sim_options;
  auto make_model = [&] {
    return SimulatedFoundationModel(schema, datasets::FeretFaceStyleFn(),
                                    datasets::FeretScene(), sim_options);
  };

  // Slot 3 targets a combination outside the schema and must fail in its
  // own slot without disturbing its batchmates.
  std::vector<GenerationRequest> requests;
  for (int i = 0; i < 6; ++i) {
    GenerationRequest request;
    request.target_values = {i % 2, i % 5};
    if (i == 3) request.target_values = {7, 7};
    requests.push_back(request);
  }

  // Per-request RNG forks from a common parent, exactly as the pipeline
  // does before enqueueing.
  SimulatedFoundationModel loop_model = make_model();
  std::vector<util::Result<GenerationResult>> via_loop;
  {
    util::Rng parent(99);
    for (const GenerationRequest& request : requests) {
      util::Rng fork = parent.Fork();
      via_loop.push_back(loop_model.Generate(request, &fork));
    }
  }
  ASSERT_FALSE(via_loop[3].ok());

  // The batch serially (no ambient pool), then on a current pool: the
  // simulator fans its slots out over the pool the caller scoped.
  for (const int threads : {0, 4}) {
    SCOPED_TRACE(threads == 0 ? "no current pool" : "current pool");
    SimulatedFoundationModel batch_model = make_model();
    util::Rng parent(99);
    std::vector<util::Rng> forks;
    forks.reserve(requests.size());
    for (size_t i = 0; i < requests.size(); ++i) forks.push_back(parent.Fork());
    std::vector<BatchItem> items;
    for (size_t i = 0; i < requests.size(); ++i) {
      items.push_back(BatchItem{&requests[i], &forks[i]});
    }
    std::optional<util::ThreadPool> pool;
    if (threads > 0) pool.emplace(threads);
    const util::ThreadPool::Scope scope(pool.has_value() ? &*pool : nullptr);
    const auto via_batch = batch_model.GenerateBatch(items);

    ASSERT_EQ(via_batch.size(), via_loop.size());
    for (size_t i = 0; i < via_loop.size(); ++i) {
      ASSERT_EQ(via_batch[i].ok(), via_loop[i].ok()) << "item " << i;
      if (!via_loop[i].ok()) {
        EXPECT_EQ(via_batch[i].status(), via_loop[i].status());
        continue;
      }
      EXPECT_EQ(via_batch[i]->image, via_loop[i]->image) << "item " << i;
      EXPECT_EQ(via_batch[i]->values, via_loop[i]->values);
      EXPECT_EQ(via_batch[i]->latent_realism, via_loop[i]->latent_realism);
    }
    EXPECT_EQ(batch_model.num_queries(), loop_model.num_queries());
    if (pool.has_value()) {
      EXPECT_GT(pool->stats().parallel_for_calls, 0);
    }
  }
}

// ---------------------------------------------------------------------------
// BackendPool routing
// ---------------------------------------------------------------------------

SimulatedBackendPool MakeTestPool(BackendRouterKind router) {
  SimulatedPoolOptions options;
  options.num_backends = 3;
  SimulatedBackendPool pool = MakeSimulatedBackendPool(
      datasets::FeretSchema(), datasets::FeretFaceStyleFn(),
      datasets::FeretScene(), options);
  pool.pool->set_backend_router(router);
  return pool;
}

TEST(BackendPoolTest, GreedyRouterPicksCheapestCostPerAcceptedTuple) {
  SimulatedBackendPool pool = MakeTestPool(BackendRouterKind::kGreedyCost);
  // econ: 0.008 / 0.35 ≈ 0.023 beats standard (0.032) and premium (0.046).
  util::Rng rng(5);
  for (int i = 0; i < 4; ++i) {
    auto result = pool.pool->Generate(RequestFor(i % 2), &rng);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->backend, 0);
  }
  EXPECT_EQ(pool.pool->routed_queries(0), 4);
  EXPECT_EQ(pool.pool->routed_queries(1), 0);
  EXPECT_EQ(pool.pool->routed_queries(2), 0);
  EXPECT_EQ(pool.pool->num_queries(), 4);
}

TEST(BackendPoolTest, LinUcbRouterLearnsFromOutcomeFeedback) {
  SimulatedBackendPool pool = MakeTestPool(BackendRouterKind::kLinUcb);
  util::Rng rng(5);
  // Untrained, every arm scores the same and ties break to index 0.
  auto first = pool.pool->Generate(RequestFor(0), &rng);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->backend, 0);

  // Feedback: econ keeps rejecting, premium keeps accepting. The router
  // only ever learns through ReportOutcome (the pipeline's merge path).
  for (int i = 0; i < 3; ++i) {
    pool.pool->ReportOutcome(0, /*accepted=*/false);
    pool.pool->ReportOutcome(2, /*accepted=*/true);
  }
  auto trained = pool.pool->Generate(RequestFor(1), &rng);
  ASSERT_TRUE(trained.ok());
  EXPECT_EQ(trained->backend, 2);
  EXPECT_EQ(pool.pool->accepted_outcomes(2), 3);
  EXPECT_EQ(pool.pool->accepted_outcomes(0), 0);

  // OnRunStart forgets the training: runs are independent.
  pool.pool->OnRunStart();
  auto fresh = pool.pool->Generate(RequestFor(0), &rng);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->backend, 0);
}

TEST(BackendPoolTest, GenerateBatchPreservesSlotOrderAndStampsBackend) {
  SimulatedBackendPool pool = MakeTestPool(BackendRouterKind::kGreedyCost);
  std::vector<GenerationRequest> requests;
  std::vector<util::Rng> rngs;
  for (int i = 0; i < 5; ++i) {
    requests.push_back(RequestFor(i % 2));
    rngs.emplace_back(static_cast<uint64_t>(200 + i));
  }
  std::vector<BatchItem> items;
  for (size_t i = 0; i < requests.size(); ++i) {
    items.push_back(BatchItem{&requests[i], &rngs[i]});
  }
  const double before_ms = pool.pool->virtual_ms();
  const auto results = pool.pool->GenerateBatch(items);
  ASSERT_EQ(results.size(), requests.size());
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << "item " << i;
    EXPECT_EQ(results[i]->values, requests[i].target_values);
    EXPECT_EQ(results[i]->backend, 0);
  }
  // One dispatch to the econ tier: base 30 ms + 5 queries * 3 ms.
  EXPECT_DOUBLE_EQ(pool.pool->virtual_ms() - before_ms, 30.0 + 5 * 3.0);
}

TEST(BackendPoolTest, BatchingSameRequestsIsBitIdenticalToSingles) {
  // The pool half of the determinism contract: grouping into a batch
  // changes neither routing nor results, given per-request RNG forks.
  std::vector<GenerationRequest> requests;
  for (int i = 0; i < 8; ++i) requests.push_back(RequestFor(i % 2));

  SimulatedBackendPool singles = MakeTestPool(BackendRouterKind::kGreedyCost);
  std::vector<GenerationResult> expected;
  {
    util::Rng parent(321);
    for (const GenerationRequest& request : requests) {
      util::Rng fork = parent.Fork();
      expected.push_back(*singles.pool->Generate(request, &fork));
    }
  }

  SimulatedBackendPool batched = MakeTestPool(BackendRouterKind::kGreedyCost);
  util::Rng parent(321);
  std::vector<util::Rng> forks;
  forks.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) forks.push_back(parent.Fork());
  std::vector<BatchItem> items;
  for (size_t i = 0; i < requests.size(); ++i) {
    items.push_back(BatchItem{&requests[i], &forks[i]});
  }
  const auto results = batched.pool->GenerateBatch(items);
  ASSERT_EQ(results.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_TRUE(results[i].ok());
    EXPECT_EQ(results[i]->image, expected[i].image) << "item " << i;
    EXPECT_EQ(results[i]->values, expected[i].values);
    EXPECT_EQ(results[i]->latent_realism, expected[i].latent_realism);
  }
}

}  // namespace
}  // namespace chameleon::fm

// ---------------------------------------------------------------------------
// Pipeline-level bit-identity across batch sizes and thread counts
// ---------------------------------------------------------------------------

namespace chameleon::core {
namespace {

struct PipelineRun {
  RepairReport report;
  int64_t synthetic = 0;
};

/// One full repair over a fresh FERET corpus with the given fm transport
/// batch size (1 = one query per dispatch, 0 = follow rejection_batch).
/// When `faults` is set, the model stack is resilient(flaky(simulator))
/// with a 30% transient rate and a retry budget that masks everything.
PipelineRun RunBatchedRepair(int fm_batch, int threads, bool faults) {
  embedding::SimulatedEmbedder embedder;
  fm::EvaluatorPool evaluators(2024);
  fm::Corpus corpus =
      *datasets::MakeFeret(&embedder, datasets::FeretOptions());
  fm::SimulatedFoundationModel sim(corpus.dataset.schema(),
                                   datasets::FeretFaceStyleFn(),
                                   datasets::FeretScene(),
                                   fm::SimulatedFoundationModel::Options());
  std::unique_ptr<fm::FlakyFoundationModel> flaky_model;
  std::unique_ptr<fm::ResilientFoundationModel> resilient_model;
  fm::FoundationModel* model = &sim;
  if (faults) {
    fm::FlakyOptions flaky;
    flaky.seed = 555;
    flaky.transient_rate = 0.3;
    fm::ResilienceOptions resilience;
    resilience.max_attempts = 64;
    resilience.breaker_failure_threshold = 1 << 30;
    flaky_model = std::make_unique<fm::FlakyFoundationModel>(&sim, flaky);
    resilient_model = std::make_unique<fm::ResilientFoundationModel>(
        flaky_model.get(), resilience);
    model = resilient_model.get();
  }

  ChameleonOptions options;
  options.tau = 40;
  options.seed = 11;
  options.num_threads = threads;
  options.rejection_batch = 32;
  options.fm_batch_size = fm_batch;
  Chameleon system(model, &embedder, &evaluators, options);
  auto report = system.RepairMinLevelMups(&corpus);
  EXPECT_TRUE(report.ok());
  return {*report, corpus.dataset.NumSynthetic()};
}

void ExpectSameAcceptedTuples(const RepairReport& a, const RepairReport& b) {
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.distribution_passes, b.distribution_passes);
  EXPECT_EQ(a.quality_passes, b.quality_passes);
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

/// FNV-1a 64 over what a run accepted, as 16 hex digits: the query and
/// acceptance counts, then per record its target, embedding, decision
/// value, quality p-value, arm and verdict (each as 8 little-endian
/// bytes; doubles by bit pattern).
std::string ReportDigest(const RepairReport& report) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  auto word = [&hash](uint64_t w) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (w >> (8 * i)) & 0xffU;
      hash *= 0x100000001b3ULL;
    }
  };
  auto real = [&word](double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    word(bits);
  };
  word(static_cast<uint64_t>(report.queries));
  word(static_cast<uint64_t>(report.accepted));
  for (const GenerationRecord& r : report.records) {
    for (int v : r.target_values) word(static_cast<uint64_t>(int64_t{v}));
    for (double e : r.embedding) real(e);
    real(r.decision_value);
    real(r.quality_p_value);
    word(static_cast<uint64_t>(int64_t{r.arm}));
    word(r.accepted ? 1 : 0);
  }
  char out[17];
  std::snprintf(out, sizeof(out), "%016llx",
                static_cast<unsigned long long>(hash));
  return out;
}

/// ReportDigest of the fault-free RunBatchedRepair (72 queries, 51
/// accepted), captured from the one-dispatch-per-query pipeline before
/// every query went through the coalescer. Every cell of both matrices
/// below must reproduce it.
constexpr const char* kReferenceReportDigest = "3b61c5ae14b7fac5";

TEST(BatchingDeterminismTest, AcceptedTuplesBitIdenticalAcrossBatchSizes) {
  // Acceptance criterion: grouping queries into transport batches must
  // not change a single accepted tuple. Baseline is one query per
  // dispatch (fm_batch = 1) at one thread; every batched configuration —
  // including the follow-rejection_batch default (0) — must match it
  // bit for bit at every thread count, and all of them must match the
  // pinned reference digest.
  const PipelineRun baseline =
      RunBatchedRepair(/*fm_batch=*/1, /*threads=*/1, /*faults=*/false);
  ASSERT_GT(baseline.report.accepted, 0);
  EXPECT_EQ(ReportDigest(baseline.report), kReferenceReportDigest);

  for (int fm_batch : {0, 8, 32}) {
    for (int threads : {1, 2, 8}) {
      const PipelineRun run = RunBatchedRepair(fm_batch, threads, false);
      SCOPED_TRACE("fm_batch=" + std::to_string(fm_batch) +
                   " threads=" + std::to_string(threads));
      ExpectSameAcceptedTuples(baseline.report, run.report);
      EXPECT_EQ(baseline.synthetic, run.synthetic);
      EXPECT_EQ(ReportDigest(run.report), kReferenceReportDigest);
    }
  }
}

TEST(BatchingDeterminismTest, MaskedFaultsPreserveTuplesAtEveryBatchSize) {
  // The same matrix under a 30% injected transient-fault rate: the retry
  // layer masks every fault (checkpointing the per-request RNG), so the
  // batched runs still reproduce the fault-free baseline exactly.
  const PipelineRun baseline =
      RunBatchedRepair(/*fm_batch=*/1, /*threads=*/1, /*faults=*/false);
  ASSERT_GT(baseline.report.accepted, 0);

  for (int fm_batch : {1, 8, 32}) {
    for (int threads : {1, 2, 8}) {
      const PipelineRun run = RunBatchedRepair(fm_batch, threads, true);
      SCOPED_TRACE("fm_batch=" + std::to_string(fm_batch) +
                   " threads=" + std::to_string(threads));
      ExpectSameAcceptedTuples(baseline.report, run.report);
      EXPECT_EQ(baseline.synthetic, run.synthetic);
      EXPECT_EQ(ReportDigest(run.report), kReferenceReportDigest);
      EXPECT_GT(run.report.faults.transport.faults_masked, 0);
      EXPECT_EQ(run.report.faults.transport.failed_queries, 0);
      EXPECT_EQ(run.report.faults.parked_entries(), 0);
    }
  }
}

TEST(BatchingDeterminismTest, PoolPipelineIsDeterministicAcrossConfigs) {
  // End to end with the multi-backend pool and the learned router: the
  // router trains only on the serial merge path, so batching and thread
  // count still cannot perturb routing or results.
  auto run_with_pool = [](int fm_batch, int threads) {
    embedding::SimulatedEmbedder embedder;
    fm::EvaluatorPool evaluators(2024);
    fm::Corpus corpus =
        *datasets::MakeFeret(&embedder, datasets::FeretOptions());
    fm::SimulatedBackendPool pool = fm::MakeSimulatedBackendPool(
        corpus.dataset.schema(), datasets::FeretFaceStyleFn(),
        datasets::FeretScene(), fm::SimulatedPoolOptions());
    ChameleonOptions options;
    options.tau = 40;
    options.seed = 11;
    options.num_threads = threads;
    options.rejection_batch = 32;
    options.fm_batch_size = fm_batch;
    options.backend_router = fm::BackendRouterKind::kLinUcb;
    Chameleon system(pool.pool.get(), &embedder, &evaluators, options);
    auto report = system.RepairMinLevelMups(&corpus);
    EXPECT_TRUE(report.ok());
    PipelineRun run{*report, corpus.dataset.NumSynthetic()};
    EXPECT_EQ(pool.pool->backend_router(), fm::BackendRouterKind::kLinUcb);
    return run;
  };

  const PipelineRun baseline = run_with_pool(/*fm_batch=*/1, /*threads=*/1);
  ASSERT_GT(baseline.report.accepted, 0);
  for (int fm_batch : {8, 32}) {
    for (int threads : {1, 8}) {
      const PipelineRun run = run_with_pool(fm_batch, threads);
      SCOPED_TRACE("fm_batch=" + std::to_string(fm_batch) +
                   " threads=" + std::to_string(threads));
      ExpectSameAcceptedTuples(baseline.report, run.report);
      EXPECT_EQ(baseline.synthetic, run.synthetic);
    }
  }
}

TEST(BatchingDeterminismTest, BatchedModeParksPerFailureAndKeepsBatchmates) {
  // A scripted outage inside a round (no retry layer) parks the entries
  // it hit — one fm.parked increment per failed result — while the OK
  // results from the same round are still evaluated and merged. How the
  // round was split into dispatches does not matter: one query per
  // dispatch and one batch of 8 give the same report.
  struct ParkedRun {
    RepairReport report;
    int64_t fm_parked = 0;
    int64_t model_queries = 0;
  };
  auto run_outage = [](int fm_batch) {
    embedding::SimulatedEmbedder embedder;
    fm::EvaluatorPool evaluators(2024);
    fm::Corpus corpus =
        *datasets::MakeFeret(&embedder, datasets::FeretOptions());
    fm::SimulatedFoundationModel sim(corpus.dataset.schema(),
                                     datasets::FeretFaceStyleFn(),
                                     datasets::FeretScene(),
                                     fm::SimulatedFoundationModel::Options());
    fm::FlakyOptions flaky;
    flaky.outage_start = 2;
    flaky.outage_length = 3;
    fm::FlakyFoundationModel model(&sim, flaky);

    obs::Observability observability;
    ChameleonOptions options;
    options.tau = 40;
    options.seed = 11;
    options.rejection_batch = 8;
    options.fm_batch_size = fm_batch;
    options.observability = &observability;
    Chameleon system(&model, &embedder, &evaluators, options);
    auto report = system.RepairMinLevelMups(&corpus);
    EXPECT_TRUE(report.ok());
    // The outage hit real queries.
    EXPECT_EQ(model.counters().scripted, 3);
    return ParkedRun{report.ok() ? *report : RepairReport(),
                     observability.registry.Counter("fm.parked")->value(),
                     model.num_queries()};
  };

  const ParkedRun single = run_outage(/*fm_batch=*/1);
  const ParkedRun batched = run_outage(/*fm_batch=*/8);
  for (const ParkedRun* run : {&single, &batched}) {
    // At least one entry parked, with one parked count per failed
    // result, not per entry...
    EXPECT_GE(run->report.faults.parked_entries(), 1);
    EXPECT_EQ(run->fm_parked, 3);
    EXPECT_EQ(run->report.faults.transport_failures, 3);
    // ...while the healthy queries sharing those rounds still produced
    // tuples, and the pinned accounting identity still holds.
    EXPECT_GT(run->report.accepted, 0);
    EXPECT_EQ(run->report.queries, run->model_queries - 3);
  }
  ExpectSameAcceptedTuples(single.report, batched.report);
  EXPECT_EQ(single.report.faults.parked_targets,
            batched.report.faults.parked_targets);
}

}  // namespace
}  // namespace chameleon::core
