// Fault-tolerance suite: the flaky fault-injection decorator, the
// resilient retry/backoff/circuit-breaker decorator, and graceful
// degradation of the full repair pipeline under injected faults.

#include <cmath>
#include <deque>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/chameleon.h"
#include "src/datasets/feret.h"
#include "src/embedding/simulated_embedder.h"
#include "src/fm/deadline.h"
#include "src/fm/evaluator_pool.h"
#include "src/fm/flaky_foundation_model.h"
#include "src/fm/foundation_model.h"
#include "src/fm/resilient_foundation_model.h"
#include "src/fm/simulated_foundation_model.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace chameleon::fm {
namespace {

// ---------------------------------------------------------------------------
// Scripted fake backend
// ---------------------------------------------------------------------------

/// Plays back a script of failures; once the script is drained every call
/// succeeds. Consumes one rng draw per call *before* consulting the
/// script, so tests can verify the resilient wrapper's checkpoint/restore
/// of the pipeline stream.
class ScriptedModel : public FoundationModel {
 public:
  explicit ScriptedModel(std::deque<util::Status> script)
      : script_(std::move(script)) {}

  [[nodiscard]] util::Result<GenerationResult> Generate(
      const GenerationRequest& request, util::Rng* rng) override {
    RecordQuery();
    const double draw = rng->NextDouble();
    if (!script_.empty()) {
      util::Status next = script_.front();
      script_.pop_front();
      if (!next.ok()) return next;
    }
    GenerationResult result;
    result.image = image::Image(2, 2, 3, 128);
    result.values = request.target_values;
    result.latent_realism = draw;
    return result;
  }

  double query_cost() const override { return 1.0; }

 private:
  std::deque<util::Status> script_;
};

GenerationRequest SimpleRequest() {
  GenerationRequest request;
  request.target_values = {0, 1};
  request.prompt = "test";
  return request;
}

// ---------------------------------------------------------------------------
// ResilientFoundationModel: retry, classification, deadline
// ---------------------------------------------------------------------------

TEST(ResilientModelTest, RetriesMaskTransientFaults) {
  ScriptedModel backend({util::Status::Unavailable("blip"),
                         util::Status::ResourceExhausted("rate limited")});
  ResilienceOptions options;
  options.max_attempts = 4;
  ResilientFoundationModel model(&backend, options);
  util::Rng rng(7);
  auto result = model.Generate(SimpleRequest(), &rng);
  ASSERT_TRUE(result.ok());

  const FaultTelemetry& t = *model.fault_telemetry();
  EXPECT_EQ(t.attempts, 3);
  EXPECT_EQ(t.retries, 2);
  EXPECT_EQ(t.faults_masked, 1);
  EXPECT_EQ(t.failed_queries, 0);
  EXPECT_GT(t.backoff_ms, 0.0);
  EXPECT_EQ(model.num_queries(), 1);   // logical queries
  EXPECT_EQ(backend.num_queries(), 3); // physical attempts
  EXPECT_EQ(model.breaker_state(), BreakerState::kClosed);
}

TEST(ResilientModelTest, RestoresPipelineRngAcrossRetries) {
  // The masked query must consume exactly the draws a first-try success
  // would have: the scripted backend burns one draw before failing, and
  // the retry replays it.
  ScriptedModel backend({util::Status::Unavailable("blip")});
  ResilientFoundationModel model(&backend, {});
  util::Rng rng(123);
  auto result = model.Generate(SimpleRequest(), &rng);
  ASSERT_TRUE(result.ok());

  util::Rng replay(123);
  EXPECT_EQ(result->latent_realism, replay.NextDouble());
  // The outer stream continues exactly one draw in.
  EXPECT_EQ(rng.NextU64(), replay.NextU64());
}

TEST(ResilientModelTest, TerminalErrorsAreNotRetried) {
  ScriptedModel backend({util::Status::InvalidArgument("bad request")});
  ResilienceOptions options;
  options.max_attempts = 8;
  ResilientFoundationModel model(&backend, options);
  util::Rng rng(7);
  auto result = model.Generate(SimpleRequest(), &rng);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(model.fault_telemetry()->attempts, 1);
  EXPECT_EQ(model.fault_telemetry()->retries, 0);
  EXPECT_EQ(model.fault_telemetry()->failed_queries, 1);
  EXPECT_EQ(model.breaker_state(), BreakerState::kClosed);
}

TEST(ResilientModelTest, BackoffExponentIsCappedAtHugeAttemptBudgets) {
  // Regression: the backoff exponent is capped before exponentiation, so
  // a multi-thousand attempt budget saturates at backoff_max_ms instead
  // of overflowing the power-of-two fast path (a shift by >= 64 is UB)
  // or blowing std::pow out to infinity before the max applies.
  ScriptedModel backend({});
  FlakyOptions flaky_options;
  flaky_options.fail_from_query = 0;  // the backend is dead from call one
  FlakyFoundationModel flaky(&backend, flaky_options);

  ResilienceOptions options;
  options.max_attempts = 5000;
  options.breaker_failure_threshold = 1 << 30;  // retry the full budget
  ResilientFoundationModel model(&flaky, options);

  util::Rng rng(7);
  auto result = model.Generate(SimpleRequest(), &rng);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kUnavailable);

  const FaultTelemetry& t = *model.fault_telemetry();
  EXPECT_EQ(t.attempts, 5000);
  EXPECT_EQ(t.retries, 4999);
  EXPECT_GT(t.backoff_ms, 0.0);
  ASSERT_TRUE(std::isfinite(t.backoff_ms));
  // Every retry's delay saturates at backoff_max_ms, scaled by at most
  // the full upward jitter.
  EXPECT_LE(t.backoff_ms, 4999.0 * options.backoff_max_ms *
                              (1.0 + options.jitter_fraction));
}

TEST(ResilientModelTest, ExhaustedBudgetSurfacesLastFailure) {
  ScriptedModel backend({util::Status::Unavailable("1"),
                         util::Status::Unavailable("2"),
                         util::Status::DeadlineExceeded("slow")});
  ResilienceOptions options;
  options.max_attempts = 3;
  options.breaker_failure_threshold = 100;
  ResilientFoundationModel model(&backend, options);
  util::Rng rng(7);
  auto result = model.Generate(SimpleRequest(), &rng);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(model.fault_telemetry()->attempts, 3);
  EXPECT_EQ(model.fault_telemetry()->failed_queries, 1);
}

TEST(ResilientModelTest, MalformedResultsAreRetryableFaults) {
  class MalformedOnceModel : public FoundationModel {
   public:
    [[nodiscard]] util::Result<GenerationResult> Generate(
        const GenerationRequest& request, util::Rng* rng) override {
      RecordQuery();
      const double draw = rng->NextDouble();
      GenerationResult result;
      result.image = image::Image(2, 2, 3, 10);
      result.values = request.target_values;
      result.latent_realism = draw;
      if (num_queries() == 1) result.values.pop_back();  // wrong arity once
      return result;
    }
    double query_cost() const override { return 1.0; }
  };
  MalformedOnceModel backend;
  ResilientFoundationModel model(&backend, {});
  util::Rng rng(9);
  auto result = model.Generate(SimpleRequest(), &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->values.size(), 2u);
  EXPECT_EQ(model.fault_telemetry()->malformed_results, 1);
  EXPECT_EQ(model.fault_telemetry()->faults_masked, 1);
}

TEST(ResilientModelTest, RunDeadlineFailsFastUntilNextRun) {
  ScriptedModel backend({});
  ResilienceOptions options;
  options.attempt_cost_ms = 10.0;
  ResilientFoundationModel model(&backend, options);
  Deadline first_run(25.0);
  model.set_deadline(&first_run);
  util::Rng rng(7);
  EXPECT_TRUE(model.Generate(SimpleRequest(), &rng).ok());  // clock 10
  EXPECT_TRUE(model.Generate(SimpleRequest(), &rng).ok());  // clock 20
  EXPECT_TRUE(model.Generate(SimpleRequest(), &rng).ok());  // clock 30
  auto over = model.Generate(SimpleRequest(), &rng);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(backend.num_queries(), 3);  // failed fast, backend untouched

  Deadline next_run(25.0);  // fresh run, fresh deadline
  model.set_deadline(&next_run);
  EXPECT_TRUE(model.Generate(SimpleRequest(), &rng).ok());
  EXPECT_EQ(next_run.ElapsedMs(), 10.0);
}

// ---------------------------------------------------------------------------
// Circuit breaker state machine
// ---------------------------------------------------------------------------

TEST(CircuitBreakerTest, ClosedOpenHalfOpenClosedCycle) {
  // Script: three failures trip the breaker, the first probe fails and
  // re-opens it, the second probe succeeds and closes it.
  ScriptedModel backend({util::Status::Unavailable("1"),
                         util::Status::Unavailable("2"),
                         util::Status::Unavailable("3"),
                         util::Status::Unavailable("probe 1 fails")});
  ResilienceOptions options;
  options.max_attempts = 1;  // one attempt per query: queries == attempts
  options.breaker_failure_threshold = 3;
  options.breaker_probe_interval = 2;
  ResilientFoundationModel model(&backend, options);
  util::Rng rng(7);
  const GenerationRequest request = SimpleRequest();

  EXPECT_EQ(model.breaker_state(), BreakerState::kClosed);
  for (int q = 0; q < 3; ++q) {
    EXPECT_FALSE(model.Generate(request, &rng).ok());
  }
  EXPECT_EQ(model.breaker_state(), BreakerState::kOpen);
  EXPECT_EQ(model.fault_telemetry()->breaker_opens, 1);

  // Two fail-fast rejections that never reach the backend.
  const int64_t backend_calls = backend.num_queries();
  for (int q = 0; q < 2; ++q) {
    auto rejected = model.Generate(request, &rng);
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), util::StatusCode::kUnavailable);
  }
  EXPECT_EQ(backend.num_queries(), backend_calls);
  EXPECT_EQ(model.fault_telemetry()->fail_fast_rejections, 2);

  // Probe #1: admitted, fails, re-opens the breaker.
  EXPECT_FALSE(model.Generate(request, &rng).ok());
  EXPECT_EQ(model.breaker_state(), BreakerState::kOpen);
  EXPECT_EQ(model.fault_telemetry()->breaker_reopens, 1);
  EXPECT_EQ(backend.num_queries(), backend_calls + 1);

  // Another probe interval of rejections, then probe #2 succeeds.
  for (int q = 0; q < 2; ++q) {
    EXPECT_FALSE(model.Generate(request, &rng).ok());
  }
  EXPECT_TRUE(model.Generate(request, &rng).ok());
  EXPECT_EQ(model.breaker_state(), BreakerState::kClosed);
  EXPECT_EQ(model.fault_telemetry()->breaker_closes, 1);

  // Closed again: traffic flows normally.
  EXPECT_TRUE(model.Generate(request, &rng).ok());
  EXPECT_EQ(model.fault_telemetry()->fail_fast_rejections, 4);
}

TEST(CircuitBreakerTest, BreakerStateNamesAreStable) {
  EXPECT_STREQ(BreakerStateName(BreakerState::kClosed), "closed");
  EXPECT_STREQ(BreakerStateName(BreakerState::kOpen), "open");
  EXPECT_STREQ(BreakerStateName(BreakerState::kHalfOpen), "half-open");
}

// ---------------------------------------------------------------------------
// FlakyFoundationModel
// ---------------------------------------------------------------------------

TEST(FlakyModelTest, FaultScheduleIsDeterministicPerSeed) {
  auto run_schedule = [](uint64_t seed) {
    ScriptedModel backend({});
    FlakyOptions options;
    options.seed = seed;
    options.transient_rate = 0.3;
    options.rate_limit_rate = 0.1;
    options.deadline_rate = 0.1;
    FlakyFoundationModel flaky(&backend, options);
    std::vector<util::StatusCode> codes;
    util::Rng rng(1);
    for (int i = 0; i < 200; ++i) {
      codes.push_back(flaky.Generate(SimpleRequest(), &rng).status().code());
    }
    return codes;
  };
  EXPECT_EQ(run_schedule(42), run_schedule(42));
  EXPECT_NE(run_schedule(42), run_schedule(43));
}

TEST(FlakyModelTest, ScriptedCrashAndOutageWindows) {
  ScriptedModel backend({});
  FlakyOptions options;
  options.outage_start = 2;
  options.outage_length = 2;
  options.fail_from_query = 6;
  FlakyFoundationModel flaky(&backend, options);
  util::Rng rng(1);
  std::vector<bool> ok;
  for (int i = 0; i < 8; ++i) {
    ok.push_back(flaky.Generate(SimpleRequest(), &rng).ok());
  }
  EXPECT_EQ(ok, (std::vector<bool>{true, true, false, false, true, true,
                                   false, false}));
  EXPECT_EQ(flaky.counters().scripted, 4);
}

TEST(FlakyModelTest, OutageWindowPastInt64MaxStaysOpen) {
  // start + length overflows int64; the window must still cover every
  // call from its start on.
  ScriptedModel backend({});
  FlakyOptions options;
  options.outage_start = 1;
  options.outage_length = std::numeric_limits<int64_t>::max();
  FlakyFoundationModel flaky(&backend, options);
  util::Rng rng(1);
  std::vector<bool> ok;
  for (int i = 0; i < 4; ++i) {
    ok.push_back(flaky.Generate(SimpleRequest(), &rng).ok());
  }
  EXPECT_EQ(ok, (std::vector<bool>{true, false, false, false}));
  EXPECT_EQ(flaky.counters().scripted, 3);
}

TEST(FlakyModelTest, MalformedInjectionMangledArityOrImage) {
  ScriptedModel backend({});
  FlakyOptions options;
  options.malformed_rate = 1.0;
  FlakyFoundationModel flaky(&backend, options);
  util::Rng rng(1);
  for (int i = 0; i < 20; ++i) {
    auto result = flaky.Generate(SimpleRequest(), &rng);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->values.size() != 2 || result->image.empty());
  }
  EXPECT_EQ(flaky.counters().malformed, 20);
}

// ---------------------------------------------------------------------------
// Masking equivalence against the real simulator
// ---------------------------------------------------------------------------

TEST(ResilienceMaskingTest, FaultyStackReproducesFaultFreeGenerations) {
  const auto schema = datasets::FeretSchema();
  const SimulatedFoundationModel::Options sim_options;

  // Fault-free reference sequence.
  SimulatedFoundationModel reference(schema, datasets::FeretFaceStyleFn(),
                                     datasets::FeretScene(), sim_options);
  std::vector<GenerationResult> expected;
  {
    util::Rng rng(42);
    for (int i = 0; i < 12; ++i) {
      GenerationRequest request;
      request.target_values = {i % 2, i % 5};
      expected.push_back(*reference.Generate(request, &rng));
    }
  }

  // Same requests through flaky + resilient with a hostile schedule.
  SimulatedFoundationModel fresh(schema, datasets::FeretFaceStyleFn(),
                                 datasets::FeretScene(), sim_options);
  FlakyOptions flaky_options;
  flaky_options.seed = 777;
  flaky_options.transient_rate = 0.3;
  flaky_options.rate_limit_rate = 0.1;
  flaky_options.deadline_rate = 0.1;
  flaky_options.malformed_rate = 0.2;
  FlakyFoundationModel flaky(&fresh, flaky_options);
  ResilienceOptions resilience;
  resilience.max_attempts = 64;
  resilience.breaker_failure_threshold = 1 << 30;
  ResilientFoundationModel resilient(&flaky, resilience);
  {
    util::Rng rng(42);
    for (int i = 0; i < 12; ++i) {
      GenerationRequest request;
      request.target_values = {i % 2, i % 5};
      auto result = resilient.Generate(request, &rng);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(result->image, expected[i].image) << "generation " << i;
      EXPECT_EQ(result->values, expected[i].values);
      EXPECT_EQ(result->latent_realism, expected[i].latent_realism);
    }
  }
  // The schedule must actually have injected something for this test to
  // mean anything.
  const FlakyCounters& injected = flaky.counters();
  EXPECT_GT(injected.transient + injected.rate_limited + injected.deadline +
                injected.malformed,
            0);
  EXPECT_GT(resilient.fault_telemetry()->faults_masked, 0);
  EXPECT_EQ(resilient.fault_telemetry()->failed_queries, 0);
}

// ---------------------------------------------------------------------------
// Atomic query counter (TSan coverage)
// ---------------------------------------------------------------------------

TEST(FoundationModelTest, QueryCounterIsThreadSafe) {
  // Decorators may issue Generate from worker threads; RecordQuery must
  // not race. Run under tools/ci.sh tsan for the full proof.
  class CountingModel : public FoundationModel {
   public:
    [[nodiscard]] util::Result<GenerationResult> Generate(
        const GenerationRequest& request, util::Rng* /*rng*/) override {
      RecordQuery();
      GenerationResult result;
      result.image = image::Image(1, 1, 3, 0);
      result.values = request.target_values;
      return result;
    }
    double query_cost() const override { return 0.5; }
  };
  CountingModel model;
  constexpr int kThreads = 4;
  constexpr int kQueriesPerThread = 2000;
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&model, w] {
      util::Rng rng(100 + static_cast<uint64_t>(w));
      const GenerationRequest request = SimpleRequest();
      for (int i = 0; i < kQueriesPerThread; ++i) {
        auto result = model.Generate(request, &rng);
        ASSERT_TRUE(result.ok());
      }
    });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(model.num_queries(), kThreads * kQueriesPerThread);
  EXPECT_DOUBLE_EQ(model.total_cost(), kThreads * kQueriesPerThread * 0.5);
}

}  // namespace
}  // namespace chameleon::fm

// ---------------------------------------------------------------------------
// Pipeline-level degradation and determinism under faults
// ---------------------------------------------------------------------------

namespace chameleon::core {
namespace {

struct PipelineRun {
  RepairReport report;
  int64_t synthetic = 0;
};

/// One full repair over a fresh FERET corpus. `flaky` (optional) and
/// `resilience` configure the fault stack; passing nullptr for `flaky`
/// runs the bare simulator (the fault-free reference).
PipelineRun RunRepair(const fm::FlakyOptions* flaky,
                      const fm::ResilienceOptions* resilience,
                      int num_threads, fm::Deadline* deadline = nullptr) {
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
  if (flaky != nullptr) {
    flaky_model = std::make_unique<fm::FlakyFoundationModel>(&sim, *flaky);
    model = flaky_model.get();
  }
  if (resilience != nullptr) {
    resilient_model =
        std::make_unique<fm::ResilientFoundationModel>(model, *resilience);
    model = resilient_model.get();
  }

  ChameleonOptions options;
  options.tau = 40;
  options.seed = 11;
  options.num_threads = num_threads;
  options.rejection_batch = 4;
  options.deadline = deadline;
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

TEST(PipelineFaultDeterminismTest, MaskedFaultsPreserveAcceptedTuples) {
  // Acceptance criterion: at a 30% injected transient-fault rate with a
  // sufficient retry budget, the run accepts the same tuples in the same
  // order as the fault-free run with the same seed, at 1 and 4 threads.
  const PipelineRun fault_free = RunRepair(nullptr, nullptr, /*threads=*/1);
  ASSERT_GT(fault_free.report.accepted, 0);

  fm::FlakyOptions flaky;
  flaky.seed = 555;
  flaky.transient_rate = 0.3;
  fm::ResilienceOptions resilience;
  resilience.max_attempts = 64;
  resilience.breaker_failure_threshold = 1 << 30;

  for (int threads : {1, 4}) {
    const PipelineRun faulty = RunRepair(&flaky, &resilience, threads);
    ExpectSameAcceptedTuples(fault_free.report, faulty.report);
    EXPECT_EQ(fault_free.synthetic, faulty.synthetic);
    // Faults really were injected and really were masked.
    EXPECT_GT(faulty.report.faults.transport.faults_masked, 0);
    EXPECT_GT(faulty.report.faults.transport.retries, 0);
    EXPECT_EQ(faulty.report.faults.transport.failed_queries, 0);
    EXPECT_EQ(faulty.report.faults.parked_entries(), 0);
  }
}

TEST(PipelineFaultIsolationTest, ConcurrentRequestStacksShareNoState) {
  // The serving layer runs many requests on one process, each with its
  // own ResilientFoundationModel and fm::Deadline. Regression test for
  // per-request isolation: a 100%-fault request running concurrently
  // must not perturb a clean request's results, retries, or virtual
  // clock — both must match their serial references bit for bit.
  const PipelineRun clean_ref = RunRepair(nullptr, nullptr, /*threads=*/1);
  fm::FlakyOptions dead;
  dead.fail_from_query = 0;
  fm::ResilienceOptions dead_resilience;
  fm::Deadline dead_deadline_ref(200.0);
  const PipelineRun dead_ref =
      RunRepair(&dead, &dead_resilience, /*threads=*/1, &dead_deadline_ref);

  PipelineRun clean_run;
  PipelineRun dead_run;
  fm::Deadline dead_deadline(200.0);
  std::thread dead_thread([&] {
    dead_run = RunRepair(&dead, &dead_resilience, /*threads=*/1,
                         &dead_deadline);
  });
  clean_run = RunRepair(nullptr, nullptr, /*threads=*/1);
  dead_thread.join();

  // The clean request is untouched by its dying neighbor.
  ExpectSameAcceptedTuples(clean_ref.report, clean_run.report);
  EXPECT_EQ(clean_run.report.faults.transport.retries, 0)
      << "faults leaked across request stacks";
  EXPECT_FALSE(clean_run.report.deadline_expired);

  // The dying request behaved exactly as it does alone: same parking,
  // same breaker behavior, same virtual-clock consumption.
  EXPECT_EQ(dead_run.report.accepted, 0);
  EXPECT_EQ(dead_run.report.faults.parked_entries(),
            dead_ref.report.faults.parked_entries());
  EXPECT_EQ(dead_run.report.faults.transport.breaker_opens,
            dead_ref.report.faults.transport.breaker_opens);
  EXPECT_EQ(dead_run.report.faults.transport.attempts,
            dead_ref.report.faults.transport.attempts);
  EXPECT_DOUBLE_EQ(dead_deadline.ElapsedMs(), dead_deadline_ref.ElapsedMs());
}

TEST(PipelineDegradationTest, DeadBackendParksEverythingAndTerminates) {
  fm::FlakyOptions flaky;
  flaky.fail_from_query = 0;  // dead from the very first query
  fm::ResilienceOptions resilience;  // defaults: breaker trips quickly
  const PipelineRun run = RunRepair(&flaky, &resilience, /*threads=*/1);

  EXPECT_FALSE(run.report.fully_resolved);
  EXPECT_EQ(run.report.accepted, 0);
  EXPECT_EQ(run.synthetic, 0);
  EXPECT_EQ(run.report.queries, 0);
  EXPECT_FALSE(run.report.plan.empty());
  // Every plan entry was parked, not fatal.
  EXPECT_EQ(run.report.faults.parked_entries(),
            static_cast<int64_t>(run.report.plan.size()));
  // Non-empty fault telemetry: the resilience layer fought before giving
  // up, and the breaker cut over to fail-fast.
  const fm::FaultTelemetry& t = run.report.faults.transport;
  EXPECT_GT(t.attempts, 0);
  EXPECT_GT(t.retries, 0);
  EXPECT_GT(t.failed_queries, 0);
  EXPECT_EQ(t.breaker_opens, 1);
  EXPECT_GT(t.backoff_ms, 0.0);
}

TEST(PipelineDegradationTest, BriefOutageParksOnlyTheEntryItHit) {
  fm::FlakyOptions flaky;
  flaky.outage_start = 0;
  flaky.outage_length = 1;  // exactly the first backend call fails
  fm::ResilienceOptions resilience;
  resilience.max_attempts = 1;  // no retry budget: the failure surfaces
  resilience.breaker_failure_threshold = 1000;
  const PipelineRun run = RunRepair(&flaky, &resilience, /*threads=*/1);

  EXPECT_FALSE(run.report.fully_resolved);
  EXPECT_GT(run.report.accepted, 0);  // the rest of the plan still filled
  EXPECT_EQ(run.report.faults.parked_entries(), 1);
  EXPECT_EQ(run.report.faults.transport_failures, 1);
  ASSERT_FALSE(run.report.plan.empty());
  EXPECT_EQ(run.report.faults.parked_targets[0], run.report.plan[0].values);
}

/// Delegates to a wrapped model, except that its `fail_call`-th
/// Generate call (1-based) fails with a terminal InvalidArgument.
class TerminalFailureModel : public fm::FoundationModel {
 public:
  TerminalFailureModel(fm::FoundationModel* wrapped, int64_t fail_call)
      : wrapped_(wrapped), fail_call_(fail_call) {}

  [[nodiscard]] util::Result<fm::GenerationResult> Generate(
      const fm::GenerationRequest& request, util::Rng* rng) override {
    RecordQuery();
    if (num_queries() == fail_call_) {
      return util::Status::InvalidArgument("malformed generation request");
    }
    return wrapped_->Generate(request, rng);
  }

  double query_cost() const override { return wrapped_->query_cost(); }

 private:
  fm::FoundationModel* wrapped_;
  int64_t fail_call_;
};

TEST(PipelineDegradationTest, TerminalFailureAbortsTheRunAtEveryBatchSize) {
  // Only transport codes park an entry. A terminal code means the
  // request itself is wrong, so the run fails with that code whether
  // the query was dispatched alone (rounds of 1) or inside a batch.
  for (int rejection_batch : {1, 8}) {
    SCOPED_TRACE("rejection_batch=" + std::to_string(rejection_batch));
    embedding::SimulatedEmbedder embedder;
    fm::EvaluatorPool evaluators(2024);
    fm::Corpus corpus =
        *datasets::MakeFeret(&embedder, datasets::FeretOptions());
    fm::SimulatedFoundationModel sim(corpus.dataset.schema(),
                                     datasets::FeretFaceStyleFn(),
                                     datasets::FeretScene(),
                                     fm::SimulatedFoundationModel::Options());
    TerminalFailureModel model(&sim, /*fail_call=*/3);

    ChameleonOptions options;
    options.tau = 40;
    options.seed = 11;
    options.rejection_batch = rejection_batch;
    Chameleon system(&model, &embedder, &evaluators, options);
    auto report = system.RepairMinLevelMups(&corpus);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_GE(model.num_queries(), 3);
  }
}

}  // namespace
}  // namespace chameleon::core
