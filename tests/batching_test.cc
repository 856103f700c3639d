// Batched FM queries: one GenerateBatch dispatch per rejection round,
// the default batch path's slot-order contract, and the pipeline-level
// determinism guarantee — accepted tuples are bit-identical across
// transports and thread counts, with and without injected faults
// (DESIGN.md §11).

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/chameleon.h"
#include "src/datasets/feret.h"
#include "src/embedding/simulated_embedder.h"
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

/// Deterministic backend whose results echo the request's values.
class EchoModel : public FoundationModel {
 public:
  [[nodiscard]] util::Result<GenerationResult> Generate(
      const GenerationRequest& request, util::Rng* /*rng*/) override {
    RecordQuery();
    GenerationResult result;
    result.image = image::Image(2, 2, 3, 7);
    result.values = request.target_values;
    return result;
  }

  double query_cost() const override { return 1.0; }
};

GenerationRequest RequestFor(int i) {
  GenerationRequest request;
  request.target_values = {i, i + 1};
  return request;
}

// ---------------------------------------------------------------------------
// Default GenerateBatch == loop over Generate
// ---------------------------------------------------------------------------

TEST(FoundationModelTest, PerRequestFailuresLandInTheirOwnSlots) {
  // A failing request must not poison its batchmates: the default
  // GenerateBatch carries each per-request error in its own slot.
  FlakyOptions flaky_options;
  flaky_options.outage_start = 1;  // second call in the batch fails
  flaky_options.outage_length = 1;
  EchoModel inner;
  FlakyFoundationModel model(&inner, flaky_options);

  std::vector<GenerationRequest> requests;
  std::vector<util::Rng> rngs;
  for (int i = 0; i < 3; ++i) {
    requests.push_back(RequestFor(i));
    rngs.emplace_back(static_cast<uint64_t>(i));
  }
  std::vector<BatchItem> items;
  for (int i = 0; i < 3; ++i) items.push_back(BatchItem{&requests[i], &rngs[i]});
  const auto results = model.GenerateBatch(items);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_EQ(results[1].status().code(), util::StatusCode::kUnavailable);
  ASSERT_TRUE(results[2].ok());
  EXPECT_EQ(results[2]->values, requests[2].target_values);
}

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

}  // namespace
}  // namespace chameleon::fm

// ---------------------------------------------------------------------------
// Pipeline-level dispatch and bit-identity across transports and threads
// ---------------------------------------------------------------------------

namespace chameleon::core {
namespace {

/// Forwards every FoundationModel hook to `wrapped` except GenerateBatch,
/// which keeps the default loop over Generate: each query of a round is
/// served as its own call, whatever the wrapped model's batch path does.
class SinglesOnlyModel : public fm::FoundationModel {
 public:
  explicit SinglesOnlyModel(fm::FoundationModel* wrapped) : wrapped_(wrapped) {}

  [[nodiscard]] util::Result<fm::GenerationResult> Generate(
      const fm::GenerationRequest& request, util::Rng* rng) override {
    RecordQuery();
    return wrapped_->Generate(request, rng);
  }
  double query_cost() const override { return wrapped_->query_cost(); }
  const fm::FaultTelemetry* fault_telemetry() const override {
    return wrapped_->fault_telemetry();
  }
  void set_observability(obs::Observability* observability) override {
    wrapped_->set_observability(observability);
  }
  void set_deadline(fm::Deadline* deadline) override {
    wrapped_->set_deadline(deadline);
  }

 private:
  fm::FoundationModel* wrapped_;
};

/// Records the size of every GenerateBatch call, then answers it through
/// the wrapped model's own batch path — or one result short, when
/// `drop_last` is set, to break the slot-count contract. It also counts
/// calls to the three hooks the pipeline must not call (run start,
/// router selection, outcome feedback).
class CountingModel : public fm::FoundationModel {
 public:
  CountingModel(fm::FoundationModel* wrapped, bool drop_last = false)
      : wrapped_(wrapped), drop_last_(drop_last) {}

  [[nodiscard]] util::Result<fm::GenerationResult> Generate(
      const fm::GenerationRequest& request, util::Rng* rng) override {
    return wrapped_->Generate(request, rng);
  }
  [[nodiscard]] std::vector<util::Result<fm::GenerationResult>> GenerateBatch(
      std::span<const fm::BatchItem> items) override {
    batch_sizes_.push_back(static_cast<int>(items.size()));
    std::vector<util::Result<fm::GenerationResult>> results =
        wrapped_->GenerateBatch(items);
    if (drop_last_ && !results.empty()) results.pop_back();
    return results;
  }
  double query_cost() const override { return wrapped_->query_cost(); }
  void OnRunStart() override { ++run_starts_; }
  void set_backend_router(fm::BackendRouterKind /*kind*/) override {
    ++router_sets_;
  }
  void ReportOutcome(int /*backend*/, bool /*accepted*/) override {
    ++outcome_reports_;
  }
  const std::vector<int>& batch_sizes() const { return batch_sizes_; }
  int64_t run_starts() const { return run_starts_; }
  int64_t router_sets() const { return router_sets_; }
  int64_t outcome_reports() const { return outcome_reports_; }

 private:
  fm::FoundationModel* wrapped_;
  bool drop_last_;
  std::vector<int> batch_sizes_;
  int64_t run_starts_ = 0;
  int64_t router_sets_ = 0;
  int64_t outcome_reports_ = 0;
};

/// A fresh FERET corpus and its simulated foundation model.
struct FeretWorld {
  embedding::SimulatedEmbedder embedder;
  fm::EvaluatorPool evaluators{2024};
  fm::Corpus corpus =
      *datasets::MakeFeret(&embedder, datasets::FeretOptions());
  fm::SimulatedFoundationModel sim{corpus.dataset.schema(),
                                   datasets::FeretFaceStyleFn(),
                                   datasets::FeretScene(),
                                   fm::SimulatedFoundationModel::Options()};
};

/// The FERET repair every determinism cell runs: tau 40, seed 11, rounds
/// of 32.
ChameleonOptions FeretRepairOptions(int threads) {
  ChameleonOptions options;
  options.tau = 40;
  options.seed = 11;
  options.num_threads = threads;
  options.rejection_batch = 32;
  return options;
}

TEST(RoundDispatchTest, OneGenerateBatchCallPerRoundSizedToTheRound) {
  // The `size` field of every journaled `fm.batch` event, in order.
  auto journal_batches = [](const obs::Observability& observability) {
    std::vector<int> sizes;
    std::stringstream journal(observability.journal.ToJsonl());
    for (std::string line; std::getline(journal, line);) {
      if (line.find("\"type\":\"fm.batch\"") == std::string::npos) continue;
      sizes.push_back(std::stoi(line.substr(line.find("\"size\":") + 7)));
    }
    return sizes;
  };
  for (int rejection_batch : {1, 8}) {
    SCOPED_TRACE("rejection_batch=" + std::to_string(rejection_batch));
    FeretWorld world;
    CountingModel model(&world.sim);
    obs::Observability observability;
    ChameleonOptions options = FeretRepairOptions(/*threads=*/2);
    options.rejection_batch = rejection_batch;
    options.observability = &observability;
    Chameleon system(&model, &world.embedder, &world.evaluators, options);
    auto report = system.RepairMinLevelMups(&world.corpus);
    ASSERT_TRUE(report.ok()) << report.status().ToString();

    // The repair loop reaches the model through GenerateBatch and the
    // deadline/observability setters only: no run-start, routing or
    // outcome hook is called.
    EXPECT_EQ(model.run_starts(), 0);
    EXPECT_EQ(model.router_sets(), 0);
    EXPECT_EQ(model.outcome_reports(), 0);

    // One call per round: each round opens one `rejection.batch` span.
    const std::string trace = observability.tracer.ToJsonl();
    int64_t rounds = 0;
    for (size_t at = trace.find("\"name\":\"rejection.batch\"");
         at != std::string::npos;
         at = trace.find("\"name\":\"rejection.batch\"", at + 1)) {
      ++rounds;
    }
    const std::vector<int>& sizes = model.batch_sizes();
    ASSERT_EQ(static_cast<int64_t>(sizes.size()), rounds);

    // Each call carries its whole round, and only it: the sizes add up to
    // every query the run issued.
    int64_t total = 0;
    for (int size : sizes) {
      EXPECT_GE(size, 1);
      EXPECT_LE(size, rejection_batch);
      total += size;
    }
    EXPECT_EQ(total, world.sim.num_queries());
    EXPECT_EQ(total, report->queries);
    if (rejection_batch == 1) {
      EXPECT_EQ(journal_batches(observability), std::vector<int>());
      continue;
    }

    // A round journals its `fm.query` events, then one `fm.batch` after
    // the dispatch: every batch event is sized to the queries before it,
    // and the events mirror the calls in order.
    std::vector<int> round_queries;
    int pending = 0;
    std::stringstream journal(observability.journal.ToJsonl());
    for (std::string line; std::getline(journal, line);) {
      if (line.find("\"type\":\"fm.query\"") != std::string::npos) ++pending;
      if (line.find("\"type\":\"fm.batch\"") != std::string::npos) {
        round_queries.push_back(pending);
        pending = 0;
      }
    }
    EXPECT_EQ(pending, 0);
    EXPECT_EQ(round_queries, sizes);
    EXPECT_EQ(journal_batches(observability), sizes);
    EXPECT_EQ(observability.registry.Counter("fm.batch.flushes")->value(),
              rounds);
    EXPECT_EQ(observability.registry.Counter("fm.batch.requests")->value(),
              total);
  }
}

TEST(RoundDispatchTest, ShortResultVectorFailsTheRunWithInternal) {
  // GenerateBatch must answer every slot. A model that drops one result
  // breaks that contract, and the run stops instead of misaligning
  // results with their requests.
  FeretWorld world;
  CountingModel model(&world.sim, /*drop_last=*/true);
  ChameleonOptions options = FeretRepairOptions(/*threads=*/1);
  options.rejection_batch = 8;
  Chameleon system(&model, &world.embedder, &world.evaluators, options);
  auto report = system.RepairMinLevelMups(&world.corpus);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), util::StatusCode::kInternal);
  EXPECT_EQ(model.batch_sizes(), (std::vector<int>{8}));
}

struct PipelineRun {
  RepairReport report;
  int64_t synthetic = 0;
};

/// The model stacks of the determinism matrix.
enum class Transport {
  kSimulator,   ///< the simulator's own GenerateBatch, fanned out on the pool
  kMaskedFaults,  ///< resilient(flaky(simulator)), every fault masked
  kSinglesOnly,   ///< one Generate call per query (SinglesOnlyModel)
};

const char* TransportName(Transport transport) {
  switch (transport) {
    case Transport::kSimulator:
      return "simulator";
    case Transport::kMaskedFaults:
      return "resilient(flaky(simulator))";
    case Transport::kSinglesOnly:
      return "singles-only";
  }
  return "unknown";
}

/// One full repair over a fresh FERET corpus. kMaskedFaults injects a
/// 30% transient rate under a retry budget that masks everything.
PipelineRun RunBatchedRepair(Transport transport, int threads) {
  FeretWorld world;
  std::unique_ptr<fm::FlakyFoundationModel> flaky_model;
  std::unique_ptr<fm::FoundationModel> wrapper;
  fm::FoundationModel* model = &world.sim;
  if (transport == Transport::kMaskedFaults) {
    fm::FlakyOptions flaky;
    flaky.seed = 555;
    flaky.transient_rate = 0.3;
    fm::ResilienceOptions resilience;
    resilience.max_attempts = 64;
    resilience.breaker_failure_threshold = 1 << 30;
    flaky_model = std::make_unique<fm::FlakyFoundationModel>(&world.sim, flaky);
    wrapper = std::make_unique<fm::ResilientFoundationModel>(
        flaky_model.get(), resilience);
    model = wrapper.get();
  } else if (transport == Transport::kSinglesOnly) {
    wrapper = std::make_unique<SinglesOnlyModel>(&world.sim);
    model = wrapper.get();
  }

  Chameleon system(model, &world.embedder, &world.evaluators,
                   FeretRepairOptions(threads));
  auto report = system.RepairMinLevelMups(&world.corpus);
  EXPECT_TRUE(report.ok());
  return {*report, world.corpus.dataset.NumSynthetic()};
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
/// accepted), captured from the one-dispatch-per-query pipeline. Every
/// cell of the matrix below must reproduce it.
constexpr const char* kReferenceReportDigest = "3b61c5ae14b7fac5";

TEST(BatchingDeterminismTest, EveryTransportAndThreadCountMatchesTheReference) {
  // Acceptance criterion: how a round's queries reach the model must not
  // change a single accepted tuple. Baseline is one Generate call per
  // query at one thread; the simulator's batch path (fanned out on the
  // round's pool) and the resilience stack under a 30% masked fault rate
  // must match it bit for bit at every thread count, and every cell must
  // match the pinned reference digest.
  const PipelineRun baseline =
      RunBatchedRepair(Transport::kSinglesOnly, /*threads=*/1);
  ASSERT_GT(baseline.report.accepted, 0);

  for (Transport transport : {Transport::kSimulator, Transport::kMaskedFaults,
                              Transport::kSinglesOnly}) {
    for (int threads : {1, 2, 8}) {
      SCOPED_TRACE(std::string(TransportName(transport)) +
                   " threads=" + std::to_string(threads));
      const PipelineRun run = RunBatchedRepair(transport, threads);
      ExpectSameAcceptedTuples(baseline.report, run.report);
      EXPECT_EQ(baseline.synthetic, run.synthetic);
      EXPECT_EQ(ReportDigest(run.report), kReferenceReportDigest);
      if (transport == Transport::kMaskedFaults) {
        EXPECT_GT(run.report.faults.transport.faults_masked, 0);
        EXPECT_EQ(run.report.faults.transport.failed_queries, 0);
        EXPECT_EQ(run.report.faults.parked_entries(), 0);
      }
    }
  }
}

TEST(BatchingDeterminismTest, BatchedModeParksPerFailureAndKeepsBatchmates) {
  // A scripted outage inside a round (no retry layer) parks the entries
  // it hit — one fm.parked increment per failed result — while the OK
  // results from the same round are still evaluated and merged. How the
  // round reached the model does not matter: one Generate call per query
  // and one batch of 8 give the same report.
  struct ParkedRun {
    RepairReport report;
    int64_t fm_parked = 0;
    int64_t model_queries = 0;
  };
  auto run_outage = [](bool singles_only) {
    FeretWorld world;
    fm::FlakyOptions flaky;
    flaky.outage_start = 2;
    flaky.outage_length = 3;
    fm::FlakyFoundationModel model(&world.sim, flaky);
    SinglesOnlyModel singles(&model);

    obs::Observability observability;
    ChameleonOptions options = FeretRepairOptions(/*threads=*/1);
    options.rejection_batch = 8;
    options.observability = &observability;
    Chameleon system(singles_only ? static_cast<fm::FoundationModel*>(&singles)
                                  : &model,
                     &world.embedder, &world.evaluators, options);
    auto report = system.RepairMinLevelMups(&world.corpus);
    EXPECT_TRUE(report.ok());
    // The outage hit real queries.
    EXPECT_EQ(model.counters().scripted, 3);
    return ParkedRun{report.ok() ? *report : RepairReport(),
                     observability.registry.Counter("fm.parked")->value(),
                     model.num_queries()};
  };

  const ParkedRun single = run_outage(/*singles_only=*/true);
  const ParkedRun batched = run_outage(/*singles_only=*/false);
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
