#include "src/replay.h"

#include <utility>

#include "src/common.h"
#include "src/core/combination_selection.h"
#include "src/coverage/mup_finder.h"
#include "src/coverage/pattern_counter.h"
#include "src/datasets/feret.h"
#include "src/datasets/utkface.h"
#include "src/embedding/simulated_embedder.h"
#include "src/fm/resilient_foundation_model.h"
#include "src/layers.h"
#include "tools/chameleond/daemon.h"

namespace perfbench {

namespace core = chameleon::core;
namespace datasets = chameleon::datasets;
namespace fm = chameleon::fm;
using chameleon::daemon::DatasetKind;
using chameleon::util::Result;

Result<World> BuildWorld(DatasetKind kind,
                         const chameleon::embedding::Embedder* embedder) {
  World world;
  switch (kind) {
    case DatasetKind::kMicro: {
      auto corpus = chameleon::daemon::MakeMicroCorpus(embedder);
      if (!corpus.ok()) return corpus.status();
      world.corpus = *std::move(corpus);
      world.style = datasets::FeretFaceStyleFn();
      world.scene = datasets::FeretScene();
      return world;
    }
    case DatasetKind::kFeret: {
      auto corpus = datasets::MakeFeret(embedder, datasets::FeretOptions());
      if (!corpus.ok()) return corpus.status();
      world.corpus = *std::move(corpus);
      world.style = datasets::FeretFaceStyleFn();
      world.scene = datasets::FeretScene();
      return world;
    }
    case DatasetKind::kUtkFace: {
      datasets::ChallengeOptions options;
      options.render.image_size = 32;
      auto corpus = datasets::MakeUtkFaceChallengeSubset(embedder, options);
      if (!corpus.ok()) return corpus.status();
      world.corpus = *std::move(corpus);
      world.style = datasets::UtkFaceStyleFn();
      world.scene = datasets::UtkFaceScene();
      return world;
    }
  }
  return chameleon::util::Status::InvalidArgument("unknown dataset kind");
}

fm::SimulatedFoundationModel MakeSimulator(const World& world) {
  return fm::SimulatedFoundationModel(world.corpus.dataset.schema(),
                                      world.style, world.scene,
                                      fm::SimulatedFoundationModel::Options());
}

Result<core::RepairReport> ReferenceRepair(
    const chameleon::daemon::RepairRequestSpec& spec, double* build_ms) {
  chameleon::embedding::SimulatedEmbedder embedder;
  fm::EvaluatorPool evaluators(2024);
  const Clock::time_point start = Clock::now();
  auto world = BuildWorld(spec.dataset, &embedder);
  if (!world.ok()) return world.status();
  *build_ms = MsSince(start);
  fm::SimulatedFoundationModel sim = MakeSimulator(*world);
  fm::ResilientFoundationModel resilient(&sim, spec.resilience);
  // The options chameleond derives from a request spec.
  core::ChameleonOptions options;
  options.tau = spec.tau;
  options.seed = spec.seed;
  options.max_queries = spec.max_queries;
  options.rejection_batch = spec.rejection_batch;
  options.num_threads = spec.num_threads;
  core::Chameleon system(&resilient, &embedder, &evaluators, options);
  return system.RepairMinLevelMups(&world->corpus);
}

Result<core::RepairReport> ReplayRepair(
    fm::Corpus* corpus, const core::ChameleonOptions& options,
    fm::FoundationModel* model, const chameleon::embedding::Embedder* embedder,
    const fm::EvaluatorPool* evaluators, ReplayTrace* trace,
    std::optional<core::RejectionSampler>* sampler_out) {
  const Clock::time_point run_start = Clock::now();
  core::RepairReport report;
  chameleon::util::Rng rng(options.seed);
  const chameleon::data::AttributeSchema& schema = corpus->dataset.schema();
  model->OnRunStart();
  model->set_backend_router(options.backend_router);
  model->set_deadline(options.deadline);
  model->set_observability(options.observability);

  // 1. Minimum-level MUPs.
  Clock::time_point start = Clock::now();
  auto counter = chameleon::coverage::PatternCounter::FromDataset(corpus->dataset);
  if (!counter.ok()) return counter.status();
  trace->counter_build_ms = MsSince(start);
  chameleon::coverage::MupFinder finder(schema, *counter);
  chameleon::coverage::MupFinderOptions mup_options;
  mup_options.tau = options.tau;
  mup_options.num_threads = options.num_threads;
  start = Clock::now();
  const std::vector<chameleon::coverage::Mup> all_mups =
      finder.FindMups(mup_options);
  trace->find_mups_ms = MsSince(start);
  trace->count_queries = finder.last_count_queries();
  report.initial_mups = chameleon::coverage::MupFinder::MinLevel(all_mups);
  if (report.initial_mups.empty()) {
    report.fully_resolved = true;
    trace->wall_ms = MsSince(run_start);
    return report;
  }

  // 2. The greedy plan.
  start = Clock::now();
  report.plan = core::GreedySelect(schema, report.initial_mups);
  trace->plan_us = MsSince(start) * 1000.0;

  // 3. p, then the distribution test on real tuples.
  start = Clock::now();
  report.estimated_p = evaluators->EstimateRealLabelRate(
      corpus->RealTupleRealism(), options.p_estimation_samples, &rng);
  trace->p_estimate_ms = MsSince(start);
  if (report.estimated_p <= 0.0) {
    return chameleon::util::Status::FailedPrecondition(
        "could not estimate p: corpus has no real tuples with payloads");
  }
  start = Clock::now();
  std::vector<std::vector<double>> real_embeddings;
  for (const auto& tuple : corpus->dataset.tuples()) {
    if (!tuple.synthetic && !tuple.embedding.empty()) {
      real_embeddings.push_back(tuple.embedding);
    }
  }
  auto sampler = core::RejectionSampler::Train(
      real_embeddings, evaluators, report.estimated_p, options.rejection);
  if (!sampler.ok()) return sampler.status();
  trace->sampler_train_ms = MsSince(start);

  // 4. Fulfil the plan through a timed selector.
  TimedSelector selector(core::MakeGuideSelector(options.guide_strategy, schema,
                                                 options.linucb_alpha));
  core::Chameleon system(model, embedder, evaluators, options);
  bool all_filled = true;
  start = Clock::now();
  for (const auto& entry : report.plan) {
    auto accepted = system.GenerateAccepted(corpus, entry.values, entry.count,
                                            &selector, *sampler, &report, &rng);
    if (!accepted.ok()) return accepted.status();
    if (*accepted < entry.count) all_filled = false;
  }
  trace->generate_accepted_ms = MsSince(start);
  report.fully_resolved = all_filled;
  report.total_cost =
      static_cast<double>(report.queries) * model->query_cost();
  if (const fm::FaultTelemetry* telemetry = model->fault_telemetry()) {
    report.faults.transport = *telemetry;
  }
  trace->guide_select_calls = selector.select_calls();
  trace->guide_select_ms = selector.select_ms() + selector.reward_ms();
  trace->guide_tuples = selector.guide_tuples();
  trace->wall_ms = MsSince(run_start);
  if (sampler_out != nullptr) sampler_out->emplace(*std::move(sampler));
  return report;
}

}  // namespace perfbench
