#include "src/core/chameleon.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "src/coverage/pattern_counter.h"
#include "src/fm/deadline.h"
#include "src/obs/observability.h"
#include "src/util/thread_pool.h"

namespace chameleon::core {
namespace {

/// Safety cap per plan entry: an entry gives up after
/// kMaxAttemptsPerTuple × its count attempts in total, accepted or not.
constexpr int64_t kMaxAttemptsPerTuple = 40;

/// One submitted request awaiting its transport result. Select runs
/// serially at submission; generation and label draws come from two
/// streams forked off the master rng at submission time, so the model's
/// scheduling of the round's batch cannot change any draw. The request's
/// guide_values, mask and guide_foreground pointers alias `choice`,
/// `mask` and `foreground`, and the round's BatchItems point at
/// `request`/`gen_rng`, so the struct must stay put once selected — the
/// submission vector reserves the whole round up front.
struct PendingGeneration {
  GuideChoice choice;
  fm::GenerationRequest request;
  image::Image mask;
  image::Image foreground;
  util::Rng gen_rng;
  util::Rng label_rng;
};

/// One generated candidate awaiting evaluation. Embed and the rejection
/// tests are pure and run concurrently.
struct PendingCandidate {
  GuideChoice choice;
  image::Image image;
  double latent_realism = 0.0;
  std::vector<int> quality_labels;
  // Filled by the (possibly parallel) evaluation stage.
  std::vector<double> embedding;
  RejectionOutcome outcome;
};

/// Renders a plan-entry target as "v0,v1,..." for journal events.
std::string FormatTarget(const std::vector<int>& target) {
  std::string out;
  for (size_t i = 0; i < target.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(target[i]);
  }
  return out;
}

/// The generate→reject loop's only observability touchpoint: one method
/// per event, each a no-op when no sink is attached, so the loop itself
/// never tests the sink. Instrument handles are resolved once per
/// GenerateAccepted call, each `guide.arm.<k>` on its arm's first pull
/// (Registry lookups are mutex-guarded — its instrument maps carry
/// CHAMELEON_GUARDED_BY(mutex_), enforced by chameleon-lint's
/// lock-discipline rule; the loop itself must only pay atomic increments
/// on the returned handles). Constructing one opens the `plan.entry`
/// span and journals the entry; the span ends with the object.
class LoopInstruments {
 public:
  LoopInstruments(obs::Observability* obs, const std::vector<int>& target,
                  int64_t count, int64_t rejection_batch)
      : obs_(obs), rejection_batch_(rejection_batch) {
    if (obs_ == nullptr) return;
    obs::Registry* registry = &obs_->registry;
    fm_queries_ = registry->Counter("fm.queries");
    fm_parked_ = registry->Counter("fm.parked");
    guide_with_ = registry->Counter("guide.with_guide");
    guide_without_ = registry->Counter("guide.no_guide");
    accepted_ = registry->Counter("rejection.accepted");
    rejected_ = registry->Counter("rejection.rejected");
    rejected_distribution_ =
        registry->Counter("rejection.rejected_distribution");
    rejected_quality_ = registry->Counter("rejection.rejected_quality");
    rejected_both_ = registry->Counter("rejection.rejected_both");
    decision_value_ = registry->Histogram(
        "rejection.decision_value", {-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0});
    quality_p_ = registry->Histogram(
        "rejection.quality_p", {0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0});
    target_ = FormatTarget(target);
    entry_span_.emplace(obs_->tracer.StartSpan("plan.entry"));
    obs_->journal.Record(obs::JournalEvent("plan.entry")
                             .Set("target", target_)
                             .Set("count", count));
  }

  /// The `rejection.batch` span of one round; empty when off.
  std::optional<obs::Span> Round() {
    if (obs_ == nullptr) return std::nullopt;
    return obs_->tracer.StartSpan("rejection.batch");
  }

  /// One `fm.query` per selected slot. `issued` is false only for a slot
  /// that failed its payload check: `fm.queries` counts issued queries,
  /// so it equals FoundationModel::num_queries() whatever the outcome
  /// (the contract test in chameleon_test.cc pins both).
  void Query(const GuideChoice& choice, bool issued) {
    if (obs_ == nullptr) return;
    (choice.has_guide ? guide_with_ : guide_without_)->Increment();
    GuideArm(choice.arm)->Increment();
    obs_->journal.Record(obs::JournalEvent("fm.query")
                             .Set("target", target_)
                             .Set("arm", choice.arm)
                             .Set("guided", choice.has_guide));
    if (issued) fm_queries_->Increment();
  }

  /// One `fm.batch` per dispatched round, and none at rejection_batch 1
  /// (a one-query dispatch is not a batch). `reason` is "size" for a full
  /// round and "force" for one the caps cut short. The `fm.batch.*`
  /// handles resolve on the first batch, so a run without one registers
  /// none of them.
  void Batch(size_t size) {
    if (obs_ == nullptr || rejection_batch_ <= 1) return;
    const bool full = static_cast<int64_t>(size) == rejection_batch_;
    obs_->journal.Record(obs::JournalEvent("fm.batch")
                             .Set("size", size)
                             .Set("reason", full ? "size" : "force"));
    if (batch_flushes_ == nullptr) {
      obs::Registry* registry = &obs_->registry;
      batch_flushes_ = registry->Counter("fm.batch.flushes");
      batch_requests_ = registry->Counter("fm.batch.requests");
      batch_size_ = registry->Histogram(
          "fm.batch.size", {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0});
    }
    batch_flushes_->Increment();
    batch_requests_->Increment(static_cast<int64_t>(size));
    batch_size_->Observe(static_cast<double>(size));
  }

  /// One `fm.parked` per parking event: a failed result or a stop.
  void Parked(const char* code) {
    if (obs_ == nullptr) return;
    fm_parked_->Increment();
    obs_->journal.Record(obs::JournalEvent("fm.parked")
                             .Set("target", target_)
                             .Set("code", code));
  }

  /// The verdict of one merged candidate.
  void Verdict(const RejectionOutcome& outcome, int arm) {
    if (obs_ == nullptr) return;
    decision_value_->Observe(outcome.decision_value);
    quality_p_->Observe(outcome.quality_p_value);
    if (outcome.Passed()) {
      accepted_->Increment();
      obs_->journal.Record(obs::JournalEvent("tuple.accepted")
                               .Set("target", target_)
                               .Set("arm", arm));
      return;
    }
    rejected_->Increment();
    const char* reason = "quality";
    if (!outcome.distribution_pass && !outcome.quality_pass) {
      rejected_both_->Increment();
      reason = "both";
    } else if (!outcome.distribution_pass) {
      rejected_distribution_->Increment();
      reason = "distribution";
    } else {
      rejected_quality_->Increment();
    }
    obs_->journal.Record(obs::JournalEvent("tuple.rejected")
                             .Set("target", target_)
                             .Set("arm", arm)
                             .Set("reason", reason));
  }

  /// Folds this entry's pool activity into the threadpool.* metrics
  /// (unstable across worker counts by nature; obs::IsStableMetric
  /// excludes the whole namespace from the determinism contract).
  void FoldPool(const util::ThreadPool* pool) {
    if (obs_ == nullptr || pool == nullptr) return;
    const util::ThreadPoolStats stats = pool->stats();
    obs::Registry* registry = &obs_->registry;
    registry->Counter("threadpool.tasks_submitted")
        ->Increment(stats.tasks_submitted);
    registry->Counter("threadpool.parallel_for_calls")
        ->Increment(stats.parallel_for_calls);
    registry->Counter("threadpool.chunks_executed")
        ->Increment(stats.chunks_executed);
    registry->Gauge("threadpool.workers")
        ->Set(static_cast<double>(pool->num_threads()));
    obs::Gauge* depth = registry->Gauge("threadpool.max_queue_depth");
    if (static_cast<double>(stats.max_queue_depth) > depth->value()) {
      depth->Set(static_cast<double>(stats.max_queue_depth));
    }
  }

 private:
  /// `guide.arm.<arm>`, resolved on the arm's first pull in this call so
  /// the registry gains no counter for an arm that is never pulled.
  obs::Counter* GuideArm(int arm) {
    const size_t slot = static_cast<size_t>(arm + 1);  // arm -1: no bandit
    if (slot >= guide_arms_.size()) guide_arms_.resize(slot + 1, nullptr);
    if (guide_arms_[slot] == nullptr) {
      guide_arms_[slot] =
          obs_->registry.Counter("guide.arm." + std::to_string(arm));
    }
    return guide_arms_[slot];
  }

  obs::Observability* obs_;
  int64_t rejection_batch_;
  std::string target_;
  obs::Counter* fm_queries_ = nullptr;
  obs::Counter* fm_parked_ = nullptr;
  obs::Counter* guide_with_ = nullptr;
  obs::Counter* guide_without_ = nullptr;
  obs::Counter* accepted_ = nullptr;
  obs::Counter* rejected_ = nullptr;
  obs::Counter* rejected_distribution_ = nullptr;
  obs::Counter* rejected_quality_ = nullptr;
  obs::Counter* rejected_both_ = nullptr;
  obs::Histogram* decision_value_ = nullptr;
  obs::Histogram* quality_p_ = nullptr;
  obs::Counter* batch_flushes_ = nullptr;
  obs::Counter* batch_requests_ = nullptr;
  obs::Histogram* batch_size_ = nullptr;
  std::vector<obs::Counter*> guide_arms_;  ///< indexed by arm + 1
  std::optional<obs::Span> entry_span_;
};

/// RepairMinLevelMups' only observability touchpoint, built like
/// LoopInstruments: one method per event, each a no-op without a sink.
/// Constructing one opens the `repair.run` span and journals `run.start`;
/// the span ends with the object, after any stage span it handed out.
class RunInstruments {
 public:
  RunInstruments(obs::Observability* obs, int64_t tau, uint64_t seed)
      : obs_(obs) {
    if (obs_ == nullptr) return;
    run_span_.emplace(obs_->tracer.StartSpan("repair.run"));
    // Deliberately no num_threads / rejection_batch here: the journal of
    // a fixed configuration must be byte-identical at every thread count.
    obs_->journal.Record(obs::JournalEvent("run.start")
                             .Set("tau", tau)
                             .Set("seed", static_cast<int64_t>(seed)));
  }

  /// The run's request id (DESIGN.md §15); empty when off or untagged.
  std::string request_id() const {
    return obs_ == nullptr ? std::string() : obs_->request_id;
  }

  /// A stage span (`plan.select`, `sampler.train`); empty when off.
  std::optional<obs::Span> Stage(const char* name) {
    if (obs_ == nullptr) return std::nullopt;
    return obs_->tracer.StartSpan(name);
  }

  void MinLevel(int level) {
    if (obs_ == nullptr) return;
    obs_->registry.Gauge("mup.min_level")->Set(static_cast<double>(level));
  }

  void Planned(const CombinationPlan& plan) {
    if (obs_ == nullptr) return;
    int64_t tuples_required = 0;
    for (const auto& entry : plan) tuples_required += entry.count;
    obs_->registry.Gauge("plan.entries")
        ->Set(static_cast<double>(plan.size()));
    obs_->registry.Gauge("plan.tuples_required")
        ->Set(static_cast<double>(tuples_required));
  }

  void Calibrated(double estimated_p) {
    if (obs_ == nullptr) return;
    obs_->registry.Gauge("run.estimated_p")->Set(estimated_p);
  }

  /// What the model's resilience layer absorbed, as `fm.transport.*`.
  void Transport(const fm::FaultTelemetry& telemetry) {
    if (obs_ == nullptr) return;
    obs::Registry* r = &obs_->registry;
    r->Gauge("fm.transport.attempts")
        ->Set(static_cast<double>(telemetry.attempts));
    r->Gauge("fm.transport.retries")
        ->Set(static_cast<double>(telemetry.retries));
    r->Gauge("fm.transport.faults_masked")
        ->Set(static_cast<double>(telemetry.faults_masked));
    r->Gauge("fm.transport.malformed_results")
        ->Set(static_cast<double>(telemetry.malformed_results));
    r->Gauge("fm.transport.failed_queries")
        ->Set(static_cast<double>(telemetry.failed_queries));
    r->Gauge("fm.transport.fail_fast_rejections")
        ->Set(static_cast<double>(telemetry.fail_fast_rejections));
    r->Gauge("fm.transport.breaker_opens")
        ->Set(static_cast<double>(telemetry.breaker_opens));
    r->Gauge("fm.transport.breaker_reopens")
        ->Set(static_cast<double>(telemetry.breaker_reopens));
    r->Gauge("fm.transport.breaker_closes")
        ->Set(static_cast<double>(telemetry.breaker_closes));
    r->Gauge("fm.transport.backoff_ms")->Set(telemetry.backoff_ms);
  }

  /// The run's outcome: the `run.*` gauges and the `run.end` line.
  void End(const RepairReport& report) {
    if (obs_ == nullptr) return;
    obs_->registry.Gauge("run.fully_resolved")
        ->Set(report.fully_resolved ? 1.0 : 0.0);
    obs_->registry.Gauge("run.total_cost")->Set(report.total_cost);
    obs_->journal.Record(obs::JournalEvent("run.end")
                             .Set("queries", report.queries)
                             .Set("accepted", report.accepted)
                             .Set("parked", report.faults.parked_entries())
                             .Set("fully_resolved", report.fully_resolved));
  }

 private:
  obs::Observability* obs_;
  std::optional<obs::Span> run_span_;
};

/// a * b, clamped to the int64 range instead of overflowing.
int64_t SaturatingMul(int64_t a, int64_t b) {
  int64_t product = 0;
  if (!__builtin_mul_overflow(a, b, &product)) return product;
  return (a < 0) != (b < 0) ? std::numeric_limits<int64_t>::min()
                            : std::numeric_limits<int64_t>::max();
}

}  // namespace

Chameleon::Chameleon(fm::FoundationModel* model,
                     const embedding::Embedder* embedder,
                     const fm::EvaluatorPool* evaluators,
                     const ChameleonOptions& options)
    : model_(model),
      embedder_(embedder),
      evaluators_(evaluators),
      options_(options) {}

util::Result<int64_t> Chameleon::GenerateAccepted(
    fm::Corpus* corpus, const std::vector<int>& target, int64_t count,
    GuideSelector* selector, const RejectionSampler& sampler,
    RepairReport* report, util::Rng* rng) {
  const data::AttributeSchema& schema = corpus->dataset.schema();
  int64_t accepted_here = 0;
  int64_t attempts = 0;
  // Saturating: a huge tau (the wire only checks tau > 0) makes `count`
  // a huge gap, and INT64_MAX bounds the loop as well as the product.
  const int64_t attempt_cap = SaturatingMul(kMaxAttemptsPerTuple, count);
  const int64_t batch_limit =
      std::max<int64_t>(1, options_.rejection_batch);
  const int num_threads =
      util::ThreadPool::ResolveThreadCount(options_.num_threads);
  std::unique_ptr<util::ThreadPool> pool;
  if (batch_limit > 1 && num_threads > 1) {
    pool = std::make_unique<util::ThreadPool>(num_threads);
  }

  LoopInstruments instruments(options_.observability, target, count,
                              batch_limit);

  bool parked = false;
  while (!parked && accepted_here < count && attempts < attempt_cap &&
         report->queries < options_.max_queries) {
    // Deadline/cancel check at the round boundary: once the request's
    // budget is gone (or a cancel frame landed), park this entry — it
    // keeps whatever it accepted so far — and let the caller park the
    // rest of the plan. Checking only between rounds keeps the partial
    // report deterministic: a round either fully merges or never starts.
    if (options_.deadline != nullptr && options_.deadline->ShouldStop()) {
      report->faults.parked_targets.push_back(target);
      instruments.Parked(options_.deadline->Cancelled() ? "cancelled"
                                                        : "deadline_exceeded");
      break;
    }
    // Never submit more than the caps allow: a batch can accept at most
    // (count - accepted_here), so a capped batch issues exactly the
    // queries the one-at-a-time loop would.
    const int64_t batch = std::min(
        {batch_limit, count - accepted_here, attempt_cap - attempts,
         options_.max_queries - report->queries});
    const std::optional<obs::Span> round_span = instruments.Round();

    // A round runs in three stages that never overlap (DESIGN.md §11):
    //  1. Selection, serial: Select, the payload check and the two rng
    //     forks per slot, in submission order. This is everything that
    //     touches the master rng or reads mutable pipeline state, and each
    //     request's own generation and label streams are forked here, so
    //     neither the mask fan-out nor the model's scheduling can change
    //     any draw.
    //  2. Masks, on the pool: each guided slot writes only its own mask.
    //  3. Dispatch: journal and count each query, then hand the whole
    //     round to GenerateBatch once, in submission order. Under the
    //     pool's Scope a model whose slots are independent (the simulator)
    //     serves the batch on the pool; resilience decorators keep their
    //     serial default.
    std::vector<PendingGeneration> submissions;
    submissions.reserve(batch);
    // Slots [0, ready) passed selection. A selection error stops the
    // round; a slot past `ready` failed its payload check and is journaled
    // last, where the one-query-at-a-time loop journaled it.
    util::Status selection_error;
    size_t ready = 0;
    for (int64_t b = 0; b < batch; ++b) {
      ++attempts;

      auto choice = selector->Select(corpus->dataset, target, rng);
      if (!choice.ok()) {
        selection_error = choice.status();
        break;
      }
      PendingGeneration& sub = submissions.emplace_back();
      sub.choice = std::move(*choice);
      sub.request.target_values = target;
      sub.request.prompt = fm::BuildPrompt(schema, target);
      if (sub.choice.has_guide) {
        const data::Tuple& guide_tuple = corpus->dataset.tuple(
            sub.choice.tuple_index);
        if (guide_tuple.payload_id < 0) {
          selection_error = util::Status::FailedPrecondition(
              "guide tuple has no image payload");
          break;
        }
        // Stable for the round: the corpus only grows at the merge below.
        sub.request.guide = &corpus->images[guide_tuple.payload_id];
        sub.request.guide_values = &sub.choice.guide_values;
        sub.request.mask = &sub.mask;
        sub.request.guide_foreground = &sub.foreground;
      }
      sub.gen_rng = rng->Fork();
      sub.label_rng = rng->Fork();
      ready = submissions.size();
    }

    auto make_masks = [&](int64_t begin, int64_t end, int64_t /*chunk*/) {
      for (int64_t i = begin; i < end; ++i) {
        PendingGeneration& sub = submissions[i];
        if (sub.request.guide == nullptr) continue;
        // One segmentation per guide: the mask is derived from it, and the
        // model reads it through request.guide_foreground.
        sub.foreground = image::ExtractForeground(*sub.request.guide);
        sub.mask = image::MaskFromForeground(sub.foreground,
                                             options_.mask_level);
      }
    };
    if (pool != nullptr) {
      pool->ParallelFor(static_cast<int64_t>(ready), 1, make_masks);
    } else {
      make_masks(0, static_cast<int64_t>(ready), 0);
    }

    const util::ThreadPool::Scope fan_out(pool.get());
    std::vector<fm::BatchItem> items;
    items.reserve(ready);
    for (size_t i = 0; i < ready; ++i) {
      PendingGeneration& sub = submissions[i];
      instruments.Query(sub.choice, /*issued=*/true);
      items.push_back(fm::BatchItem{&sub.request, &sub.gen_rng});
    }
    if (!selection_error.ok()) {
      if (submissions.size() > ready) {
        instruments.Query(submissions.back().choice, /*issued=*/false);
      }
      return selection_error;
    }
    std::vector<util::Result<fm::GenerationResult>> results =
        model_->GenerateBatch(items);
    if (results.size() != items.size()) {
      return util::Status::Internal(
          "GenerateBatch returned " + std::to_string(results.size()) +
          " results for a batch of " + std::to_string(items.size()));
    }
    instruments.Batch(items.size());

    // Transport results, in submission order. A transport failure means
    // the model's resilience layer (retries, breaker) already did what
    // it could: park this plan entry and let the run continue, but still
    // evaluate and merge this round's successful candidates so the
    // accounting and the bandit state stay exactly as if the round were
    // smaller. Terminal codes (invalid request, internal bug) abort the
    // run.
    std::vector<PendingCandidate> candidates;
    candidates.reserve(submissions.size());
    for (size_t i = 0; i < submissions.size(); ++i) {
      PendingGeneration& sub = submissions[i];
      if (!results[i].ok()) {
        const util::Status& failure = results[i].status();
        if (!fm::IsTransportError(failure.code())) return failure;
        ++report->faults.transport_failures;
        if (!parked) report->faults.parked_targets.push_back(target);
        parked = true;
        instruments.Parked(util::StatusCodeName(failure.code()));
        continue;
      }
      ++report->queries;

      fm::GenerationResult generation = std::move(*results[i]);
      PendingCandidate candidate;
      candidate.choice = std::move(sub.choice);
      candidate.image = std::move(generation.image);
      candidate.latent_realism = generation.latent_realism;
      candidate.quality_labels = sampler.DrawQualityLabels(
          candidate.latent_realism, &sub.label_rng);
      candidates.push_back(std::move(candidate));
    }

    // Evaluation: pure per-candidate work, fanned out over the pool.
    // Each candidate writes only its own slot, so the results are
    // bit-identical at every worker count.
    auto evaluate = [&](int64_t begin, int64_t end, int64_t /*chunk*/) {
      for (int64_t i = begin; i < end; ++i) {
        PendingCandidate& c = candidates[i];
        c.embedding = embedder_->Embed(c.image);
        c.outcome = sampler.EvaluateWithLabels(c.embedding, c.quality_labels);
      }
    };
    if (pool != nullptr) {
      pool->ParallelFor(static_cast<int64_t>(candidates.size()), 1, evaluate);
    } else {
      evaluate(0, static_cast<int64_t>(candidates.size()), 0);
    }

    // Merge: rewards, records, and corpus growth strictly in submission
    // order, exactly as the serial loop interleaves them.
    for (PendingCandidate& c : candidates) {
      report->distribution_passes += c.outcome.distribution_pass;
      report->quality_passes += c.outcome.quality_pass;
      selector->ReportReward(target, c.choice, c.outcome.Passed());
      instruments.Verdict(c.outcome, c.choice.arm);

      GenerationRecord record;
      record.target_values = target;
      record.embedding = c.embedding;
      record.latent_realism = c.latent_realism;
      record.distribution_pass = c.outcome.distribution_pass;
      record.quality_pass = c.outcome.quality_pass;
      record.quality_p_value = c.outcome.quality_p_value;
      record.decision_value = c.outcome.decision_value;
      record.arm = c.choice.arm;
      record.accepted = c.outcome.Passed();
      report->records.push_back(std::move(record));

      if (!c.outcome.Passed()) continue;

      data::Tuple tuple;
      tuple.values = target;
      tuple.embedding = c.embedding;
      tuple.synthetic = true;
      CHAMELEON_RETURN_NOT_OK(corpus->Add(std::move(tuple),
                                          std::move(c.image),
                                          c.latent_realism));
      ++report->accepted;
      ++accepted_here;
    }
  }

  instruments.FoldPool(pool.get());
  return accepted_here;
}

util::Result<RepairReport> Chameleon::RepairMinLevelMups(fm::Corpus* corpus) {
  RepairReport report;
  util::Rng rng(options_.seed);
  const data::AttributeSchema& schema = corpus->dataset.schema();
  model_->set_deadline(options_.deadline);
  model_->set_observability(options_.observability);
  RunInstruments instruments(options_.observability, options_.tau,
                             options_.seed);
  report.request_id = instruments.request_id();

  // 1. Detect the minimum-level MUPs: one full lattice traversal.
  auto counter = coverage::PatternCounter::FromDataset(corpus->dataset);
  if (!counter.ok()) return counter.status();
  coverage::MupFinder finder(schema, *counter);
  coverage::MupFinderOptions mup_options;
  mup_options.tau = options_.tau;
  mup_options.observability = options_.observability;
  const std::vector<coverage::Mup> all_mups = finder.FindMups(mup_options);
  report.initial_mups = coverage::MupFinder::MinLevel(all_mups);
  if (report.initial_mups.empty()) {
    report.fully_resolved = true;
    instruments.End(report);
    return report;
  }
  const int target_level = report.initial_mups[0].Level();
  instruments.MinLevel(target_level);

  // 2. Plan the augmentation.
  {
    const std::optional<obs::Span> span = instruments.Stage("plan.select");
    switch (options_.selection) {
      case SelectionAlgorithm::kGreedy:
        report.plan = GreedySelect(schema, report.initial_mups);
        break;
      case SelectionAlgorithm::kRandom:
        report.plan = RandomSelect(schema, all_mups, target_level, &rng);
        break;
      case SelectionAlgorithm::kMinGap:
        report.plan = MinGapSelect(schema, all_mups, target_level);
        break;
    }
  }
  instruments.Planned(report.plan);

  // 3. Calibrate p and train the distribution test on real tuples.
  std::optional<obs::Span> train_span = instruments.Stage("sampler.train");
  report.estimated_p = evaluators_->EstimateRealLabelRate(
      corpus->RealTupleRealism(), options_.p_estimation_samples, &rng);
  if (report.estimated_p <= 0.0) {
    return util::Status::FailedPrecondition(
        "could not estimate p: corpus has no real tuples with payloads");
  }
  std::vector<std::vector<double>> real_embeddings;
  for (const auto& t : corpus->dataset.tuples()) {
    if (!t.synthetic && !t.embedding.empty()) {
      real_embeddings.push_back(t.embedding);
    }
  }
  auto sampler = RejectionSampler::Train(real_embeddings, evaluators_,
                                         report.estimated_p,
                                         options_.rejection);
  if (!sampler.ok()) return sampler.status();
  train_span.reset();
  instruments.Calibrated(report.estimated_p);

  // 4. Fulfil the plan.
  auto selector = MakeGuideSelector(options_.guide_strategy, schema,
                                    options_.linucb_alpha);
  bool all_filled = true;
  for (const auto& entry : report.plan) {
    auto accepted = GenerateAccepted(corpus, entry.values, entry.count,
                                     selector.get(), *sampler, &report, &rng);
    if (!accepted.ok()) return accepted.status();
    if (*accepted < entry.count) all_filled = false;
  }
  // A tripped deadline parks every entry it reaches (GenerateAccepted
  // checks it before each round, so untouched entries park without
  // issuing a single query); record why the run stopped early.
  if (options_.deadline != nullptr) {
    report.cancelled = options_.deadline->Cancelled();
    report.deadline_expired = options_.deadline->Expired();
  }
  report.fully_resolved = all_filled;
  report.total_cost = static_cast<double>(report.queries) *
                      model_->query_cost();
  // Snapshot what the model's resilience layer (if any) absorbed, so
  // benches and operators can see the faults behind the numbers.
  if (const fm::FaultTelemetry* telemetry = model_->fault_telemetry()) {
    report.faults.transport = *telemetry;
    instruments.Transport(*telemetry);
  }
  instruments.End(report);
  return report;
}

}  // namespace chameleon::core
