// Timing wrappers around the pipeline's three injectable interfaces. They
// forward every call unchanged, so a run through them accepts the same
// tuples as a run without them; they only add wall-clock spans.
#ifndef PERFBENCH_SRC_LAYERS_H_
#define PERFBENCH_SRC_LAYERS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "src/common.h"
#include "src/core/guide_selection.h"
#include "src/embedding/embedder.h"
#include "src/fm/foundation_model.h"

namespace perfbench {

/// Length of the union of [start, end) intervals, in ms: the wall time
/// during which at least one of them was open.
double UnionMs(std::vector<std::pair<double, double>> intervals);

/// Foundation-model wrapper. GenerateBatch forwards to the inner model's
/// GenerateBatch (never to its own Generate), so a parallel transport in
/// the inner model stays visible.
class TimedModel : public chameleon::fm::FoundationModel {
 public:
  explicit TimedModel(chameleon::fm::FoundationModel* inner) : inner_(inner) {}

  chameleon::util::Result<chameleon::fm::GenerationResult> Generate(
      const chameleon::fm::GenerationRequest& request,
      chameleon::util::Rng* rng) override;
  std::vector<chameleon::util::Result<chameleon::fm::GenerationResult>>
  GenerateBatch(std::span<const chameleon::fm::BatchItem> items) override;

  double query_cost() const override { return inner_->query_cost(); }
  void ReportOutcome(int backend, bool accepted) override {
    inner_->ReportOutcome(backend, accepted);
  }
  void set_backend_router(chameleon::fm::BackendRouterKind kind) override {
    inner_->set_backend_router(kind);
  }
  void OnRunStart() override { inner_->OnRunStart(); }
  const chameleon::fm::FaultTelemetry* fault_telemetry() const override {
    return inner_->fault_telemetry();
  }
  void set_observability(chameleon::obs::Observability* obs) override {
    inner_->set_observability(obs);
  }
  void set_deadline(chameleon::fm::Deadline* deadline) override {
    inner_->set_deadline(deadline);
  }

  int64_t queries() const { return queries_; }
  int64_t dispatches() const { return dispatches_; }
  double busy_ms() const { return busy_ms_; }

 private:
  chameleon::fm::FoundationModel* inner_;
  // Dispatches arrive on the pipeline's serial submission path; plain
  // members suffice, as they do for the pipeline's own accounting.
  int64_t queries_ = 0;
  int64_t dispatches_ = 0;
  double busy_ms_ = 0.0;
};

/// Embedder wrapper. Embed runs on pool threads during evaluation, so it
/// keeps each call's interval for a wall-clock union besides the busy sum.
class TimedEmbedder : public chameleon::embedding::Embedder {
 public:
  explicit TimedEmbedder(const chameleon::embedding::Embedder* inner)
      : inner_(inner), epoch_(Clock::now()) {}

  int dim() const override { return inner_->dim(); }
  std::vector<double> Embed(const chameleon::image::Image& image) const override;

  /// Calls made while set-up is marked count as set-up calls and keep no
  /// interval.
  void set_setup(bool setup) { setup_.store(setup); }
  /// Forgets the measured (non-set-up) calls.
  void ResetMeasured();

  int64_t setup_calls() const { return setup_calls_.load(); }
  int64_t calls() const;
  double busy_ms() const;
  double union_ms() const;

 private:
  const chameleon::embedding::Embedder* inner_;
  Clock::time_point epoch_;
  std::atomic<bool> setup_{false};
  mutable std::atomic<int64_t> setup_calls_{0};
  mutable std::mutex mutex_;
  mutable std::vector<std::pair<double, double>> intervals_;
};

/// Guide-selector wrapper: times Select and ReportReward, and keeps the
/// tuple index of every guide it hands out (for the mask replay).
class TimedSelector : public chameleon::core::GuideSelector {
 public:
  explicit TimedSelector(std::unique_ptr<chameleon::core::GuideSelector> inner)
      : inner_(std::move(inner)) {}

  chameleon::util::Result<chameleon::core::GuideChoice> Select(
      const chameleon::data::Dataset& dataset, const std::vector<int>& target,
      chameleon::util::Rng* rng) override;
  void ReportReward(const std::vector<int>& target,
                    const chameleon::core::GuideChoice& choice,
                    bool passed) override;
  const char* name() const override { return inner_->name(); }

  int64_t select_calls() const { return select_calls_; }
  double select_ms() const { return select_ms_; }
  double reward_ms() const { return reward_ms_; }
  const std::vector<size_t>& guide_tuples() const { return guide_tuples_; }

 private:
  std::unique_ptr<chameleon::core::GuideSelector> inner_;
  int64_t select_calls_ = 0;
  double select_ms_ = 0.0;
  double reward_ms_ = 0.0;
  std::vector<size_t> guide_tuples_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LAYERS_H_
