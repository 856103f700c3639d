#ifndef CHAMELEON_FM_RESILIENT_FOUNDATION_MODEL_H_
#define CHAMELEON_FM_RESILIENT_FOUNDATION_MODEL_H_

#include <cstdint>

#include "src/fm/foundation_model.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace chameleon::obs {
struct Observability;
}  // namespace chameleon::obs

namespace chameleon::fm {

/// Circuit-breaker state (closed = traffic flows, open = fail fast,
/// half-open = one probe allowed through).
enum class BreakerState { kClosed, kOpen, kHalfOpen };

const char* BreakerStateName(BreakerState state);

struct ResilienceOptions {
  /// Seed for the deterministic backoff jitter stream. Independent of the
  /// pipeline rng: jitter never perturbs generation.
  uint64_t seed = 0xC0FFEEULL;

  /// Per-query retry budget: total attempts, including the first.
  int max_attempts = 4;

  /// Capped doubling backoff (virtual milliseconds): the k-th retry
  /// waits min(backoff_max_ms, backoff_base_ms * 2^(k-1)), scaled by a
  /// deterministic jitter in [1 - kJitterFraction, 1 + kJitterFraction]
  /// (ResilientFoundationModel::kJitterFraction).
  double backoff_base_ms = 50.0;
  double backoff_max_ms = 2000.0;

  /// Virtual cost of one backend attempt, charged to the attached
  /// Deadline and the observability clock.
  double attempt_cost_ms = 10.0;

  /// Breaker trips open after this many *consecutive* failed attempts.
  int breaker_failure_threshold = 5;
  /// While open, this many queries are rejected fail-fast before the
  /// breaker goes half-open and lets the next query through as a probe.
  int breaker_probe_interval = 8;
};

/// Resilience decorator: retry with capped exponential backoff and
/// deterministic jitter, error classification (transport errors and
/// malformed responses are retryable; everything else is terminal), a
/// per-request virtual deadline (fm::Deadline), and a closed -> open ->
/// half-open circuit breaker. Wraps any FoundationModel.
///
/// Determinism contract: the wrapper checkpoints the pipeline rng before
/// the first attempt and restores it before every retry, so the attempt
/// that finally succeeds consumes *exactly* the draws a first-try success
/// would have — same seed in, same accepted tuples out, regardless of the
/// fault schedule (as long as the retry budget masks every fault). All
/// timing is virtual; no wall clock is ever read.
///
/// Not thread-safe: callers serialize Generate, as the pipeline's serial
/// submission loop does. num_queries() counts *logical* queries; the
/// wrapped model's own counter sees every retry attempt.
class ResilientFoundationModel : public FoundationModel {
 public:
  /// Half-width of the multiplicative backoff jitter.
  static constexpr double kJitterFraction = 0.25;

  ResilientFoundationModel(FoundationModel* wrapped,
                           const ResilienceOptions& options);

  [[nodiscard]] util::Result<GenerationResult> Generate(
      const GenerationRequest& request, util::Rng* rng) override;

  double query_cost() const override { return wrapped_->query_cost(); }

  /// Cumulative over the decorator's lifetime; the breaker state survives
  /// across runs too (a dead backend stays dead between rounds).
  const FaultTelemetry* fault_telemetry() const override {
    return &telemetry_;
  }

  BreakerState breaker_state() const { return state_; }

  /// Attaches an observability sink (not owned; null detaches). When set,
  /// every attempt and backoff is mirrored into the shared VirtualClock's
  /// millisecond axis (so spans correlate with retry storms), retries feed
  /// the `fm.retries` counter, and each retry/breaker transition is
  /// journaled. All of it is driven from the serial Generate path, so the
  /// journal stays deterministic.
  void set_observability(obs::Observability* observability) override {
    observability_ = observability;
    wrapped_->set_observability(observability);
  }

  /// Attaches a per-request deadline/cancellation context (not owned;
  /// null detaches). Every attempt and backoff is charged to it, and
  /// Generate fails fast with kDeadlineExceeded once it expires or is
  /// cancelled. The serving layer gives each request its own decorator
  /// *and* its own Deadline, so no request can burn another's budget.
  void set_deadline(Deadline* deadline) override {
    deadline_ = deadline;
    wrapped_->set_deadline(deadline);
  }

 private:
  /// Retryable-failure bookkeeping shared by every fault path: advances
  /// the consecutive-failure count and trips the breaker at threshold.
  void OnAttemptFailure();

  /// Charges `ms` virtual milliseconds to the attached observability
  /// clock and Deadline (each a no-op when detached).
  void AdvanceClock(double ms);

  FoundationModel* wrapped_;
  ResilienceOptions options_;
  util::Rng jitter_rng_;
  FaultTelemetry telemetry_;
  obs::Observability* observability_ = nullptr;
  Deadline* deadline_ = nullptr;

  BreakerState state_ = BreakerState::kClosed;
  int consecutive_failures_ = 0;
  int rejections_since_open_ = 0;
};

}  // namespace chameleon::fm

#endif  // CHAMELEON_FM_RESILIENT_FOUNDATION_MODEL_H_
