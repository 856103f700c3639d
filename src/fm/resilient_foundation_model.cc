#include "src/fm/resilient_foundation_model.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>

#include "src/fm/deadline.h"
#include "src/obs/observability.h"

namespace chameleon::fm {
namespace {

/// An OK response can still be garbage (the paper's backend is a remote
/// black box): reject wrong `values` arity and empty images. Malformed
/// responses are retryable — the next attempt re-derives the generation
/// from the restored rng checkpoint.
bool IsWellFormed(const GenerationRequest& request,
                  const GenerationResult& result) {
  return result.values.size() == request.target_values.size() &&
         !result.image.empty();
}

}  // namespace

const char* BreakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half-open";
  }
  return "unknown";
}

ResilientFoundationModel::ResilientFoundationModel(
    FoundationModel* wrapped, const ResilienceOptions& options)
    : wrapped_(wrapped), options_(options), jitter_rng_(options.seed) {}

void ResilientFoundationModel::AdvanceClock(double ms) {
  if (observability_ != nullptr) observability_->clock.AdvanceMs(ms);
  if (deadline_ != nullptr) deadline_->AdvanceMs(ms);
}

void ResilientFoundationModel::OnAttemptFailure() {
  if (state_ == BreakerState::kHalfOpen) {
    // The probe failed: the backend is still down. Re-open and start a
    // fresh probe interval.
    state_ = BreakerState::kOpen;
    rejections_since_open_ = 0;
    ++telemetry_.breaker_reopens;
    if (observability_ != nullptr) {
      observability_->journal.Record(
          obs::JournalEvent("fm.breaker").Set("state", "open")
              .Set("cause", "probe_failed"));
    }
    return;
  }
  ++consecutive_failures_;
  if (state_ == BreakerState::kClosed &&
      consecutive_failures_ >= options_.breaker_failure_threshold) {
    state_ = BreakerState::kOpen;
    rejections_since_open_ = 0;
    ++telemetry_.breaker_opens;
    if (observability_ != nullptr) {
      observability_->journal.Record(
          obs::JournalEvent("fm.breaker").Set("state", "open")
              .Set("cause", "failure_threshold"));
    }
  }
}

util::Result<GenerationResult> ResilientFoundationModel::Generate(
    const GenerationRequest& request, util::Rng* rng) {
  RecordQuery();

  if (deadline_ != nullptr && deadline_->ShouldStop()) {
    ++telemetry_.failed_queries;
    return deadline_->Cancelled()
               ? util::Status::DeadlineExceeded(
                     "request cancelled: failing fast without contacting "
                     "the backend")
               : util::Status::DeadlineExceeded(
                     "per-request deadline exhausted (request clock at " +
                     std::to_string(deadline_->ElapsedMs()) + " of " +
                     std::to_string(deadline_->budget_ms()) + " ms)");
  }

  if (state_ == BreakerState::kOpen) {
    if (rejections_since_open_ >= options_.breaker_probe_interval) {
      state_ = BreakerState::kHalfOpen;  // this query is the probe
    } else {
      ++rejections_since_open_;
      ++telemetry_.fail_fast_rejections;
      ++telemetry_.failed_queries;
      return util::Status::Unavailable(
          "circuit breaker open: failing fast without contacting the "
          "backend");
    }
  }
  // A half-open breaker admits exactly one attempt: the probe either
  // closes the breaker or re-opens it; retrying behind it is pointless.
  const int max_attempts = state_ == BreakerState::kHalfOpen
                               ? 1
                               : std::max(1, options_.max_attempts);

  // Checkpoint the pipeline stream: every retry replays it so the
  // successful attempt draws exactly what a first-try success would.
  const util::Rng checkpoint = *rng;
  util::Status last_failure =
      util::Status::Unavailable("no generation attempt was made");

  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    if (attempt > 1) {
      *rng = checkpoint;
      // Cap the exponent before exponentiating: a huge attempt budget
      // must saturate at backoff_max_ms, not overflow. The uncapped
      // form shifted/compounded by (attempt - 2) directly, which for
      // attempt budgets in the thousands overflows any integer fast
      // path (UB) and sends std::pow to inf before the max applies.
      const int exponent = std::min(attempt - 2, 62);
      double backoff;
      if (options_.backoff_multiplier == 2.0) {
        // Exact power-of-two fast path, now safe: exponent <= 62.
        backoff = options_.backoff_base_ms *
                  static_cast<double>(uint64_t{1} << exponent);
      } else {
        backoff = options_.backoff_base_ms *
                  std::pow(options_.backoff_multiplier, exponent);
      }
      backoff = std::min(backoff, options_.backoff_max_ms);
      backoff *= 1.0 + options_.jitter_fraction *
                           (2.0 * jitter_rng_.NextDouble() - 1.0);
      AdvanceClock(backoff);
      telemetry_.backoff_ms += backoff;
      ++telemetry_.retries;
      if (observability_ != nullptr) {
        observability_->registry.Counter("fm.retries")->Increment();
        observability_->journal.Record(obs::JournalEvent("fm.retry")
                                           .Set("attempt", attempt)
                                           .Set("backoff_ms", backoff));
      }
      if (deadline_ != nullptr && deadline_->ShouldStop()) {
        ++telemetry_.failed_queries;
        return util::Status::DeadlineExceeded(
            deadline_->Cancelled()
                ? "request cancelled while backing off; last failure: " +
                      last_failure.ToString()
                : "per-request deadline exhausted while backing off; last "
                  "failure: " +
                      last_failure.ToString());
      }
    }
    ++telemetry_.attempts;
    AdvanceClock(options_.attempt_cost_ms);

    auto result = wrapped_->Generate(request, rng);
    if (result.ok() && IsWellFormed(request, *result)) {
      if (state_ == BreakerState::kHalfOpen) {
        state_ = BreakerState::kClosed;
        ++telemetry_.breaker_closes;
        if (observability_ != nullptr) {
          observability_->journal.Record(
              obs::JournalEvent("fm.breaker").Set("state", "closed")
                  .Set("cause", "probe_succeeded"));
        }
      }
      consecutive_failures_ = 0;
      if (attempt > 1) ++telemetry_.faults_masked;
      return result;
    }
    if (result.ok()) {
      ++telemetry_.malformed_results;
      last_failure = util::Status::Unavailable(
          "malformed backend response (wrong values arity or empty image)");
    } else if (IsTransportError(result.status().code())) {
      last_failure = result.status();
    } else {
      // Terminal: the request itself is bad (or the backend hit a real
      // bug). Retrying the identical request cannot help, and it is not
      // the backend's availability that failed — the breaker stays put.
      ++telemetry_.failed_queries;
      return result.status();
    }
    OnAttemptFailure();
    // A breaker that tripped (or re-opened after a failed probe) stops
    // the retry loop: further attempts would just hammer a dead backend.
    if (state_ == BreakerState::kOpen) break;
  }

  ++telemetry_.failed_queries;
  return last_failure;
}

}  // namespace chameleon::fm
