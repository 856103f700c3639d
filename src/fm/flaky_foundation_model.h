#ifndef CHAMELEON_FM_FLAKY_FOUNDATION_MODEL_H_
#define CHAMELEON_FM_FLAKY_FOUNDATION_MODEL_H_

#include <cstdint>

#include "src/fm/foundation_model.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace chameleon::fm {

/// Configuration of a deterministic fault schedule. Stochastic rates are
/// driven by a private util::Rng seeded from `seed`; scripted faults key
/// off the decorator's own call index. Given the same seed and the same
/// serial call sequence, the schedule is bit-identical run to run.
struct FlakyOptions {
  uint64_t seed = 1337;

  /// Probability of a transient kUnavailable failure (backend hiccup).
  double transient_rate = 0.0;
  /// Probability of a kResourceExhausted failure (rate limit).
  double rate_limit_rate = 0.0;
  /// Probability of a kDeadlineExceeded failure (latency spike that
  /// overran the per-query deadline).
  double deadline_rate = 0.0;
  /// Probability that an otherwise-successful response is malformed:
  /// wrong `values` arity or an empty image. The wrapped model is still
  /// invoked (and consumes its rng draws) before the result is mangled.
  double malformed_rate = 0.0;

  /// Crash script: calls with index >= this value fail kUnavailable
  /// forever (the backend died). < 0 disables. 0 models a backend that
  /// is dead from the first query.
  int64_t fail_from_query = -1;
  /// Scripted outage window: calls with index in
  /// [outage_start, outage_start + outage_length) fail kUnavailable.
  int64_t outage_start = -1;
  int64_t outage_length = 0;
};

/// Per-category injection counters, for tests that assert a schedule
/// actually exercised the paths it was meant to.
struct FlakyCounters {
  int64_t transient = 0;
  int64_t rate_limited = 0;
  int64_t deadline = 0;
  int64_t malformed = 0;
  int64_t scripted = 0;
};

/// Fault-injection decorator: wraps any FoundationModel and injects
/// transport errors and malformed responses according to a seeded,
/// fully deterministic schedule. The wrapped model's rng consumption is
/// untouched on injected *transport* faults (the "backend" was never
/// reached), which is what lets a retry layer mask faults bit-exactly.
///
/// Not thread-safe: like the underlying generation loop, callers
/// serialize Generate.
class FlakyFoundationModel : public FoundationModel {
 public:
  FlakyFoundationModel(FoundationModel* wrapped, const FlakyOptions& options);

  [[nodiscard]] util::Result<GenerationResult> Generate(
      const GenerationRequest& request, util::Rng* rng) override;

  double query_cost() const override { return wrapped_->query_cost(); }
  void set_observability(obs::Observability* observability) override {
    wrapped_->set_observability(observability);
  }

  const FlakyCounters& counters() const { return counters_; }
  /// Calls seen by this decorator (= retries included, fail-fasts not).
  int64_t num_calls() const { return num_calls_; }

 private:
  FoundationModel* wrapped_;
  FlakyOptions options_;
  util::Rng fault_rng_;
  FlakyCounters counters_;
  int64_t num_calls_ = 0;
};

}  // namespace chameleon::fm

#endif  // CHAMELEON_FM_FLAKY_FOUNDATION_MODEL_H_
