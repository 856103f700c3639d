#include "src/fm/flaky_foundation_model.h"

#include <string>
#include <utility>

namespace chameleon::fm {

FlakyFoundationModel::FlakyFoundationModel(FoundationModel* wrapped,
                                           const FlakyOptions& options)
    : wrapped_(wrapped), options_(options), fault_rng_(options.seed) {}

util::Result<GenerationResult> FlakyFoundationModel::Generate(
    const GenerationRequest& request, util::Rng* rng) {
  RecordQuery();
  const int64_t call = num_calls_++;

  // Scripted faults first: they model the backend process itself being
  // gone, so they fire regardless of the stochastic schedule and they
  // must not consume the fault stream (the schedule after an outage is
  // the same as if the outage had not been configured).
  if (options_.fail_from_query >= 0 && call >= options_.fail_from_query) {
    ++counters_.scripted;
    return util::Status::Unavailable("scripted crash: backend dead since query " +
                                     std::to_string(options_.fail_from_query));
  }
  // Measured from the window's start, so a window reaching past
  // INT64_MAX (both ends come off the wire) cannot overflow.
  if (options_.outage_start >= 0 && call >= options_.outage_start &&
      call - options_.outage_start < options_.outage_length) {
    ++counters_.scripted;
    return util::Status::Unavailable("scripted outage window");
  }

  // One uniform per stochastic category per call, in fixed order, drawn
  // unconditionally — so the schedule for call k never depends on which
  // faults fired on calls < k.
  const double u_transient = fault_rng_.NextDouble();
  const double u_rate_limit = fault_rng_.NextDouble();
  const double u_deadline = fault_rng_.NextDouble();
  const double u_malformed = fault_rng_.NextDouble();
  const double u_mangle = fault_rng_.NextDouble();

  if (u_transient < options_.transient_rate) {
    ++counters_.transient;
    return util::Status::Unavailable("injected transient backend failure");
  }
  if (u_rate_limit < options_.rate_limit_rate) {
    ++counters_.rate_limited;
    return util::Status::ResourceExhausted("injected rate limit");
  }
  if (u_deadline < options_.deadline_rate) {
    ++counters_.deadline;
    return util::Status::DeadlineExceeded(
        "injected latency spike overran the query deadline");
  }

  auto result = wrapped_->Generate(request, rng);
  if (!result.ok()) return result;

  if (u_malformed < options_.malformed_rate) {
    ++counters_.malformed;
    // Two flavours of garbage: wrong `values` arity, or an empty image.
    if (u_mangle < 0.5) {
      if (result->values.empty()) {
        result->values.push_back(0);  // wrong arity the other way
      } else {
        result->values.pop_back();
      }
    } else {
      result->image = image::Image();
    }
  }
  return result;
}

}  // namespace chameleon::fm
