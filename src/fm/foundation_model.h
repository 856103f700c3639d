#ifndef CHAMELEON_FM_FOUNDATION_MODEL_H_
#define CHAMELEON_FM_FOUNDATION_MODEL_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/data/schema.h"
#include "src/image/image.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace chameleon::obs {
struct Observability;
}  // namespace chameleon::obs

namespace chameleon::fm {

class Deadline;

/// One query to the foundation model (§2.2): a prompt describing the
/// target combination, and optionally a guide tuple (image + its
/// attribute values) with a mask marking the regions to regenerate.
struct GenerationRequest {
  /// Full-level combination the generated tuple must match.
  std::vector<int> target_values;
  /// Natural-language rendering of the combination (informational for a
  /// simulator; the payload for a hosted model).
  std::string prompt;
  /// Optional guide image; null for prompt-only generation.
  const image::Image* guide = nullptr;
  /// Attribute values of the guide tuple (required when guide is set).
  const std::vector<int>* guide_values = nullptr;
  /// 1-channel mask, 255 = regenerate (required when guide is set).
  const image::Image* mask = nullptr;
  /// The guide's foreground outline, image::ExtractForeground with default
  /// options: the segmentation the mask was derived from, so a model need
  /// not segment the guide again (required when guide is set).
  const image::Image* guide_foreground = nullptr;
};

/// A generated tuple. `latent_realism` is the simulator's hidden ground
/// truth consumed only by the simulated human evaluators; pipeline code
/// must treat the image as the sole observable output.
struct GenerationResult {
  image::Image image;
  std::vector<int> values;
  double latent_realism = 1.0;
};

/// One slot of a batched dispatch: the request plus the private rng
/// stream that generation may draw from. The pipeline forks one stream
/// per request (at submission, in submission order), which is what makes
/// the results independent of how requests are grouped into batches.
struct BatchItem {
  const GenerationRequest* request = nullptr;
  util::Rng* rng = nullptr;
};

/// True for the retryable transport-level status family: the backend was
/// reachable-in-principle but could not serve this request right now
/// (outage, latency spike past the deadline, rate limit). Everything else
/// — invalid arguments, schema mismatches, internal bugs — is terminal:
/// retrying the identical request cannot help.
inline bool IsTransportError(util::StatusCode code) {
  return code == util::StatusCode::kUnavailable ||
         code == util::StatusCode::kDeadlineExceeded ||
         code == util::StatusCode::kResourceExhausted;
}

/// Has no effect; kept while perfbench names it (ROADMAP items 1, 5).
enum class BackendRouterKind { kGreedyCost };

/// Counters describing what a resilience layer absorbed. All time figures
/// are *virtual* milliseconds (the library never reads a wall clock on
/// pipeline paths — see the chameleon-determinism lint rule).
struct FaultTelemetry {
  int64_t attempts = 0;            ///< backend calls issued, incl. retries
  int64_t retries = 0;             ///< attempts beyond the first, per query
  int64_t faults_masked = 0;       ///< queries that succeeded only via retry
  int64_t malformed_results = 0;   ///< OK responses rejected by validation
  int64_t failed_queries = 0;      ///< queries that returned non-OK upward
  int64_t fail_fast_rejections = 0;  ///< rejected while the breaker was open
  int64_t breaker_opens = 0;       ///< closed -> open transitions
  int64_t breaker_reopens = 0;     ///< half-open probe failed
  int64_t breaker_closes = 0;      ///< half-open probe succeeded
  double backoff_ms = 0.0;         ///< virtual time spent backing off
};

/// Black-box generative foundation model (§2.2). Implementations must be
/// usable interchangeably by the repair pipeline; the library ships a
/// simulator, and a hosted DALL·E-style backend would plug in here.
///
/// The query counter is thread-safe: decorators (and future pipelines) may
/// issue Generate calls from worker threads, and a plain int64_t here
/// would be a data race. All other state is implementation-defined.
class FoundationModel {
 public:
  virtual ~FoundationModel() = default;

  [[nodiscard]] virtual util::Result<GenerationResult> Generate(
      const GenerationRequest& request, util::Rng* rng) = 0;

  /// Batched transport: one dispatch for `items.size()` requests. The
  /// returned vector is slot-aligned with `items` (result i answers
  /// request i) and always has exactly items.size() entries; per-request
  /// failures are carried in the slot, never thrown away.
  ///
  /// The default loops over Generate in slot order, so decorators
  /// (Flaky/Resilient) compose with batching unchanged: each slot sees
  /// the same fault schedule and retry behaviour it would see as a lone
  /// Generate call. Overrides must preserve slot order and call each
  /// item's Generate-equivalent exactly once. An override whose slots are
  /// independent may run them on the caller's util::ThreadPool::Current()
  /// (SimulatedFoundationModel does); one whose behaviour depends on call
  /// order must not.
  [[nodiscard]] virtual std::vector<util::Result<GenerationResult>>
  GenerateBatch(std::span<const BatchItem> items);

  /// Fixed cost v per query (monetary for hosted models).
  virtual double query_cost() const = 0;

  /// Has no effect; kept while perfbench names it (ROADMAP items 1, 5).
  virtual void ReportOutcome(int /*backend*/, bool /*accepted*/) {}
  /// Has no effect; kept while perfbench names it (ROADMAP items 1, 5).
  virtual void set_backend_router(BackendRouterKind /*kind*/) {}
  /// Has no effect; kept while perfbench names it (ROADMAP items 1, 5).
  virtual void OnRunStart() {}

  /// Fault-telemetry snapshot, or nullptr for models with no resilience
  /// layer. Counters are cumulative over the model's lifetime.
  virtual const FaultTelemetry* fault_telemetry() const { return nullptr; }

  /// Attaches an observability sink (not owned; null detaches). The
  /// pipeline forwards its own sink here at the start of each run, so
  /// resilience decorators can export retry/breaker activity; plain
  /// backends ignore it.
  virtual void set_observability(obs::Observability* /*observability*/) {}

  /// Attaches a per-request deadline/cancellation context (not owned;
  /// null detaches). Resilience decorators charge attempt and backoff
  /// time to it and fail fast once it expires or is cancelled; plain
  /// backends ignore it. The pipeline forwards ChameleonOptions::deadline
  /// here at the start of each run.
  virtual void set_deadline(Deadline* /*deadline*/) {}

  int64_t num_queries() const {
    return num_queries_.load(std::memory_order_relaxed);
  }
  double total_cost() const { return num_queries() * query_cost(); }

 protected:
  /// Implementations call this once per issued query. Thread-safe.
  void RecordQuery() { num_queries_.fetch_add(1, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> num_queries_{0};
};

/// Builds a DALL·E-style prompt for a combination, e.g.
/// "A realistic portrait photo of a person with gender=male, race=Black".
std::string BuildPrompt(const data::AttributeSchema& schema,
                        const std::vector<int>& values);

}  // namespace chameleon::fm

#endif  // CHAMELEON_FM_FOUNDATION_MODEL_H_
