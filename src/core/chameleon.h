#ifndef CHAMELEON_CORE_CHAMELEON_H_
#define CHAMELEON_CORE_CHAMELEON_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/combination_selection.h"
#include "src/core/guide_selection.h"
#include "src/core/rejection_sampler.h"
#include "src/coverage/mup_finder.h"
#include "src/embedding/embedder.h"
#include "src/fm/corpus.h"
#include "src/fm/evaluator_pool.h"
#include "src/fm/foundation_model.h"
#include "src/image/mask_generator.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace chameleon::obs {
struct Observability;
}  // namespace chameleon::obs

namespace chameleon::core {

/// End-to-end configuration of a repair run (Figure 1's pipeline).
struct ChameleonOptions {
  /// Coverage threshold tau.
  int64_t tau = 100;
  /// Combination selection (§4). The baselines exist for Figure 6; real
  /// repairs should use Greedy.
  SelectionAlgorithm selection = SelectionAlgorithm::kGreedy;
  /// Guide selection (§5).
  GuideStrategy guide_strategy = GuideStrategy::kLinUcb;
  double linucb_alpha = 0.5;
  /// Mask delineation (§5.4).
  image::MaskLevel mask_level = image::MaskLevel::kModerate;
  /// Rejection sampling (§3).
  RejectionSamplerOptions rejection;
  /// Samples used to estimate p from real tuples before repairing.
  int p_estimation_samples = 500;
  /// Safety cap on total foundation-model queries. (Each plan entry is
  /// also capped at kMaxAttemptsPerTuple × its count attempts, fixed in
  /// chameleon.cc.)
  int64_t max_queries = 50000;
  uint64_t seed = 99;
  /// Worker count for the parallel stages: MUP detection, and per
  /// rejection round (rejection_batch > 1) the guides' masks, the batched
  /// FM dispatch when the model fans out under ThreadPool::Current() (the
  /// simulator does; resilience decorators stay serial), and candidate
  /// evaluation. Selection, journaling and the merge stay serial
  /// (DESIGN.md §11 "Round stages"). 0 = hardware concurrency (the
  /// default), 1 = serial. For any fixed rejection_batch the run is
  /// bit-identical at every setting — the batch structure and merge
  /// order never depend on the worker count.
  int num_threads = 0;
  /// Candidates per round of the generate→embed→reject loop, and the size
  /// of the round's one GenerateBatch dispatch (DESIGN.md §11 "One round,
  /// one dispatch"). 1 (the default) is the one-query-at-a-time loop:
  /// every candidate is merged before the next is selected, and no
  /// `fm.batch` event is recorded. Larger rounds unlock parallel masks,
  /// generation and evaluation but delay bandit feedback and corpus
  /// growth until the round's deterministic in-order merge, so runs with
  /// different round sizes may diverge; runs with different num_threads
  /// never do.
  int rejection_batch = 1;
  /// Has no effect; kept while perfbench names it (ROADMAP items 1, 5).
  fm::BackendRouterKind backend_router = fm::BackendRouterKind::kGreedyCost;
  /// Optional observability sink (metrics, spans, run journal) — see
  /// DESIGN.md §9. Not owned; null (the default) disables instrumentation
  /// entirely: every instrumented site guards on this pointer, so the off
  /// state costs one predictable branch per event. All recording happens
  /// on the serial submission/merge path, so with a fixed configuration
  /// the journal, the spans, and every stable metric (obs::IsStableMetric)
  /// are bit-identical at every num_threads — and attaching a sink never
  /// changes which tuples are accepted.
  obs::Observability* observability = nullptr;
  /// Optional per-request deadline/cancellation context (not owned; null
  /// — the default — disables it). Forwarded to the model at the start of
  /// every run; the rejection loop checks it at round boundaries and
  /// parks the remaining plan entries once it expires or is cancelled,
  /// returning a partial report with `cancelled`/`deadline_expired` set.
  /// The serving layer (tools/chameleond) allocates one per request.
  fm::Deadline* deadline = nullptr;
};

/// One generated tuple's audit record: everything the benchmarks need to
/// recompute acceptance rates (e.g. re-scoring DDT under another kernel).
struct GenerationRecord {
  std::vector<int> target_values;
  std::vector<double> embedding;
  double latent_realism = 0.0;
  bool distribution_pass = false;
  bool quality_pass = false;
  /// Lower-tail p-value of the quality t-test: QTAR at any significance
  /// level alpha is the fraction of records with p_value >= alpha.
  double quality_p_value = 1.0;
  /// OCSVM decision value under the gating kernel.
  double decision_value = 0.0;
  int arm = -1;
  bool accepted = false;
};

/// What the run's resilience machinery saw and absorbed: the pipeline's
/// own degradation decisions plus a snapshot of the model's transport
/// telemetry (when the model carries a resilience layer).
struct FaultSummary {
  /// Plan entries parked after a persistent transport failure (the
  /// model's own resilience layer gave up), in plan order. A parked entry
  /// keeps every tuple it accepted, the rest of the failing round
  /// included; the run continues with the next entry. Terminal codes
  /// (invalid request, internal bug) abort the run instead.
  std::vector<std::vector<int>> parked_targets;
  /// Generation results that carried a transport error. Each one parks
  /// its entry; several in one round park it once.
  int64_t transport_failures = 0;
  /// Cumulative snapshot of the model's fault telemetry at the end of the
  /// run (zeros when the model has no resilience layer).
  fm::FaultTelemetry transport;

  int64_t parked_entries() const {
    return static_cast<int64_t>(parked_targets.size());
  }
};

/// Summary of a repair run.
struct RepairReport {
  /// The request id this run was tagged with, copied from the attached
  /// Observability (DESIGN.md §15). Empty for untagged/standalone runs —
  /// serving layers use it to tie a report back to its wire request.
  std::string request_id;
  /// MUPs at the minimum level before repair, with gaps.
  std::vector<coverage::Mup> initial_mups;
  /// The sigma plan produced by combination selection.
  CombinationPlan plan;
  /// p as estimated from the corpus's real tuples.
  double estimated_p = 0.0;

  int64_t queries = 0;
  int64_t accepted = 0;
  int64_t distribution_passes = 0;  // independent of the quality outcome
  int64_t quality_passes = 0;       // independent of the distribution outcome
  double total_cost = 0.0;
  bool fully_resolved = false;
  /// The run stopped early because ChameleonOptions::deadline was
  /// cancelled (resp. expired). Both partial outcomes park the remaining
  /// plan entries into `faults.parked_targets` and keep every tuple
  /// accepted before the stop.
  bool cancelled = false;
  bool deadline_expired = false;

  /// Fault telemetry: what the resilience layer absorbed and what the
  /// pipeline parked. Empty/zero on a healthy run.
  FaultSummary faults;

  std::vector<GenerationRecord> records;

  double AcceptanceRate() const {
    return queries > 0 ? static_cast<double>(accepted) / queries : 0.0;
  }
  double QualityAcceptanceRate() const {
    return queries > 0 ? static_cast<double>(quality_passes) / queries : 0.0;
  }
  double DistributionAcceptanceRate() const {
    return queries > 0 ? static_cast<double>(distribution_passes) / queries
                       : 0.0;
  }
};

/// The Chameleon system facade: detects the minimum-level MUPs of a
/// corpus, plans the minimal augmentation, and drives the foundation
/// model + rejection sampling loop until the plan is fulfilled, appending
/// accepted synthetic tuples to the corpus.
class Chameleon {
 public:
  Chameleon(fm::FoundationModel* model, const embedding::Embedder* embedder,
            const fm::EvaluatorPool* evaluators,
            const ChameleonOptions& options);

  /// One repair round: resolves the MUPs at the smallest level. Call
  /// repeatedly to work down the lattice (§4's iterative approach).
  [[nodiscard]] util::Result<RepairReport> RepairMinLevelMups(fm::Corpus* corpus);

  /// Generates until `count` accepted tuples of `target` are added to
  /// the corpus (or the caps trip). Exposed for benches that sweep guide
  /// strategies over a fixed plan. Returns the number accepted.
  [[nodiscard]] util::Result<int64_t> GenerateAccepted(fm::Corpus* corpus,
                                         const std::vector<int>& target,
                                         int64_t count,
                                         GuideSelector* selector,
                                         const RejectionSampler& sampler,
                                         RepairReport* report, util::Rng* rng);

  const ChameleonOptions& options() const { return options_; }

 private:
  fm::FoundationModel* model_;
  const embedding::Embedder* embedder_;
  const fm::EvaluatorPool* evaluators_;
  ChameleonOptions options_;
};

}  // namespace chameleon::core

#endif  // CHAMELEON_CORE_CHAMELEON_H_
