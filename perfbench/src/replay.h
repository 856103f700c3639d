// In-process repairs through public calls only: the daemon's request
// worlds rebuilt from their public builders, a plain reference repair
// that mirrors what chameleond runs per request, and a step-by-step
// replay of Chameleon::RepairMinLevelMups that times each step.
#ifndef PERFBENCH_SRC_REPLAY_H_
#define PERFBENCH_SRC_REPLAY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/core/chameleon.h"
#include "src/embedding/embedder.h"
#include "src/fm/corpus.h"
#include "src/fm/evaluator_pool.h"
#include "src/fm/simulated_foundation_model.h"
#include "src/image/face_renderer.h"
#include "src/util/status.h"
#include "tools/chameleond/protocol.h"

namespace perfbench {

/// A request's corpus plus the simulator hooks for its schema.
struct World {
  chameleon::fm::Corpus corpus;
  chameleon::fm::FaceStyleFn style;
  chameleon::image::SceneStyle scene;
};

/// The world chameleond builds for a request of `kind`: the micro corpus
/// (24 px), FERET (756 tuples, 64 px), or the UTKFace challenge subset
/// (32 px).
chameleon::util::Result<World> BuildWorld(
    chameleon::daemon::DatasetKind kind,
    const chameleon::embedding::Embedder* embedder);

/// The simulator chameleond pairs with a world (default options, so it
/// renders at 64 px whatever the corpus resolution).
chameleon::fm::SimulatedFoundationModel MakeSimulator(const World& world);

/// A plain, untimed repair of `spec`, built exactly as chameleond builds
/// it (fresh world, simulator under a resilience layer), non-incremental.
/// Its digest is the reference a served request must match. `build_ms`
/// receives the world build's wall time.
chameleon::util::Result<chameleon::core::RepairReport> ReferenceRepair(
    const chameleon::daemon::RepairRequestSpec& spec, double* build_ms);

/// Wall-clock step times of one replayed repair.
struct ReplayTrace {
  double counter_build_ms = 0.0;  ///< PatternCounter::FromDataset
  double find_mups_ms = 0.0;      ///< MupFinder::FindMups
  int64_t count_queries = 0;      ///< MupFinder::last_count_queries
  double plan_us = 0.0;           ///< GreedySelect
  double p_estimate_ms = 0.0;     ///< EvaluatorPool::EstimateRealLabelRate
  double sampler_train_ms = 0.0;  ///< RejectionSampler::Train (OCSVM fit)
  double generate_accepted_ms = 0.0;  ///< all GenerateAccepted calls
  double wall_ms = 0.0;           ///< the whole replay
  int64_t guide_select_calls = 0;
  double guide_select_ms = 0.0;   ///< Select + ReportReward
  /// Guide tuples handed out, for the mask replay.
  std::vector<size_t> guide_tuples;

  /// The summed step times, in ms.
  double covered_ms() const {
    return counter_build_ms + find_mups_ms + plan_us / 1000.0 + p_estimate_ms +
           sampler_train_ms + generate_accepted_ms;
  }
};

/// Replays Chameleon::RepairMinLevelMups (non-incremental, greedy plan)
/// step by step through public calls, in the same rng order: FindMups,
/// GreedySelect, EstimateRealLabelRate, RejectionSampler::Train, then
/// GenerateAccepted per plan entry with a timed guide selector. With the
/// same inputs it accepts the same tuples, so its digest must match.
/// `sampler_out`, when set, receives the trained sampler.
chameleon::util::Result<chameleon::core::RepairReport> ReplayRepair(
    chameleon::fm::Corpus* corpus,
    const chameleon::core::ChameleonOptions& options,
    chameleon::fm::FoundationModel* model,
    const chameleon::embedding::Embedder* embedder,
    const chameleon::fm::EvaluatorPool* evaluators, ReplayTrace* trace,
    std::optional<chameleon::core::RejectionSampler>* sampler_out = nullptr);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_REPLAY_H_
