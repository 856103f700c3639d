#ifndef CHAMELEON_FM_SIMULATED_FOUNDATION_MODEL_H_
#define CHAMELEON_FM_SIMULATED_FOUNDATION_MODEL_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "src/data/schema.h"
#include "src/fm/foundation_model.h"
#include "src/image/face_renderer.h"

namespace chameleon::fm {

/// Maps a full-level combination to face appearance; supplied by the
/// dataset builder so the foundation model stays schema-agnostic.
using FaceStyleFn =
    std::function<image::FaceStyle(const std::vector<int>&, util::Rng*)>;

/// The DALL·E 2 stand-in. Generates a synthetic portrait for the target
/// combination, honouring an optional guide + mask, with two latent
/// effects that drive the paper's acceptance-rate phenomena:
///
///  * Context: without a guide the model "imagines" a scene from its own
///    prior palette list — often unlike the data set's scene, so the
///    embedding drifts and the distribution test fails (~half the time).
///    With a guide, unmasked pixels are kept verbatim and the regenerated
///    background continues the guide's palette with an error that grows
///    with the regenerated area — so tighter masks adhere better.
///
///  * Realism: inpainting into a tightly cropped mask produces seams and
///    cramped features (realism penalty grows with mask tightness), and
///    every semantically-edited attribute costs realism according to a
///    hidden per-(attribute, combination) difficulty table — the signal
///    LinUCB learns. Ordinal attributes cost more per step of distance.
///
/// `latent_realism` is on an open-ended scale where real photos sit near
/// `real_photo_realism`; values above 1 mean "cleaner than a real photo"
/// (generative models often are).
class SimulatedFoundationModel : public FoundationModel {
 public:
  /// The simulator's calibration is fixed in simulated_foundation_model.cc
  /// (image size, query cost, table seed, realism and context terms);
  /// only the guided base realism is settable, for tests that need the
  /// artifact and blob renders.
  struct Options {
    /// Realism of a guided generation before penalties.
    double guided_base_realism = 1.12;
  };

  /// Most (attribute, combination) cells the hidden difficulty table may
  /// hold (8 MB of doubles). A simulator built on a wider schema allocates
  /// no table and answers every Generate with InvalidArgument.
  static constexpr int64_t kMaxDifficultyCells = int64_t{1} << 20;

  /// `dataset_scene` is the scene style of the corpus being repaired:
  /// used only to seed the first prior palette (the model sometimes
  /// guesses right) — guided generations never consult it.
  SimulatedFoundationModel(const data::AttributeSchema& schema,
                           FaceStyleFn face_style_fn,
                           const image::SceneStyle& dataset_scene,
                           const Options& options);

  /// Reads only const state (plus the atomic query counter), so
  /// concurrent calls with distinct rngs are safe; `face_style_fn` must be
  /// safe to call concurrently too (the in-tree ones are pure).
  [[nodiscard]] util::Result<GenerationResult> Generate(const GenerationRequest& request,
                                          util::Rng* rng) override;

  /// One Generate per slot. Under a util::ThreadPool::Scope the slots run
  /// on that pool, each on its own rng, so the results are bit-identical
  /// to the serial slot-order loop (which runs without a scope). Items
  /// must carry distinct rngs, as the pipeline's forked streams do.
  [[nodiscard]] std::vector<util::Result<GenerationResult>> GenerateBatch(
      std::span<const BatchItem> items) override;

  double query_cost() const override;

  /// Hidden difficulty of editing `attribute` towards `target_values`
  /// (exposed for tests and for verifying LinUCB's learning). Requires a
  /// schema within kMaxDifficultyCells.
  double EditDifficulty(int attribute,
                        const std::vector<int>& target_values) const;

 private:
  data::AttributeSchema schema_;
  FaceStyleFn face_style_fn_;
  Options options_;
  std::vector<image::SceneStyle> prior_palettes_;
  /// difficulty_[attribute][combination_index]; empty when the schema
  /// has more than kMaxDifficultyCells cells.
  std::vector<std::vector<double>> difficulty_;
  bool schema_too_wide_ = false;
};

}  // namespace chameleon::fm

#endif  // CHAMELEON_FM_SIMULATED_FOUNDATION_MODEL_H_
