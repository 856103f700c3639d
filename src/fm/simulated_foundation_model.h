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
  struct Options {
    int image_size = 64;
    /// The paper reports $0.016 per DALL·E 2 image.
    double query_cost = 0.016;
    /// Seed for the hidden difficulty table and the prior palettes.
    uint64_t seed = 1234;

    /// Realism of an unguided (prompt-only) generation.
    double no_guide_realism_mean = 1.01;
    double no_guide_realism_stddev = 0.06;

    /// Realism of a guided generation before penalties.
    double guided_base_realism = 1.12;
    double realism_noise_stddev = 0.035;

    /// Penalty at maximal mask tightness (accurate outline).
    double tightness_penalty = 0.12;

    /// Per-attribute-edit difficulty range [min, max] for the hidden
    /// table; each additional ordinal step adds 20% of the base cost.
    double difficulty_min = 0.02;
    double difficulty_max = 0.10;

    /// Background continuation error (per unit of regenerated area
    /// fraction), in 0-255 channel units.
    double context_error_scale = 10.0;

    /// Semantic edit incompleteness: guided generations keep a random
    /// residue of the guide subject's appearance (inpainting rarely
    /// commits fully to the prompt). Sampled per query as
    /// |N(0, edit_residue_stddev)|, clamped to [0, 0.5]; 0 disables.
    double edit_residue_stddev = 0.06;

    /// How many imagination palettes the unguided model draws from; the
    /// first one matches the data-set scene passed to the constructor.
    int num_prior_palettes = 6;
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

  double query_cost() const override { return options_.query_cost; }

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
