#ifndef CHAMELEON_IMAGE_FACE_RENDERER_H_
#define CHAMELEON_IMAGE_FACE_RENDERER_H_

#include "src/image/draw.h"
#include "src/image/image.h"
#include "src/util/rng.h"

namespace chameleon::image {

/// Appearance parameters of a synthetic face. Dataset builders and the
/// foundation-model simulator derive these from demographic attribute
/// values; the renderer itself is demographics-agnostic.
struct FaceStyle {
  Color skin{224, 172, 105};
  Color hair{60, 40, 20};
  /// Face ellipse width / height.
  double aspect = 0.78;
  /// Hair cap height as a fraction of face height.
  double hair_volume = 0.35;
  /// Eye radius as a fraction of face width.
  double eye_scale = 0.08;
  /// 0 (smooth) .. 1 (heavily lined).
  double wrinkle = 0.0;
  /// Facial-hair darkness 0..1 (jaw shading).
  double beard = 0.0;
};

/// Background/scene parameters: the "context" of the data set (§3.1).
/// Tuples drawn from the same distribution share a scene palette; a
/// foundation model answering without a guide falls back to its own
/// palette, which is what the data-distribution test catches.
struct SceneStyle {
  Color background_top{96, 112, 136};
  Color background_bottom{150, 160, 176};
  /// Post-render blur, in pixels.
  double blur_sigma = 0.6;
};

/// Rendering controls.
struct RenderOptions {
  int size = 64;
  /// 0 = clean; larger values add the noise/banding/feature-misplacement
  /// artifacts characteristic of low-quality generations.
  double artifact_level = 0.0;
};

/// Renders a portrait-style synthetic face (gradient background, elliptic
/// head, hair cap, eyes, nose, mouth, optional wrinkles), the stand-in for
/// UTKFace/FERET photographs. `rng` drives per-image jitter (pose, exact
/// feature placement) and artifact placement.
///
/// A non-null `keep` mask renders only what a caller keeps: the pixels
/// (x, y) where keep's channel 0 is non-zero, read at the render's (x, y)
/// with bounds checks as CompositeWithMask reads its mask. Those pixels
/// come out byte-identical to the full render's and `rng` ends in the same
/// state; the other pixels are unspecified. Blur, noise and banding then
/// skip the pixels no kept byte depends on (KeepRegion in filter.h).
Image RenderFace(const FaceStyle& face, const SceneStyle& scene,
                 const RenderOptions& options, util::Rng* rng,
                 const Image* keep = nullptr);

/// Per-photo lighting/backdrop variation: perturbs the scene's gradient
/// colors by N(0, stddev) per channel (correlated across top/bottom, as
/// exposure changes are) — real corpora vary in lighting, and that
/// variance is what makes the distribution test about context rather
/// than subject identity.
SceneStyle JitterScene(const SceneStyle& scene, double stddev, util::Rng* rng);

/// Maps generic demographic coordinates to a style:
///  * `skin_group` in [0, num_skin_groups) selects a skin/hair palette;
///  * `feminine` toggles hair volume / beard / face aspect conventions;
///  * `age01` in [0, 1] controls wrinkles and hair graying.
/// `rng` adds within-group individual variation.
FaceStyle MakeFaceStyle(int skin_group, int num_skin_groups, bool feminine,
                        double age01, util::Rng* rng);

}  // namespace chameleon::image

#endif  // CHAMELEON_IMAGE_FACE_RENDERER_H_
