#include "src/image/face_renderer.h"

#include <algorithm>
#include <cmath>

#include "src/image/filter.h"

namespace chameleon::image {
namespace {

uint8_t ClampByte(double v) {
  return static_cast<uint8_t>(std::clamp(v, 0.0, 255.0));
}

Color Jitter(Color c, double amount, util::Rng* rng) {
  return Color{ClampByte(c.r + rng->NextGaussian(0, amount)),
               ClampByte(c.g + rng->NextGaussian(0, amount)),
               ClampByte(c.b + rng->NextGaussian(0, amount))};
}

Color Darken(Color c, double factor) {
  return Color{ClampByte(c.r * factor), ClampByte(c.g * factor),
               ClampByte(c.b * factor)};
}

Color TowardsGray(Color c, double t) {
  return Color{ClampByte(c.r + t * (190 - c.r)),
               ClampByte(c.g + t * (190 - c.g)),
               ClampByte(c.b + t * (190 - c.b))};
}

}  // namespace

FaceStyle MakeFaceStyle(int skin_group, int num_skin_groups, bool feminine,
                        double age01, util::Rng* rng) {
  // Palette anchors: each group shifts in its own chroma/tone direction
  // from a shared center, with spreads comparable to the within-group
  // jitter. Identity reads as a modest directional shift a supervised
  // classifier can learn from enough samples, while remaining inside the
  // photographic variance an unsupervised context test accepts — which
  // matches how generic CNN embeddings treat portrait subjects.
  static constexpr Color kSkinAnchors[] = {
      {222, 186, 152},  // group 0: light neutral
      {225, 201, 134},  // group 1: lighter, yellow shift
      {224, 168, 88},   // group 2: warm yellow-brown
      {194, 154, 148},  // group 3: pink mid
      {199, 153, 107},  // group 4: darker warm
  };
  static constexpr Color kHairAnchors[] = {
      {150, 120, 76},
      {104, 86, 60},
      {122, 96, 64},
      {112, 90, 62},
      {104, 84, 62},
  };
  constexpr int kNumAnchors = 5;

  FaceStyle style;
  // Groups index the palette directly when the group count matches the
  // table; other cardinalities interpolate along the table.
  auto pick_color = [&](const Color* anchors) {
    if (num_skin_groups == kNumAnchors || num_skin_groups <= 1) {
      return anchors[std::clamp(skin_group, 0, kNumAnchors - 1)];
    }
    const double pos = static_cast<double>(skin_group) /
                       (num_skin_groups - 1) * (kNumAnchors - 1);
    const int lo = std::clamp(static_cast<int>(pos), 0, kNumAnchors - 1);
    const int hi = std::min(lo + 1, kNumAnchors - 1);
    const double frac = pos - lo;
    return Color{
        ClampByte(anchors[lo].r + frac * (anchors[hi].r - anchors[lo].r)),
        ClampByte(anchors[lo].g + frac * (anchors[hi].g - anchors[lo].g)),
        ClampByte(anchors[lo].b + frac * (anchors[hi].b - anchors[lo].b))};
  };
  // Within-group diversity varies by group: group 4 spans a broader
  // appearance range, so few samples under-determine it.
  static constexpr double kGroupSpread[] = {1.0, 1.0, 1.0, 1.0, 1.15};
  const double spread =
      kGroupSpread[std::clamp(skin_group, 0, kNumAnchors - 1)];
  style.skin = Jitter(pick_color(kSkinAnchors), 18.0 * spread, rng);
  style.hair = Jitter(pick_color(kHairAnchors), 15.0 * spread, rng);
  style.hair = TowardsGray(style.hair, std::max(0.0, age01 - 0.55) * 1.8);

  style.aspect = (feminine ? 0.74 : 0.82) + rng->NextGaussian(0, 0.02);
  style.hair_volume =
      (feminine ? 0.52 : 0.30) + rng->NextGaussian(0, 0.04);
  style.eye_scale = 0.075 + rng->NextGaussian(0, 0.006);
  style.wrinkle = std::clamp(age01 * age01 + rng->NextGaussian(0, 0.05),
                             0.0, 1.0);
  style.beard = feminine ? 0.0
                         : std::clamp(0.25 + rng->NextGaussian(0, 0.2) +
                                          0.3 * age01,
                                      0.0, 1.0);
  return style;
}

Image RenderFace(const FaceStyle& face, const SceneStyle& scene,
                 const RenderOptions& options, util::Rng* rng,
                 const Image* keep) {
  const int s = options.size;
  Image img(s, s, 3);
  FillVerticalGradient(&img, scene.background_top, scene.background_bottom);

  // Pose/framing jitter: real portraits vary in crop and subject scale,
  // which keeps single grid cells from encoding pure skin tone.
  const double cx = s * (0.5 + rng->NextGaussian(0, 0.025));
  const double cy = s * (0.52 + rng->NextGaussian(0, 0.02));
  const double face_ry = s * (0.295 + rng->NextGaussian(0, 0.02));
  const double face_rx = face_ry * face.aspect;

  // Shoulders.
  const Color shirt = Jitter(Darken(scene.background_bottom, 0.6), 10, rng);
  FillEllipse(&img, cx, cy + face_ry * 1.9, face_rx * 2.1, face_ry * 1.0,
              shirt);

  // Hair cap behind the head.
  FillEllipse(&img, cx, cy - face_ry * 0.25, face_rx * 1.18,
              face_ry * (0.85 + face.hair_volume), face.hair);

  // Head.
  FillEllipse(&img, cx, cy, face_rx, face_ry, face.skin);

  // Beard shading on the jaw.
  if (face.beard > 0.05) {
    const Color jaw = Darken(face.skin, 1.0 - 0.35 * face.beard);
    FillEllipse(&img, cx, cy + face_ry * 0.55, face_rx * 0.75, face_ry * 0.38,
                jaw);
  }

  // Fringe: hair over the forehead.
  FillEllipse(&img, cx, cy - face_ry * 0.78, face_rx * 0.95,
              face_ry * (0.18 + 0.25 * face.hair_volume), face.hair);

  // Eyes.
  const double eye_r = s * face.eye_scale;
  const double eye_dx = face_rx * 0.45;
  const double eye_y = cy - face_ry * 0.12 + rng->NextGaussian(0, 0.3);
  const Color sclera{245, 245, 245};
  const Color iris{40, 34, 30};
  FillEllipse(&img, cx - eye_dx, eye_y, eye_r * 1.3, eye_r, sclera);
  FillEllipse(&img, cx + eye_dx, eye_y, eye_r * 1.3, eye_r, sclera);
  FillCircle(&img, cx - eye_dx, eye_y, eye_r * 0.55, iris);
  FillCircle(&img, cx + eye_dx, eye_y, eye_r * 0.55, iris);

  // Brows.
  const Color brow = Darken(face.hair, 0.8);
  FillRect(&img, static_cast<int>(cx - eye_dx - eye_r * 1.3),
           static_cast<int>(eye_y - eye_r * 2.2),
           static_cast<int>(cx - eye_dx + eye_r * 1.3),
           static_cast<int>(eye_y - eye_r * 1.6), brow);
  FillRect(&img, static_cast<int>(cx + eye_dx - eye_r * 1.3),
           static_cast<int>(eye_y - eye_r * 2.2),
           static_cast<int>(cx + eye_dx + eye_r * 1.3),
           static_cast<int>(eye_y - eye_r * 1.6), brow);

  // Nose.
  const Color nose = Darken(face.skin, 0.85);
  FillEllipse(&img, cx, cy + face_ry * 0.18, eye_r * 0.55, eye_r * 0.9, nose);

  // Mouth.
  const Color lips{ClampByte(face.skin.r * 0.8 + 40),
                   ClampByte(face.skin.g * 0.55),
                   ClampByte(face.skin.b * 0.55)};
  FillEllipse(&img, cx, cy + face_ry * 0.55, face_rx * 0.38, eye_r * 0.55,
              lips);

  // Wrinkles: faint horizontal forehead lines and nasolabial strokes.
  if (face.wrinkle > 0.15) {
    const Color line = Darken(face.skin, 0.75);
    const int n_lines = 1 + static_cast<int>(face.wrinkle * 3);
    for (int i = 0; i < n_lines; ++i) {
      const int y = static_cast<int>(cy - face_ry * (0.45 + 0.12 * i));
      DrawLine(&img, static_cast<int>(cx - face_rx * 0.5), y,
               static_cast<int>(cx + face_rx * 0.5), y, line);
    }
  }

  // Artifacts: what a low-quality generation looks like.
  if (options.artifact_level > 0.0) {
    const double a = options.artifact_level;
    // The blur reads these bytes up to its radius away from a kept pixel.
    const KeepRegion blur_input{keep, BlurRadius(scene.blur_sigma)};
    AddBanding(&img, std::max(2, s / 12), 24.0 * a, blur_input);
    // Feature misplacement: a stray skin-colored blob.
    if (a > 0.3) {
      FillCircle(&img, cx + rng->NextGaussian(0, face_rx),
                 cy + rng->NextGaussian(0, face_ry), eye_r * (1.0 + a),
                 Darken(face.skin, 0.7));
    }
    AddGaussianNoise(&img, 18.0 * a, rng, blur_input);
  }

  Image blurred = GaussianBlur(img, scene.blur_sigma, KeepRegion{keep});
  // Sensor grain on every photo.
  AddGaussianNoise(&blurred, 2.0, rng, KeepRegion{keep});
  return blurred;
}

SceneStyle JitterScene(const SceneStyle& scene, double stddev,
                       util::Rng* rng) {
  SceneStyle out = scene;
  // Exposure-like shift: mostly shared across the gradient, with a
  // smaller independent component per stop.
  const double shared[3] = {rng->NextGaussian(0, stddev),
                            rng->NextGaussian(0, stddev),
                            rng->NextGaussian(0, stddev)};
  const double local = 0.35 * stddev;
  out.background_top =
      Color{ClampByte(scene.background_top.r + shared[0] +
                      rng->NextGaussian(0, local)),
            ClampByte(scene.background_top.g + shared[1] +
                      rng->NextGaussian(0, local)),
            ClampByte(scene.background_top.b + shared[2] +
                      rng->NextGaussian(0, local))};
  out.background_bottom =
      Color{ClampByte(scene.background_bottom.r + shared[0] +
                      rng->NextGaussian(0, local)),
            ClampByte(scene.background_bottom.g + shared[1] +
                      rng->NextGaussian(0, local)),
            ClampByte(scene.background_bottom.b + shared[2] +
                      rng->NextGaussian(0, local))};
  return out;
}

}  // namespace chameleon::image
