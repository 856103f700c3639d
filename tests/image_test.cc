#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/datasets/feret.h"
#include "src/image/draw.h"
#include "src/image/face_renderer.h"
#include "src/image/filter.h"
#include "src/image/foreground.h"
#include "src/image/image.h"
#include "src/image/mask_generator.h"
#include "src/image/pnm_io.h"
#include "src/util/rng.h"
#include "tests/image_reference_kernels.h"

namespace chameleon::image {
namespace {

Image MakeTestFace(int size = 64, uint64_t seed = 3) {
  util::Rng rng(seed);
  const FaceStyle style = MakeFaceStyle(1, 5, false, 0.4, &rng);
  SceneStyle scene;
  RenderOptions options;
  options.size = size;
  return RenderFace(style, scene, options, &rng);
}

TEST(ImageTest, ConstructionAndAccess) {
  Image img(4, 3, 3, 7);
  EXPECT_EQ(img.width(), 4);
  EXPECT_EQ(img.height(), 3);
  EXPECT_EQ(img.channels(), 3);
  EXPECT_EQ(img.at(2, 1, 2), 7);
  EXPECT_TRUE(img.InBounds(3, 2));
  EXPECT_FALSE(img.InBounds(4, 0));
  EXPECT_FALSE(img.InBounds(0, -1));
  EXPECT_TRUE(Image().empty());
}

TEST(ImageTest, SetPixelClipsOutOfBounds) {
  Image img(2, 2, 3);
  img.SetPixel(5, 5, 255, 0, 0);  // silently ignored
  img.SetPixel(1, 1, 10, 20, 30);
  EXPECT_EQ(img.at(1, 1, 0), 10);
  EXPECT_EQ(img.at(1, 1, 2), 30);
}

TEST(ImageTest, GrayscaleUsesLuminance) {
  Image img(1, 1, 3);
  img.SetPixel(0, 0, 255, 0, 0);
  const Image gray = img.ToGrayscale();
  EXPECT_EQ(gray.channels(), 1);
  EXPECT_NEAR(gray.at(0, 0, 0), 76, 1);  // 0.299 * 255
}

TEST(ImageTest, ResizedPreservesContentRegions) {
  Image img(8, 8, 1, 0);
  FillRect(&img, 0, 0, 4, 8, Color{255, 255, 255});
  const Image half = img.Resized(4, 4);
  EXPECT_EQ(half.width(), 4);
  EXPECT_EQ(half.at(0, 0, 0), 255);
  EXPECT_EQ(half.at(3, 0, 0), 0);
}

TEST(ImageTest, NonZeroFraction) {
  Image mask(4, 4, 1, 0);
  mask.at(0, 0, 0) = 255;
  mask.at(1, 1, 0) = 255;
  EXPECT_DOUBLE_EQ(mask.NonZeroFraction(), 2.0 / 16.0);
}

TEST(ImageTest, CompositeWithMask) {
  Image bg(2, 2, 3, 0);
  Image fg(2, 2, 3, 200);
  Image mask(2, 2, 1, 0);
  mask.at(1, 0, 0) = 255;
  const Image out = CompositeWithMask(bg, fg, mask);
  EXPECT_EQ(out.at(1, 0, 0), 200);
  EXPECT_EQ(out.at(0, 0, 0), 0);
}

TEST(DrawTest, FillRectClipsToBounds) {
  Image img(4, 4, 1, 0);
  FillRect(&img, -2, -2, 2, 2, Color{9, 9, 9});
  EXPECT_EQ(img.at(0, 0, 0), 9);
  EXPECT_EQ(img.at(1, 1, 0), 9);
  EXPECT_EQ(img.at(2, 2, 0), 0);
}

TEST(DrawTest, FillCircleCoversCenterNotCorner) {
  Image img(9, 9, 1, 0);
  FillCircle(&img, 4, 4, 3, Color{255, 255, 255});
  EXPECT_EQ(img.at(4, 4, 0), 255);
  EXPECT_EQ(img.at(0, 0, 0), 0);
  EXPECT_EQ(img.at(4, 1, 0), 255);  // on the radius
}

TEST(DrawTest, GradientIsMonotone) {
  Image img(2, 16, 1);
  FillVerticalGradient(&img, Color{0, 0, 0}, Color{255, 255, 255});
  for (int y = 1; y < 16; ++y) {
    EXPECT_GE(img.at(0, y, 0), img.at(0, y - 1, 0));
  }
}

TEST(DrawTest, LineTouchesEndpoints) {
  Image img(8, 8, 1, 0);
  DrawLine(&img, 0, 0, 7, 7, Color{255, 255, 255});
  EXPECT_EQ(img.at(0, 0, 0), 255);
  EXPECT_EQ(img.at(7, 7, 0), 255);
  EXPECT_EQ(img.at(3, 3, 0), 255);
}

TEST(FilterTest, GaussianBlurPreservesFlatRegions) {
  Image img(16, 16, 1, 100);
  const Image blurred = GaussianBlur(img, 1.5);
  for (int y = 0; y < 16; ++y) {
    for (int x = 0; x < 16; ++x) {
      EXPECT_NEAR(blurred.at(x, y, 0), 100, 1);
    }
  }
}

TEST(FilterTest, GaussianBlurSmoothsEdges) {
  Image img(16, 16, 1, 0);
  FillRect(&img, 8, 0, 16, 16, Color{255, 255, 255});
  const Image blurred = GaussianBlur(img, 2.0);
  const int edge = blurred.at(8, 8, 0);
  EXPECT_GT(edge, 30);
  EXPECT_LT(edge, 225);
}

TEST(FilterTest, NoiseChangesPixels) {
  Image img(16, 16, 1, 128);
  util::Rng rng(5);
  AddGaussianNoise(&img, 20.0, &rng);
  int changed = 0;
  for (int y = 0; y < 16; ++y) {
    for (int x = 0; x < 16; ++x) changed += img.at(x, y, 0) != 128;
  }
  EXPECT_GT(changed, 200);
}

TEST(FilterTest, DilateDiscGrowsMask) {
  Image mask(11, 11, 1, 0);
  mask.at(5, 5, 0) = 255;
  const Image dilated = DilateDisc(mask, 3);
  EXPECT_EQ(dilated.at(5, 5, 0), 255);
  EXPECT_EQ(dilated.at(5, 2, 0), 255);
  EXPECT_EQ(dilated.at(5, 1, 0), 0);
  EXPECT_GT(dilated.NonZeroFraction(), mask.NonZeroFraction());
}

TEST(PnmIoTest, RoundTripsRgbAndGray) {
  const std::string dir = ::testing::TempDir();
  const Image face = MakeTestFace(32);
  const std::string rgb_path = dir + "/face.ppm";
  ASSERT_TRUE(WritePnm(face, rgb_path).ok());
  auto rgb_read = ReadPnm(rgb_path);
  ASSERT_TRUE(rgb_read.ok());
  EXPECT_EQ(*rgb_read, face);

  const Image gray = face.ToGrayscale();
  const std::string gray_path = dir + "/face.pgm";
  ASSERT_TRUE(WritePnm(gray, gray_path).ok());
  auto gray_read = ReadPnm(gray_path);
  ASSERT_TRUE(gray_read.ok());
  EXPECT_EQ(*gray_read, gray);
}

TEST(PnmIoTest, ErrorsOnBadInputs) {
  EXPECT_FALSE(WritePnm(Image(), "/tmp/empty.ppm").ok());
  EXPECT_FALSE(ReadPnm("/nonexistent/path.ppm").ok());
  EXPECT_FALSE(WritePnm(MakeTestFace(8), "/nonexistent/dir/x.ppm").ok());
}

TEST(FaceRendererTest, ProducesPlausiblePortrait) {
  const Image face = MakeTestFace(64);
  EXPECT_EQ(face.width(), 64);
  EXPECT_EQ(face.channels(), 3);
  // The center (face) should differ from the top corner (background).
  double center = face.Luminance(32, 34);
  double corner = face.Luminance(1, 1);
  EXPECT_GT(std::abs(center - corner), 10.0);
}

TEST(FaceRendererTest, SkinGroupsDifferInTone) {
  util::Rng rng(5);
  const FaceStyle light = MakeFaceStyle(0, 5, false, 0.3, &rng);
  const FaceStyle dark = MakeFaceStyle(4, 5, false, 0.3, &rng);
  const double light_lum =
      0.299 * light.skin.r + 0.587 * light.skin.g + 0.114 * light.skin.b;
  const double dark_lum =
      0.299 * dark.skin.r + 0.587 * dark.skin.g + 0.114 * dark.skin.b;
  EXPECT_GT(light_lum, dark_lum);
}

TEST(FaceRendererTest, FeminineStyleHasMoreHairNoBeard) {
  util::Rng rng(6);
  const FaceStyle feminine = MakeFaceStyle(0, 5, true, 0.3, &rng);
  const FaceStyle masculine = MakeFaceStyle(0, 5, false, 0.3, &rng);
  EXPECT_GT(feminine.hair_volume, masculine.hair_volume);
  EXPECT_EQ(feminine.beard, 0.0);
}

TEST(FaceRendererTest, ArtifactsReduceSimilarityToCleanRender) {
  util::Rng rng_a(9);
  util::Rng rng_b(9);
  const FaceStyle style = MakeFaceStyle(2, 5, false, 0.5, &rng_a);
  (void)MakeFaceStyle(2, 5, false, 0.5, &rng_b);  // keep streams aligned
  SceneStyle scene;
  RenderOptions clean;
  clean.size = 64;
  RenderOptions noisy = clean;
  noisy.artifact_level = 0.8;
  const Image a = RenderFace(style, scene, clean, &rng_a);
  const Image b = RenderFace(style, scene, noisy, &rng_b);
  EXPECT_GT(MeanAbsoluteDifference(a, b), 4.0);
}

TEST(FaceRendererTest, JitterSceneShiftsColors) {
  util::Rng rng(10);
  SceneStyle base;
  const SceneStyle jittered = JitterScene(base, 25.0, &rng);
  const int diff = std::abs(jittered.background_top.r -
                            base.background_top.r) +
                   std::abs(jittered.background_top.g -
                            base.background_top.g) +
                   std::abs(jittered.background_top.b -
                            base.background_top.b);
  EXPECT_GT(diff, 0);
  // Zero jitter is identity.
  const SceneStyle same = JitterScene(base, 0.0, &rng);
  EXPECT_EQ(same.background_top.r, base.background_top.r);
}

TEST(ForegroundTest, ExtractsCentralSubject) {
  const Image face = MakeTestFace(64);
  const Image mask = ExtractForeground(face);
  EXPECT_EQ(mask.channels(), 1);
  // Subject present but not the whole frame.
  const double fraction = mask.NonZeroFraction();
  EXPECT_GT(fraction, 0.10);
  EXPECT_LT(fraction, 0.95);
  // The face center is foreground; the top corners are background.
  EXPECT_NE(mask.at(32, 34, 0), 0);
  EXPECT_EQ(mask.at(1, 1, 0), 0);
  EXPECT_EQ(mask.at(62, 1, 0), 0);
}

TEST(ForegroundTest, BoundingBox) {
  Image mask(8, 8, 1, 0);
  int x0;
  int y0;
  int x1;
  int y1;
  EXPECT_FALSE(MaskBoundingBox(mask, &x0, &y0, &x1, &y1));
  mask.at(2, 3, 0) = 255;
  mask.at(5, 6, 0) = 255;
  ASSERT_TRUE(MaskBoundingBox(mask, &x0, &y0, &x1, &y1));
  EXPECT_EQ(x0, 2);
  EXPECT_EQ(y0, 3);
  EXPECT_EQ(x1, 5);
  EXPECT_EQ(y1, 6);
}

TEST(MaskGeneratorTest, LevelsAreOrderedBySize) {
  const Image face = MakeTestFace(64);
  const Image accurate = GenerateMask(face, MaskLevel::kAccurate);
  const Image moderate = GenerateMask(face, MaskLevel::kModerate);
  const Image imprecise = GenerateMask(face, MaskLevel::kImprecise);
  // Moderate dilates the accurate outline; the bounding box covers the
  // accurate mask.
  EXPECT_GT(moderate.NonZeroFraction(), accurate.NonZeroFraction());
  EXPECT_GE(imprecise.NonZeroFraction(), accurate.NonZeroFraction());
  // Accurate mask pixels are inside both of the relaxed masks.
  for (int y = 0; y < 64; ++y) {
    for (int x = 0; x < 64; ++x) {
      if (accurate.at(x, y, 0) != 0) {
        EXPECT_NE(moderate.at(x, y, 0), 0);
        EXPECT_NE(imprecise.at(x, y, 0), 0);
      }
    }
  }
}

TEST(MaskGeneratorTest, ImpreciseIsARectangle) {
  const Image face = MakeTestFace(64);
  const Image box = GenerateMask(face, MaskLevel::kImprecise);
  int x0;
  int y0;
  int x1;
  int y1;
  ASSERT_TRUE(MaskBoundingBox(box, &x0, &y0, &x1, &y1));
  for (int y = y0; y <= y1; ++y) {
    for (int x = x0; x <= x1; ++x) {
      EXPECT_NE(box.at(x, y, 0), 0);
    }
  }
}

TEST(MaskGeneratorTest, NamesAreStable) {
  EXPECT_STREQ(MaskLevelName(MaskLevel::kAccurate), "Accurate");
  EXPECT_STREQ(MaskLevelName(MaskLevel::kModerate), "Moderate");
  EXPECT_STREQ(MaskLevelName(MaskLevel::kImprecise), "Imprecise");
}

// 64-bit FNV-1a over an image's shape and pixels, chained from `hash`.
uint64_t DigestImage(const Image& img, uint64_t hash = 0xcbf29ce484222325ULL) {
  auto mix = [&hash](uint64_t byte) {
    hash ^= byte;
    hash *= 0x100000001b3ULL;
  };
  for (int dim : {img.width(), img.height(), img.channels()}) {
    for (int shift = 0; shift < 32; shift += 8) mix((dim >> shift) & 0xff);
  }
  for (uint8_t p : img.pixels()) mix(p);
  return hash;
}

// FERET-style portraits (the dataset's palette, backdrop and per-shot
// lighting jitter), two shots of each gender x ethnicity cell.
std::vector<Image> FeretStyleFaces(int size) {
  util::Rng rng(static_cast<uint64_t>(9000 + size));
  const fm::FaceStyleFn style_fn = datasets::FeretFaceStyleFn();
  RenderOptions render;
  render.size = size;
  std::vector<Image> faces;
  for (int ethnicity = 0; ethnicity < 5; ++ethnicity) {
    for (int gender = 0; gender < 2; ++gender) {
      for (int shot = 0; shot < 2; ++shot) {
        const FaceStyle style = style_fn({gender, ethnicity}, &rng);
        const SceneStyle scene =
            JitterScene(datasets::FeretScene(), 12.0, &rng);
        faces.push_back(RenderFace(style, scene, render, &rng));
      }
    }
  }
  return faces;
}

// Golden digests of the rendered faces (which run GaussianBlur) and of
// GenerateMask at every level over them. The image kernels may get
// faster; these bytes may not move.
TEST(MaskGoldenTest, DigestsOfFeretStyleMasksAreStable) {
  struct Golden {
    int size;
    uint64_t faces;
    uint64_t accurate;
    uint64_t moderate;
    uint64_t imprecise;
  };
  const Golden goldens[] = {
      {64, 0x0be774ecfdba92dfULL, 0x38b39aef69561526ULL,
       0x471c3c02112b705fULL, 0x9d4d5f279fc531c3ULL},
      {24, 0x883e3617910ea648ULL, 0x6cdd567552abba9eULL,
       0x081ee63f43577964ULL, 0xe8497fe5a0382dddULL},
  };
  for (const Golden& golden : goldens) {
    SCOPED_TRACE(testing::Message() << golden.size << " px");
    uint64_t faces = 0xcbf29ce484222325ULL;
    uint64_t levels[3] = {faces, faces, faces};
    for (const Image& face : FeretStyleFaces(golden.size)) {
      faces = DigestImage(face, faces);
      int i = 0;
      for (MaskLevel level : {MaskLevel::kAccurate, MaskLevel::kModerate,
                              MaskLevel::kImprecise}) {
        levels[i] = DigestImage(GenerateMask(face, level), levels[i]);
        ++i;
      }
    }
    EXPECT_EQ(faces, golden.faces);
    EXPECT_EQ(levels[0], golden.accurate);
    EXPECT_EQ(levels[1], golden.moderate);
    EXPECT_EQ(levels[2], golden.imprecise);
  }
}

// Differential tests: each production kernel against the naive
// reference copy in tests/image_reference_kernels.h, on seeded random
// inputs of every shape from 1x1 to 80x80.

int RandomSide(util::Rng* rng) { return static_cast<int>(rng->NextInt(1, 80)); }

int RandomChannels(util::Rng* rng) { return rng->NextBernoulli(0.5) ? 1 : 3; }

// Random bytes in every channel; channel 0 is non-zero (any value
// 1..255) with probability `density`.
Image RandomMask(int w, int h, int channels, double density, util::Rng* rng) {
  Image mask(w, h, channels, 0);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      for (int c = 1; c < channels; ++c) {
        mask.at(x, y, c) = static_cast<uint8_t>(rng->NextBounded(256));
      }
      if (rng->NextBernoulli(density)) {
        mask.at(x, y, 0) = static_cast<uint8_t>(rng->NextInt(1, 255));
      }
    }
  }
  return mask;
}

// A vertical-gradient backdrop with random blobs and rectangles and
// optional per-pixel noise: the shape of scene ExtractForeground is built
// for, plus enough clutter to leave many components (ties included).
Image RandomScene(int w, int h, int channels, util::Rng* rng) {
  auto color = [rng]() {
    return Color{static_cast<uint8_t>(rng->NextBounded(256)),
                 static_cast<uint8_t>(rng->NextBounded(256)),
                 static_cast<uint8_t>(rng->NextBounded(256))};
  };
  Image img(w, h, channels);
  FillVerticalGradient(&img, color(), color());
  const int blobs = static_cast<int>(rng->NextBounded(6));
  for (int i = 0; i < blobs; ++i) {
    if (rng->NextBernoulli(0.5)) {
      FillCircle(&img, rng->NextDouble() * w, rng->NextDouble() * h,
                 rng->NextDouble() * 0.4 * std::max(w, h), color());
    } else {
      const int x0 = static_cast<int>(rng->NextBounded(w));
      const int y0 = static_cast<int>(rng->NextBounded(h));
      FillRect(&img, x0, y0, x0 + static_cast<int>(rng->NextInt(1, w)),
               y0 + static_cast<int>(rng->NextInt(1, h)), color());
    }
  }
  // Flat, lightly noisy or heavily noisy. Flat regions are where a blur's
  // summation order shows: a constant run sums to just under or over an
  // integer.
  const double noises[] = {0.0, 4.0, 40.0};
  AddGaussianNoise(&img, noises[rng->NextBounded(3)], rng);
  return img;
}

TEST(KernelDifferentialTest, DilateDiscMatchesDiscStamping) {
  util::Rng rng(2101);
  for (int i = 0; i < 700; ++i) {
    const int w = RandomSide(&rng);
    const int h = RandomSide(&rng);
    // Every fifth case dilates past the image's far corner.
    const int radius = i % 5 == 4 ? std::max(w, h) + 1 +
                                         static_cast<int>(rng.NextBounded(8))
                                   : static_cast<int>(rng.NextInt(1, 40));
    // Empty, sparse and (for small discs) dense masks.
    const double densities[] = {0.0, 0.003, 0.03, 0.25};
    double density = densities[rng.NextBounded(4)];
    if (radius > 8) density = std::min(density, 0.03);
    const Image mask = RandomMask(w, h, RandomChannels(&rng), density, &rng);
    SCOPED_TRACE(testing::Message() << "case " << i << ": " << w << "x" << h
                                    << "x" << mask.channels() << " radius "
                                    << radius << " density " << density);
    ASSERT_EQ(DilateDisc(mask, radius), reference::DilateDisc(mask, radius));
  }
  // Pixels in two opposite corners and the centre, at every radius 1..40.
  for (int radius = 1; radius <= 40; ++radius) {
    Image mask(37, 23, 1, 0);
    mask.at(0, 0, 0) = 255;
    mask.at(36, 22, 0) = 7;
    mask.at(18, 11, 0) = 1;
    SCOPED_TRACE(testing::Message() << "corners, radius " << radius);
    ASSERT_EQ(DilateDisc(mask, radius), reference::DilateDisc(mask, radius));
  }
  // Radius <= 0 returns the input unchanged, channels included.
  const Image rgb = RandomMask(9, 5, 3, 0.3, &rng);
  EXPECT_EQ(DilateDisc(rgb, 0), rgb);
  EXPECT_EQ(DilateDisc(rgb, -3), rgb);
}

TEST(KernelDifferentialTest, ExtractForegroundMatchesPerPixelThreshold) {
  util::Rng rng(2102);
  for (int i = 0; i < 600; ++i) {
    const int w = RandomSide(&rng);
    const int h = RandomSide(&rng);
    const Image scene = RandomScene(w, h, RandomChannels(&rng), &rng);
    ForegroundOptions options;
    if (i % 3 == 2) options.color_threshold = rng.NextDouble() * 80.0;
    for (bool largest : {true, false}) {
      options.largest_component_only = largest;
      SCOPED_TRACE(testing::Message()
                   << "case " << i << ": " << w << "x" << h << "x"
                   << scene.channels() << " threshold "
                   << options.color_threshold << " largest " << largest);
      ASSERT_EQ(ExtractForeground(scene, options),
                reference::ExtractForeground(scene, options));
    }
  }
  // Speckle noise leaves many equal-size components: the first one found
  // in raster order must win the tie.
  for (int i = 0; i < 40; ++i) {
    Image speckle = RandomMask(RandomSide(&rng), RandomSide(&rng), 1, 0.08,
                               &rng);
    for (uint8_t& p : speckle.mutable_pixels()) p = p != 0 ? 200 : 100;
    // Keep the border rows at the background value.
    for (int x = 0; x < speckle.width(); ++x) {
      speckle.at(x, 0, 0) = 100;
      speckle.at(x, speckle.height() - 1, 0) = 100;
    }
    ASSERT_EQ(ExtractForeground(speckle),
              reference::ExtractForeground(speckle));
  }
  // Empty image.
  EXPECT_EQ(ExtractForeground(Image()), reference::ExtractForeground(Image()));
}

TEST(KernelDifferentialTest, GaussianBlurMatchesClampedPerPixelSum) {
  util::Rng rng(2103);
  const double sigmas[] = {0.5, 0.7, 1.3, 3.0};
  for (int i = 0; i < 600; ++i) {
    const int w = RandomSide(&rng);
    const int h = RandomSide(&rng);
    const double sigma = sigmas[i % 4];
    const Image img = i % 2 == 0
                          ? RandomMask(w, h, RandomChannels(&rng), 0.5, &rng)
                          : RandomScene(w, h, RandomChannels(&rng), &rng);
    SCOPED_TRACE(testing::Message() << "case " << i << ": " << w << "x" << h
                                    << "x" << img.channels() << " sigma "
                                    << sigma);
    ASSERT_EQ(GaussianBlur(img, sigma), reference::GaussianBlur(img, sigma));
  }
  const Image img = RandomScene(12, 7, 3, &rng);
  EXPECT_EQ(GaussianBlur(img, 0.0), img);
  EXPECT_EQ(GaussianBlur(Image(), 1.0), Image());
}

// One noise case: the production kernel and the per-byte loop on copies of
// `input` and of `rng`. The bytes must match, and so must the rng state
// after: the next NextGaussian (the cached spare, if any) and NextU64.
void ExpectNoiseMatchesPerByteLoop(const Image& input, double stddev,
                                   const util::Rng& rng) {
  Image fast = input;
  Image expected = input;
  util::Rng fast_rng = rng;
  util::Rng reference_rng = rng;
  AddGaussianNoise(&fast, stddev, &fast_rng);
  reference::AddGaussianNoise(&expected, stddev, &reference_rng);
  ASSERT_EQ(fast, expected);
  const double fast_next = fast_rng.NextGaussian();
  const double reference_next = reference_rng.NextGaussian();
  ASSERT_EQ(std::memcmp(&fast_next, &reference_next, sizeof(double)), 0);
  ASSERT_EQ(fast_rng.NextU64(), reference_rng.NextU64());
}

TEST(KernelDifferentialTest, AddGaussianNoiseMatchesPerByteLoop) {
  util::Rng rng(2104);
  const double sigmas[] = {0.01, 0.5, 2.0, 18.0, 45.0};
  for (int i = 0; i < 600; ++i) {
    const int w = RandomSide(&rng);
    const int h = RandomSide(&rng);
    const int channels = RandomChannels(&rng);
    const double sigma = sigmas[i % 5];
    // Uniform random bytes, a scene, or a flat image (0 and 255 included,
    // where the clamp decides).
    Image img;
    switch (i % 3) {
      case 0:
        img = RandomMask(w, h, channels, 1.0, &rng);
        break;
      case 1:
        img = RandomScene(w, h, channels, &rng);
        break;
      default: {
        const uint8_t levels[] = {0, 1, 128, 254, 255};
        img = Image(w, h, channels, levels[rng.NextBounded(5)]);
        break;
      }
    }
    util::Rng noise_rng(rng.NextU64());
    // Every other pair of cases starts with a cached spare.
    const bool spare = i % 4 >= 2;
    if (spare) noise_rng.NextGaussian();
    SCOPED_TRACE(testing::Message()
                 << "case " << i << ": " << w << "x" << h << "x" << channels
                 << " sigma " << sigma << " spare " << spare);
    ExpectNoiseMatchesPerByteLoop(img, sigma, noise_rng);
  }
  // Every size of 1 to 5 bytes, at every sigma, with and without a spare.
  for (int bytes = 1; bytes <= 5; ++bytes) {
    for (double sigma : sigmas) {
      for (bool spare : {false, true}) {
        util::Rng noise_rng(static_cast<uint64_t>(bytes) * 131 + spare);
        if (spare) noise_rng.NextGaussian();
        SCOPED_TRACE(testing::Message() << bytes << " bytes, sigma " << sigma
                                        << " spare " << spare);
        ExpectNoiseMatchesPerByteLoop(Image(bytes, 1, 1, 77), sigma,
                                      noise_rng);
      }
    }
  }
  // No noise and no pixels draw nothing.
  ExpectNoiseMatchesPerByteLoop(Image(3, 2, 3, 9), 0.0, util::Rng(5));
  ExpectNoiseMatchesPerByteLoop(Image(), 2.0, util::Rng(5));
}

// Whether `keep` keeps pixel (x, y) of a w x h image, straight from
// KeepRegion's definition.
bool Keeps(const KeepRegion& keep, int w, int h, int x, int y) {
  if (keep.mask == nullptr) return true;
  for (int sy = y - keep.grow; sy <= y + keep.grow; ++sy) {
    for (int sx = x - keep.grow; sx <= x + keep.grow; ++sx) {
      if (sx >= 0 && sx < w && sy >= 0 && sy < h &&
          keep.mask->InBounds(sx, sy) && keep.mask->at(sx, sy, 0) != 0) {
        return true;
      }
    }
  }
  return false;
}

// Asserts that `actual` and `expected` have one shape and agree on every
// byte of every pixel `keep` keeps.
void ExpectKeptBytesEqual(const Image& actual, const Image& expected,
                          const KeepRegion& keep) {
  ASSERT_EQ(actual.width(), expected.width());
  ASSERT_EQ(actual.height(), expected.height());
  ASSERT_EQ(actual.channels(), expected.channels());
  for (int y = 0; y < actual.height(); ++y) {
    for (int x = 0; x < actual.width(); ++x) {
      if (!Keeps(keep, actual.width(), actual.height(), x, y)) continue;
      for (int c = 0; c < actual.channels(); ++c) {
        ASSERT_EQ(actual.at(x, y, c), expected.at(x, y, c))
            << "kept pixel " << x << "," << y << " channel " << c;
      }
    }
  }
}

// A keep mask for a w x h image, of one of six kinds: empty, full, sparse
// with holes, mostly set with holes, smaller than the image, or larger.
Image RandomKeepMask(int w, int h, int kind, util::Rng* rng) {
  const int channels = RandomChannels(rng);
  switch (kind % 6) {
    case 0:
      return Image(w, h, channels, 0);
    case 1:
      return RandomMask(w, h, channels, 1.0, rng);
    case 2:
      return RandomMask(w, h, channels, 0.05, rng);
    case 3:
      return RandomMask(w, h, channels, 0.8, rng);
    case 4:
      return RandomMask(static_cast<int>(rng->NextInt(1, w)),
                        static_cast<int>(rng->NextInt(1, h)), channels, 0.5,
                        rng);
    default:
      return RandomMask(w + static_cast<int>(rng->NextInt(1, 9)),
                        h + static_cast<int>(rng->NextInt(1, 9)), channels,
                        0.3, rng);
  }
}

TEST(KernelDifferentialTest, KeptGaussianBlurMatchesOnKeptPixels) {
  util::Rng rng(2105);
  const double sigmas[] = {0.5, 0.7, 1.3, 3.0};
  for (int i = 0; i < 600; ++i) {
    const int w = RandomSide(&rng);
    const int h = RandomSide(&rng);
    const double sigma = sigmas[i % 4];
    const Image img = RandomScene(w, h, RandomChannels(&rng), &rng);
    const Image mask = RandomKeepMask(w, h, i, &rng);
    const KeepRegion keep{&mask,
                          i % 3 == 0 ? static_cast<int>(rng.NextInt(1, 4)) : 0};
    SCOPED_TRACE(testing::Message()
                 << "case " << i << ": " << w << "x" << h << "x"
                 << img.channels() << " sigma " << sigma << " mask "
                 << mask.width() << "x" << mask.height() << " kind " << i % 6
                 << " grow " << keep.grow);
    ExpectKeptBytesEqual(GaussianBlur(img, sigma, keep),
                         reference::GaussianBlur(img, sigma), keep);
  }
  // A null mask keeps the whole image.
  const Image img = RandomScene(17, 9, 3, &rng);
  EXPECT_EQ(GaussianBlur(img, 1.3, KeepRegion{}),
            reference::GaussianBlur(img, 1.3));
}

// One keep-restricted noise case: the production kernel under `keep` and
// the per-byte loop over the whole image, on copies of `input` and `rng`.
// Every kept byte must match, and so must the rng state after.
void ExpectKeptNoiseMatchesPerByteLoop(const Image& input, double stddev,
                                       const util::Rng& rng,
                                       const KeepRegion& keep) {
  Image fast = input;
  Image expected = input;
  util::Rng fast_rng = rng;
  util::Rng reference_rng = rng;
  AddGaussianNoise(&fast, stddev, &fast_rng, keep);
  reference::AddGaussianNoise(&expected, stddev, &reference_rng);
  ExpectKeptBytesEqual(fast, expected, keep);
  const double fast_next = fast_rng.NextGaussian();
  const double reference_next = reference_rng.NextGaussian();
  ASSERT_EQ(std::memcmp(&fast_next, &reference_next, sizeof(double)), 0);
  ASSERT_EQ(fast_rng.NextU64(), reference_rng.NextU64());
}

TEST(KernelDifferentialTest, KeptAddGaussianNoiseMatchesOnKeptBytes) {
  util::Rng rng(2106);
  const double sigmas[] = {0.01, 2.0, 18.0, 45.0};
  for (int i = 0; i < 600; ++i) {
    // Every eighth case has odd sides and one channel: an odd byte count,
    // whose last pair leaves a spare.
    const bool odd = i % 8 == 7;
    const int w = odd ? 2 * static_cast<int>(rng.NextInt(0, 39)) + 1
                      : RandomSide(&rng);
    const int h = odd ? 2 * static_cast<int>(rng.NextInt(0, 39)) + 1
                      : RandomSide(&rng);
    const int channels = odd ? 1 : RandomChannels(&rng);
    const double sigma = sigmas[i % 4];
    const Image img = RandomScene(w, h, channels, &rng);
    const Image mask = RandomKeepMask(w, h, i, &rng);
    const KeepRegion keep{&mask,
                          i % 3 == 0 ? static_cast<int>(rng.NextInt(1, 4)) : 0};
    util::Rng noise_rng(rng.NextU64());
    // Every other pair of cases starts with a cached spare.
    const bool spare = i % 4 >= 2;
    if (spare) noise_rng.NextGaussian();
    SCOPED_TRACE(testing::Message()
                 << "case " << i << ": " << w << "x" << h << "x" << channels
                 << " sigma " << sigma << " spare " << spare << " mask "
                 << mask.width() << "x" << mask.height() << " kind " << i % 6
                 << " grow " << keep.grow);
    ExpectKeptNoiseMatchesPerByteLoop(img, sigma, noise_rng, keep);
  }
  // A row of 1 to 7 one-byte pixels keeping exactly one of them, with and
  // without a spare: the first byte (the spare's), a middle one, and the
  // last one (a trailing single byte's pair when the count is odd).
  for (int bytes = 1; bytes <= 7; ++bytes) {
    for (int kept = 0; kept < bytes; ++kept) {
      for (bool spare : {false, true}) {
        Image mask(bytes, 1, 1, 0);
        mask.at(kept, 0, 0) = 255;
        util::Rng noise_rng(static_cast<uint64_t>(bytes) * 131 + kept);
        if (spare) noise_rng.NextGaussian();
        SCOPED_TRACE(testing::Message() << bytes << " bytes, kept " << kept
                                        << " spare " << spare);
        ExpectKeptNoiseMatchesPerByteLoop(Image(bytes, 1, 1, 77), 18.0,
                                          noise_rng, KeepRegion{&mask});
      }
    }
  }
  // No noise and no pixels draw nothing, whatever the mask.
  const Image empty_mask(3, 2, 1, 0);
  ExpectKeptNoiseMatchesPerByteLoop(Image(3, 2, 3, 9), 0.0, util::Rng(5),
                                    KeepRegion{&empty_mask});
  ExpectKeptNoiseMatchesPerByteLoop(Image(), 2.0, util::Rng(5),
                                    KeepRegion{&empty_mask});
}

// RenderFace under a keep mask against the full render: every kept pixel
// and the rng's next draws match, for clean and artifact renders (above
// 0.3 the misplaced-feature blob too) and masks of every kind.
TEST(FaceRendererTest, KeepMaskRendersKeptPixelsExactly) {
  util::Rng rng(2107);
  const double artifact_levels[] = {0.0, 0.2, 0.6};
  for (int i = 0; i < 90; ++i) {
    const int size = i % 2 == 0 ? 64 : static_cast<int>(rng.NextInt(8, 48));
    const FaceStyle style =
        MakeFaceStyle(i % 5, 5, i % 3 == 0, rng.NextDouble(), &rng);
    SceneStyle scene = JitterScene(SceneStyle(), 12.0, &rng);
    if (i % 7 == 6) scene.blur_sigma = 0.0;
    RenderOptions options;
    options.size = size;
    options.artifact_level = artifact_levels[i % 3];
    // Guide-sized masks: the render's size, or smaller as chameleond's
    // guides are.
    const int guide = i % 4 < 2 ? size : static_cast<int>(rng.NextInt(1, size));
    const Image mask = RandomKeepMask(guide, guide, i, &rng);
    util::Rng render_rng(rng.NextU64());
    if (i % 4 == 3) render_rng.NextGaussian();
    util::Rng full_rng = render_rng;
    SCOPED_TRACE(testing::Message()
                 << "case " << i << ": " << size << " px, artifacts "
                 << options.artifact_level << ", mask " << mask.width()
                 << " px kind " << i % 6 << ", blur " << scene.blur_sigma);
    const Image kept = RenderFace(style, scene, options, &render_rng, &mask);
    const Image full = RenderFace(style, scene, options, &full_rng);
    ExpectKeptBytesEqual(kept, full, KeepRegion{&mask});
    const double kept_next = render_rng.NextGaussian();
    const double full_next = full_rng.NextGaussian();
    ASSERT_EQ(std::memcmp(&kept_next, &full_next, sizeof(double)), 0);
    ASSERT_EQ(render_rng.NextU64(), full_rng.NextU64());
  }
}

// Pixels whose exact value p + sigma * n lands on a byte boundary: sigma is
// chosen so that sigma * n is +-3 for the first normal n of the stream, or
// one ulp either side. There the approximate normal alone can pick the
// neighbouring byte, so these catch a kernel without its exact fallback.
TEST(KernelDifferentialTest, AddGaussianNoiseExactOnByteBoundaries) {
  for (uint64_t seed = 1; seed <= 500; ++seed) {
    util::Rng probe(seed);
    const double n = probe.NextGaussian();
    if (std::fabs(n) < 0.05) continue;
    const double base = 3.0 / std::fabs(n);
    for (double sigma : {std::nextafter(base, 0.0), base,
                         std::nextafter(base, 100.0)}) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " sigma "
                                      << sigma);
      ExpectNoiseMatchesPerByteLoop(Image(2, 1, 1, 100), sigma,
                                    util::Rng(seed));
    }
  }
}

}  // namespace
}  // namespace chameleon::image
