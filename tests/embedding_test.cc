#include <cstring>
#include <vector>

#include "gtest/gtest.h"
#include "src/embedding/simulated_embedder.h"
#include "src/image/face_renderer.h"
#include "src/linalg/vector_ops.h"
#include "src/util/rng.h"
#include "tests/image_reference_kernels.h"

namespace chameleon::embedding {
namespace {

image::Image MakeFace(uint64_t seed, const image::SceneStyle& scene) {
  util::Rng rng(seed);
  const image::FaceStyle style = image::MakeFaceStyle(1, 5, false, 0.4, &rng);
  image::RenderOptions options;
  options.size = 64;
  return image::RenderFace(style, scene, options, &rng);
}

TEST(SimulatedEmbedderTest, DimensionsMatchConfiguration) {
  const SimulatedEmbedder embedder(24, 7);
  EXPECT_EQ(embedder.dim(), 24);
  const image::SceneStyle scene;
  EXPECT_EQ(embedder.Embed(MakeFace(1, scene)).size(), 24u);
}

TEST(SimulatedEmbedderTest, DeterministicForSeedAndImage) {
  const SimulatedEmbedder a(32, 7);
  const SimulatedEmbedder b(32, 7);
  const image::SceneStyle scene;
  const image::Image face = MakeFace(2, scene);
  EXPECT_EQ(a.Embed(face), b.Embed(face));
}

TEST(SimulatedEmbedderTest, DifferentProjectionSeedsDiffer) {
  const SimulatedEmbedder a(32, 7);
  const SimulatedEmbedder b(32, 8);
  const image::SceneStyle scene;
  const image::Image face = MakeFace(2, scene);
  EXPECT_NE(a.Embed(face), b.Embed(face));
}

TEST(SimulatedEmbedderTest, RawFeatureDimension) {
  const image::SceneStyle scene;
  EXPECT_EQ(static_cast<int>(
                SimulatedEmbedder::RawFeatures(MakeFace(3, scene)).size()),
            SimulatedEmbedder::raw_dim());
}

TEST(SimulatedEmbedderTest, SimilarImagesAreCloserThanDifferentScenes) {
  // Two renders of the same subject/scene must embed closer together
  // than a render with a very different backdrop — the property the
  // data-distribution test relies on.
  const SimulatedEmbedder embedder;
  image::SceneStyle scene;
  image::SceneStyle other_scene;
  other_scene.background_top = {220, 60, 60};
  other_scene.background_bottom = {240, 90, 90};

  const auto a = embedder.Embed(MakeFace(10, scene));
  const auto b = embedder.Embed(MakeFace(11, scene));
  const auto c = embedder.Embed(MakeFace(10, other_scene));
  EXPECT_LT(linalg::SquaredDistance(a, b), linalg::SquaredDistance(a, c));
}

TEST(SimulatedEmbedderTest, CosineSimilarityTracksSceneSimilarity) {
  const SimulatedEmbedder embedder;
  image::SceneStyle scene;
  image::SceneStyle far_scene;
  far_scene.background_top = {10, 10, 10};
  far_scene.background_bottom = {30, 30, 30};
  const auto same_1 = embedder.Embed(MakeFace(20, scene));
  const auto same_2 = embedder.Embed(MakeFace(21, scene));
  const auto far = embedder.Embed(MakeFace(20, far_scene));
  EXPECT_GT(linalg::CosineSimilarity(same_1, same_2),
            linalg::CosineSimilarity(same_1, far));
}

// RawFeatures against the per-pixel loops in
// tests/image_reference_kernels.h, compared bit for bit: on seeded random
// bytes of every shape from 1x1 to 80x80 in 1 and 3 channels, and on
// rendered faces at the corpus sizes.
void ExpectRawFeaturesMatchReference(const image::Image& img) {
  const std::vector<double> fast = SimulatedEmbedder::RawFeatures(img);
  const std::vector<double> expected = image::reference::RawFeatures(img);
  ASSERT_EQ(fast.size(), expected.size());
  ASSERT_EQ(std::memcmp(fast.data(), expected.data(),
                        fast.size() * sizeof(double)),
            0);
}

TEST(SimulatedEmbedderTest, RawFeaturesMatchPerPixelReference) {
  util::Rng rng(2201);
  for (int i = 0; i < 600; ++i) {
    const int w = static_cast<int>(rng.NextInt(1, 80));
    const int h = static_cast<int>(rng.NextInt(1, 80));
    const int channels = rng.NextBernoulli(0.5) ? 1 : 3;
    image::Image img(w, h, channels);
    for (uint8_t& p : img.mutable_pixels()) {
      p = static_cast<uint8_t>(rng.NextBounded(256));
    }
    SCOPED_TRACE(testing::Message() << "case " << i << ": " << w << "x" << h
                                    << "x" << channels);
    ExpectRawFeaturesMatchReference(img);
  }
  for (int size : {24, 32, 64}) {
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      util::Rng face_rng(seed);
      const image::FaceStyle style =
          image::MakeFaceStyle(1, 5, false, 0.4, &face_rng);
      image::RenderOptions options;
      options.size = size;
      const image::Image face =
          image::RenderFace(style, image::SceneStyle(), options, &face_rng);
      SCOPED_TRACE(testing::Message() << "face " << seed << " at " << size);
      ExpectRawFeaturesMatchReference(face);
      ExpectRawFeaturesMatchReference(face.ToGrayscale());
    }
  }
}

}  // namespace
}  // namespace chameleon::embedding
