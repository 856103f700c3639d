#include "gtest/gtest.h"
#include "src/core/rejection_sampler.h"
#include "src/util/rng.h"

namespace chameleon::core {
namespace {

std::vector<std::vector<double>> MakeCloud(int n, double mean, double stddev,
                                           uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<double>> points(n, std::vector<double>(8));
  for (auto& p : points) {
    for (double& v : p) v = rng.NextGaussian(mean, stddev);
  }
  return points;
}

class RejectionSamplerTest : public ::testing::Test {
 protected:
  RejectionSamplerTest() : evaluators_(42) {}

  util::Result<RejectionSampler> MakeSampler(double alpha = 0.1) {
    RejectionSamplerOptions options;
    options.quality_alpha = alpha;
    options.svm.nu = 0.3;
    return RejectionSampler::Train(MakeCloud(300, 0.0, 1.0, 1), &evaluators_,
                                   0.86, options);
  }

  fm::EvaluatorPool evaluators_;
};

TEST_F(RejectionSamplerTest, TrainValidatesArguments) {
  RejectionSamplerOptions options;
  EXPECT_FALSE(RejectionSampler::Train(MakeCloud(10, 0, 1, 1), nullptr, 0.86,
                                       options)
                   .ok());
  EXPECT_FALSE(RejectionSampler::Train(MakeCloud(10, 0, 1, 1), &evaluators_,
                                       0.0, options)
                   .ok());
  EXPECT_FALSE(RejectionSampler::Train(MakeCloud(10, 0, 1, 1), &evaluators_,
                                       1.5, options)
                   .ok());
  EXPECT_FALSE(
      RejectionSampler::Train({}, &evaluators_, 0.86, options).ok());
}

TEST_F(RejectionSamplerTest, DistributionTestSeparatesInOut) {
  auto sampler = MakeSampler();
  ASSERT_TRUE(sampler.ok());
  EXPECT_TRUE(sampler->DistributionTest(std::vector<double>(8, 0.0)));
  EXPECT_FALSE(sampler->DistributionTest(std::vector<double>(8, 20.0)));
}

TEST_F(RejectionSamplerTest, QualityTestPassesHighRealism) {
  auto sampler = MakeSampler();
  ASSERT_TRUE(sampler.ok());
  util::Rng rng(5);
  int passes = 0;
  const int trials = 200;
  for (int i = 0; i < trials; ++i) {
    passes += !sampler->QualityTest(1.1, &rng).Rejects(0.1);
  }
  EXPECT_GT(passes, trials * 0.9);
}

TEST_F(RejectionSamplerTest, QualityTestRejectsLowRealism) {
  auto sampler = MakeSampler();
  ASSERT_TRUE(sampler.ok());
  util::Rng rng(6);
  int passes = 0;
  const int trials = 200;
  for (int i = 0; i < trials; ++i) {
    passes += !sampler->QualityTest(0.35, &rng).Rejects(0.1);
  }
  EXPECT_LT(passes, trials * 0.2);
}

TEST_F(RejectionSamplerTest, StricterAlphaAcceptsLess) {
  auto sampler = MakeSampler();
  ASSERT_TRUE(sampler.ok());
  util::Rng rng_a(7);
  util::Rng rng_b(7);
  int lenient = 0;
  int strict = 0;
  for (int i = 0; i < 300; ++i) {
    lenient += !sampler->QualityTest(0.92, &rng_a).Rejects(0.1);
    strict += !sampler->QualityTest(0.92, &rng_b).Rejects(0.4);
  }
  EXPECT_GT(lenient, strict);
}

TEST_F(RejectionSamplerTest, EvaluateCombinesBothTests) {
  auto sampler = MakeSampler();
  ASSERT_TRUE(sampler.ok());
  util::Rng rng(8);

  // In distribution + high realism: passes.
  const RejectionOutcome good =
      sampler->Evaluate(std::vector<double>(8, 0.0), 1.2, &rng);
  EXPECT_TRUE(good.distribution_pass);
  EXPECT_GE(good.decision_value, 0.0);

  // Far out of distribution: distribution must fail regardless of
  // realism, and Passed() requires both.
  const RejectionOutcome drifted =
      sampler->Evaluate(std::vector<double>(8, 25.0), 1.2, &rng);
  EXPECT_FALSE(drifted.distribution_pass);
  EXPECT_FALSE(drifted.Passed());

  // Terrible realism: quality fails even in-distribution.
  int quality_passes = 0;
  for (int i = 0; i < 50; ++i) {
    quality_passes +=
        sampler->Evaluate(std::vector<double>(8, 0.0), 0.2, &rng)
            .quality_pass;
  }
  EXPECT_LT(quality_passes, 10);
}

TEST_F(RejectionSamplerTest, EvaluateAgreesWithDistributionTest) {
  // Evaluate and DistributionTest both gate through OneClassSvm::Accepts.
  auto sampler = MakeSampler();
  ASSERT_TRUE(sampler.ok());
  util::Rng rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> e(8);
    for (double& v : e) v = rng.NextGaussian(0.0, 3.0);
    EXPECT_EQ(sampler->Evaluate(e, 1.0, &rng).distribution_pass,
              sampler->DistributionTest(e));
  }
}

TEST_F(RejectionSamplerTest, EvaluateWithLabelsMatchesEvaluate) {
  auto sampler = MakeSampler();
  ASSERT_TRUE(sampler.ok());
  const std::vector<double> embedding(8, 0.3);
  for (double realism : {0.3, 0.8, 1.1}) {
    util::Rng rng_a(41);
    util::Rng rng_b(41);
    const RejectionOutcome direct =
        sampler->Evaluate(embedding, realism, &rng_a);
    const std::vector<int> labels =
        sampler->DrawQualityLabels(realism, &rng_b);
    const RejectionOutcome split =
        sampler->EvaluateWithLabels(embedding, labels);
    EXPECT_EQ(direct.distribution_pass, split.distribution_pass);
    EXPECT_EQ(direct.quality_pass, split.quality_pass);
    EXPECT_EQ(direct.decision_value, split.decision_value);
    EXPECT_EQ(direct.quality_p_value, split.quality_p_value);
    // Both consumed the same rng draws.
    EXPECT_EQ(rng_a.NextU64(), rng_b.NextU64());
  }
}

TEST_F(RejectionSamplerTest, AccessorsExposeConfiguration) {
  auto sampler = MakeSampler(0.25);
  ASSERT_TRUE(sampler.ok());
  EXPECT_DOUBLE_EQ(sampler->real_label_rate(), 0.86);
  EXPECT_DOUBLE_EQ(sampler->options().quality_alpha, 0.25);
  EXPECT_GT(sampler->svm_model().num_support_vectors(), 0);
}

}  // namespace
}  // namespace chameleon::core
