#include <cmath>

#include "gtest/gtest.h"
#include "src/svm/kernel.h"
#include "src/svm/one_class_svm.h"
#include "src/util/rng.h"

namespace chameleon::svm {
namespace {

std::vector<std::vector<double>> GaussianCloud(int n, int dim, double mean,
                                               double stddev, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<double>> points(n, std::vector<double>(dim));
  for (auto& p : points) {
    for (double& v : p) v = rng.NextGaussian(mean, stddev);
  }
  return points;
}

TEST(KernelTest, LinearIsDotProduct) {
  const Kernel k = Kernel::Linear();
  EXPECT_DOUBLE_EQ(k.Evaluate({1, 2}, {3, 4}), 11.0);
}

TEST(KernelTest, RbfIsOneAtZeroDistance) {
  const Kernel k = Kernel::Rbf(0.5);
  EXPECT_DOUBLE_EQ(k.Evaluate({1, 2}, {1, 2}), 1.0);
  EXPECT_NEAR(k.Evaluate({0, 0}, {1, 0}), std::exp(-0.5), 1e-12);
}

TEST(KernelTest, RbfDefaultsGammaToInverseDim) {
  const Kernel k = Kernel::Rbf();  // gamma <= 0 -> 1/dim
  EXPECT_NEAR(k.Evaluate({0, 0}, {1, 1}), std::exp(-1.0), 1e-12);
}

TEST(KernelTest, PolynomialAndSigmoid) {
  const Kernel poly = Kernel::Polynomial(2, 1.0, 1.0);
  EXPECT_DOUBLE_EQ(poly.Evaluate({1, 1}, {1, 1}), 9.0);  // (2+1)^2
  const Kernel sig = Kernel::Sigmoid(1.0, 0.0);
  EXPECT_NEAR(sig.Evaluate({1, 0}, {1, 0}), std::tanh(1.0), 1e-12);
}

TEST(KernelTest, ToStringNamesType) {
  EXPECT_NE(Kernel::Rbf(0.1).ToString().find("rbf"), std::string::npos);
  EXPECT_NE(Kernel::Linear().ToString().find("linear"), std::string::npos);
}

TEST(OneClassSvmTest, RejectsInvalidInputs) {
  OneClassSvmOptions options;
  EXPECT_FALSE(OneClassSvm::Train({}, options).ok());
  EXPECT_FALSE(OneClassSvm::Train({{1.0}}, options).ok());
  options.nu = 0.0;
  EXPECT_FALSE(
      OneClassSvm::Train(GaussianCloud(10, 2, 0, 1, 1), options).ok());
  options.nu = 0.3;
  // Mismatched dimensions.
  EXPECT_FALSE(OneClassSvm::Train({{1.0, 2.0}, {1.0}}, options).ok());
}

TEST(OneClassSvmTest, NuBoundsTrainingOutlierFraction) {
  // The fraction of training points with f(x) < 0 should be ~nu.
  for (double nu : {0.1, 0.3, 0.5}) {
    const auto points = GaussianCloud(400, 4, 0.0, 1.0, 77);
    OneClassSvmOptions options;
    options.nu = nu;
    options.kernel = Kernel::Rbf();
    auto model = OneClassSvm::Train(points, options);
    ASSERT_TRUE(model.ok());
    int rejected = 0;
    for (const auto& p : points) rejected += !model->Accepts(p);
    EXPECT_NEAR(static_cast<double>(rejected) / points.size(), nu, 0.08)
        << "nu=" << nu;
  }
}

TEST(OneClassSvmTest, RejectsFarOutliers) {
  const auto points = GaussianCloud(300, 3, 0.0, 1.0, 5);
  OneClassSvmOptions options;
  options.nu = 0.2;
  // A small gamma keeps the acceptance region filled in low dimensions
  // (large gamma produces the classic OCSVM shell artifact).
  options.kernel = Kernel::Rbf(0.05);
  auto model = OneClassSvm::Train(points, options);
  ASSERT_TRUE(model.ok());
  // Points ten sigmas away must be rejected.
  EXPECT_FALSE(model->Accepts({10.0, 10.0, 10.0}));
  EXPECT_FALSE(model->Accepts({-10.0, 0.0, 0.0}));
  // The centroid must be accepted.
  EXPECT_TRUE(model->Accepts({0.0, 0.0, 0.0}));
}

TEST(OneClassSvmTest, LinearKernelAlsoSeparates) {
  const auto points = GaussianCloud(300, 3, 5.0, 1.0, 6);
  OneClassSvmOptions options;
  options.nu = 0.3;
  options.kernel = Kernel::Linear();
  auto model = OneClassSvm::Train(points, options);
  ASSERT_TRUE(model.ok());
  EXPECT_TRUE(model->Accepts({5.0, 5.0, 5.0}));
  EXPECT_FALSE(model->Accepts({-20.0, -20.0, -20.0}));
}

TEST(OneClassSvmTest, StandardizationHandlesScaleMismatch) {
  // One dimension is 1000x larger; without standardization the small
  // dimension would be invisible to the RBF kernel.
  util::Rng rng(9);
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 300; ++i) {
    points.push_back({rng.NextGaussian(0, 1000.0), rng.NextGaussian(0, 1.0)});
  }
  OneClassSvmOptions options;
  options.nu = 0.2;
  options.kernel = Kernel::Rbf(0.05);
  auto model = OneClassSvm::Train(points, options);
  ASSERT_TRUE(model.ok());
  // 8 sigma outlier in the SMALL dimension must be caught.
  EXPECT_FALSE(model->Accepts({0.0, 8.0}));
  EXPECT_TRUE(model->Accepts({0.0, 0.0}));
}

TEST(OneClassSvmTest, StatsAreConsistent) {
  const auto points = GaussianCloud(200, 4, 0.0, 1.0, 13);
  OneClassSvmOptions options;
  options.nu = 0.3;
  auto model = OneClassSvm::Train(points, options);
  ASSERT_TRUE(model.ok());
  const auto& stats = model->stats();
  EXPECT_GT(stats.iterations, 0);
  EXPECT_EQ(stats.num_support_vectors, model->num_support_vectors());
  // nu lower-bounds the SV fraction.
  EXPECT_GE(stats.num_support_vectors,
            static_cast<int>(0.3 * points.size()) - 2);
  EXPECT_LE(stats.num_margin_support_vectors, stats.num_support_vectors);
}

// Property sweep: across kernels, decision values must be higher at the
// data centroid than far outside.
class KernelSweepTest : public ::testing::TestWithParam<KernelType> {};

TEST_P(KernelSweepTest, CentroidScoresAboveOutlier) {
  Kernel kernel;
  kernel.type = GetParam();
  kernel.gamma = 0.5;
  kernel.coef0 = 1.0;
  kernel.degree = 2;
  const auto points = GaussianCloud(150, 3, 1.0, 0.7, 31);
  OneClassSvmOptions options;
  options.nu = 0.25;
  options.kernel = kernel;
  auto model = OneClassSvm::Train(points, options);
  ASSERT_TRUE(model.ok());
  // The outlier lies opposite the data mean: every kernel family agrees
  // on that direction (a linear one-class boundary is a halfspace, so
  // same-side outliers are out of scope for it).
  EXPECT_GT(model->DecisionValue({1.0, 1.0, 1.0}),
            model->DecisionValue({-30.0, -30.0, -30.0}));
}

// kPolynomial is excluded: an even-degree polynomial kernel scores
// large-magnitude points highly regardless of direction, so the
// centroid-vs-outlier ordering does not hold for it by construction.
INSTANTIATE_TEST_SUITE_P(AllKernels, KernelSweepTest,
                         ::testing::Values(KernelType::kLinear,
                                           KernelType::kRbf,
                                           KernelType::kSigmoid));

TEST(OneClassSvmTest, ParallelTrainingIsBitIdenticalToSerial) {
  // Every Gram entry is computed independently, so the trained model
  // must match the serial one exactly — not approximately.
  const auto points = GaussianCloud(256, 8, 0.0, 1.0, 17);
  const auto queries = GaussianCloud(64, 8, 0.0, 2.0, 18);
  OneClassSvmOptions options;
  options.nu = 0.3;
  options.num_threads = 1;
  auto serial = OneClassSvm::Train(points, options);
  ASSERT_TRUE(serial.ok());
  for (int threads : {2, 4}) {
    options.num_threads = threads;
    auto parallel = OneClassSvm::Train(points, options);
    ASSERT_TRUE(parallel.ok()) << "threads=" << threads;
    EXPECT_EQ(serial->rho(), parallel->rho());
    EXPECT_EQ(serial->num_support_vectors(), parallel->num_support_vectors());
    EXPECT_EQ(serial->stats().iterations, parallel->stats().iterations);
    for (const auto& q : queries) {
      EXPECT_EQ(serial->DecisionValue(q), parallel->DecisionValue(q));
    }
  }
}

TEST(OneClassSvmTest, BatchScoringMatchesPointwise) {
  const auto points = GaussianCloud(200, 6, 0.0, 1.0, 21);
  const auto queries = GaussianCloud(150, 6, 0.0, 2.0, 22);
  OneClassSvmOptions options;
  options.nu = 0.3;
  auto model = OneClassSvm::Train(points, options);
  ASSERT_TRUE(model.ok());
  for (int threads : {1, 4}) {
    const auto batch = model->DecisionValues(queries, threads);
    ASSERT_EQ(batch.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(batch[i], model->DecisionValue(queries[i]))
          << "threads=" << threads << " i=" << i;
    }
  }
}

}  // namespace
}  // namespace chameleon::svm
