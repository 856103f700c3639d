#include "src/fm/evaluator_pool.h"

#include <cmath>

namespace chameleon::fm {
namespace {

constexpr int kNumEvaluators = 37;  // the paper's cohort size
constexpr double kThresholdMean = 0.78;
constexpr double kThresholdStddev = 0.05;
constexpr double kSoftness = 0.08;

}  // namespace

EvaluatorPool::EvaluatorPool(uint64_t seed) {
  util::Rng rng(seed);
  thresholds_.reserve(kNumEvaluators);
  for (int e = 0; e < kNumEvaluators; ++e) {
    thresholds_.push_back(rng.NextGaussian(kThresholdMean, kThresholdStddev));
  }
}

double EvaluatorPool::LabelProbability(double realism, int evaluator) const {
  const double z = (realism - thresholds_[evaluator]) / kSoftness;
  return 1.0 / (1.0 + std::exp(-z));
}

std::vector<int> EvaluatorPool::Evaluate(double realism, int n,
                                         util::Rng* rng) const {
  std::vector<int> labels(n);
  for (int i = 0; i < n; ++i) {
    const int evaluator =
        static_cast<int>(rng->NextBounded(thresholds_.size()));
    labels[i] = rng->NextBernoulli(LabelProbability(realism, evaluator));
  }
  return labels;
}

double EvaluatorPool::EstimateRealLabelRate(
    const std::vector<double>& real_realism, int num_samples,
    util::Rng* rng) const {
  if (real_realism.empty() || num_samples <= 0) return 0.0;
  int64_t positives = 0;
  for (int i = 0; i < num_samples; ++i) {
    const double realism =
        real_realism[rng->NextBounded(real_realism.size())];
    const int evaluator =
        static_cast<int>(rng->NextBounded(thresholds_.size()));
    positives += rng->NextBernoulli(LabelProbability(realism, evaluator));
  }
  return static_cast<double>(positives) / num_samples;
}

}  // namespace chameleon::fm
