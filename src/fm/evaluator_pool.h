#ifndef CHAMELEON_FM_EVALUATOR_POOL_H_
#define CHAMELEON_FM_EVALUATOR_POOL_H_

#include <cstdint>
#include <vector>

#include "src/util/rng.h"

namespace chameleon::fm {

/// Simulated crowd of human evaluators for the quality test (§3.2). Each
/// evaluator e has an individual strictness threshold theta_e; shown a
/// tuple with latent realism r in [0, 1], e labels it "realistic" with
/// probability sigmoid((r - theta_e) / kSoftness). The cohort size and
/// the threshold distribution are fixed in evaluator_pool.cc. Real
/// photographs have realism ~0.92, which yields the paper's measured
/// real-image label rate p ≈ 0.86.
class EvaluatorPool {
 public:
  /// Draws the cohort's thresholds from `seed`.
  explicit EvaluatorPool(uint64_t seed);

  int num_evaluators() const { return static_cast<int>(thresholds_.size()); }

  /// Probability that evaluator `e` labels a tuple of the given realism
  /// as realistic.
  double LabelProbability(double realism, int evaluator) const;

  /// Draws `n` labels (1 = realistic) from uniformly random evaluators.
  std::vector<int> Evaluate(double realism, int n, util::Rng* rng) const;

  /// Estimates p, the rate at which random evaluators label random real
  /// tuples realistic, from `num_samples` (evaluator, tuple) draws — the
  /// paper's separate 10-evaluator calibration experiment.
  double EstimateRealLabelRate(const std::vector<double>& real_realism,
                               int num_samples, util::Rng* rng) const;

 private:
  std::vector<double> thresholds_;
};

}  // namespace chameleon::fm

#endif  // CHAMELEON_FM_EVALUATOR_POOL_H_
