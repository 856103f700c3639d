#ifndef CHAMELEON_SVM_ONE_CLASS_SVM_H_
#define CHAMELEON_SVM_ONE_CLASS_SVM_H_

#include <cstdint>
#include <vector>

#include "src/svm/kernel.h"
#include "src/util/status.h"

namespace chameleon::svm {

/// Training options for the ν-one-class SVM (Schölkopf et al., 1999) used
/// by the data distribution test (§3.1).
struct OneClassSvmOptions {
  /// ν: upper bound on the outlier fraction, lower bound on the SV
  /// fraction. The paper evaluates ν = 0.3.
  double nu = 0.3;
  Kernel kernel = Kernel::Rbf();
  /// Worker count for Gram-matrix construction in Train: 0 = hardware
  /// concurrency (the default), 1 = serial. Every Gram entry is computed
  /// independently, so the trained model is bit-identical at every
  /// setting.
  int num_threads = 0;
};

/// Diagnostics from training.
struct OneClassSvmStats {
  int64_t iterations = 0;
  int num_support_vectors = 0;
  int num_margin_support_vectors = 0;
  double rho = 0.0;
};

/// ν-one-class SVM solving
///   min_alpha 1/2 alpha^T Q alpha
///   s.t. 0 <= alpha_i <= 1/(nu*n), sum alpha_i = 1
/// by sequential minimal optimization with maximal-violating-pair working
/// set selection (LIBSVM-style). Decision f(x) = sum_i alpha_i k(x_i, x) - rho;
/// a point is in-distribution when f(x) >= 0.
///
/// Each input dimension is divided by its training standard deviation
/// before kernel evaluation (embeddings have heterogeneous scale).
/// Scale-only on purpose: the one-class SVM separates data from the
/// origin, so mean-centering would make the linear kernel degenerate; RBF
/// kernels are translation-invariant and unaffected by the missing
/// centering.
class OneClassSvm {
 public:
  /// Trains on the given embeddings (>= 2 rows of equal length).
  [[nodiscard]] static util::Result<OneClassSvm> Train(
      const std::vector<std::vector<double>>& points,
      const OneClassSvmOptions& options);

  /// Signed decision value f(x).
  double DecisionValue(const std::vector<double>& x) const;

  /// Batch scoring: f(x) for every point, chunked over a thread pool
  /// when num_threads != 1 (0 = hardware concurrency). Each point is
  /// scored independently, so the result is bit-identical to calling
  /// DecisionValue in a loop at every worker count.
  std::vector<double> DecisionValues(
      const std::vector<std::vector<double>>& points,
      int num_threads = 1) const;

  /// The data distribution test: true iff f(x) >= 0.
  bool Accepts(const std::vector<double>& x) const;

  /// The same acceptance rule applied to an already-computed decision
  /// value.
  bool Accepts(double decision_value) const { return decision_value >= 0.0; }

  double rho() const { return rho_; }
  const OneClassSvmStats& stats() const { return stats_; }
  const Kernel& kernel() const { return kernel_; }
  int num_support_vectors() const {
    return static_cast<int>(support_vectors_.size());
  }

 private:
  OneClassSvm() = default;

  std::vector<double> Standardized(const std::vector<double>& x) const;

  Kernel kernel_;
  double rho_ = 0.0;
  std::vector<std::vector<double>> support_vectors_;  // standardized space
  std::vector<double> alphas_;
  OneClassSvmStats stats_;
  std::vector<double> feature_scale_;
};

}  // namespace chameleon::svm

#endif  // CHAMELEON_SVM_ONE_CLASS_SVM_H_
