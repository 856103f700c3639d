#ifndef CHAMELEON_UTIL_RNG_H_
#define CHAMELEON_UTIL_RNG_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace chameleon::util {

/// The Box-Muller radius of NextGaussian's pair, for u1 in (0, 1).
inline double BoxMullerRadius(double u1) {
  return std::sqrt(-2.0 * std::log(u1));
}

/// The Box-Muller transform of NextGaussian: `*cosine` is the normal it
/// returns and `*sine` the one it caches as the spare. Code that must
/// reproduce NextGaussian's values bit for bit (AddGaussianNoise's exact
/// fallback) calls this same function.
inline void BoxMullerPair(double radius, double u2, double* cosine,
                          double* sine) {
  const double theta = 2.0 * M_PI * u2;
  *cosine = radius * std::cos(theta);
  *sine = radius * std::sin(theta);
}

/// Deterministic pseudo-random generator (xoshiro256**), seeded via
/// splitmix64. Every stochastic component of the library takes an explicit
/// Rng so experiments are reproducible run-to-run.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Uniform 64-bit value.
  uint64_t NextU64();

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform integer in [0, bound). `bound` must be > 0.
  uint64_t NextBounded(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t NextInt(int64_t lo, int64_t hi);

  /// Standard normal via Box-Muller (cached spare).
  double NextGaussian();

  /// Gaussian with the given mean and standard deviation.
  double NextGaussian(double mean, double stddev);

  /// Draws the two uniforms of a new NextGaussian pair as it does: u1
  /// (redrawn while <= 0), then u2. With TakeGaussianSpare,
  /// SetGaussianSpare and BoxMullerPair, a caller can walk NextGaussian's
  /// stream without calling it per value (AddGaussianNoise does).
  void NextGaussianUniforms(double* u1, double* u2) {
    do {
      *u1 = NextDouble();
    } while (*u1 <= 0.0);
    *u2 = NextDouble();
  }

  /// Moves the cached spare normal into `*value`; false when none is
  /// cached.
  bool TakeGaussianSpare(double* value) {
    if (!has_spare_) return false;
    has_spare_ = false;
    *value = spare_;
    return true;
  }

  /// Caches `value` as the normal the next NextGaussian() returns.
  void SetGaussianSpare(double value) {
    spare_ = value;
    has_spare_ = true;
  }

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool NextBernoulli(double p);

  /// Samples an index from an (unnormalized, non-negative) weight vector.
  /// Returns weights.size() if all weights are zero or the vector is empty.
  size_t NextWeighted(const std::vector<double>& weights);

  /// Fisher-Yates shuffle of indices [0, n).
  std::vector<size_t> Permutation(size_t n);

  /// Forks an independent child generator (stable given call order).
  Rng Fork();

 private:
  uint64_t s_[4];
  bool has_spare_ = false;
  double spare_ = 0.0;
};

}  // namespace chameleon::util

#endif  // CHAMELEON_UTIL_RNG_H_
