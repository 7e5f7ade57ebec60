// Deterministic pseudo-random number generation (xoshiro256**).
//
// All stochastic components of the library (dataset generators, error
// injection, weight initialization, batch sampling) draw from an Rng seeded
// explicitly, so every experiment is reproducible bit-for-bit.

#ifndef DQUAG_UTIL_RNG_H_
#define DQUAG_UTIL_RNG_H_

#include <cstdint>
#include <vector>

#include "util/check.h"

namespace dquag {

/// xoshiro256** generator with convenience distributions.
class Rng {
 public:
  /// Seeds the four 64-bit lanes from `seed` via splitmix64.
  explicit Rng(uint64_t seed = 42);

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Standard normal via Box-Muller.
  double Normal();

  /// Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  /// True with probability p.
  bool Bernoulli(double p);

  /// Samples an index in [0, weights.size()) proportionally to weights.
  /// Weights must be non-negative with a positive sum.
  size_t Categorical(const std::vector<double>& weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    if (items.empty()) return;
    for (size_t i = items.size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i)));
      std::swap(items[i], items[j]);
    }
  }

  /// Samples `k` distinct indices from [0, n) without replacement.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

 private:
  uint64_t state_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace dquag

#endif  // DQUAG_UTIL_RNG_H_
