// Deterministic random number utilities.  Every stochastic component
// (dataset generation, weight init, samplers) takes an explicit Rng so runs
// are reproducible and tests can pin seeds.
#pragma once

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "core/tensor.hpp"

namespace fastchg {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eedULL) : engine_(seed) {}

  double uniform(double lo = 0.0, double hi = 1.0);
  double normal(double mean = 0.0, double stddev = 1.0);
  /// Integer in [lo, hi] inclusive.
  index_t randint(index_t lo, index_t hi);
  /// Sample from a discrete distribution given (unnormalized) weights.
  std::size_t categorical(const std::vector<double>& weights);
  /// In-place Fisher-Yates shuffle.
  template <class T>
  void shuffle(std::vector<T>& v) {
    std::shuffle(v.begin(), v.end(), engine_);
  }

  void fill_uniform(Tensor& t, float lo, float hi);
  void fill_normal(Tensor& t, float mean, float stddev);

 private:
  std::mt19937_64 engine_;
};

}  // namespace fastchg
