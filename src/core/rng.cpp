#include "core/rng.hpp"

#include <algorithm>

namespace fastchg {

double Rng::uniform(double lo, double hi) {
  std::uniform_real_distribution<double> d(lo, hi);
  return d(engine_);
}

double Rng::normal(double mean, double stddev) {
  std::normal_distribution<double> d(mean, stddev);
  return d(engine_);
}

index_t Rng::randint(index_t lo, index_t hi) {
  std::uniform_int_distribution<index_t> d(lo, hi);
  return d(engine_);
}

std::size_t Rng::categorical(const std::vector<double>& weights) {
  std::discrete_distribution<std::size_t> d(weights.begin(), weights.end());
  return d(engine_);
}

void Rng::fill_uniform(Tensor& t, float lo, float hi) {
  std::uniform_real_distribution<float> d(lo, hi);
  float* p = t.data();
  for (index_t i = 0; i < t.numel(); ++i) p[i] = d(engine_);
}

void Rng::fill_normal(Tensor& t, float mean, float stddev) {
  std::normal_distribution<float> d(mean, stddev);
  float* p = t.data();
  for (index_t i = 0; i < t.numel(); ++i) p[i] = d(engine_);
}

}  // namespace fastchg
