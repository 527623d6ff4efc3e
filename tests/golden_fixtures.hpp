// Fixtures shared by the golden kernel-count tests in test_train,
// test_serve_batching and test_parallel: one small model config, a dataset
// whose rows are all the same crystal (so every batch of a given size
// collates to the same topology), and a kernel-launch probe.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "chgnet/model.hpp"
#include "data/dataset.hpp"
#include "perf/counters.hpp"

namespace fastchg::golden {

inline model::ModelConfig golden_config() {
  model::ModelConfig cfg;
  cfg.feat_dim = 12;
  cfg.num_radial = 7;
  cfg.num_angular = 7;
  cfg.num_layers = 2;
  return cfg;
}

/// `n` copies of one generated crystal.
inline data::Dataset identical_rows(index_t n, std::uint64_t seed) {
  data::GeneratorConfig g;
  g.min_atoms = 4;
  g.max_atoms = 6;
  data::Dataset one = data::Dataset::generate(1, seed, g);
  std::vector<data::Crystal> crystals(static_cast<std::size_t>(n),
                                      one[0].crystal);
  return data::Dataset::from_crystals(std::move(crystals));
}

/// kernel_launches added while `step` runs.
template <class F>
std::uint64_t launches_during(F&& step) {
  const std::uint64_t before = perf::counters().snapshot().kernel_launches;
  step();
  return perf::counters().snapshot().kernel_launches - before;
}

}  // namespace fastchg::golden
