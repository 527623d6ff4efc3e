#include "data/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/parallel_for.hpp"

namespace fastchg::data {

Dataset Dataset::generate(index_t n, std::uint64_t seed,
                          const GeneratorConfig& gen_cfg,
                          const GraphConfig& graph_cfg,
                          const OracleParams& oracle_params) {
  Rng rng(seed);
  std::vector<Crystal> crystals;
  crystals.reserve(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    crystals.push_back(random_crystal(rng, gen_cfg));
  }
  return from_crystals(std::move(crystals), graph_cfg, oracle_params, true);
}

Dataset Dataset::from_crystals(std::vector<Crystal> crystals,
                               const GraphConfig& graph_cfg,
                               const OracleParams& oracle_params,
                               bool relabel) {
  Dataset ds;
  ds.graph_cfg_ = graph_cfg;
  Oracle oracle(oracle_params);
  ds.samples_.resize(crystals.size());
  for (std::size_t i = 0; i < crystals.size(); ++i) {
    if (relabel) oracle.label(crystals[i]);
    ds.samples_[i].crystal = std::move(crystals[i]);
  }
  // Each graph depends only on its own crystal: build them in parallel,
  // each into its own slot.
  parallel_for(0, ds.size(), /*grain=*/1, [&ds, &graph_cfg](index_t lo,
                                                          index_t hi) {
    for (index_t i = lo; i < hi; ++i) {
      Sample& s = ds.samples_[static_cast<std::size_t>(i)];
      s.graph = build_graph(s.crystal, graph_cfg);
    }
  });
  return ds;
}

Dataset::Split Dataset::split(double val_frac, double test_frac,
                              std::uint64_t seed) const {
  std::vector<index_t> idx(static_cast<std::size_t>(size()));
  std::iota(idx.begin(), idx.end(), 0);
  Rng rng(seed);
  rng.shuffle(idx);
  const auto n = static_cast<std::size_t>(size());
  const auto n_val = static_cast<std::size_t>(std::floor(val_frac * n));
  const auto n_test = static_cast<std::size_t>(std::floor(test_frac * n));
  Split s;
  s.val.assign(idx.begin(), idx.begin() + n_val);
  s.test.assign(idx.begin() + n_val, idx.begin() + n_val + n_test);
  s.train.assign(idx.begin() + n_val + n_test, idx.end());
  return s;
}

namespace {
Dataset::Histogram make_hist(const std::vector<index_t>& values,
                             index_t num_bins) {
  Dataset::Histogram h;
  if (values.empty()) return h;
  const index_t max_v = *std::max_element(values.begin(), values.end());
  const double width = std::max<double>(1.0, static_cast<double>(max_v) /
                                                 static_cast<double>(num_bins));
  h.edges.resize(static_cast<std::size_t>(num_bins));
  h.counts.assign(static_cast<std::size_t>(num_bins), 0);
  for (std::size_t b = 0; b < h.edges.size(); ++b) {
    h.edges[b] = width * static_cast<double>(b + 1);
  }
  for (index_t v : values) {
    auto b = static_cast<std::size_t>(static_cast<double>(v) / width);
    if (b >= h.counts.size()) b = h.counts.size() - 1;
    h.counts[b]++;
  }
  return h;
}
}  // namespace

Dataset::DistributionStats Dataset::distribution(index_t num_bins) const {
  std::vector<index_t> atoms, bonds, angles;
  for (const Sample& s : samples_) {
    atoms.push_back(s.graph.num_atoms);
    bonds.push_back(s.graph.num_edges());
    angles.push_back(s.graph.num_angles());
  }
  DistributionStats st;
  st.atoms = make_hist(atoms, num_bins);
  st.bonds = make_hist(bonds, num_bins);
  st.angles = make_hist(angles, num_bins);
  auto mean = [](const std::vector<index_t>& v) {
    if (v.empty()) return 0.0;
    return static_cast<double>(std::accumulate(v.begin(), v.end(),
                                               index_t{0})) /
           static_cast<double>(v.size());
  };
  auto maxv = [](const std::vector<index_t>& v) -> index_t {
    return v.empty() ? 0 : *std::max_element(v.begin(), v.end());
  };
  st.mean_atoms = mean(atoms);
  st.mean_bonds = mean(bonds);
  st.mean_angles = mean(angles);
  st.max_atoms = maxv(atoms);
  st.max_bonds = maxv(bonds);
  st.max_angles = maxv(angles);
  return st;
}

}  // namespace fastchg::data
