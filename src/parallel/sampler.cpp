#include "parallel/sampler.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/error.hpp"
#include "core/rng.hpp"

namespace fastchg::parallel {

std::vector<index_t> sample_workloads(const data::Dataset& ds) {
  std::vector<index_t> w(static_cast<std::size_t>(ds.size()));
  for (index_t i = 0; i < ds.size(); ++i) {
    w[static_cast<std::size_t>(i)] = ds[i].graph.feature_number();
  }
  return w;
}

namespace {

/// Shuffled copy of `rows` chopped into global batches; the ragged final
/// batch is dropped.
std::vector<std::vector<index_t>> global_batches(
    const std::vector<index_t>& rows, const SamplerConfig& cfg) {
  FASTCHG_CHECK(cfg.num_devices > 0, "sampler: num_devices");
  FASTCHG_CHECK(cfg.global_batch > 0,
                "sampler: global batch " << cfg.global_batch
                                         << " is not positive");
  FASTCHG_CHECK(cfg.global_batch % cfg.num_devices == 0,
                "sampler: global batch " << cfg.global_batch
                                         << " not divisible by "
                                         << cfg.num_devices << " devices");
  std::vector<index_t> order = rows;
  Rng rng(cfg.seed);
  rng.shuffle(order);
  std::vector<std::vector<index_t>> batches;
  const std::size_t gb = static_cast<std::size_t>(cfg.global_batch);
  for (std::size_t lo = 0; lo + gb <= order.size(); lo += gb) {
    batches.emplace_back(order.begin() + lo, order.begin() + lo + gb);
  }
  return batches;
}

}  // namespace

ShardPlan default_sharding(const std::vector<index_t>& rows,
                           const std::vector<index_t>& workloads,
                           const SamplerConfig& cfg) {
  (void)workloads;  // the default sampler is workload-oblivious
  ShardPlan plan;
  for (auto& batch : global_batches(rows, cfg)) {
    const std::size_t per_dev = batch.size() / static_cast<std::size_t>(cfg.num_devices);
    std::vector<std::vector<index_t>> devs(
        static_cast<std::size_t>(cfg.num_devices));
    for (std::size_t d = 0; d < devs.size(); ++d) {
      devs[d].assign(batch.begin() + static_cast<std::ptrdiff_t>(d * per_dev),
                     batch.begin() +
                         static_cast<std::ptrdiff_t>((d + 1) * per_dev));
    }
    plan.iterations.push_back(std::move(devs));
  }
  return plan;
}

ShardPlan load_balance_sharding(const std::vector<index_t>& rows,
                                const std::vector<index_t>& workloads,
                                const SamplerConfig& cfg) {
  ShardPlan plan;
  for (auto& batch : global_batches(rows, cfg)) {
    // Sort this global batch by workload ascending (paper Fig. 4).
    std::sort(batch.begin(), batch.end(), [&](index_t a, index_t b) {
      return workloads[static_cast<std::size_t>(a)] <
             workloads[static_cast<std::size_t>(b)];
    });
    std::vector<std::vector<index_t>> devs(
        static_cast<std::size_t>(cfg.num_devices));
    std::size_t lo = 0, hi = batch.size();
    std::size_t d = 0;
    // Each device takes the smallest and the largest remaining in turn.
    while (lo < hi) {
      devs[d].push_back(batch[lo++]);
      if (lo < hi) devs[d].push_back(batch[--hi]);
      d = (d + 1) % devs.size();
    }
    plan.iterations.push_back(std::move(devs));
  }
  return plan;
}

BalanceStats analyze_plan(const ShardPlan& plan,
                          const std::vector<index_t>& workloads) {
  BalanceStats st;
  st.min_load = std::numeric_limits<index_t>::max();
  double cov_sum = 0.0;
  for (const auto& devs : plan.iterations) {
    std::vector<index_t> loads;
    loads.reserve(devs.size());
    for (const auto& shard : devs) {
      index_t load = 0;
      for (index_t row : shard) {
        load += workloads[static_cast<std::size_t>(row)];
      }
      loads.push_back(load);
      st.min_load = std::min(st.min_load, load);
      st.max_load = std::max(st.max_load, load);
    }
    const double mean =
        static_cast<double>(std::accumulate(loads.begin(), loads.end(),
                                            index_t{0})) /
        static_cast<double>(loads.size());
    double var = 0.0;
    for (index_t l : loads) {
      const double d = static_cast<double>(l) - mean;
      var += d * d;
    }
    var /= static_cast<double>(loads.size());
    if (mean > 0.0) cov_sum += std::sqrt(var) / mean;
    st.per_device_load.push_back(std::move(loads));
  }
  if (!plan.iterations.empty()) {
    st.mean_cov = cov_sum / static_cast<double>(plan.iterations.size());
  }
  if (st.per_device_load.empty()) st.min_load = 0;
  return st;
}

}  // namespace fastchg::parallel
