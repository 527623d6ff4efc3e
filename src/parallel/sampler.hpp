// Batch sharding across (virtual) GPUs.
//
// DefaultSampler: shuffle, chunk into global batches, deal contiguous shards
// -- the baseline whose per-device workload spread is the gray band of
// Fig. 9 (CoV 0.186 in the paper).
//
// LoadBalanceSampler (paper Fig. 4): per global batch, sort samples by
// workload (atoms + bonds + angles) ascending, then each device in turn
// takes the smallest and the largest remaining sample until none remain.
// This pairs heavy samples with light ones and drops the CoV several-fold
// (0.064 in the paper).
#pragma once

#include <vector>

#include "data/dataset.hpp"

namespace fastchg::parallel {

struct SamplerConfig {
  int num_devices = 4;
  index_t global_batch = 32;  ///< total samples per iteration
  std::uint64_t seed = 0;
};

/// iterations[i][d] = dataset rows assigned to device d at iteration i.
struct ShardPlan {
  std::vector<std::vector<std::vector<index_t>>> iterations;
  index_t num_iterations() const {
    return static_cast<index_t>(iterations.size());
  }
};

/// Per-sample workload measure used for balancing (paper's feature number).
std::vector<index_t> sample_workloads(const data::Dataset& ds);

ShardPlan default_sharding(const std::vector<index_t>& rows,
                           const std::vector<index_t>& workloads,
                           const SamplerConfig& cfg);

ShardPlan load_balance_sharding(const std::vector<index_t>& rows,
                                const std::vector<index_t>& workloads,
                                const SamplerConfig& cfg);

/// Workload statistics of a plan (Fig. 9's curves and CoV criterion).
struct BalanceStats {
  /// per_device_load[i][d] = total feature number on device d at iter i.
  std::vector<std::vector<index_t>> per_device_load;
  double mean_cov = 0.0;  ///< mean over iterations of stddev/mean across devices
  index_t min_load = 0;
  index_t max_load = 0;
};

BalanceStats analyze_plan(const ShardPlan& plan,
                          const std::vector<index_t>& workloads);

}  // namespace fastchg::parallel
