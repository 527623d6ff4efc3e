// Strong / weak scaling harness (paper Fig. 10) over the virtual cluster.
//
// The paper's scaling experiments use a global batch of 2048 (strong) and
// 512 per GPU (weak) -- workloads far beyond what one CPU core can execute
// per measurement point.  Instead each cluster configuration is simulated:
// per-device compute is a linear CostModel over the exact shard assignment
// the sampler produces, and the step ledger (step_timing) adds the ring
// all-reduce and H2D costs.  The Fig. 10 bench prices a sample by the
// sampler's own workload measure (atoms + bonds + angles, one shared
// coefficient, no fixed term) scaled so one 4-device 2048-sample iteration
// costs an A100-equivalent 1.25 s: that fixes the compute/communication
// ratio -- the quantity that determines scaling efficiency -- at the
// paper's hardware, and makes the output a pure function of the dataset,
// the sampler, the ledger and CommConfig.
#pragma once

#include <vector>

#include "parallel/data_parallel.hpp"

namespace fastchg::parallel {

struct CostModel {
  double fixed = 0.0;      ///< s per iteration (launch/driver overhead)
  double per_atom = 0.0;   ///< s per atom
  double per_bond = 0.0;   ///< s per bond
  double per_angle = 0.0;  ///< s per angle

  double predict(index_t atoms, index_t bonds, index_t angles) const;
  /// Total predicted compute for a shard of dataset rows.
  double shard_seconds(const data::Dataset& ds,
                       const std::vector<index_t>& rows) const;
};

struct ScalingConfig {
  std::vector<int> device_counts{4, 8, 16, 32};
  index_t strong_global_batch = 2048;   ///< paper Fig. 10(a)
  index_t weak_per_device_batch = 512;  ///< paper Fig. 10(b)
  bool load_balance = true;
  bool overlap_comm = true;
  CommConfig comm;
  /// Per-device, per-iteration multiplicative compute jitter (sigma of a
  /// N(1, sigma) factor).  Real clusters show kernel-timing / dataloader
  /// variation that makes the max-over-devices grow ~ sigma*sqrt(2 ln P);
  /// the paper attributes its 16->32-GPU efficiency drop to exactly this
  /// class of synchronization overhead.  Set 0 for the idealized model.
  double straggler_sigma = 0.08;
  std::uint64_t seed = 0;
};

struct ScalingPoint {
  int devices = 0;
  double epoch_seconds = 0.0;     ///< simulated
  double iter_seconds = 0.0;      ///< simulated mean per-iteration
  double comm_fraction = 0.0;     ///< exposed comm / step time
  double speedup = 1.0;           ///< vs the smallest device count
  double efficiency = 1.0;        ///< speedup / (P / P0)
  /// Load-balance sampler quality: coefficient of variation (std/mean) of
  /// per-device compute within an iteration, averaged over the epoch.  The
  /// synchronized step pays the max, so CoV is the imbalance tax.
  double load_cov = 0.0;
  /// Per-iteration comm-model breakdown at this ring size (raw, pre-overlap).
  double comm_bandwidth_s = 0.0;  ///< overlappable all-reduce bandwidth term
  double comm_latency_s = 0.0;    ///< exposed per-bucket ring latency term
  /// Two-level-schedule phase decomposition (zero for flat / single node).
  double reduce_scatter_s = 0.0;
  double leader_ring_s = 0.0;
  double broadcast_s = 0.0;
};

/// Fixed global batch, devices swept (Fig. 10a).
std::vector<ScalingPoint> strong_scaling(const CostModel& cost,
                                         const data::Dataset& ds,
                                         std::uint64_t model_bytes,
                                         const ScalingConfig& cfg);

/// Fixed per-device batch; efficiency measured on per-iteration time
/// (Fig. 10b).
std::vector<ScalingPoint> weak_scaling(const CostModel& cost,
                                       const data::Dataset& ds,
                                       std::uint64_t model_bytes,
                                       const ScalingConfig& cfg);

}  // namespace fastchg::parallel
