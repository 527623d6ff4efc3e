// Strong / weak scaling harness (paper Fig. 10) over the virtual cluster.
//
// The paper's scaling experiments use a global batch of 2048 (strong) and
// 512 per GPU (weak) -- workloads far beyond what one CPU core can execute
// per measurement point.  Instead we (1) *calibrate* a linear per-sample
// cost model  t = fixed + a*atoms + b*bonds + g*angles  from real measured
// iterations of the actual model on this machine, then (2) simulate each
// cluster configuration: per-device compute from the calibrated model over
// the exact shard assignment the sampler produces, plus the ring all-reduce
// cost model.  `compute_scale` rescales substrate throughput to
// A100-equivalent so the compute/communication ratio -- the quantity that
// determines scaling efficiency -- matches the paper's hardware.
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

/// One timed step: the batch's totals and its measured wall time.
struct CostSample {
  index_t atoms = 0;
  index_t bonds = 0;
  index_t angles = 0;
  double seconds = 0.0;
};

/// Least-squares fit of the cost model to timed steps, coefficients clamped
/// at 0.  When timing noise leaves no positive size term, the fit falls back
/// to t = per_atom * atoms through the origin, so the model never ignores the
/// workload it is asked to price.
CostModel fit_cost_model(const std::vector<CostSample>& samples);

/// Fit the cost model (fit_cost_model) by timing train::train_step (forward,
/// loss, backward, graph teardown) of `net` on randomly drawn batches of the
/// given sizes.
CostModel calibrate_cost_model(const model::CHGNet& net,
                               const data::Dataset& ds,
                               const std::vector<index_t>& batch_sizes,
                               int reps_per_size, std::uint64_t seed);

struct ScalingConfig {
  std::vector<int> device_counts{4, 8, 16, 32};
  index_t strong_global_batch = 2048;   ///< paper Fig. 10(a)
  index_t weak_per_device_batch = 512;  ///< paper Fig. 10(b)
  bool load_balance = true;
  bool overlap_comm = true;
  CommConfig comm;
  /// Substrate -> A100 throughput rescaling applied to calibrated compute.
  double compute_scale = 1.0;
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
