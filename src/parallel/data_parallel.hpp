// Data-parallel training over a virtual GPU cluster.
//
// Each virtual device holds a full parameter replica (exactly like DDP).
// Devices execute their shard sequentially on this machine; the per-device
// compute is *measured*, the gradient all-reduce is performed for real
// (tensor averaging across replicas) while its wall time comes from the
// ring cost model, and the simulated step time is
//     max_d(compute_d) + exposed_allreduce + exposed_h2d.
// The optimizer then steps every replica with identical averaged gradients,
// keeping all replicas bit-identical (asserted in tests), which is the DDP
// invariant.
//
// Fault tolerance (see fault.hpp and docs/virtual_cluster.md):
//   * a FaultPlan can kill devices, slow them down, or degrade the links;
//   * on device failure the trainer recovers *elastically*: the ring
//     shrinks to the survivors, the remaining rows are re-sharded through
//     the sampler, the LR is rescaled per Eq. 14 for the reduced global
//     batch, and the ring re-form + parameter re-broadcast is charged to
//     the step time;
//   * on device join the ring grows back: the lead replica streams its full
//     state (params + Adam moments + AtomRef) to the joiner through a
//     fixed-size staging buffer (train::StateStreamer, so a join never
//     spikes bytes_peak), the unconsumed rows are re-sharded across the
//     enlarged ring, the LR rescales back up (inverse Eq. 14), and the
//     broadcast + ring re-form is charged to the step time in its own
//     `join` trace lane;
//   * a non-finite loss/gradient guard skips the poisoned step (replicas
//     skip together, preserving the DDP invariant) and backs off the LR;
//   * a divergence watchdog re-broadcasts from the lead replica if the
//     bit-identity invariant is ever violated;
//   * save_checkpoint / resume persist the full training state (weights,
//     Adam moments, LR, alive set) for bit-identical continuation.
#pragma once

#include <memory>
#include <vector>

#include "parallel/bucketing.hpp"
#include "parallel/comm_model.hpp"
#include "parallel/fault.hpp"
#include "parallel/sampler.hpp"
#include "train/trainer.hpp"

namespace fastchg::parallel {

struct DataParallelConfig {
  int num_devices = 4;
  index_t global_batch = 32;
  bool load_balance = true;   ///< Fig. 4 sampler vs default sharding
  bool overlap_comm = true;   ///< bucketed all-reduce overlap
  bool prefetch = true;       ///< H2D double buffering
  CommConfig comm;
  float base_lr = 3e-4f;
  bool scale_lr = true;       ///< Eq. 14 on the *global* batch
  index_t lr_k = 128;
  train::LossWeights weights;
  float huber_delta = 0.1f;
  bool fit_atom_ref = true;  ///< fit the AtomRef baseline on first epoch
  std::uint64_t seed = 0;
  /// Skip optimizer steps whose loss or averaged gradient is non-finite
  /// and multiply the LR by `lr_backoff` (replicas skip together).
  bool guard_nonfinite = true;
  float lr_backoff = 0.5f;
  /// Replica-divergence watchdog: every N iterations compare the replicas
  /// elementwise and re-broadcast from the lead replica when the worst
  /// difference exceeds `divergence_tolerance`.  0 = off (the invariant is
  /// already asserted in tests; the watchdog is for belt-and-braces runs).
  index_t divergence_check_every = 0;
  float divergence_tolerance = 0.0f;
};

struct IterationTiming {
  std::vector<double> device_compute_s;  ///< measured per *alive* device
  double max_compute_s = 0.0;
  double comm_s = 0.0;          ///< raw all-reduce time (model)
  double exposed_comm_s = 0.0;  ///< after overlap
  double h2d_s = 0.0;
  double exposed_h2d_s = 0.0;
  double recovery_s = 0.0;      ///< ring re-form + re-broadcast charged here
  double join_s = 0.0;          ///< join re-form + state broadcast charged here
  double step_s = 0.0;          ///< simulated wall time of the step
  int num_alive = 0;            ///< ring size during this iteration
};

struct EpochResult {
  double simulated_seconds = 0.0;  ///< sum of step_s (virtual cluster)
  double measured_seconds = 0.0;   ///< actual wall time on this machine
  double mean_loss = 0.0;
  std::vector<IterationTiming> iterations;
  index_t skipped_steps = 0;       ///< non-finite guard activations
  std::vector<int> failed_devices; ///< devices lost this epoch
  std::vector<int> joined_devices; ///< devices that rejoined this epoch
  index_t rebroadcasts = 0;        ///< divergence-watchdog repairs
  double recovery_seconds = 0.0;   ///< total simulated recovery cost
  double join_seconds = 0.0;       ///< total simulated join cost
};

class DataParallelTrainer {
 public:
  DataParallelTrainer(const model::ModelConfig& mcfg,
                      const DataParallelConfig& cfg,
                      std::uint64_t model_seed = 0);

  /// Train one epoch; `faults` (optional) injects failures / stragglers /
  /// comm degradation / joins at epoch-local iterations.  Devices that fail
  /// stay dead for subsequent epochs unless a join event brings them back.
  EpochResult train_epoch(const data::Dataset& ds,
                          const std::vector<index_t>& rows, index_t epoch,
                          const FaultPlan* faults = nullptr);

  int num_devices() const { return cfg_.num_devices; }
  /// Devices still in the ring (all of them until a failure is injected).
  int num_alive() const { return static_cast<int>(alive_.size()); }
  const std::vector<int>& alive_devices() const { return alive_; }

  const model::CHGNet& replica(int d) const { return *replicas_[d]; }
  /// Mutable replica access (tests use this to inject divergence).
  model::CHGNet& replica(int d) { return *replicas_[d]; }
  /// The lead replica: source of truth for checkpoints and re-broadcasts
  /// (the first surviving device).
  model::CHGNet& master() { return *replicas_[static_cast<std::size_t>(alive_.front())]; }
  float effective_lr() const { return lr_; }
  index_t skipped_steps() const { return skipped_steps_; }

  /// Max elementwise parameter difference across *alive* replicas (DDP
  /// invariant).
  float replica_divergence() const;

  /// Full-state checkpoint of the lead replica: weights, AtomRef, Adam
  /// moments, LR, guard state, the alive set, and `next_epoch` (the epoch
  /// a resumed run should pass to train_epoch).  Atomic write.
  void save_checkpoint(const std::string& path, index_t next_epoch) const;
  /// Restore a checkpoint into all replicas/optimizers; returns the stored
  /// next_epoch.
  index_t resume(const std::string& path);

  /// Bytes of gradient traffic per all-reduce (= model size in bytes).
  std::uint64_t gradient_bytes() const;

  /// DDP-style gradient buckets used by the comm-cost accounting.
  int num_gradient_buckets() const { return num_buckets_; }

  /// Device `d`'s memory pool.  Each virtual device owns one PoolAllocator:
  /// its replica's parameters, per-shard activations and gradients all live
  /// there, so replicas never contend on a shared free list or recycle each
  /// other's blocks (isolation is asserted in tests via
  /// Tensor::source_allocator()).
  const alloc::AllocatorPtr& device_pool(int d) const {
    return device_pools_[static_cast<std::size_t>(d)];
  }

  /// Always-empty replay statistics (see perf::ReplayCacheStub).
  perf::ReplayCacheStub replay_cache(int) const { return {}; }

 private:
  void all_reduce_gradients();
  /// Copy the lead replica's parameters over every other survivor.
  void broadcast_from_master();
  /// Eq. 14 LR for the current ring size, including guard backoff.
  float elastic_lr() const;
  /// Simulated cost of shrinking the ring and re-syncing parameters.
  double recovery_cost_seconds() const;
  /// Simulated cost of re-forming the enlarged ring plus streaming
  /// `state_bytes` of full replica state lead -> joiner(s).
  double join_cost_seconds(std::uint64_t state_bytes) const;

  DataParallelConfig cfg_;
  /// Simulated-clock cursor for the trace's per-device timeline lanes
  /// (advances by step_s per iteration, monotone across epochs).
  double sim_trace_cursor_s_ = 0.0;
  std::vector<std::unique_ptr<model::CHGNet>> replicas_;
  std::vector<std::unique_ptr<train::Adam>> opts_;
  std::vector<alloc::AllocatorPtr> device_pools_;  ///< one pool per device
  std::vector<int> alive_;  ///< device ids still in the ring, ascending
  float lr_;
  float backoff_scale_ = 1.0f;
  index_t skipped_steps_ = 0;
  int num_buckets_ = 1;
};

/// Rough per-shard H2D payload: positions, labels, images, index arrays.
std::uint64_t shard_bytes(const data::Dataset& ds,
                          const std::vector<index_t>& rows);

}  // namespace fastchg::parallel
