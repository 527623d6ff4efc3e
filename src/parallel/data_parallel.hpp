// Data-parallel training over a virtual GPU cluster.
//
// The paper's DDP (Fig. 10) gives each GPU a full parameter replica and
// keeps the replicas bit-identical by stepping every one of them with the
// same averaged gradients.  Here the virtual devices run in turn in one
// process, so identical replicas would only store the same numbers P
// times: the trainer holds ONE model, ONE Adam and ONE step pool.  Each
// alive device runs collate -> zero_grad -> train::train_step (the
// single-device step) on its shard under its own timer; its gradients are
// then added into one sum buffer per parameter in ascending device order.
// The all-reduce scales the sum by 1/P and hands it to the optimizer -- the
// arithmetic NCCL would do, in the same order, so the result is bitwise
// what P replicas would hold.  The per-device compute is *measured*, and
// the comm model's step ledger (parallel::step_timing) prices the simulated
// step as
//     max_d(compute_d) + exposed_allreduce + exposed_h2d.
//
// Fault tolerance (see fault.hpp and docs/virtual_cluster.md):
//   * a FaultPlan can kill devices, slow them down, or degrade the links;
//   * on device failure the trainer recovers *elastically*: the ring
//     shrinks to the survivors, the remaining rows are re-sharded through
//     the sampler, the LR is rescaled per Eq. 14 for the reduced global
//     batch, and the ring re-form + parameter re-broadcast is charged to
//     the step time;
//   * on device join the ring grows back: the unconsumed rows are
//     re-sharded across the enlarged ring, the LR rescales back up
//     (inverse Eq. 14), and the ring re-form plus the full-state broadcast
//     a real joiner would receive (params + both Adam moments) is charged
//     to the step time in its own `join` trace lane;
//   * the non-finite guard shared with train::Trainer skips the poisoned
//     step and halves the LR;
//   * save_checkpoint / resume persist the full training state (weights,
//     Adam moments, LR, alive set) for bit-identical continuation.
#pragma once

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
  bool fit_atom_ref = true;  ///< fit the AtomRef baseline on first epoch
  std::uint64_t seed = 0;
};

struct EpochResult {
  double simulated_seconds = 0.0;  ///< sum of step_s (virtual cluster)
  double measured_seconds = 0.0;   ///< actual wall time on this machine
  double mean_loss = 0.0;          ///< over the steps the guard applied
  std::vector<IterationTiming> iterations;
  index_t skipped_steps = 0;       ///< non-finite guard activations
  std::vector<int> failed_devices; ///< devices lost this epoch
  std::vector<int> joined_devices; ///< devices that rejoined this epoch
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

  /// The one weight set every device trains.
  model::CHGNet& model() { return model_; }
  const model::CHGNet& model() const { return model_; }
  float effective_lr() const { return opt_.lr(); }
  const train::NonFiniteGuard& guard() const { return guard_; }

  /// Always 0: the devices share one weight set, so they cannot diverge.
  /// Kept only for bench/e2e's `replica_divergence` row.
  float replica_divergence() const { return 0.0f; }

  /// Full-state checkpoint: weights, AtomRef, Adam moments, LR, guard
  /// state, the alive set, and `next_epoch` (the epoch a resumed run should
  /// pass to train_epoch).  Atomic write.
  void save_checkpoint(const std::string& path, index_t next_epoch) const;
  /// Restore a checkpoint; returns the stored next_epoch.
  index_t resume(const std::string& path);

  /// Bytes of gradient traffic per all-reduce (= model size in bytes).
  std::uint64_t gradient_bytes() const;

  /// Always-empty replay statistics (see perf::ReplayCacheStub).
  perf::ReplayCacheStub replay_cache(int) const { return {}; }

 private:
  /// Add the model's current gradients (one device's shard) into grad_sum_.
  void accumulate_device_gradients();
  /// grad_sum_ / P into the model's gradients.
  void all_reduce_gradients();
  /// Set the Eq.-14 LR for the current ring size, including guard backoff.
  void rescale_lr();

  DataParallelConfig cfg_;
  /// Simulated-clock cursor for the trace's per-device timeline lanes
  /// (advances by step_s per iteration, monotone across epochs).
  double sim_trace_cursor_s_ = 0.0;
  model::CHGNet model_;
  train::Adam opt_;
  /// Step arena shared by every device's forward/backward (see
  /// train::Trainer::step_pool_).
  alloc::AllocatorPtr step_pool_ = std::make_shared<alloc::PoolAllocator>();
  /// Per-parameter sum of the alive devices' gradients for this iteration.
  std::vector<Tensor> grad_sum_;
  std::vector<int> alive_;  ///< device ids still in the ring, ascending
  train::NonFiniteGuard guard_;
  int num_buckets_ = 1;
};

/// Rough per-shard H2D payload: positions, labels, images, index arrays.
std::uint64_t shard_bytes(const data::Dataset& ds,
                          const std::vector<index_t>& rows);

}  // namespace fastchg::parallel
